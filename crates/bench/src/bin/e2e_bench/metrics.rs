//! The metric tables — names, units, directions, bounds — and the result
//! line. `BENCHMARK.json` at the repository root is generated from them
//! (`--manifest`); `--check` fails if the two disagree.

use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Client-side, tracing off, reported by every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_s_total",
        unit: "simsec",
        higher_is_better: false,
        bound: 0.001,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// A count that repeats bit-exactly between same-seed traced runs.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        exact: true,
        ..timed(name, unit)
    }
}

impl Layer {
    /// Rates, hit ratios and speed-ups: more is better.
    const fn up(self) -> Layer {
        Layer {
            higher_is_better: true,
            ..self
        }
    }
}

/// From the `--trace 1` run. Layer = crate name.
pub const PER_LAYER: &[Layer] = &[
    timed("sql.compile_us_p50", "us"),
    timed("sql.compile_us_p95", "us"),
    exact("sql.text_bytes_avg", "bytes"),
    timed("dxl.query_ser_us_p50", "us"),
    timed("dxl.query_de_us_p50", "us"),
    timed("dxl.plan_ser_us_p50", "us"),
    timed("dxl.plan_de_us_p50", "us"),
    exact("dxl.query_bytes_avg", "bytes"),
    exact("dxl.plan_bytes_avg", "bytes"),
    timed("core.optimize_ms_p50", "ms"),
    timed("core.optimize_ms_p95", "ms"),
    timed("core.explore_share", "ratio"),
    timed("core.implement_share", "ratio"),
    timed("core.optimize_phase_share", "ratio"),
    timed("core.other_share", "ratio"),
    exact("core.groups_avg", "count"),
    exact("core.group_exprs_avg", "count"),
    timed("core.jobs_avg", "count"),
    timed("core.job_steps_avg", "count"),
    timed("core.goal_hit_rate", "ratio").up(),
    timed("core.sel_cache_hit_rate", "ratio").up(),
    timed("core.dedup_hits_avg", "count").up(),
    timed("core.contexts_pruned_avg", "count").up(),
    timed("core.groups_merged_avg", "count"),
    timed("core.intern_hits_avg", "count").up(),
    timed("core.memo_bytes_avg", "bytes"),
    exact("core.metadata_bytes", "bytes"),
    exact("core.plan_cost_total", "cost"),
    timed("core.served_cost_ratio", "ratio"),
    timed("core.parallel_speedup", "ratio").up(),
    timed("service.self_us_p50", "us"),
    timed("service.tcp_overhead_us_p50", "us"),
    timed("service.time_to_plan_ms_p50", "ms"),
    timed("service.first_rows_ms_p50", "ms"),
    timed("service.latency_p99_ms", "ms"),
    exact("service.plan_cache_hit_rate", "ratio").up(),
    timed("service.plan_cache_evictions", "count"),
    timed("service.plan_cache_bytes", "bytes"),
    exact("service.coalesced", "count").up(),
    timed("service.queued", "count"),
    exact("service.rejected", "count"),
    exact("service.degraded", "count"),
    exact("service.fallbacks", "count"),
    exact("service.mem_queued", "count"),
    exact("service.mem_degraded_grants", "count"),
    timed("service.mem_peak_bytes", "bytes"),
    timed("service.fragments_reused", "count").up(),
    timed("service.fragment_evictions", "count"),
    timed("service.fragment_bytes", "bytes"),
    timed("service.net_frames_tx", "count"),
    timed("service.net_bytes_tx", "bytes"),
    timed("service.net_bytes_per_row", "bytes"),
    timed("service.net_streamed_share", "ratio").up(),
    timed("service.rows_per_s", "1/s").up(),
    timed("executor.run_ms_p50", "ms"),
    timed("executor.run_ms_p95", "ms"),
    timed("executor.slice_plan_us_p50", "us"),
    exact("executor.rows_processed", "count"),
    timed("executor.rows_per_s", "1/s").up(),
    exact("executor.bytes_moved", "bytes"),
    exact("executor.sim_s_total", "simsec"),
    timed("executor.op.TableScan_ms", "ms"),
    timed("executor.op.Filter_ms", "ms"),
    timed("executor.op.Project_ms", "ms"),
    timed("executor.op.HashJoin_ms", "ms"),
    timed("executor.op.HashAgg_ms", "ms"),
    timed("executor.op.Sort_ms", "ms"),
    timed("executor.op.Limit_ms", "ms"),
    timed("executor.op.Motion_Redistribute_ms", "ms"),
    timed("executor.op.Motion_Gather_ms", "ms"),
    timed("executor.op.Motion_GatherMerge_ms", "ms"),
    timed("executor.op.Motion_Broadcast_ms", "ms"),
    timed("executor.op.other_ms", "ms"),
    exact("executor.chunks_skipped", "count").up(),
    exact("executor.dict_hits", "count").up(),
    timed("executor.scan_bytes_cloned", "bytes"),
    exact("executor.spills", "count"),
    exact("executor.spill_partitions", "count"),
    exact("executor.spill_bytes_written", "bytes"),
    exact("executor.spill_bytes_read", "bytes"),
    exact("executor.peak_mem_bytes", "bytes"),
    timed("executor.spill_slowdown", "ratio"),
    timed("executor.cursor.first_batch_ms_p50", "ms"),
    exact("executor.parallel.slices_avg", "count"),
    exact("executor.parallel.motion_rows", "count"),
    exact("executor.parallel.motion_bytes", "bytes"),
    timed("executor.parallel.peak_queue_depth", "count"),
    timed("executor.parallel.batches_reused", "count").up(),
    exact("executor.parallel.cte_spools", "count"),
    exact("executor.parallel.serial_fallbacks", "count"),
    timed("executor.parallel.speedup_vs_serial", "ratio").up(),
    timed("executor.net.frames_tx", "count"),
    timed("executor.net.bytes_tx", "bytes"),
    exact("executor.net.remote_edges", "count"),
    timed("executor.net.open_rtt_max_ms", "ms"),
    timed("executor.net.reconnects", "count"),
    timed("executor.net.slowdown_vs_inproc", "ratio"),
    timed("tpcds.datagen_s", "s"),
    exact("tpcds.rows_loaded", "count"),
    timed("trace.unattributed_share", "ratio"),
    timed("trace.overhead_share", "ratio"),
];

/// What the driver runs, relative to the repository root.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/e2e_bench/Cargo.toml",
    "--",
];
const PATH: &str = "crates/bench/src/bin/e2e_bench";
pub const RUN_SECONDS: u32 = 10;

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`, from the tables above and the workload
/// specs: `e2e_bench --manifest > BENCHMARK.json`. `--check` compares the
/// file with this.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads = crate::gen::SPECS
        .iter()
        .map(|s| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"{PATH}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// Values by metric name. A metric that does not apply to a workload, or a
/// percentile refused for lack of samples, is simply absent: it prints as
/// `n/a` and goes into the result line as 0.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }
}

/// The outcome of one run: what the last line of standard output says.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl RunResult {
    /// `workload metric value unit` lines for `table`, in table order.
    pub fn lines(&self, workload: &str, table: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in table {
            let value = match self.values.0.get(name) {
                Some(v) => number(*v),
                None => "n/a".into(),
            };
            out.push_str(&format!("{workload} {name} {value} {unit}\n"));
        }
        out
    }

    /// One JSON object with exactly `correct`, `attempted`, `failed` and
    /// `metrics`; `metrics` holds exactly the metrics of `table`.
    pub fn json(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.values.0.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// Pull `"name": {"value": <number>` pairs back out of a result line.
/// Only what [`RunResult::json`] writes needs to parse.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(rest[..rest.find([',', '}'])?].trim())
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for part in body.split("\"unit\"") {
        let Some(vpos) = part.find("{\"value\": ") else {
            continue;
        };
        let head = &part[..vpos];
        let name_end = head.rfind("\": ")?;
        let name_start = head[..name_end].rfind('"')? + 1;
        let value = part[vpos + 10..].trim_end_matches([',', ' ']);
        metrics.insert(head[name_start..name_end].to_string(), value.parse().ok()?);
    }
    Some((correct, attempted, failed, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn result_line_round_trips() {
        let mut values = Values::default();
        values.set("setup_s", 1.25);
        values.set("latency_p50_ms", 0.000125);
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 1,
            values,
        };
        let (correct, attempted, failed, metrics) =
            parse_result(&r.json(&end_to_end_table())).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (12, 1));
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["setup_s"], 1.25);
        assert_eq!(metrics["latency_p50_ms"], 0.000125);
        assert_eq!(metrics["sim_s_total"], 0.0);
    }
}
