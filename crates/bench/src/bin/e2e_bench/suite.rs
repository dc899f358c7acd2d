//! `--all` and `--check`: every workload, each run in a process of its own
//! (so `peak_rss_mb` is per workload), driven by re-executing this binary.

use crate::gen::{Corpus, Spec, SPECS};
use crate::harness::{err, reference_check, reference_queries, Res, REFERENCE_SCALE_FULL};
use crate::metrics::{manifest, parse_result, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child run: its `#` comment lines and its parsed result line.
struct Run {
    comments: Vec<String>,
    refused: Vec<String>,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    json: String,
}

impl Run {
    fn digest(&self) -> Option<&str> {
        self.comments
            .iter()
            .find_map(|l| l.strip_prefix("# gen_digest "))
    }
}

/// Run one workload in a child process, echoing what it prints.
fn child(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Res<Run> {
    let exe = std::env::current_exe().map_err(err("current_exe"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(err("spawn child run"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        print!("{stdout}");
        return Err(format!(
            "{} (trace {traced}) exited with {}",
            spec.name, out.status
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let json = lines.pop().ok_or("child printed nothing")?.to_string();
    for l in &lines {
        println!("{l}");
    }
    let (correct, _, failed, metrics) =
        parse_result(&json).ok_or(format!("unparseable result line: {json}"))?;
    Ok(Run {
        comments: lines
            .iter()
            .filter(|l| l.starts_with('#'))
            .map(|l| l.to_string())
            .collect(),
        refused: lines
            .iter()
            .filter(|l| l.contains(" n/a ") || l.contains(" refused: "))
            .filter_map(|l| l.split(' ').nth(1))
            .map(str::to_string)
            .collect(),
        correct,
        failed,
        metrics,
        json,
    })
}

/// Every workload, untraced then traced; every metric as a
/// `workload metric value unit` line, then one JSON object keyed by
/// workload as the last line.
pub fn all(args: &Args) -> Res<()> {
    let mut parts = Vec::new();
    for spec in SPECS {
        let untraced = child(spec, args.seed, args.seconds, false)?;
        let traced = child(spec, args.seed, args.seconds, true)?;
        parts.push(format!(
            "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            spec.name, untraced.json, traced.json
        ));
    }
    println!("{{{}}}", parts.join(", "));
    Ok(())
}

/// `--spread N`: every workload untraced under N consecutive seeds, then
/// per end-to-end metric the median and the interquartile range as a share
/// of it — the figure the bounds in `BENCHMARK.json` are sized against.
pub fn spread(args: &Args, runs: u64) -> Res<()> {
    for spec in SPECS {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let run = child(spec, args.seed + i, args.seconds, false)?;
            for m in END_TO_END {
                values.entry(m.name).or_default().push(run.metrics[m.name]);
            }
        }
        for m in END_TO_END {
            let v = &values[m.name];
            let (Some(med), Some((q1, q3))) = (median(v), quartiles(v)) else {
                return Err("--spread needs at least 2 runs".into());
            };
            println!(
                "{} {} median {med} {} spread {:.2} % of bound {:.1} %",
                spec.name,
                m.name,
                m.unit,
                (q3 - q1) / med * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(())
}

/// A failed assertion of `--check`: printed, counted, not fatal, so one
/// run reports everything that is off.
struct Findings(Vec<String>);

impl Findings {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            println!("CHECK FAILED: {what}");
            self.0.push(what);
        }
    }
}

/// `BENCHMARK.json`, if the working directory has one, must be what
/// `--manifest` prints.
fn check_manifest(f: &mut Findings) {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => f.expect(text == manifest(), || {
            "BENCHMARK.json differs from `e2e_bench --manifest`".into()
        }),
        Err(_) => println!("# BENCHMARK.json not in the working directory; not compared"),
    }
}

/// Determinism and self-agreement: every workload twice with `--seed` and
/// once with the next seed, untraced; twice traced. Generator streams must
/// be identical per seed and differ across seeds, nothing may fail or be
/// refused, end-to-end metrics must agree within their bounds, and exact
/// per-layer counts must be bit-equal. Then the whole corpus of every
/// workload is cross-checked against the reference interpreter.
pub fn check(args: &Args) -> Res<bool> {
    let mut f = Findings(Vec::new());
    check_manifest(&mut f);
    for spec in SPECS {
        let a = child(spec, args.seed, args.seconds, false)?;
        let b = child(spec, args.seed, args.seconds, false)?;
        let other = child(spec, args.seed + 1, args.seconds, false)?;
        let name = spec.name;
        f.expect(a.digest().is_some() && a.digest() == b.digest(), || {
            format!("{name}: generator streams differ for one seed")
        });
        f.expect(a.digest() != other.digest(), || {
            format!("{name}: generator streams equal across seeds")
        });
        for run in [&a, &b, &other] {
            f.expect(run.correct && run.failed == 0, || {
                format!("{name}: {} failed requests", run.failed)
            });
            f.expect(run.refused.is_empty(), || {
                format!("{name}: too few samples for {:?}", run.refused)
            });
        }
        // Two same-seed runs must agree within each bound. A single run can
        // be thrown by the host for its whole length, so on a disagreement
        // a third run votes: the finding stands only if no two agree.
        let agree = |m: &crate::metrics::EndToEnd, x: &Run, y: &Run| {
            let (x, y) = (x.metrics[m.name], y.metrics[m.name]);
            (x - y).abs() <= m.bound * x.abs().min(y.abs())
        };
        if END_TO_END.iter().any(|m| !agree(m, &a, &b)) {
            let c = child(spec, args.seed, args.seconds, false)?;
            for m in END_TO_END {
                f.expect(
                    agree(m, &a, &b) || agree(m, &a, &c) || agree(m, &b, &c),
                    || {
                        format!(
                            "{name}: {} reads {}, {}, {}: no two within {:.1} %",
                            m.name,
                            a.metrics[m.name],
                            b.metrics[m.name],
                            c.metrics[m.name],
                            m.bound * 100.0
                        )
                    },
                );
            }
        }
        let t1 = child(spec, args.seed, args.seconds, true)?;
        let t2 = child(spec, args.seed, args.seconds, true)?;
        for run in [&t1, &t2] {
            f.expect(run.correct && run.failed == 0, || {
                format!("{name}: {} failed traced requests", run.failed)
            });
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (x, y) = (t1.metrics[m.name], t2.metrics[m.name]);
            f.expect(x.to_bits() == y.to_bits(), || {
                format!("{name}: {} is {x} then {y}", m.name)
            });
        }
    }
    // The three distinct corpora (the 111-suite is shared by five
    // workloads), in full.
    for name in ["plan_cold", "exec_serial", "stream_rows"] {
        let spec = crate::gen::spec(name).expect("named above");
        let all = reference_queries(spec, &Corpus::of(spec));
        let all: Vec<&str> = all.iter().map(String::as_str).collect();
        let n = reference_check(&all, REFERENCE_SCALE_FULL)?;
        println!(
            "# {name}: {n} queries agree with the reference interpreter at scale {REFERENCE_SCALE_FULL}"
        );
    }
    println!(
        "# check: {} finding(s){}",
        f.0.len(),
        if f.0.is_empty() { ", all clear" } else { "" }
    );
    Ok(f.0.is_empty())
}
