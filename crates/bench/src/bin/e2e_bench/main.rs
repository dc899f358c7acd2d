//! `e2e_bench` — the repository's benchmark of record: SQL text in hand →
//! DONE frame read, over a real `ServiceServer`, closed-loop from `nproc`
//! client threads, on seven workloads; plus a `--trace 1` run that records
//! spans around the calls into each crate and prints the per-layer ledger.
//! See `README.md` next to this file for the glossary, the workloads, the
//! layer → end-to-end interaction table and the pinned API list.
//!
//! ```text
//! e2e_bench --workload W [--seed N] [--seconds N] [--trace 0|1]
//! e2e_bench --all   [--seed N] [--seconds N]    every workload, both runs
//! e2e_bench --check [--seed N] [--seconds N]    determinism / self-agreement
//! e2e_bench --spread RUNS [--seed N]             IQR / median per metric
//! e2e_bench --manifest                           the text of BENCHMARK.json
//! ```
//!
//! It measures and reports; it gates nothing. Only harness errors and
//! `--check` failures exit non-zero.

mod cluster;
mod gen;
mod harness;
mod ledger;
mod metrics;
mod stats;
mod suite;
mod trace;

use gen::{Corpus, Kind, Spec};
use harness::{
    expectations, nproc, peak_rss_mb, reference_optimizer, reference_sample_check, timed_phase,
    Checker, Outcome, Res, Stack, SETUP_REPS,
};
use metrics::{end_to_end_table, per_layer_table, RunResult, Values};
use std::path::PathBuf;

/// Requests of each client's stream that go into the generator digest.
const DIGEST_REQUESTS: usize = 500;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
}

/// Spill files (`orca-spill-*.tmp`) go to `std::env::temp_dir()`. Point it
/// at a per-process directory beside the executable, so the benchmark
/// writes only inside its checkout, and remove that directory on every
/// exit path (the guard drops on return and on unwind).
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Res<Scratch> {
        let exe = std::env::current_exe().map_err(harness::err("current_exe"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join("e2e_bench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(harness::err("create scratch dir"))?;
        // Before any thread exists; worker processes inherit it.
        std::env::set_var("TMPDIR", &dir);
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn clients_of(spec: &Spec) -> usize {
    if spec.kind == Kind::ClusterLoopback {
        1
    } else {
        nproc()
    }
}

/// The `--trace 0` run of one workload: end-to-end metrics.
fn run_workload(spec: &'static Spec, args: &Args) -> Res<RunResult> {
    let corpus = Corpus::of(spec);
    let clients = clients_of(spec);
    println!(
        "# gen_digest {} {:016x}",
        spec.name,
        gen::stream_digest(&corpus, args.seed, clients, DIGEST_REQUESTS)
    );
    let mut setups = Vec::new();
    let (outcome, wall_s, sim_s_total, rss_mb) = if spec.kind == Kind::ClusterLoopback {
        let mut gang = cluster::Gang::setup(spec, &corpus)?;
        setups.push(gang.setup_s);
        for _ in 1..SETUP_REPS {
            drop(gang);
            gang = cluster::Gang::setup(spec, &corpus)?;
            setups.push(gang.setup_s);
        }
        let sim = gang.expectations()?;
        let (outcome, wall) = gang.timed_phase(&corpus, args.seed, args.seconds);
        let rss = peak_rss_mb(std::process::id()) + peak_rss_mb(gang.worker_pid());
        (outcome, wall, sim, rss)
    } else {
        let mut stack = Stack::setup(spec, &corpus, args.seed, clients)?;
        setups.push(stack.setup_s);
        for _ in 1..SETUP_REPS {
            stack.teardown();
            stack = Stack::setup(spec, &corpus, args.seed, clients)?;
            setups.push(stack.setup_s);
        }
        // Against the plans *this* service cached: see `Checker::check`.
        let (expected, sim) = expectations(spec, &corpus, &stack)?;
        let optimizer = reference_optimizer(&stack.data);
        let checker = Checker {
            spec,
            data: &stack.data,
            expected: &expected,
            optimizer: &optimizer,
        };
        let (outcome, wall) = timed_phase(
            &mut stack.clients,
            &corpus,
            &checker,
            args.seed,
            args.seconds,
        );
        // The 10 s of two-client load is what overflows the plan cache on
        // `plan_cold`; the traced run is too short to.
        let st = stack.svc.stats();
        println!(
            "# plan_cache {} hits {} misses {} evictions {} bytes {}",
            spec.name, st.cache_hits, st.cache_misses, st.cache_evictions, st.cache_bytes
        );
        stack.teardown();
        (outcome, wall, sim, peak_rss_mb(std::process::id()))
    };
    // After the resident-set reading: the naive interpreter materializes
    // cross products and would otherwise set the process's peak.
    let checked = reference_sample_check(spec, &corpus, args.seed)?;
    println!(
        "# {}: {checked} queries agree with the reference interpreter",
        spec.name
    );
    Ok(end_to_end(outcome, wall_s, &setups, sim_s_total, rss_mb))
}

fn end_to_end(
    outcome: Outcome,
    wall_s: f64,
    setups: &[f64],
    sim_s_total: f64,
    rss_mb: f64,
) -> RunResult {
    if let Some(e) = &outcome.first_error {
        eprintln!(
            "e2e_bench: {} of {} requests failed; first: {e}",
            outcome.failed, outcome.attempted
        );
    }
    let ok = outcome.lat_ms.len() as f64;
    let mut values = Values::default();
    values.set_opt("setup_s", stats::median(setups));
    values.set("throughput_qps", ok / wall_s);
    values.set_opt("latency_p50_ms", stats::median(&outcome.lat_ms));
    // A refused p95 must not read as 0 ("better") in the result line: fall
    // back to the slowest request and say so; `--check` flags the comment.
    let p95 = stats::percentile(&outcome.lat_ms, 95.0).or_else(|| {
        println!(
            "# latency_p95_ms refused: {} samples; reporting the maximum",
            outcome.lat_ms.len()
        );
        outcome.lat_ms.iter().copied().reduce(f64::max)
    });
    values.set_opt("latency_p95_ms", p95);
    values.set("sim_s_total", sim_s_total);
    values.set("peak_rss_mb", rss_mb);
    RunResult {
        correct: outcome.failed == 0 && outcome.attempted > 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        values,
    }
}

fn flag<T: std::str::FromStr>(argv: &[String], name: &str) -> Res<Option<T>> {
    match argv.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => argv
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or(format!("{name} needs a value")),
    }
}

fn run(argv: &[String]) -> Res<bool> {
    if let Some(i) = argv.iter().position(|a| a == "--net-worker") {
        return cluster::worker_main(&argv[i + 1..]).map(|_| true);
    }
    let args = Args {
        seed: flag(argv, "--seed")?.unwrap_or(1),
        seconds: flag(argv, "--seconds")?.unwrap_or(metrics::RUN_SECONDS as f64),
    };
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", metrics::manifest());
        return Ok(true);
    }
    if let Some(runs) = flag(argv, "--spread")? {
        return suite::spread(&args, runs).map(|_| true);
    }
    if argv.iter().any(|a| a == "--check") {
        return suite::check(&args);
    }
    if argv.iter().any(|a| a == "--all") {
        return suite::all(&args).map(|_| true);
    }
    let name: String = flag(argv, "--workload")?.ok_or(format!(
        "usage: e2e_bench --workload <{}> [--seed N] [--seconds N] [--trace 0|1] | --all | --check",
        gen::SPECS
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join("|")
    ))?;
    let spec = gen::spec(&name).ok_or(format!("unknown workload {name:?}"))?;
    // `--trace` alone means `--trace 1`.
    let traced = match argv.iter().position(|a| a == "--trace") {
        None => false,
        Some(i) => argv.get(i + 1).is_none_or(|v| v != "0"),
    };
    let (result, table) = if traced {
        (ledger::run_traced(spec, &args)?, per_layer_table())
    } else {
        (run_workload(spec, &args)?, end_to_end_table())
    };
    print!("{}", result.lines(spec.name, &table));
    println!("{}", result.json(&table));
    Ok(true)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Scratch::create().and_then(|_scratch| run(&argv));
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            std::process::exit(2);
        }
    }
}
