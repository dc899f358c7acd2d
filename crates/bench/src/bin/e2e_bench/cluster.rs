//! `cluster_loopback`: the harness is the coordinator of a two-process
//! gang. The service has no distributed mode, so there is no server here:
//! the harness re-executes itself once as a worker process
//! (`--net-worker`), ships each plan as DXL over the worker's stdin and
//! calls `ParallelEngine::run_distributed` over loopback TCP.
//!
//! Control plane (line-oriented, as `net_worker.rs`):
//!
//! ```text
//! worker → coordinator:  READY <addr>
//! coordinator → worker:  TOPO <addr0> <addr1>
//! coordinator → worker:  JOB <id> <cols,…> <dxl_len>\n<dxl bytes>
//! worker → coordinator:  DONE <id> | ERR <id> <message>
//! coordinator → worker:  EXIT
//! ```

use crate::gen::{Corpus, Spec, Stream};
use crate::harness::{
    err, oracle_run, reference_optimizer, sql_to_query, Data, OracleRun, Outcome, Res,
};
use orca_common::ColId;
use orca_dxl::{parse_plan_doc, plan_to_dxl, DxlPlan};
use orca_executor::parallel::ParallelResult;
use orca_executor::{ClusterTopology, NetConfig, NetNode, ParallelConfig, ParallelEngine};
use orca_expr::physical::PhysicalPlan;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Entry point of the worker process: rebuild the same deterministic
/// catalog, bind, and run this peer's share of every shipped plan.
pub fn worker_main(args: &[String]) -> Res<()> {
    let spec = args
        .first()
        .and_then(|name| crate::gen::spec(name))
        .ok_or("usage: --net-worker <workload>")?;
    let data = Data::build(spec);
    let node = NetNode::bind("127.0.0.1:0", 1, NetConfig::default()).map_err(err("bind"))?;
    let stdin = std::io::stdin();
    let mut stdin = stdin.lock();
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "READY {}", node.addr()).map_err(err("stdout"))?;
    stdout.flush().map_err(err("stdout"))?;

    let mut topo: Option<ClusterTopology> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if stdin.read_line(&mut line).map_err(err("stdin"))? == 0 {
            return Ok(()); // coordinator went away
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("TOPO") => {
                topo = Some(ClusterTopology::round_robin(
                    parts.map(str::to_string).collect(),
                    data.db.cluster.num_segments,
                ));
            }
            Some("JOB") => {
                let mut field = |what: &str| parts.next().ok_or(format!("JOB without {what}"));
                let query_id: u64 = field("id")?.parse().map_err(err("JOB id"))?;
                let cols: Vec<ColId> = field("cols")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map(ColId).map_err(err("JOB col")))
                    .collect::<Res<_>>()?;
                let len: usize = field("length")?.parse().map_err(err("JOB length"))?;
                let mut dxl = vec![0u8; len];
                stdin.read_exact(&mut dxl).map_err(err("JOB body"))?;
                let dxl = String::from_utf8(dxl).map_err(err("JOB body"))?;
                let topo = topo.as_ref().ok_or("JOB before TOPO")?;
                let outcome = parse_plan_doc(&dxl, data.provider.as_ref()).and_then(|doc| {
                    ParallelEngine::with_config(&data.db, ParallelConfig::default())
                        .run_distributed(&doc.plan, &cols, &node, topo, query_id)
                });
                match outcome {
                    Ok(_) => writeln!(stdout, "DONE {query_id}"),
                    Err(e) => writeln!(stdout, "ERR {query_id} {}", e.message().replace('\n', " ")),
                }
                .map_err(err("stdout"))?;
                stdout.flush().map_err(err("stdout"))?;
            }
            Some("EXIT") | None => return Ok(()),
            Some(other) => return Err(format!("unknown control verb {other:?}")),
        }
    }
}

/// The worker process. Dropping it asks the worker to exit, then kills and
/// reaps it, so no exit path of the harness leaves a child behind.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.stdin.write_all(b"EXIT\n");
        let _ = self.stdin.flush();
        // A healthy worker exits on EXIT within milliseconds; kill covers
        // one that is wedged mid-query.
        let deadline = Instant::now() + Duration::from_millis(500);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One corpus query as it is shipped: the PLAN document and the plan
/// parsed back from it — every peer, the coordinator included, executes
/// that artifact.
pub struct Shipped {
    pub dxl: String,
    pub plan: PhysicalPlan,
    pub cost: f64,
    pub output_cols: Vec<ColId>,
    pub expected: OracleRun,
}

pub struct Gang {
    worker: Worker,
    pub data: Data,
    node: NetNode,
    topo: ClusterTopology,
    pub shipped: Vec<Shipped>,
    next_query_id: u64,
    pub setup_s: f64,
}

impl Gang {
    /// Spawn the worker, build the coordinator's data, exchange addresses,
    /// plan and ship-prepare the corpus, and warm up on an eighth of it (a
    /// full pass costs ~4 s and nothing is cached across distributed runs).
    pub fn setup(spec: &Spec, corpus: &Corpus) -> Res<Gang> {
        let t0 = Instant::now();
        let exe = std::env::current_exe().map_err(err("current_exe"))?;
        let mut child = Command::new(exe)
            .args(["--net-worker", spec.name])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(err("spawn worker"))?;
        let stdin = child.stdin.take().ok_or("worker stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("worker stdout")?);
        let mut worker = Worker {
            child,
            stdin,
            stdout,
        };

        let data = Data::build(spec);
        let node = NetNode::bind("127.0.0.1:0", 0, NetConfig::default()).map_err(err("bind"))?;
        let mut ready = String::new();
        worker
            .stdout
            .read_line(&mut ready)
            .map_err(err("worker READY"))?;
        let addr = ready
            .trim()
            .strip_prefix("READY ")
            .ok_or(format!("worker said {ready:?}, expected READY"))?;
        let peers = vec![node.addr().to_string(), addr.to_string()];
        worker
            .stdin
            .write_all(format!("TOPO {}\n", peers.join(" ")).as_bytes())
            .and_then(|_| worker.stdin.flush())
            .map_err(err("send TOPO"))?;
        let topo = ClusterTopology::round_robin(peers, data.db.cluster.num_segments);

        // The harness is the planner here; the single-worker optimizer keeps
        // the shipped plans, and every count downstream, the same each run.
        let optimizer = reference_optimizer(&data);
        let mut shipped = Vec::new();
        for (i, sql) in corpus.fixed().iter().enumerate() {
            let query = sql_to_query(sql, &data.provider)?;
            let (plan, stats) = optimizer
                .optimize_query(&query)
                .map_err(|e| format!("query {i}: optimize: {e}"))?;
            let dxl = plan_to_dxl(&DxlPlan {
                plan,
                cost: stats.plan_cost,
            });
            let doc = parse_plan_doc(&dxl, data.provider.as_ref()).map_err(err("plan DXL"))?;
            // Filled in by `Gang::expectations`, outside the set-up clock.
            let expected = OracleRun {
                rows: 0,
                checksum: 0,
                sim_seconds: 0.0,
            };
            shipped.push(Shipped {
                dxl,
                plan: doc.plan,
                cost: stats.plan_cost,
                output_cols: query.output_cols,
                expected,
            });
        }
        let mut gang = Gang {
            worker,
            data,
            node,
            topo,
            shipped,
            next_query_id: 1,
            setup_s: 0.0,
        };
        for q in 0..gang.shipped.len() / 8 {
            gang.run(q)?;
        }
        gang.setup_s = t0.elapsed().as_secs_f64();
        Ok(gang)
    }

    /// Row-kernel oracle results for every shipped plan; returns
    /// `sim_s_total`.
    pub fn expectations(&mut self) -> Res<f64> {
        let mut sim_total = 0.0;
        for (i, s) in self.shipped.iter_mut().enumerate() {
            s.expected = oracle_run(&self.data, &s.dxl, &s.output_cols)
                .map_err(|e| format!("query {i}: {e}"))?;
            sim_total += s.expected.sim_seconds;
        }
        Ok(sim_total)
    }

    /// One distributed execution: ship the PLAN to the worker, run this
    /// process's half of the gang, and return once the last row is merged
    /// here. The second value is the time until then; the worker's DONE
    /// line is read after it.
    pub fn run(&mut self, q: usize) -> Res<(ParallelResult, Duration)> {
        let s = &self.shipped[q];
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        let t0 = Instant::now();
        let cols: Vec<String> = s.output_cols.iter().map(|c| c.0.to_string()).collect();
        let job = format!("JOB {query_id} {} {}\n", cols.join(","), s.dxl.len());
        self.worker
            .stdin
            .write_all(job.as_bytes())
            .and_then(|_| self.worker.stdin.write_all(s.dxl.as_bytes()))
            .and_then(|_| self.worker.stdin.flush())
            .map_err(err("send JOB"))?;
        let result = ParallelEngine::with_config(&self.data.db, ParallelConfig::default())
            .run_distributed(&s.plan, &s.output_cols, &self.node, &self.topo, query_id);
        let took = t0.elapsed();
        let mut done = String::new();
        self.worker
            .stdout
            .read_line(&mut done)
            .map_err(err("worker DONE"))?;
        if !done.starts_with("DONE ") {
            return Err(format!("query {q}: worker said {:?}", done.trim()));
        }
        Ok((result.map_err(|e| format!("query {q}: {e}"))?, took))
    }

    /// Check one result against the oracle; `nth` selects the 1-in-10
    /// checksum sample.
    pub fn check(&self, q: usize, res: &ParallelResult, nth: u64) -> Res<()> {
        let exp = &self.shipped[q].expected;
        if res.rows.len() != exp.rows {
            return Err(format!(
                "query {q}: {} rows, expected {}",
                res.rows.len(),
                exp.rows
            ));
        }
        if res.parallel.serial_fallback {
            return Err(format!("query {q}: fell back to serial"));
        }
        if res.parallel.sim_seconds.to_bits() != exp.sim_seconds.to_bits() {
            return Err(format!(
                "query {q}: distributed sim clock differs from serial"
            ));
        }
        if nth.is_multiple_of(10) && crate::harness::checksum_rows(&res.rows) != exp.checksum {
            return Err(format!("query {q}: row checksum mismatch"));
        }
        Ok(())
    }

    /// The timed phase: one client, sequential, for `seconds`.
    pub fn timed_phase(&mut self, corpus: &Corpus, seed: u64, seconds: f64) -> (Outcome, f64) {
        let mut stream = Stream::new(corpus, seed, 0, 1, 0);
        let mut out = Outcome::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline {
            let q = stream.next().query.expect("fixed corpus");
            out.attempted += 1;
            match self
                .run(q)
                .and_then(|(res, took)| self.check(q, &res, out.attempted).map(|_| (res, took)))
            {
                Ok((res, took)) => {
                    out.lat_ms.push(took.as_secs_f64() * 1e3);
                    out.rows += res.rows.len() as u64;
                    out.busy_s += took.as_secs_f64();
                }
                Err(e) => out.fail(e),
            }
        }
        (out, start.elapsed().as_secs_f64())
    }

    pub fn worker_pid(&self) -> u32 {
        self.worker.child.id()
    }
}
