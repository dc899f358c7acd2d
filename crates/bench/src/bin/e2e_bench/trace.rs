//! In-memory span recorder for the `--trace` run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions; nothing inside the product is touched.
//! They stay in memory and are written once, at exit, as a Chrome
//! trace-event file (`chrome://tracing`, Perfetto).

use crate::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished interval; returns its id for use as a parent.
    pub fn record(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, req: u64, parent: u64, name: &'static str) -> u64 {
        let now = self.now_ns();
        self.record(req, parent, name, now, now)
    }

    /// Close the span `id` now and return it.
    pub fn end(&mut self, id: u64) -> &Span {
        let now = self.now_ns();
        // Ids are handed out in push order, starting at 1.
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(req, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Lay `durations` out back to back as children of `parent`, starting
    /// at `start_ns`. Used for work measured on standalone objects after
    /// the request returned: it is replayed into the interval of the call
    /// it explains. Returns the id of each child and the end of the last.
    pub fn replay(
        &mut self,
        req: u64,
        parent: u64,
        start_ns: u64,
        durations: &[(&'static str, u64)],
    ) -> (Vec<u64>, u64) {
        let mut at = start_ns;
        let ids = durations
            .iter()
            .map(|&(name, d)| {
                let id = self.record(req, parent, name, at, at + d);
                at += d;
                id
            })
            .collect();
        (ids, at)
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// `tid` = request number, times in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                s.id,
                s.parent,
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
