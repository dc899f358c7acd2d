//! Order statistics and span self-time arithmetic for the benchmark.
//!
//! Percentiles are nearest-rank and *refuse* (return `None`, printed as
//! `n/a`) when fewer than [`MIN_BEYOND`] samples lie beyond the requested
//! rank: a p95 read off 40 samples is the second-largest value, not a
//! percentile.

/// Samples that must lie strictly beyond the rank a percentile reads.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile, `p` in (0, 100). `None` when the sample is too
/// small to have [`MIN_BEYOND`] values above the rank it would read.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// Median by nearest rank; `None` only for an empty sample. Unlike
/// [`percentile`] it does not refuse: a median of few samples is still
/// the middle one.
pub fn median(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    Some(sorted(values)[n.div_ceil(2) - 1])
}

/// First and third quartile by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` returns), so spreads computed here
/// match the ones the benchmark contract is judged by.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// One recorded interval. `parent == 0` marks a request's root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are merged, and
/// children are clipped to the parent, so self time is never negative).
/// Returns `(span index, self_ns)` in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut kids: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            kids.entry((s.req, s.parent))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(children) = kids.get_mut(&(s.req, s.id)) else {
                return s.dur_ns();
            };
            children.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in children.iter() {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = b;
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 95.0), Some(950.0));
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // p95 of 200 reads rank 190 and leaves exactly 10 beyond: allowed.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // One sample fewer leaves 9 beyond rank 190: refused.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(500), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(400);
        v.reverse();
        assert_eq!(percentile(&v, 95.0), Some(380.0));
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v = ramp(10);
        assert_eq!(median(&v), Some(5.0));
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
    }

    fn span(req: u64, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req,
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 1, 0, 0, 100),
            span(1, 2, 1, 10, 40),
            span(1, 3, 1, 30, 60), // overlaps span 2 by 10
            span(1, 4, 2, 15, 20), // grandchild: only reduces span 2
            span(2, 1, 0, 0, 50),  // another request reusing id 1
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5, 50]);
    }

    #[test]
    fn self_time_clips_children_to_parent() {
        let spans = vec![span(1, 1, 0, 100, 200), span(1, 2, 1, 150, 400)];
        assert_eq!(self_times(&spans), vec![50, 250]);
    }
}
