//! TAQO — Testing the Accuracy of Query Optimizers (§6.2).
//!
//! "TAQO measures the ability of the optimizer's cost model to order any
//! two given plans correctly, i.e., the plan with the higher estimated
//! cost will indeed run longer... This limitation [of evaluating every
//! plan] can be overcome by sampling plans uniformly from the search
//! space. Optimization requests' linkage structure provides the
//! infrastructure used by TAQO to build a uniform plan sampler based on
//! the method introduced in \[29\]" — the Waas & Galindo-Legaria
//! count-and-unrank scheme: count the plans reachable from each
//! `(group, request)` context, then decompose a uniform index into a
//! candidate choice plus per-child sub-indices.
//!
//! The correlation score "combines a number of measures including
//! importance of plans (the score penalizes optimizer more for cost
//! miss-estimation of very good plans), and distance between plans (the
//! score does not penalize optimizer for small differences in the
//! estimated costs of plans that are actually close in execution time)".

use crate::memo::{Candidate, GroupId, Memo, Operator};
use crate::props::{ReqId, ReqdProps};
use orca_common::hash::FnvHashMap;
use orca_common::{OrcaError, Result};
use orca_expr::physical::PhysicalPlan;

/// A sampled plan with its estimated cost.
#[derive(Debug, Clone)]
pub struct SampledPlan {
    pub plan: PhysicalPlan,
    pub estimated_cost: f64,
}

/// Deterministic xorshift PRNG (no external dependency; reproducible
/// sampling).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, bound)` for f64-sized counts.
    fn below(&mut self, bound: f64) -> f64 {
        (self.next_u64() as f64 / u64::MAX as f64) * bound
    }
}

/// Uniform plan sampler over one optimized Memo.
pub struct PlanSampler<'a> {
    memo: &'a Memo,
    /// Keyed on the interned request id: probes hash two `u32`s instead of
    /// cloning and deep-hashing a `ReqdProps` per lookup.
    counts: FnvHashMap<(GroupId, ReqId), f64>,
}

impl<'a> PlanSampler<'a> {
    pub fn new(memo: &'a Memo) -> PlanSampler<'a> {
        PlanSampler {
            memo,
            counts: FnvHashMap::default(),
        }
    }

    /// Number of distinct plans recorded for `(group, req)` — the product
    /// space of candidates × child plans. `gid` is canonicalized first so
    /// the memo table keys one entry per §4.2 merge equivalence class
    /// (child lists stored post-merge are already canonical; only
    /// caller-supplied roots can be stale shells).
    pub fn count(&mut self, gid: GroupId, req: &ReqdProps) -> f64 {
        let rid = self.memo.intern_req(req);
        self.count_by_id(gid, rid)
    }

    fn count_by_id(&mut self, gid: GroupId, rid: ReqId) -> f64 {
        let gid = self.memo.resolve(gid);
        if let Some(c) = self.counts.get(&(gid, rid)) {
            return *c;
        }
        // Temporarily claim 0 to break any accidental cycles.
        self.counts.insert((gid, rid), 0.0);
        let candidates: Vec<Candidate> = {
            let g = self.memo.group(gid);
            g.ctxs
                .get(&rid)
                .map(|c| c.candidates.clone())
                .unwrap_or_default()
        };
        let mut total = 0.0;
        for cand in &candidates {
            total += self.candidate_count(gid, cand);
        }
        self.counts.insert((gid, rid), total);
        total
    }

    fn candidate_count(&mut self, gid: GroupId, cand: &Candidate) -> f64 {
        let children: Vec<GroupId> = {
            let g = self.memo.group(gid);
            g.exprs[cand.expr].children.clone()
        };
        let mut prod = 1.0;
        for (child, creq) in children.iter().zip(&cand.child_reqs) {
            prod *= self.count_by_id(*child, *creq);
        }
        prod
    }

    /// Sample `n` plans uniformly (with replacement) from the space of
    /// `(root, req)` plans.
    pub fn sample(
        &mut self,
        root: GroupId,
        req: &ReqdProps,
        n: usize,
        seed: u64,
    ) -> Result<Vec<SampledPlan>> {
        let rid = self.memo.intern_req(req);
        let total = self.count_by_id(root, rid);
        if total < 1.0 {
            return Err(OrcaError::Internal(
                "no plans recorded for the root request".into(),
            ));
        }
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let r = rng.below(total);
                self.unrank(root, rid, r)
            })
            .collect()
    }

    /// Unrank the `r`-th plan of `(gid, req)` (mixed-radix decomposition
    /// over candidates and children).
    fn unrank(&mut self, gid: GroupId, rid: ReqId, mut r: f64) -> Result<SampledPlan> {
        let candidates: Vec<Candidate> = {
            let g = self.memo.group(gid);
            g.ctxs
                .get(&rid)
                .map(|c| c.candidates.clone())
                .unwrap_or_default()
        };
        for cand in &candidates {
            let w = self.candidate_count(gid, cand);
            if r < w {
                return self.build_plan(gid, cand, r);
            }
            r -= w;
        }
        // Floating-point slop: fall back to the last candidate.
        let cand = candidates
            .last()
            .ok_or_else(|| OrcaError::Internal(format!("no candidates in {gid}")))?
            .clone();
        self.build_plan(gid, &cand, 0.0)
    }

    fn build_plan(&mut self, gid: GroupId, cand: &Candidate, mut r: f64) -> Result<SampledPlan> {
        let (op, children) = {
            let g = self.memo.group(gid);
            let e = &g.exprs[cand.expr];
            let Operator::Physical(op) = e.op.clone() else {
                return Err(OrcaError::Internal("sampled logical expression".into()));
            };
            (op, e.children.clone())
        };
        // Decompose r over the children (mixed radix: child i's digit is
        // r mod count_i). The sampled plan's estimate follows the sampled
        // child choices: candidate.cost embeds the *best* child costs, so
        // swap those out for the sampled children's estimates.
        let mut child_plans = Vec::with_capacity(children.len());
        let mut estimated_cost = cand.cost;
        for (child, creq) in children.iter().zip(&cand.child_reqs) {
            let c = self.count_by_id(*child, *creq).max(1.0);
            let digit = r % c;
            r = (r / c).floor();
            let best_child_cost = {
                let g = self.memo.group(*child);
                g.best_for(*creq).map(|b| b.cost).unwrap_or(0.0)
            };
            let sampled = self.unrank(*child, *creq, digit)?;
            estimated_cost += sampled.estimated_cost - best_child_cost;
            child_plans.push(sampled.plan);
        }
        let mut plan = PhysicalPlan::new(op, child_plans);
        for enf in &cand.enforcers {
            plan = PhysicalPlan::new(enf.clone(), vec![plan]);
        }
        Ok(SampledPlan {
            plan,
            estimated_cost,
        })
    }
}

/// TAQO correlation score between estimated costs and actual costs.
///
/// For every plan pair that is not "too close" in actual cost (relative
/// distance below `distance_eps`), check whether the estimate orders the
/// pair correctly; weight each pair by the importance of its better plan
/// (`1 / rank`), so mis-ordering good plans hurts more. Returns a score in
/// `[0, 1]`; 1.0 = perfect ordering.
pub fn correlation_score(pairs: &[(f64, f64)], distance_eps: f64) -> f64 {
    if pairs.len() < 2 {
        return 1.0;
    }
    // Rank plans by actual cost (1 = best).
    let mut by_actual: Vec<usize> = (0..pairs.len()).collect();
    by_actual.sort_by(|&a, &b| {
        pairs[a]
            .1
            .partial_cmp(&pairs[b].1)
            .expect("finite actual costs")
    });
    let mut rank = vec![0usize; pairs.len()];
    for (r, &i) in by_actual.iter().enumerate() {
        rank[i] = r + 1;
    }
    let mut weighted_total = 0.0;
    let mut weighted_concordant = 0.0;
    for i in 0..pairs.len() {
        for j in (i + 1)..pairs.len() {
            let (est_i, act_i) = pairs[i];
            let (est_j, act_j) = pairs[j];
            let scale = act_i.abs().max(act_j.abs()).max(1e-12);
            if (act_i - act_j).abs() / scale < distance_eps {
                // Too close in actual cost: either order is fine.
                continue;
            }
            let est_scale = est_i.abs().max(est_j.abs()).max(1e-12);
            if (est_i - est_j).abs() / est_scale < 1e-9 {
                // Tied estimates cannot order the pair: count as a miss
                // (weighted below) rather than skipping silently.
                weighted_total += 1.0 / rank[i].min(rank[j]) as f64;
                continue;
            }
            let weight = 1.0 / rank[i].min(rank[j]) as f64;
            weighted_total += weight;
            let concordant = (est_i - est_j) * (act_i - act_j) > 0.0;
            if concordant {
                weighted_concordant += weight;
            }
        }
    }
    if weighted_total == 0.0 {
        1.0
    } else {
        weighted_concordant / weighted_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_and_inverted_orderings() {
        let perfect: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, i as f64 * 2.0)).collect();
        assert_eq!(correlation_score(&perfect, 0.01), 1.0);
        let inverted: Vec<(f64, f64)> = (0..10).map(|i| (-(i as f64), i as f64 * 2.0)).collect();
        assert_eq!(correlation_score(&inverted, 0.01), 0.0);
    }

    #[test]
    fn close_actual_costs_are_forgiven() {
        // Two plans 0.1% apart in actual cost, mis-ordered by the estimate:
        // with a 1% distance threshold the pair does not count.
        let pairs = vec![(10.0, 100.0), (9.0, 100.05)];
        assert_eq!(correlation_score(&pairs, 0.01), 1.0);
        // With a tighter threshold it does.
        assert_eq!(correlation_score(&pairs, 1e-6), 0.0);
    }

    #[test]
    fn importance_weights_good_plans_heavier() {
        // Plan ranked #1 mis-ordered vs everything → big penalty.
        let bad_best = vec![(100.0, 1.0), (1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        // Worst plan mis-ordered vs everything → smaller penalty.
        let bad_worst = vec![(1.0, 1.0), (2.0, 10.0), (3.0, 20.0), (0.5, 30.0)];
        let s_best = correlation_score(&bad_best, 0.01);
        let s_worst = correlation_score(&bad_worst, 0.01);
        assert!(
            s_best < s_worst,
            "mis-ranking the best plan should hurt more ({s_best} vs {s_worst})"
        );
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(42);
        for _ in 0..100 {
            let v = c.below(10.0);
            assert!((0.0..10.0).contains(&v));
        }
    }
}
