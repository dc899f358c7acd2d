//! The search engine (§4.2).
//!
//! "Optimization process is broken to small work units called optimization
//! jobs. Orca currently has seven different types of optimization jobs:
//! Exp(g), Exp(gexpr), Imp(g), Imp(gexpr), Opt(g, req), Opt(gexpr, req),
//! Xform(gexpr, t)."
//!
//! Each job type below is a re-entrant state machine on the GPOS scheduler
//! (`orca_gpos::sched`): it spawns children, suspends, and resumes when
//! they complete. Jobs with the same *goal* — exploring the same group,
//! optimizing the same `(group, request)` pair — are deduplicated through
//! the scheduler's goal queues, exactly as §4.2 describes ("incoming jobs
//! are queued as long as there exists an active job with the same goal").
//!
//! One search owns its [`Memo`] and [`Scheduler`]: every job steps on the
//! thread that runs the phase, so jobs read and write the Memo through
//! short borrows and need no locks. Ids a suspended job captured can still
//! go stale when a merge runs in between, so jobs re-resolve them
//! (`Memo::resolve_expr`) at every step.
//!
//! Costing applies Cascades-style branch-and-bound: `Opt(g, req)` seeds
//! each `Opt(gexpr, req)` job with the cost of the context's incumbent
//! best, and the job abandons an alternative (or an enforcer chain) as
//! soon as its accumulated cost *strictly exceeds* that bound. Because
//! only provably-worse candidates are discarded — equal-cost ones survive
//! for the deterministic tie-break in `OptContext::add` — pruning never
//! changes the chosen plan (see the invariant in `memo.rs`).

use crate::cost::{CostCtx, CostModel, StreamInfo};
use crate::enforce::{derive_delivered, enforcement_chains, request_alternatives};
use crate::memo::{Candidate, ExprId, GroupEst, GroupId, Memo, Operator};
use crate::props::{DerivedProps, ReqId, ReqdProps};
use crate::rules::{Rule, RuleCtx, RuleSet};
use orca_catalog::MdAccessor;
use orca_common::hash::FnvHashMap;
use orca_common::{OrcaError, Result};
use orca_expr::physical::PhysicalOp;
use orca_expr::props::DistSpec;
use orca_expr::ColumnRegistry;
use orca_gpos::sched::{Job, JobHandle, Scheduler, StepResult};
use std::sync::Arc;

/// Goal keys for job deduplication (the per-group job queues of §4.2).
/// `Opt` goals carry the *interned* request id, so hashing a goal — done on
/// every `spawn_goal` and every queue probe — mixes two `u32`s instead of
/// walking an order/distribution spec, and cloning the key is a copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GoalKey {
    Exp(GroupId),
    Imp(GroupId),
    Opt(GroupId, ReqId),
}

/// Shared context for all jobs in one optimization session.
pub struct SearchCtx<'a> {
    pub memo: &'a Memo,
    pub rules: &'a RuleSet,
    pub registry: &'a ColumnRegistry,
    pub md: &'a MdAccessor,
    pub cost: &'a CostModel,
}

type Sched<'a> = Scheduler<SearchCtx<'a>, GoalKey>;
type Handle<'h, 'a> = JobHandle<'h, SearchCtx<'a>, GoalKey>;

/// Run the exploration phase from the root group (step 1 of §4.1).
///
/// When a transformation output targeted at group `g` collides with an
/// identical sub-expression spelled standalone, the duplicate-detection
/// index proves the two groups logically equivalent and the Memo *merges*
/// them (§4.2, `Memo::merge`). Exploration is run to a fixpoint (below)
/// whose final memo content is the closure of the initial memo under the
/// enabled rules, whatever order insertions and merges happen in.
///
/// The fixpoint: a merge can enlarge a group AFTER a deep rule (one whose
/// pattern binds into child-group contents, e.g. join associativity)
/// already fired on some parent expression, leaving bindings unseen — and
/// *which* bindings were missed depends on job order. So after every
/// pass in which the merge counter advanced, the driver re-arms exactly
/// the deep rules (`Memo::reset_exploration`) and runs another pass.
/// Shallow rules stay fired: their output depends only on their own
/// expression and is invariant under child re-canonicalization. Each pass
/// either merges nothing (done) or permanently reduces the number of
/// canonical groups, so the loop terminates.
pub fn explore(ctx: &SearchCtx<'_>, root: GroupId) -> Result<()> {
    explore_with_deadline(ctx, root, None).map(|_| ())
}

/// Exploration with an optional stage deadline (§4.1 multi-stage).
/// Returns after the merge-confluence fixpoint is reached, or `Ok(true)`
/// when the deadline expired first: a timed-out pass leaves a *consistent*
/// memo (every id resolves, every inserted expression is complete — jobs
/// finish their current step before the scheduler observes the abort), it is just
/// not closed under the rule set. Only hard errors propagate as `Err`.
pub fn explore_with_deadline(
    ctx: &SearchCtx<'_>,
    root: GroupId,
    deadline: Option<std::time::Instant>,
) -> Result<bool> {
    let deep = ctx.rules.deep_exploration_indices();
    loop {
        let merged_before = ctx.memo.metrics().snapshot().groups_merged;
        let sched: Sched<'_> = Scheduler::new();
        if let Some(d) = deadline {
            sched.abort_signal().set_deadline(d);
        }
        match sched.run(ctx, vec![Box::new(ExploreGroupJob { gid: root })]) {
            Ok(()) => {}
            Err(OrcaError::Timeout(_)) => return Ok(true),
            Err(e) => return Err(e),
        }
        let merged_after = ctx.memo.metrics().snapshot().groups_merged;
        if merged_after == merged_before {
            return Ok(false);
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            // Timed out mid-fixpoint: the memo is valid (all ids resolve),
            // just not closed under the deep rules. §4.1 stage semantics
            // accept a truncated search.
            return Ok(true);
        }
        ctx.memo.reset_exploration(&deep);
    }
}

/// Run the implementation phase (step 3 of §4.1).
pub fn implement(ctx: &SearchCtx<'_>, root: GroupId) -> Result<()> {
    implement_with_deadline(ctx, root, None).map(|_| ())
}

/// Implementation with an optional stage deadline. Returns `Ok(true)` when
/// the deadline truncated the phase (see [`explore_with_deadline`]).
pub fn implement_with_deadline(
    ctx: &SearchCtx<'_>,
    root: GroupId,
    deadline: Option<std::time::Instant>,
) -> Result<bool> {
    let sched: Sched<'_> = Scheduler::new();
    if let Some(d) = deadline {
        sched.abort_signal().set_deadline(d);
    }
    match sched.run(ctx, vec![Box::new(ImplementGroupJob { gid: root })]) {
        Ok(()) => Ok(false),
        Err(OrcaError::Timeout(_)) => Ok(true),
        Err(e) => Err(e),
    }
}

/// Scheduler-side statistics of one optimization phase (feeds the §7.2.2
/// resource report).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchRunStats {
    pub jobs_spawned: usize,
    pub job_steps: usize,
    /// Goal requests deduplicated against an active or finished job.
    pub goal_hits: usize,
    /// The phase's deadline expired before the job graph drained; whatever
    /// contexts were completed by then are valid (a candidate is recorded
    /// only after full costing), but the search is not exhaustive.
    pub timed_out: bool,
}

/// Run the optimization phase for the root request (step 4 of §4.1).
/// Returns scheduler statistics for the §7.2.2 report.
pub fn optimize(ctx: &SearchCtx<'_>, root: GroupId, req: &ReqdProps) -> Result<SearchRunStats> {
    optimize_with_deadline(ctx, root, req, None)
}

/// Optimization with an optional stage deadline.
pub fn optimize_with_deadline(
    ctx: &SearchCtx<'_>,
    root: GroupId,
    req: &ReqdProps,
    deadline: Option<std::time::Instant>,
) -> Result<SearchRunStats> {
    let sched: Sched<'_> = Scheduler::new();
    if let Some(d) = deadline {
        sched.abort_signal().set_deadline(d);
    }
    // Intern the root request once; everything below runs in id space.
    let rid = ctx.memo.intern_req(req);
    let timed_out = match sched.run(
        ctx,
        vec![Box::new(OptimizeGroupJob {
            gid: root,
            rid,
            spawned: false,
        })],
    ) {
        Ok(()) => false,
        Err(OrcaError::Timeout(_)) => true,
        Err(e) => return Err(e),
    };
    Ok(SearchRunStats {
        jobs_spawned: sched.jobs_spawned(),
        job_steps: sched.steps_executed(),
        goal_hits: sched.goal_hits(),
        timed_out,
    })
}

// =====================================================================
// Exp(g) — explore a group: "generate logically equivalent expressions
// of all group expressions in group g".
// =====================================================================

struct ExploreGroupJob {
    gid: GroupId,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for ExploreGroupJob {
    fn name(&self) -> &'static str {
        "Exp(g)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        // Loop until no expression is left unexplored: transformations add
        // new expressions to this group while we wait, and merges migrate
        // whole expression sets in. `with_group` re-resolves the canonical
        // group on every step — `self.gid` may have become a drained shell
        // since the job was spawned.
        let (gid, to_spawn) = ctx.memo.with_group(self.gid, |gid, g| {
            let ids: Vec<ExprId> = g
                .exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.op.is_logical() && !e.dead && !e.explore_spawned)
                .map(|(i, _)| i)
                .collect();
            for &i in &ids {
                g.exprs[i].explore_spawned = true;
            }
            if ids.is_empty() {
                g.explored = true;
            }
            (gid, ids)
        });
        self.gid = gid;
        if to_spawn.is_empty() {
            return StepResult::Done;
        }
        for eid in to_spawn {
            h.spawn(Box::new(ExploreExprJob {
                gid,
                eid,
                spawned_children: false,
                xforms_spawned: false,
            }));
        }
        StepResult::Suspended
    }
}

// =====================================================================
// Exp(gexpr) — explore one expression: first explore child groups (deep
// rule patterns bind into them), then fire exploration xforms.
// =====================================================================

struct ExploreExprJob {
    gid: GroupId,
    eid: ExprId,
    spawned_children: bool,
    xforms_spawned: bool,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for ExploreExprJob {
    fn name(&self) -> &'static str {
        "Exp(gexpr)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        if !self.spawned_children {
            self.spawned_children = true;
            // Merges can relocate the expression between job spawn and this
            // step; resolve to its live location and canonical children.
            let (gid, eid, _, children) = ctx.memo.expr_op_children(self.gid, self.eid);
            self.gid = gid;
            self.eid = eid;
            for c in children {
                h.spawn_goal(GoalKey::Exp(c), || Box::new(ExploreGroupJob { gid: c }));
            }
            return StepResult::Suspended;
        }
        // Wait for the xforms too: the scheduler does not hold a finished
        // job's own children, so returning `Done` here would let the group
        // count as explored while its rewrites are still queued.
        if !self.xforms_spawned {
            self.xforms_spawned = true;
            spawn_xforms(h, ctx, self.gid, self.eid, true);
            return StepResult::Suspended;
        }
        StepResult::Done
    }
}

/// Queue Xform jobs for every enabled, not-yet-applied rule of one kind.
fn spawn_xforms<'a>(
    h: &Handle<'_, 'a>,
    ctx: &SearchCtx<'a>,
    gid: GroupId,
    eid: ExprId,
    exploration: bool,
) {
    let rules = ctx.rules.of_kind(exploration);
    // Claim the not-yet-applied rules on the expression's LIVE copy (the
    // `(gid, eid)` captured at spawn time may have been forwarded by a
    // merge; `with_expr` re-resolves it). Claiming on the live copy keeps
    // each `(expr, rule)` pair fired at most once even when two jobs reach
    // the same migrated expression.
    let (gid, eid, fire) = ctx.memo.with_expr(gid, eid, |e| {
        rules
            .into_iter()
            .filter(|(idx, _)| e.applied_rules.insert(*idx))
            .map(|(_, r)| r)
            .collect::<Vec<_>>()
    });
    for rule in fire {
        h.spawn(Box::new(XformJob { gid, eid, rule }));
    }
}

// =====================================================================
// Xform(gexpr, t) — apply one rule to one expression.
// =====================================================================

struct XformJob {
    gid: GroupId,
    eid: ExprId,
    rule: Arc<dyn Rule>,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for XformJob {
    fn name(&self) -> &'static str {
        "Xform(gexpr,t)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        let rctx = RuleCtx {
            registry: ctx.registry,
            md: ctx.md,
        };
        // Track the expression to its live location; rules re-resolve
        // internally too, but copy-in should target the canonical group.
        let (gid, eid) = ctx.memo.resolve_expr(self.gid, self.eid);
        match self.rule.apply(ctx.memo, gid, eid, &rctx) {
            Ok(results) => {
                for partial in results {
                    partial.copy_in(ctx.memo, gid);
                }
            }
            Err(e) => h.abort_signal().abort_with(e),
        }
        StepResult::Done
    }
}

// =====================================================================
// Imp(g) / Imp(gexpr) — implementation phase.
// =====================================================================

struct ImplementGroupJob {
    gid: GroupId,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for ImplementGroupJob {
    fn name(&self) -> &'static str {
        "Imp(g)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        let (gid, to_spawn) = ctx.memo.with_group(self.gid, |gid, g| {
            let ids: Vec<ExprId> = g
                .exprs
                .iter()
                .enumerate()
                .filter(|(_, e)| e.op.is_logical() && !e.dead && !e.implement_spawned)
                .map(|(i, _)| i)
                .collect();
            for &i in &ids {
                g.exprs[i].implement_spawned = true;
            }
            if ids.is_empty() {
                g.implemented = true;
            }
            (gid, ids)
        });
        self.gid = gid;
        if to_spawn.is_empty() {
            return StepResult::Done;
        }
        for eid in to_spawn {
            h.spawn(Box::new(ImplementExprJob {
                gid,
                eid,
                spawned_children: false,
                xforms_spawned: false,
            }));
        }
        StepResult::Suspended
    }
}

struct ImplementExprJob {
    gid: GroupId,
    eid: ExprId,
    spawned_children: bool,
    xforms_spawned: bool,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for ImplementExprJob {
    fn name(&self) -> &'static str {
        "Imp(gexpr)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        if !self.spawned_children {
            self.spawned_children = true;
            let (gid, eid, _, children) = ctx.memo.expr_op_children(self.gid, self.eid);
            self.gid = gid;
            self.eid = eid;
            for c in children {
                h.spawn_goal(GoalKey::Imp(c), || Box::new(ImplementGroupJob { gid: c }));
            }
            return StepResult::Suspended;
        }
        if !self.xforms_spawned {
            self.xforms_spawned = true;
            spawn_xforms(h, ctx, self.gid, self.eid, false);
            return StepResult::Suspended;
        }
        StepResult::Done
    }
}

// =====================================================================
// Opt(g, req) — "return the plan with the least estimated cost that is
// rooted by an operator in group g and satisfies optimization request
// req".
// =====================================================================

struct OptimizeGroupJob {
    gid: GroupId,
    rid: ReqId,
    spawned: bool,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for OptimizeGroupJob {
    fn name(&self) -> &'static str {
        "Opt(g,req)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        if !self.spawned {
            self.spawned = true;
            // The optimization phase is merge-free (all inserts by then are
            // enforcers, whose self-referential keys can never collide
            // across groups), but resolve to the canonical group anyway so
            // ids captured before the implement phase stay valid.
            self.gid = ctx.memo.resolve(self.gid);
            let exprs: Vec<ExprId> = {
                let g = ctx.memo.group(self.gid);
                g.physical_exprs().map(|(i, _)| i).collect()
            };
            // Seed the branch-and-bound upper limit from the incumbent
            // best of this very context (present when the goal was already
            // optimized through another parent's request).
            let bound = ctx.memo.best_cost(self.gid, self.rid);
            for eid in exprs {
                h.spawn(Box::new(OptimizeExprJob {
                    gid: self.gid,
                    eid,
                    rid: self.rid,
                    alts: None,
                    bound,
                }));
            }
            return StepResult::Suspended;
        }
        StepResult::Done
    }
}

// =====================================================================
// Opt(gexpr, req) — cost one expression under one request, across all of
// its child-request alternatives, adding enforcers where needed.
// =====================================================================

/// One child-request alternative, carried in both representations: the
/// values feed property derivation and the content-based shape fingerprint
/// (interned id *values* are arrival-order dependent and must never reach
/// it), while the ids feed goal spawning, context probes and candidate
/// storage.
struct Alt {
    reqs: Vec<ReqdProps>,
    ids: Vec<ReqId>,
}

struct OptimizeExprJob {
    gid: GroupId,
    eid: ExprId,
    rid: ReqId,
    /// Child-request alternatives, filled on the first step.
    alts: Option<Vec<Alt>>,
    /// Branch-and-bound upper limit: the cost of this context's incumbent
    /// best when the job was spawned. Refreshed (only ever tightened)
    /// during costing; a candidate whose partial cost strictly exceeds it
    /// is abandoned. `None` until the context produces its first plan.
    bound: Option<f64>,
}

impl<'a> Job<SearchCtx<'a>, GoalKey> for OptimizeExprJob {
    fn name(&self) -> &'static str {
        "Opt(gexpr,req)"
    }

    fn step(&mut self, h: &Handle<'_, 'a>, ctx: &SearchCtx<'a>) -> StepResult {
        if h.abort_signal().is_aborted() {
            return StepResult::Done;
        }
        let (gid, eid, op, children) = ctx.memo.expr_op_children(self.gid, self.eid);
        self.gid = gid;
        self.eid = eid;
        let Operator::Physical(op) = op else {
            h.abort_signal()
                .abort_with(OrcaError::Internal("Opt job on logical expression".into()));
            return StepResult::Done;
        };
        if self.alts.is_none() {
            let req = ctx.memo.req_props(self.rid);
            let alts: Vec<Alt> = request_alternatives(&op, &req)
                .into_iter()
                .map(|reqs| {
                    let ids = reqs.iter().map(|r| ctx.memo.intern_req(r)).collect();
                    Alt { reqs, ids }
                })
                .collect();
            for alt in &alts {
                debug_assert_eq!(alt.reqs.len(), children.len());
                for (child, &crid) in children.iter().zip(&alt.ids) {
                    let gid = *child;
                    h.spawn_goal(GoalKey::Opt(gid, crid), || {
                        Box::new(OptimizeGroupJob {
                            gid,
                            rid: crid,
                            spawned: false,
                        })
                    });
                }
            }
            self.alts = Some(alts);
            return StepResult::Suspended;
        }
        // All child goals complete: cost every alternative.
        if let Err(e) = self.finish(ctx, &op, &children) {
            h.abort_signal().abort_with(e);
        }
        StepResult::Done
    }
}

impl OptimizeExprJob {
    fn finish(&mut self, ctx: &SearchCtx<'_>, op: &PhysicalOp, children: &[GroupId]) -> Result<()> {
        let alts = self.alts.take().expect("set in first step");
        let req = ctx.memo.req_props(self.rid);
        // Estimation snapshots (`Memo::group_est`): width, skew and stats
        // handles computed once per group instead of once per candidate.
        let own = group_est(ctx, self.gid)?;
        let child_ests: Vec<Arc<GroupEst>> = children
            .iter()
            .map(|c| group_est(ctx, *c))
            .collect::<Result<_>>()?;

        // Child-cost fast path: alternatives frequently re-request the same
        // `(child, creq)` context (e.g. `Any` from several join variants).
        // Memoize the `best_for` probe locally so each distinct context is
        // read once per job.
        let mut child_best: FnvHashMap<(GroupId, ReqId), Option<(f64, DerivedProps)>> =
            FnvHashMap::default();

        // Branch-and-bound bound: tightest of the spawn-time seed and the
        // context's current incumbent (other jobs may have improved it
        // while this one waited on child goals).
        let mut bound = match (self.bound, ctx.memo.best_cost(self.gid, self.rid)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // Strict comparison: an equal-cost candidate is NOT pruned, so the
        // deterministic tie-break in `OptContext::add` still sees it.
        let exceeds = |cost: f64, bound: Option<f64>| bound.is_some_and(|b| cost > b);

        'alts: for alt in alts {
            // Collect the best child plans for this alternative, aborting
            // as soon as the accumulated child cost alone beats the bound.
            let mut child_costs = Vec::with_capacity(children.len());
            let mut child_derived: Vec<DerivedProps> = Vec::with_capacity(children.len());
            let mut ok = true;
            let mut child_sum = 0.0;
            for (child, &crid) in children.iter().zip(&alt.ids) {
                let best = child_best.entry((*child, crid)).or_insert_with(|| {
                    let g = ctx.memo.group(*child);
                    g.best_for(crid).map(|c| (c.cost, c.derived.clone()))
                });
                match best {
                    Some((cost, derived)) => {
                        child_sum += *cost;
                        child_costs.push(*cost);
                        child_derived.push(derived.clone());
                        if exceeds(child_sum, bound) {
                            ctx.memo.metrics().note_context_pruned();
                            continue 'alts;
                        }
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            let delivered = derive_delivered(op, &child_derived, &own.output_cols);

            // Local cost, computed on *per-segment* stream sizes: a
            // replicated child is processed in full on every segment,
            // while a hashed/random child splits across segments. This is
            // exactly what makes broadcast joins lose on large inputs.
            let parallelism = parallelism_for(ctx, &delivered.dist, &own);
            let cost_ctx = CostCtx {
                output: StreamInfo::per_segment(own.stats.rows, own.width, parallelism),
                children: child_ests
                    .iter()
                    .zip(&child_derived)
                    .map(|(est, d)| {
                        let child_par = parallelism_for(ctx, &d.dist, est);
                        StreamInfo::per_segment(est.stats.rows, est.width, child_par)
                    })
                    .collect(),
                parallelism: 1.0,
            };
            let local = ctx.cost.op_cost(op, &cost_ctx);
            let base_cost: f64 = local + child_costs.iter().sum::<f64>();
            if exceeds(base_cost, bound) {
                ctx.memo.metrics().note_context_pruned();
                continue;
            }

            // Enforce missing properties; each chain is its own candidate.
            'chains: for chain in enforcement_chains(&delivered, &req) {
                let mut cost = base_cost;
                let mut cur_dist = delivered.dist.clone();
                for enf in &chain.ops {
                    let par = parallelism_for(ctx, &cur_dist, &own);
                    let enf_ctx = CostCtx {
                        output: StreamInfo::new(own.stats.rows, own.width),
                        children: vec![StreamInfo::new(own.stats.rows, own.width)],
                        parallelism: par,
                    };
                    cost += ctx.cost.op_cost(enf, &enf_ctx);
                    if let PhysicalOp::Motion { kind } = enf {
                        cur_dist = kind.delivered_dist();
                    }
                    if exceeds(cost, bound) {
                        ctx.memo.metrics().note_context_pruned();
                        continue 'chains;
                    }
                }
                // The chain survived the bound: record its enforcers in
                // the Memo (Figure 6 fidelity) and add the candidate.
                // Pruned chains leave no trace.
                for enf in &chain.ops {
                    ctx.memo.insert_enforcer(self.gid, enf.clone());
                }
                debug_assert!(chain.delivered.satisfies(&req));
                // Fingerprint from the request *values*, never the ids:
                // ids are arrival-order dependent across worker counts.
                let fingerprint = Candidate::shape_fingerprint(op, &alt.reqs, &chain.ops);
                ctx.memo.add_candidate(
                    self.gid,
                    self.rid,
                    Candidate {
                        expr: self.eid,
                        child_reqs: alt.ids.clone(),
                        enforcers: chain.ops.clone(),
                        cost,
                        fingerprint,
                        derived: chain.delivered.clone(),
                    },
                );
                // Tighten the bound with the candidate we just proved.
                if bound.is_none_or(|b| cost < b) {
                    bound = Some(cost);
                }
            }
        }
        Ok(())
    }
}

/// Effective parallelism of a stream with the given distribution,
/// discounting skew on hashed keys (precomputed in the group's estimation
/// snapshot).
fn parallelism_for(ctx: &SearchCtx<'_>, dist: &DistSpec, est: &GroupEst) -> f64 {
    match dist {
        DistSpec::Singleton | DistSpec::Replicated => 1.0,
        DistSpec::Hashed(cols) => {
            let skew = cols.iter().map(|c| est.skew_of(*c)).fold(0.0_f64, f64::max);
            ctx.cost.effective_parallelism(skew)
        }
        DistSpec::Any | DistSpec::Random => ctx.cost.cluster.num_segments as f64,
    }
}

fn group_est(ctx: &SearchCtx<'_>, gid: GroupId) -> Result<Arc<GroupEst>> {
    ctx.memo
        .group_est(gid, ctx.registry)
        .ok_or_else(|| OrcaError::Internal(format!("group {gid} missing statistics")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsDeriver;
    use orca_catalog::provider::MdProvider as _;
    use orca_catalog::stats::ColumnStats;
    use orca_catalog::{ColumnMeta, Distribution, MdCache, MemoryProvider, TableStats};
    use orca_common::{ColId, DataType, Datum, SegmentConfig};
    use orca_expr::logical::{JoinKind, LogicalExpr, LogicalOp, TableRef};
    use orca_expr::props::OrderSpec;
    use orca_expr::scalar::ScalarExpr;

    /// Build the paper's running example end to end through the search:
    /// SELECT T1.a FROM T1, T2 WHERE T1.a = T2.b ORDER BY T1.a, with
    /// T1 hashed on a, T2 hashed on a (so T2 must be redistributed on b).
    fn setup() -> (Arc<MemoryProvider>, Arc<ColumnRegistry>, LogicalExpr) {
        let provider = Arc::new(MemoryProvider::new());
        let registry = Arc::new(ColumnRegistry::new());
        for name in ["T1", "T2"] {
            let id = provider.register(
                name,
                vec![
                    ColumnMeta::new("a", DataType::Int),
                    ColumnMeta::new("b", DataType::Int),
                ],
                Distribution::Hashed(vec![0]),
            );
            let rows = if name == "T1" { 10_000.0 } else { 50_000.0 };
            let values: Vec<Datum> = (0..1000).map(|i| Datum::Int(i % 500)).collect();
            let stats = TableStats::new(rows, 2)
                .set_column(0, ColumnStats::from_column(&values, 16))
                .set_column(1, ColumnStats::from_column(&values, 16));
            provider.set_stats(id, stats);
            registry.fresh(&format!("{name}.a"), DataType::Int);
            registry.fresh(&format!("{name}.b"), DataType::Int);
        }
        let t1 = TableRef(
            provider
                .table(provider.table_by_name("T1").unwrap())
                .unwrap(),
        );
        let t2 = TableRef(
            provider
                .table(provider.table_by_name("T2").unwrap())
                .unwrap(),
        );
        let join = LogicalExpr::new(
            LogicalOp::Join {
                kind: JoinKind::Inner,
                pred: ScalarExpr::col_eq_col(ColId(0), ColId(3)),
            },
            vec![
                LogicalExpr::leaf(LogicalOp::Get {
                    table: t1,
                    cols: vec![ColId(0), ColId(1)],
                    parts: None,
                }),
                LogicalExpr::leaf(LogicalOp::Get {
                    table: t2,
                    cols: vec![ColId(2), ColId(3)],
                    parts: None,
                }),
            ],
        );
        (provider, registry, join)
    }

    fn run_search() -> (Memo, GroupId, ReqdProps, Arc<ColumnRegistry>) {
        let (provider, registry, join) = setup();
        let md = MdAccessor::new(MdCache::new(), provider);
        let memo = Memo::new();
        let root = memo.copy_in(&join);
        let rules = RuleSet::all();
        let cost = CostModel::new(Default::default(), SegmentConfig::mpp_16());
        let ctx = SearchCtx {
            memo: &memo,
            rules: &rules,
            registry: &registry,
            md: &md,
            cost: &cost,
        };
        explore(&ctx, root).unwrap();
        StatsDeriver::new(&memo, &md, &registry, 16)
            .derive(root)
            .unwrap();
        // Stats for every canonical group (rules created some).
        for g in memo.canonical_groups() {
            StatsDeriver::new(&memo, &md, &registry, 16)
                .derive(g)
                .unwrap();
        }
        implement(&ctx, root).unwrap();
        let req = ReqdProps::singleton(OrderSpec::by(&[ColId(0)]));
        optimize(&ctx, root, &req).unwrap();
        (memo, root, req, registry)
    }

    #[test]
    fn running_example_full_search() {
        let (memo, root, req, _) = run_search();
        // Exploration added the commuted join (Figure 6 shows both
        // [1,2] and [2,1] plus hash/NL implementations).
        let g = memo.group(root);
        let names: Vec<String> = g.exprs.iter().map(|e| e.op.name()).collect();
        assert!(names.iter().filter(|n| *n == "InnerJoin").count() >= 2);
        assert!(names.iter().any(|n| n == "InnerHashJoin"));
        assert!(names.iter().any(|n| n == "InnerNLJoin"));
        // A best plan exists for the root request.
        let best = g
            .best_for(memo.intern_req(&req))
            .expect("plan for root request");
        assert!(best.cost.is_finite() && best.cost > 0.0);
        // The winning candidate satisfies the request.
        assert!(best.derived.satisfies(&req));
        // Enforcers were recorded in the Memo (Figure 6's black boxes).
        assert!(g.exprs.iter().any(|e| e.is_enforcer));
    }

    #[test]
    fn parallel_search_matches_serial_cost() {
        // Two searches of one query share no state but the inputs, so
        // every difference below is nondeterminism in the search.
        let (memo1, root1, req, _) = run_search();
        let (memo2, root2, req2, _) = run_search();
        let rid1 = memo1.intern_req(&req);
        let rid2 = memo2.intern_req(&req2);
        let c1 = memo1.group(root1).best_for(rid1).unwrap().cost;
        let c2 = memo2.group(root2).best_for(rid2).unwrap().cost;
        assert!(
            (c1 - c2).abs() < 1e-9,
            "two searches must agree: {c1} vs {c2}"
        );
        // Confluence: both runs must converge on the same memo content —
        // same number of canonical groups and live expressions.
        assert_eq!(
            memo1.num_canonical_groups(),
            memo2.num_canonical_groups(),
            "two explorations reached different group counts"
        );
        assert_eq!(memo1.num_exprs(), memo2.num_exprs());
        // Equal cost is necessary but not sufficient: the deterministic
        // tie-break must make the *extracted plans* structurally identical
        // even though group/expr ids differ between the two runs.
        let p1 = crate::extract::extract_plan(&memo1, root1, &req).unwrap();
        let p2 = crate::extract::extract_plan(&memo2, root2, &req2).unwrap();
        assert_eq!(
            p1,
            p2,
            "first plan:\n{}\nsecond plan:\n{}",
            orca_expr::pretty::explain_physical(&p1),
            orca_expr::pretty::explain_physical(&p2)
        );
        // Both memos pass the dedup/directory cross-check.
        memo1.check_integrity().unwrap();
        memo2.check_integrity().unwrap();
    }

    #[test]
    fn plan_extraction_linkage() {
        let (memo, root, req, _) = run_search();
        let plan = crate::extract::extract_plan(&memo, root, &req).unwrap();
        // Shape: GatherMerge/Gather+Sort at top; hash join below; exactly
        // one Redistribute (T2 is hashed on a, the join needs b).
        let text = orca_expr::pretty::explain_physical(&plan);
        assert!(
            text.contains("GatherMerge") || text.contains("Gather"),
            "{text}"
        );
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Redistribute"), "{text}");
        // Final delivered properties satisfy the request.
        assert!(plan.motion_count() >= 2);
    }
}
