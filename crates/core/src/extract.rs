//! Plan extraction (§4.1, Figure 6).
//!
//! "The best plan is extracted from the Memo based on the linkage structure
//! given by optimization requests... Each local hash table maps incoming
//! optimization request to corresponding child optimization requests."
//!
//! Extraction walks the winning [`crate::memo::Candidate`] of each
//! `(group, request)` context: take its expression, recurse into the child
//! requests it recorded, then wrap its enforcers around the result.
//! Candidates store child requests as interned [`ReqId`]s, so the recursion
//! never re-hashes a `ReqdProps` — the public entry points intern the
//! caller's request once and walk by id.

use crate::memo::{GroupId, Memo, Operator};
use crate::props::{ReqId, ReqdProps};
use orca_common::{OrcaError, Result};
use orca_expr::physical::PhysicalPlan;

/// Extract the least-cost plan for `(group, req)`.
///
/// `gid` may be any member of its §4.2 merge equivalence class —
/// `Memo::group` resolves it to the canonical group. The candidate's
/// expression id is trusted directly: `Memo::add_candidate` re-resolves
/// ids when recording, and no merge can run after the optimization phase
/// (its only inserts are self-referential enforcers), so recorded ids
/// cannot go stale by extraction time.
pub fn extract_plan(memo: &Memo, gid: GroupId, req: &ReqdProps) -> Result<PhysicalPlan> {
    extract_by_id(memo, gid, memo.intern_req(req))
}

/// Id-keyed extraction workhorse: the recursion over candidate child
/// requests stays in `ReqId` space.
pub fn extract_by_id(memo: &Memo, gid: GroupId, rid: ReqId) -> Result<PhysicalPlan> {
    let (op, children, child_reqs, enforcers) = {
        let g = memo.group(gid);
        let cand = g.best_for(rid).ok_or_else(|| {
            let req = memo.req_props(rid);
            OrcaError::NoPlan(format!("no plan for request {req} in group {gid}"))
        })?;
        let e = &g.exprs[cand.expr];
        let Operator::Physical(op) = e.op.clone() else {
            return Err(OrcaError::Internal(format!(
                "best candidate in {gid} is not physical"
            )));
        };
        (
            op,
            e.children.clone(),
            cand.child_reqs.clone(),
            cand.enforcers.clone(),
        )
    };
    let child_plans: Vec<PhysicalPlan> = children
        .iter()
        .zip(&child_reqs)
        .map(|(c, creq)| extract_by_id(memo, *c, *creq))
        .collect::<Result<_>>()?;
    let mut plan = PhysicalPlan::new(op, child_plans);
    for enf in enforcers {
        plan = PhysicalPlan::new(enf, vec![plan]);
    }
    Ok(plan)
}

/// The estimated cost of the best plan for `(group, req)`.
pub fn best_cost(memo: &Memo, gid: GroupId, req: &ReqdProps) -> Result<f64> {
    let rid = memo.intern_req(req);
    let g = memo.group(gid);
    g.best_for(rid)
        .map(|c| c.cost)
        .ok_or_else(|| OrcaError::NoPlan(format!("no plan for request {req} in group {gid}")))
}
