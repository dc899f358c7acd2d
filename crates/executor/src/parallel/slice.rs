//! Cutting a physical plan into slices at motion boundaries.
//!
//! A **slice** is a maximal motion-free fragment of the plan. Each
//! Motion node becomes an edge between two slices: its child subtree is
//! the *sender* slice's plan, and the Motion node itself is replaced in
//! the parent fragment by an [`PhysicalOp::ExchangeRecv`] leaf that the
//! kernel resolves against the interconnect. Because every slice feeds
//! exactly one parent motion, the slice graph is a tree rooted at slice
//! 0 (the fragment containing the plan root) — which is what makes the
//! receive-all → compute → send task lifecycle deadlock-free.
//!
//! **Cross-slice CTEs** are the one construct that would break the tree:
//! the CTE stash is kernel-local, so a CteScan sliced away from its
//! CteProducer would read an empty stash. Instead of falling back to the
//! serial engine, `slice_plan` *hoists* each such producer subtree into
//! its own **spool slice** (`spool_output = Some(id)`): the subtree is
//! cut out of its `Sequence`, sliced like any other fragment, and its
//! gang materializes the CTE exactly once per segment into the driver's
//! [`super::spool::SharedSpool`]. Every slice that consumes a hoisted
//! CTE lists it in `spool_inputs` and receives the materialized batches
//! before its kernel runs — broadcast-once semantics without re-running
//! the producer per consumer. Spool slices are self-contained (the CTE
//! dependency graph is acyclic), so the lifecycle stays deadlock-free.

use orca_common::CteId;
use orca_expr::physical::{MotionKind, PhysicalOp, PhysicalPlan};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One motion edge between a sender slice and a receiver slice.
#[derive(Debug, Clone)]
pub struct MotionEdge {
    pub id: usize,
    pub kind: MotionKind,
    pub sender: usize,
    pub receiver: usize,
    /// For `Redistribute` motions: positions of the hash key columns in
    /// the sender fragment's output layout, resolved once at slice time
    /// (the layout is identical across every sender instance). `None`
    /// for other motion kinds, or if a key is not in the layout — the
    /// interconnect then resolves (and reports) it per stream.
    pub key_pos: Option<Vec<usize>>,
}

/// A motion-free plan fragment plus its interconnect endpoints.
#[derive(Debug, Clone)]
pub struct Slice {
    pub id: usize,
    /// The fragment, with each Motion child replaced by `ExchangeRecv`.
    pub root: PhysicalPlan,
    /// Motions whose receiving end is in this slice (discovery order).
    pub inputs: Vec<usize>,
    /// The motion this slice feeds; `None` for the root slice and for
    /// spool slices.
    pub output: Option<usize>,
    /// `Some(id)`: this is a hoisted producer slice. Its gang runs the
    /// producer subtree and publishes the materialized CTE into the
    /// shared spool instead of feeding a motion or the result.
    pub spool_output: Option<CteId>,
    /// Hoisted CTEs this slice consumes. The driver delivers each one
    /// from the shared spool before the slice's kernel runs (sorted).
    pub spool_inputs: Vec<CteId>,
}

/// A plan cut into slices. Slice 0 is the root slice (produces the
/// query result); `motions[i].id == i`.
#[derive(Debug, Clone)]
pub struct SlicedPlan {
    pub slices: Vec<Slice>,
    pub motions: Vec<MotionEdge>,
}

impl SlicedPlan {
    /// Number of hoisted cross-slice CTE producer slices.
    pub fn spool_count(&self) -> usize {
        self.slices
            .iter()
            .filter(|s| s.spool_output.is_some())
            .count()
    }
}

fn blank_slice(id: usize) -> Slice {
    Slice {
        id,
        root: PhysicalPlan::leaf(PhysicalOp::ExchangeRecv { motion: usize::MAX }),
        inputs: Vec::new(),
        output: None,
        spool_output: None,
        spool_inputs: Vec::new(),
    }
}

/// Cut `plan` at every Motion, hoisting cross-slice CTE producers into
/// spool slices.
pub fn slice_plan(plan: &PhysicalPlan) -> SlicedPlan {
    let mut cross = cross_slice_ctes(plan);
    // Hoisting a producer subtree can itself strand a CTE that was local
    // before (the subtree consumes a CTE produced outside it). Grow the
    // hoist set to a fixpoint; it is bounded by the distinct CteIds.
    let (main, spools) = loop {
        let mut spools: Vec<(CteId, PhysicalPlan)> = Vec::new();
        let main = hoist(plan, &cross, &mut spools);
        let mut grew = false;
        for (_, prod) in &spools {
            let mut produced = HashSet::new();
            let mut consumed = HashSet::new();
            collect_ctes(prod, &mut produced, &mut consumed);
            for id in consumed.difference(&produced) {
                grew |= cross.insert(*id);
            }
        }
        if !grew {
            break (main, spools);
        }
    };

    let mut cutter = Cutter {
        slices: vec![blank_slice(0)],
        motions: Vec::new(),
    };
    let root = cutter.cut(&main, 0);
    cutter.slices[0].root = root;
    for (id, prod) in &spools {
        let sid = cutter.slices.len();
        let mut slice = blank_slice(sid);
        slice.spool_output = Some(*id);
        cutter.slices.push(slice);
        let frag = cutter.cut(prod, sid);
        cutter.slices[sid].root = frag;
    }

    // Every slice that reads a hoisted CTE it does not materialize itself
    // takes delivery from the spool.
    let hoisted: HashSet<CteId> = spools.iter().map(|(id, _)| *id).collect();
    for slice in &mut cutter.slices {
        let mut produced = HashSet::new();
        let mut consumed = HashSet::new();
        collect_ctes(&slice.root, &mut produced, &mut consumed);
        let mut needs: Vec<CteId> = consumed
            .difference(&produced)
            .filter(|id| hoisted.contains(id))
            .copied()
            .collect();
        needs.sort();
        slice.spool_inputs = needs;
    }

    SlicedPlan {
        slices: cutter.slices,
        motions: cutter.motions,
    }
}

struct Cutter {
    slices: Vec<Slice>,
    motions: Vec<MotionEdge>,
}

impl Cutter {
    fn cut(&mut self, plan: &PhysicalPlan, current: usize) -> PhysicalPlan {
        if let PhysicalOp::Motion { kind } = &plan.op {
            let motion = self.motions.len();
            let sender = self.slices.len();
            let key_pos = match kind {
                MotionKind::Redistribute(cols) => {
                    let layout = plan.children[0].output_cols();
                    cols.iter()
                        .map(|k| layout.iter().position(|c| c == k))
                        .collect::<Option<Vec<usize>>>()
                }
                _ => None,
            };
            self.motions.push(MotionEdge {
                id: motion,
                kind: kind.clone(),
                sender,
                receiver: current,
                key_pos,
            });
            let mut slice = blank_slice(sender);
            slice.output = Some(motion);
            self.slices.push(slice);
            let frag = self.cut(&plan.children[0], sender);
            self.slices[sender].root = frag;
            self.slices[current].inputs.push(motion);
            return PhysicalPlan::leaf(PhysicalOp::ExchangeRecv { motion });
        }
        let children = plan.children.iter().map(|c| self.cut(c, current)).collect();
        PhysicalPlan::new(plan.op.clone(), children)
    }
}

/// CTE ids whose producer and at least one consumer would land in
/// different slices. Slices are simulated with tokens that advance at
/// every Motion — the same cuts `Cutter` makes.
fn cross_slice_ctes(plan: &PhysicalPlan) -> BTreeSet<CteId> {
    let mut next = 0usize;
    let mut producers: HashMap<CteId, usize> = HashMap::new();
    let mut consumers: Vec<(CteId, usize)> = Vec::new();
    token_walk(plan, 0, &mut next, &mut producers, &mut consumers);
    consumers
        .into_iter()
        // A consumer with no producer anywhere keeps its (pre-existing)
        // "CTE not materialized" runtime error: no Sequence, no hoist.
        .filter(|(id, tok)| producers.get(id).is_some_and(|p| p != tok))
        .map(|(id, _)| id)
        .collect()
}

fn token_walk(
    plan: &PhysicalPlan,
    tok: usize,
    next: &mut usize,
    producers: &mut HashMap<CteId, usize>,
    consumers: &mut Vec<(CteId, usize)>,
) {
    match &plan.op {
        PhysicalOp::CteProducer { id, .. } => {
            producers.insert(*id, tok);
        }
        PhysicalOp::CteScan { id, .. } => consumers.push((*id, tok)),
        _ => {}
    }
    for c in &plan.children {
        let ctok = if matches!(plan.op, PhysicalOp::Motion { .. }) {
            *next += 1;
            *next
        } else {
            tok
        };
        token_walk(c, ctok, next, producers, consumers);
    }
}

/// Rewrite `plan` removing each `Sequence` whose CTE is in `cross`: the
/// producer subtree (child 0) is appended to `spools`, and the node is
/// replaced by its consumer subtree (child 1). Nested hoists recurse.
fn hoist(
    plan: &PhysicalPlan,
    cross: &BTreeSet<CteId>,
    spools: &mut Vec<(CteId, PhysicalPlan)>,
) -> PhysicalPlan {
    if let PhysicalOp::Sequence { id } = &plan.op {
        if cross.contains(id) && plan.children.len() == 2 {
            let producer = hoist(&plan.children[0], cross, spools);
            spools.push((*id, producer));
            return hoist(&plan.children[1], cross, spools);
        }
    }
    let children = plan
        .children
        .iter()
        .map(|c| hoist(c, cross, spools))
        .collect();
    PhysicalPlan::new(plan.op.clone(), children)
}

fn collect_ctes(plan: &PhysicalPlan, produced: &mut HashSet<CteId>, consumed: &mut HashSet<CteId>) {
    match &plan.op {
        PhysicalOp::CteProducer { id, .. } => {
            produced.insert(*id);
        }
        PhysicalOp::CteScan { id, .. } => {
            consumed.insert(*id);
        }
        _ => {}
    }
    for c in &plan.children {
        collect_ctes(c, produced, consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_common::ColId;
    use orca_expr::props::OrderSpec;

    fn leaf() -> PhysicalPlan {
        PhysicalPlan::leaf(PhysicalOp::ConstTable {
            cols: vec![ColId(0)],
            rows: Vec::new(),
        })
    }

    fn motion(kind: MotionKind, child: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::new(PhysicalOp::Motion { kind }, vec![child])
    }

    #[test]
    fn no_motion_is_one_slice() {
        let sliced = slice_plan(&leaf());
        assert_eq!(sliced.slices.len(), 1);
        assert!(sliced.motions.is_empty());
        assert!(sliced.slices[0].inputs.is_empty());
        assert!(sliced.slices[0].output.is_none());
        assert_eq!(sliced.spool_count(), 0);
    }

    #[test]
    fn nested_motions_form_a_chain() {
        // Gather over Redistribute: three slices, two motions.
        let plan = motion(
            MotionKind::Gather,
            motion(MotionKind::Redistribute(vec![ColId(0)]), leaf()),
        );
        let sliced = slice_plan(&plan);
        assert_eq!(sliced.slices.len(), 3);
        assert_eq!(sliced.motions.len(), 2);
        // Root slice receives motion 0 (the Gather edge).
        assert_eq!(sliced.slices[0].inputs, vec![0]);
        assert!(matches!(
            sliced.slices[0].root.op,
            PhysicalOp::ExchangeRecv { motion: 0 }
        ));
        // The Gather's sender slice receives the Redistribute edge.
        assert_eq!(sliced.motions[0].receiver, 0);
        let mid = sliced.motions[0].sender;
        assert_eq!(sliced.slices[mid].inputs, vec![1]);
        assert_eq!(sliced.slices[mid].output, Some(0));
        assert_eq!(sliced.motions[1].receiver, mid);
        let bottom = sliced.motions[1].sender;
        assert_eq!(sliced.slices[bottom].inputs, Vec::<usize>::new());
        assert_eq!(sliced.slices[bottom].output, Some(1));
    }

    #[test]
    fn sibling_motions_share_a_receiver() {
        // A two-input operator with a motion under each child.
        let join = PhysicalPlan::new(
            PhysicalOp::UnionAll {
                output: vec![ColId(0)],
                input_cols: vec![vec![ColId(0)], vec![ColId(0)]],
            },
            vec![
                motion(MotionKind::Broadcast, leaf()),
                motion(MotionKind::GatherMerge(OrderSpec::by(&[ColId(0)])), leaf()),
            ],
        );
        let sliced = slice_plan(&join);
        assert_eq!(sliced.slices.len(), 3);
        assert_eq!(sliced.slices[0].inputs, vec![0, 1]);
        assert!(sliced.motions.iter().all(|m| m.receiver == 0));
    }

    fn produce(id: u32) -> PhysicalPlan {
        PhysicalPlan::new(
            PhysicalOp::CteProducer {
                id: CteId(id),
                cols: vec![ColId(0)],
            },
            vec![leaf()],
        )
    }

    fn scan_cte(id: u32) -> PhysicalPlan {
        PhysicalPlan::leaf(PhysicalOp::CteScan {
            id: CteId(id),
            cols: vec![ColId(1)],
            producer_cols: vec![ColId(0)],
        })
    }

    #[test]
    fn local_cte_is_not_hoisted() {
        let local = PhysicalPlan::new(
            PhysicalOp::Sequence { id: CteId(7) },
            vec![produce(7), scan_cte(7)],
        );
        let sliced = slice_plan(&local);
        assert_eq!(sliced.slices.len(), 1);
        assert_eq!(sliced.spool_count(), 0);
        assert!(sliced.slices[0].spool_inputs.is_empty());
        // The Sequence survives untouched.
        assert!(matches!(
            sliced.slices[0].root.op,
            PhysicalOp::Sequence { .. }
        ));
    }

    #[test]
    fn cross_slice_cte_is_hoisted_into_a_spool_slice() {
        // Motion between producer and consumer: the producer subtree is
        // hoisted, the Sequence disappears, the consumer slice takes
        // spool delivery.
        let split = PhysicalPlan::new(
            PhysicalOp::Sequence { id: CteId(7) },
            vec![produce(7), motion(MotionKind::Gather, scan_cte(7))],
        );
        let sliced = slice_plan(&split);
        // Root slice (gather receiver), consumer sender slice, spool slice.
        assert_eq!(sliced.slices.len(), 3);
        assert_eq!(sliced.spool_count(), 1);
        let spool = sliced
            .slices
            .iter()
            .find(|s| s.spool_output == Some(CteId(7)))
            .unwrap();
        assert!(spool.output.is_none());
        assert!(matches!(spool.root.op, PhysicalOp::CteProducer { .. }));
        // The consumer slice waits on the spool; no Sequence anywhere.
        let consumer = &sliced.slices[sliced.motions[0].sender];
        assert_eq!(consumer.spool_inputs, vec![CteId(7)]);
        for s in &sliced.slices {
            let mut stack = vec![&s.root];
            while let Some(p) = stack.pop() {
                assert!(!matches!(p.op, PhysicalOp::Sequence { id: CteId(7) }));
                stack.extend(p.children.iter());
            }
        }
    }

    #[test]
    fn hoisted_producer_consuming_another_cte_forces_both_to_spool() {
        // Sequence{A, Sequence{B over CteScan(A), motion(CteScan(B))}}:
        // B is cross (motion below its consumer), and hoisting B strands
        // A's consumer inside B's spool slice — so A must spool too.
        let prod_b = PhysicalPlan::new(
            PhysicalOp::CteProducer {
                id: CteId(2),
                cols: vec![ColId(0)],
            },
            vec![scan_cte(1)],
        );
        let inner = PhysicalPlan::new(
            PhysicalOp::Sequence { id: CteId(2) },
            vec![prod_b, motion(MotionKind::Gather, scan_cte(2))],
        );
        let plan = PhysicalPlan::new(
            PhysicalOp::Sequence { id: CteId(1) },
            vec![produce(1), inner],
        );
        let sliced = slice_plan(&plan);
        assert_eq!(sliced.spool_count(), 2);
        let spool_b = sliced
            .slices
            .iter()
            .find(|s| s.spool_output == Some(CteId(2)))
            .unwrap();
        assert_eq!(spool_b.spool_inputs, vec![CteId(1)]);
    }
}
