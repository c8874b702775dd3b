//! Incremental re-solving: retained per-node fronts plus a dirty-path
//! recompute.
//!
//! A what-if question ("how does the front move if this BAS gets cheaper /
//! this gate becomes an AND / this step is defended?") touches a handful of
//! nodes. On a treelike tree the front of every *clean* subtree is unchanged,
//! so only the touched nodes and their ancestors — the dirty root paths —
//! need re-evaluation. [`RetainedFronts`] keeps the full bottom-up solve in
//! kernel (staircase) form; [`RetainedFronts::delta`] re-runs the exact gate
//! fold of the scratch solver over the dirty nodes, borrowing every clean
//! child front from the retained solve.
//!
//! **Byte-identity invariant**: `delta` replicates the scratch recursion
//! operation for operation — the same leaf construction, the same pairwise
//! [`GateScratch`] fold in the same child order, the same settle — and clean
//! child fronts are values a scratch solve of the patched tree would compute
//! bit-for-bit (the patch does not reach them). The resulting root front,
//! witnesses included, is therefore *identical* (not merely equivalent) to a
//! from-scratch solve; the engine and server lean on this to serve what-if
//! responses byte-identical to uncached ones.
//!
//! **Witness-free fold**: when the caller does not want witnesses
//! (`witnesses == false`), dirty leaves and gate products carry `None`
//! payloads instead of building an [`Attack`] union per kept entry. The
//! values, and their order, are the same as in the witnessed fold, because
//! no step looks at a payload when it decides what survives or where:
//! [`GateScratch::combine`] pops candidates by value and breaks ties on
//! (row, col), [`GateScratch::settle`] and [`Staircase::minimized`] sort
//! stably on values and collapse duplicates by value, and
//! [`ParetoFront::from_entries`] sorts on points. So the witness-free root
//! front is the witnessed one with its witnesses stripped.

use cdat_core::{Attack, AttackTree, BasId, NodeId, NodeType, NotTreelike};
use cdat_pareto::{Activation, GateScratch, Prob, Staircase, Triple};

use crate::recursion::{join_witnesses, staircase_fronts, Front};
use crate::solver::{det_leaf, prob_leaf, project};
use cdat_core::{CdAttackTree, CdpAttackTree};
use cdat_pareto::ParetoFront;

/// A full bottom-up solve with every per-node front retained in staircase
/// form (budget `∞`, witnesses on), ready for incremental reuse.
pub struct RetainedFronts<A: Activation> {
    fronts: Vec<Front<A>>,
}

/// Counters describing one delta recompute.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Nodes re-evaluated: the patched nodes plus their ancestors.
    pub dirty_nodes: usize,
    /// Clean child fronts borrowed from the retained solve.
    pub reused_fronts: usize,
}

/// Retains the deterministic solve of a treelike cd-AT; its
/// [`root_front`](RetainedFronts::root_front) equals [`crate::cdpf`].
///
/// # Errors
///
/// Returns [`NotTreelike`] for DAG-like trees.
pub fn retain_cdpf(cd: &CdAttackTree) -> Result<RetainedFronts<bool>, NotTreelike> {
    Ok(RetainedFronts {
        fronts: staircase_fronts(cd.tree(), cd.damages(), det_leaf(cd), None, true)?,
    })
}

/// Retains the probabilistic solve of a treelike cdp-AT; its
/// [`root_front`](RetainedFronts::root_front) equals [`crate::cedpf`].
///
/// # Errors
///
/// Returns [`NotTreelike`] for DAG-like trees.
pub fn retain_cedpf(cdp: &CdpAttackTree) -> Result<RetainedFronts<Prob>, NotTreelike> {
    Ok(RetainedFronts {
        fronts: staircase_fronts(cdp.tree(), cdp.cd().damages(), prob_leaf(cdp), None, true)?,
    })
}

impl<A: Activation> RetainedFronts<A> {
    /// The projected root front, exactly as the scratch solver returns it.
    pub fn root_front(&self, tree: &AttackTree) -> ParetoFront {
        project(self.fronts[tree.root().index()].entries().to_vec())
    }

    /// Size of the retained solve in cache points, mirroring the engine's
    /// root-entry convention: one point per front entry plus one per tracked
    /// witness.
    pub fn points(&self) -> usize {
        self.fronts
            .iter()
            .map(|f| f.len() + f.entries().iter().filter(|(_, w)| w.is_some()).count())
            .sum()
    }

    /// Re-solves the tree under a patch, recomputing only the dirty nodes.
    ///
    /// * `tree` — the base tree the retained solve was computed on (the
    ///   patch cannot change the shape, so the same topology applies);
    /// * `damages` — the **patched** damage table, full length;
    /// * `leaf` — the **patched** activating leaf triple, or `None` for a
    ///   defended (forced-off) BAS, whose front collapses to the do-nothing
    ///   entry;
    /// * `node_type` — the **patched** node type (gate swaps applied);
    /// * `touched` — the nodes whose own front the patch changes
    ///   ([`cdat_core::TreePatch::touched`]); ancestors are closed over
    ///   internally;
    /// * `witnesses` — whether recomputed entries carry witness attacks.
    ///
    /// Returns the projected root front — bit-for-bit what a scratch solve
    /// of the patched tree returns (see the module docs) — plus the dirty /
    /// reuse counters. Without `witnesses`, recomputed entries carry `None`
    /// (entries reused verbatim may still carry theirs); the points are
    /// the same either way.
    pub fn delta(
        &self,
        tree: &AttackTree,
        damages: &[f64],
        leaf: impl Fn(BasId) -> Option<Triple<A>>,
        node_type: impl Fn(NodeId) -> NodeType,
        touched: &[NodeId],
        witnesses: bool,
    ) -> (ParetoFront, DeltaStats) {
        let n = tree.node_count();
        assert_eq!(self.fronts.len(), n, "retained solve matches the tree");
        assert_eq!(damages.len(), n, "damage table must be indexed by node id");

        // Close the touched set over ancestors: every node above a patched
        // one is dirty too (treelike, so this is the union of root paths).
        let mut dirty = vec![false; n];
        let mut stack: Vec<NodeId> = touched.to_vec();
        for &v in touched {
            dirty[v.index()] = true;
        }
        while let Some(v) = stack.pop() {
            for &p in tree.parents(v) {
                if !std::mem::replace(&mut dirty[p.index()], true) {
                    stack.push(p);
                }
            }
        }

        let mut stats = DeltaStats::default();
        if touched.is_empty() {
            // Nothing changed: the retained root front is the answer.
            stats.reused_fronts = 1;
            return (self.root_front(tree), stats);
        }

        let mut scratch: GateScratch<cdat_pareto::CdTriples<A>, Option<Attack>> =
            GateScratch::new();
        let join = |a: &Option<Attack>, b: &Option<Attack>| {
            if witnesses {
                join_witnesses(a, b)
            } else {
                None
            }
        };
        let mut fresh: Vec<Option<Front<A>>> = vec![None; n];
        // Ids are topological (children before parents), so one ascending
        // pass settles every dirty node after its children.
        for v in tree.node_ids() {
            if !dirty[v.index()] {
                continue;
            }
            stats.dirty_nodes += 1;
            let front = match node_type(v) {
                NodeType::Bas => {
                    let b = tree.bas_of_node(v).expect("leaf has a BAS id");
                    let n_bas = tree.bas_count();
                    let mut entries = Vec::with_capacity(2);
                    entries.push((Triple::zero(), witnesses.then(|| Attack::empty(n_bas))));
                    if let Some(active) = leaf(b) {
                        entries.push((active, witnesses.then(|| Attack::from_bas_ids(n_bas, [b]))));
                    }
                    Staircase::minimized(entries, None)
                }
                gate @ (NodeType::Or | NodeType::And) => {
                    let or_gate = matches!(gate, NodeType::Or);
                    let kids = tree.children(v);
                    let dv = damages[v.index()];
                    stats.reused_fronts += kids.iter().filter(|c| !dirty[c.index()]).count();
                    let child = |c: NodeId| -> &Front<A> {
                        fresh[c.index()].as_ref().unwrap_or(&self.fronts[c.index()])
                    };
                    if let [only] = kids {
                        scratch.settle_cloned(child(*only), dv)
                    } else {
                        let mut acc =
                            scratch.combine(or_gate, child(kids[0]), child(kids[1]), None, join);
                        for c in &kids[2..] {
                            let next = scratch.combine(or_gate, &acc, child(*c), None, join);
                            scratch.recycle(acc);
                            acc = next;
                        }
                        scratch.settle(acc, dv)
                    }
                }
            };
            fresh[v.index()] = Some(front);
        }

        let root = tree.root().index();
        let entries = match fresh[root].take() {
            Some(front) => front.into_entries(),
            // The root is clean only when `touched` was empty, handled above;
            // defensively fall back to the retained root.
            None => self.fronts[root].entries().to_vec(),
        };
        (project(entries), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cdpf, cedpf};
    use cdat_core::{AttackTreeBuilder, TreePatch};

    fn factory_cdp() -> CdpAttackTree {
        let mut b = AttackTreeBuilder::new();
        let ca = b.bas("ca");
        let pb = b.bas("pb");
        let fd = b.bas("fd");
        let dr = b.and("dr", [pb, fd]);
        let _ps = b.or("ps", [ca, dr]);
        let tree = b.build().unwrap();
        let mut damage = vec![0.0; 5];
        damage[2] = 10.0;
        damage[3] = 100.0;
        damage[4] = 200.0;
        let cd = CdAttackTree::from_parts(tree, vec![1.0, 3.0, 2.0], damage).unwrap();
        CdpAttackTree::from_parts(cd, vec![0.2, 0.4, 0.9]).unwrap()
    }

    /// Exhaustive byte-identity check of a deterministic delta against a
    /// scratch solve of the materialized patch.
    fn check_det(base: &CdpAttackTree, patch: &TreePatch) {
        let patched = patch.apply(base).unwrap();
        let scratch = cdpf(patched.cd()).unwrap();
        let retained = retain_cdpf(base.cd()).unwrap();
        let mut costs = base.cd().costs().to_vec();
        for &(b, c) in &patch.costs {
            costs[b.index()] = c;
        }
        let mut damages = base.cd().damages().to_vec();
        for &(v, d) in &patch.damages {
            damages[v.index()] = d;
        }
        let types: Vec<NodeType> = {
            let mut t: Vec<NodeType> =
                base.tree().node_ids().map(|v| base.tree().node_type(v)).collect();
            for &(v, ty) in &patch.gates {
                t[v.index()] = ty;
            }
            t
        };
        let delta = |witnesses: bool| {
            retained.delta(
                base.tree(),
                &damages,
                |b| {
                    Some(Triple {
                        cost: costs[b.index()],
                        damage: damages[base.tree().node_of_bas(b).index()],
                        act: true,
                    })
                },
                |v| types[v.index()],
                &patch.touched(base.tree()),
                witnesses,
            )
        };
        let (front, stats) = delta(true);
        assert_eq!(front, scratch, "delta front must be identical to scratch");
        assert!(stats.dirty_nodes <= base.tree().node_count());
        let (bare, bare_stats) = delta(false);
        assert_eq!(
            bare.without_witnesses(),
            scratch.without_witnesses(),
            "the witness-free fold keeps the same points in the same order"
        );
        assert_eq!(bare_stats, stats);
    }

    #[test]
    fn empty_patch_returns_the_retained_root() {
        let base = factory_cdp();
        let retained = retain_cdpf(base.cd()).unwrap();
        let (front, stats) = retained.delta(
            base.tree(),
            base.cd().damages(),
            |b| {
                Some(Triple {
                    cost: base.cd().cost(b),
                    damage: base.cd().damage(base.tree().node_of_bas(b)),
                    act: true,
                })
            },
            |v| base.tree().node_type(v),
            &[],
            true,
        );
        assert_eq!(front, cdpf(base.cd()).unwrap());
        assert_eq!(stats, DeltaStats { dirty_nodes: 0, reused_fronts: 1 });
    }

    #[test]
    fn attribute_and_gate_deltas_match_scratch_solves() {
        let base = factory_cdp();
        check_det(&base, &TreePatch { costs: vec![(BasId::new(0), 9.0)], ..Default::default() });
        check_det(&base, &TreePatch { damages: vec![(NodeId::new(3), 5.0)], ..Default::default() });
        check_det(
            &base,
            &TreePatch { gates: vec![(NodeId::new(4), NodeType::And)], ..Default::default() },
        );
        check_det(
            &base,
            &TreePatch {
                costs: vec![(BasId::new(1), 0.5), (BasId::new(2), 11.0)],
                damages: vec![(NodeId::new(4), 300.0)],
                gates: vec![(NodeId::new(3), NodeType::Or)],
                ..Default::default()
            },
        );
    }

    #[test]
    fn probabilistic_delta_matches_scratch() {
        let base = factory_cdp();
        let patch = TreePatch {
            probs: vec![(BasId::new(2), 0.25)],
            costs: vec![(BasId::new(0), 4.0)],
            ..Default::default()
        };
        let patched = patch.apply(&base).unwrap();
        let scratch = cedpf(&patched).unwrap();
        let retained = retain_cedpf(&base).unwrap();
        let mut costs = base.cd().costs().to_vec();
        for &(b, c) in &patch.costs {
            costs[b.index()] = c;
        }
        let mut probs = base.probs().to_vec();
        for &(b, p) in &patch.probs {
            probs[b.index()] = p;
        }
        let damages = base.cd().damages();
        let (front, stats) = retained.delta(
            base.tree(),
            damages,
            |b| {
                let p = probs[b.index()];
                Some(Triple {
                    cost: costs[b.index()],
                    damage: p * damages[base.tree().node_of_bas(b).index()],
                    act: Prob::new(p),
                })
            },
            |v| base.tree().node_type(v),
            &patch.touched(base.tree()),
            true,
        );
        assert_eq!(front, scratch);
        assert!(stats.reused_fronts > 0);
    }

    #[test]
    fn defend_collapses_the_leaf_and_dirties_its_root_path() {
        // Forcing ca off must equal solving the tree where ca's activation
        // is impossible; compare against the scratch solve of the residual
        // branch: with ca off, only {∅, {pb,fd}} attacks remain.
        let base = factory_cdp();
        let retained = retain_cdpf(base.cd()).unwrap();
        let tree = base.tree();
        let defended = BasId::new(0); // ca
        let patch = TreePatch { defends: vec![defended], ..Default::default() };
        let (front, stats) = retained.delta(
            tree,
            base.cd().damages(),
            |b| {
                (b != defended).then(|| Triple {
                    cost: base.cd().cost(b),
                    damage: base.cd().damage(tree.node_of_bas(b)),
                    act: true,
                })
            },
            |v| tree.node_type(v),
            &patch.touched(tree),
            true,
        );
        // ca's node and the root are dirty; dr's subtree front is reused.
        assert_eq!(stats.dirty_nodes, 2);
        assert_eq!(stats.reused_fronts, 1);
        let points: Vec<(f64, f64)> = front.points().map(|p| (p.cost, p.damage)).collect();
        assert_eq!(points, vec![(0.0, 0.0), (2.0, 10.0), (5.0, 310.0)]);
        // No surviving witness mentions ca.
        for e in front.entries() {
            assert!(!e.witness.as_ref().unwrap().contains(defended));
        }
    }

    #[test]
    fn retained_root_front_is_the_scratch_front() {
        let base = factory_cdp();
        let det = retain_cdpf(base.cd()).unwrap();
        assert_eq!(det.root_front(base.tree()), cdpf(base.cd()).unwrap());
        let prob = retain_cedpf(&base).unwrap();
        assert_eq!(prob.root_front(base.tree()), cedpf(&base).unwrap());
        assert!(det.points() > 0);
    }
}
