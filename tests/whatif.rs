//! Subtree-digest and incremental what-if invariants.
//!
//! The per-subtree canonical digests of
//! [`cdat::core::canonical::subtree_hashes_cd`] / [`subtree_hashes_cdp`]
//! must obey exactly the root hash's discipline: invariant under renaming,
//! renumbering and sibling permutation; sensitive to sharing (a shared
//! subtree is not two copies of it); and literally equal to the root
//! [`StructuralHash`] at the root node. Each property gets a test here,
//! plus randomized end-to-end checks that the incremental what-if path
//! answers byte-identically to a scratch solve of the materialized
//! variant, whatever the sweep width and with witnesses on or off.

use std::sync::Arc;

use cdat::core::canonical::{hash_cd, hash_cdp, subtree_hashes_cd, subtree_hashes_cdp};
use cdat::engine::{BatchRequest, DeltaRequest, Engine, Query, Response, TreePatch};
use cdat::gen::{decorate_prob, isomorphic_copy, random_dag, random_small};
use cdat::{
    AttackTreeBuilder, BasId, CdAttackTree, CdpAttackTree, FrontEntry, NodeId, NodeType,
    ParetoFront,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const CASES: u64 = 24;

/// Digest multisets (and the root digest) survive `isomorphic_copy`: the
/// copy renames every node, renumbers them in a random topological order
/// and shuffles every gate's children, yet each subtree keeps its digest.
#[test]
fn subtree_digests_are_stable_under_isomorphic_renumbering() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5D1_0000 + seed);
        let treelike = seed % 2 == 0;
        let cdp = decorate_prob(random_small(&mut rng, 16, treelike), &mut rng);
        let copy = isomorphic_copy(&cdp, &mut rng);

        // Node ids are permuted, so compare digests as sorted multisets…
        let mut ours = subtree_hashes_cdp(&cdp);
        let mut theirs = subtree_hashes_cdp(&copy);
        let (our_root, their_root) =
            (ours[cdp.tree().root().index()], theirs[copy.tree().root().index()]);
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "digest multiset changed under renumbering (seed {seed})");
        // …except the root's, which is id-addressable on both sides.
        assert_eq!(our_root, their_root, "root digest changed under renumbering (seed {seed})");

        // Same discipline without probabilities.
        let mut ours = subtree_hashes_cd(cdp.cd());
        let mut theirs = subtree_hashes_cd(copy.cd());
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "cd digest multiset changed under renumbering (seed {seed})");
    }
}

/// Two builds of the same tree that differ only in the order children are
/// listed get identical node numbering, and identical digests node for
/// node.
#[test]
fn subtree_digests_ignore_sibling_permutation() {
    let build = |permute: bool| {
        let mut b = AttackTreeBuilder::new();
        let ca = b.bas("cyberattack");
        let pb = b.bas("place bomb");
        let fd = b.bas("force door");
        let dr = if permute {
            b.and("destroy robot", [fd, pb])
        } else {
            b.and("destroy robot", [pb, fd])
        };
        if permute {
            b.or("production shutdown", [dr, ca]);
        } else {
            b.or("production shutdown", [ca, dr]);
        }
        let tree = b.build().expect("valid tree");
        let cost = vec![1.0, 3.0, 2.0];
        let damage = vec![0.0, 0.0, 10.0, 100.0, 200.0];
        CdAttackTree::from_parts(tree, cost, damage).expect("valid attributes")
    };
    let (plain, permuted) = (build(false), build(true));
    assert_eq!(
        subtree_hashes_cd(&plain),
        subtree_hashes_cd(&permuted),
        "sibling order leaked into a subtree digest"
    );
    assert_eq!(hash_cd(&plain), hash_cd(&permuted));
}

/// A subtree shared by two parents is not the same tree as two equal-shape
/// copies of it: the copies themselves hash like the shared original (an
/// equal-shape sub-DAG is an equal digest), but any ancestor that can see
/// the sharing hashes differently.
#[test]
fn subtree_digests_distinguish_shared_from_copied() {
    // S: d = AND(x, y) shared by both OR arms.
    let mut b = AttackTreeBuilder::new();
    let x = b.bas("x");
    let y = b.bas("y");
    let a = b.bas("a");
    let c = b.bas("c");
    let d = b.and("d", [x, y]);
    let u_s = b.or("u", [d, a]);
    let v_s = b.or("v", [d, c]);
    let root_s = b.and("root", [u_s, v_s]);
    let shared = CdAttackTree::from_parts(
        b.build().expect("valid tree"),
        vec![2.0, 3.0, 5.0, 7.0],
        vec![0.0; 8],
    )
    .expect("valid attributes");

    // C: the same shape except each OR arm owns its private copy of d.
    let mut b = AttackTreeBuilder::new();
    let x1 = b.bas("x1");
    let y1 = b.bas("y1");
    let x2 = b.bas("x2");
    let y2 = b.bas("y2");
    let a = b.bas("a");
    let c = b.bas("c");
    let d1 = b.and("d1", [x1, y1]);
    let d2 = b.and("d2", [x2, y2]);
    let u_c = b.or("u", [d1, a]);
    let v_c = b.or("v", [d2, c]);
    let root_c = b.and("root", [u_c, v_c]);
    let copied = CdAttackTree::from_parts(
        b.build().expect("valid tree"),
        vec![2.0, 3.0, 2.0, 3.0, 5.0, 7.0],
        vec![0.0; 11],
    )
    .expect("valid attributes");

    let ds = subtree_hashes_cd(&shared);
    let dc = subtree_hashes_cd(&copied);
    // The copies are equal-shape sub-DAGs of the shared original, so all
    // three carry one digest…
    assert_eq!(ds[d.index()], dc[d1.index()]);
    assert_eq!(ds[d.index()], dc[d2.index()]);
    // …and from inside a single OR arm the sharing is invisible…
    assert_eq!(ds[u_s.index()], dc[u_c.index()]);
    // …but the root sees d once in S and twice in C.
    assert_ne!(
        ds[root_s.index()],
        dc[root_c.index()],
        "root digest failed to distinguish a shared subtree from two copies"
    );
    assert_ne!(hash_cd(&shared), hash_cd(&copied));
}

/// At the root node the per-subtree digest IS the canonical structural
/// hash — the identity that lets the memo share keys with the front cache.
#[test]
fn root_digest_agrees_with_the_structural_hash() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5D1_1000 + seed);
        let cdp = decorate_prob(random_small(&mut rng, 16, seed % 2 == 0), &mut rng);
        let root = cdp.tree().root().index();
        assert_eq!(
            subtree_hashes_cdp(&cdp)[root],
            hash_cdp(&cdp),
            "cdp root digest diverged from hash_cdp (seed {seed})"
        );
        assert_eq!(
            subtree_hashes_cd(cdp.cd())[root],
            hash_cd(cdp.cd()),
            "cd root digest diverged from hash_cd (seed {seed})"
        );
    }
}

/// End to end: on random treelike trees, a what-if answer through the
/// incremental path equals a scratch solve of the materialized variant —
/// for attribute edits and gate swaps, deterministic and probabilistic.
#[test]
fn whatif_answers_equal_scratch_solves_of_the_materialized_variant() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5D1_2000 + seed);
        let base = Arc::new(decorate_prob(random_small(&mut rng, 12, true), &mut rng));
        let tree = base.tree();

        let bas = BasId::new(rng.gen_range(0..tree.bas_count()));
        let node = NodeId::new(rng.gen_range(0..tree.node_count()));
        // A single-BAS tree has no gate to swap; the attribute edits still
        // exercise the delta path there.
        let gates: Vec<NodeId> =
            tree.node_ids().filter(|&v| tree.node_type(v) != NodeType::Bas).collect();
        let gate_swaps = match gates.as_slice() {
            [] => vec![],
            _ => {
                let gate = gates[rng.gen_range(0..gates.len())];
                let flipped =
                    if tree.node_type(gate) == NodeType::Or { NodeType::And } else { NodeType::Or };
                vec![(gate, flipped)]
            }
        };
        let patch = TreePatch {
            costs: vec![(bas, base.cd().cost(bas) + 2.0)],
            damages: vec![(node, base.cd().damage(node) + 5.0)],
            gates: gate_swaps,
            ..TreePatch::default()
        };
        let patched = Arc::new(patch.apply(&base).expect("patch materializes"));

        for query in [Query::Cdpf, Query::Cedpf, Query::Dgc(6.0), Query::Edgc(6.0)] {
            let scratch = Engine::new(1).run(&[BatchRequest::new(patched.clone(), query)]);
            let delta =
                Engine::new(1).whatif(&DeltaRequest::new(base.clone(), query, patch.clone()));
            assert_eq!(
                scratch[0].response, delta.response,
                "incremental what-if diverged from scratch (seed {seed}, query {query:?})"
            );
        }
    }
}

/// The cost a defended BAS takes in the materialized reference. A defend
/// has no standalone tree, so the reference prices the BAS out instead:
/// every attack using it costs at least this much, more than any attack of
/// the generated trees without it, and its entries sort after every
/// cheaper one. The cheap part of the reference answer is then the
/// defended variant's answer, witnesses included.
const DEFENDED_COST: f64 = 1e6;

/// A random multi-edit patch: one to four cost, damage, probability, gate
/// or defend edits.
fn random_patch(rng: &mut StdRng, base: &CdpAttackTree) -> TreePatch {
    let tree = base.tree();
    let gates: Vec<NodeId> = tree.node_ids().filter(|&v| tree.node_type(v).is_gate()).collect();
    let mut patch = TreePatch::default();
    for _ in 0..rng.gen_range(1..=4) {
        let bas = BasId::new(rng.gen_range(0..tree.bas_count()));
        match rng.gen_range(0..5) {
            0 => patch.costs.push((bas, f64::from(rng.gen_range(0..=12)))),
            1 => {
                let node = NodeId::new(rng.gen_range(0..tree.node_count()));
                patch.damages.push((node, f64::from(rng.gen_range(0..=12))));
            }
            2 => patch.probs.push((bas, f64::from(rng.gen_range(0..=10)) / 10.0)),
            3 => {
                let gate = gates[rng.gen_range(0..gates.len())];
                let flipped =
                    if tree.node_type(gate) == NodeType::Or { NodeType::And } else { NodeType::Or };
                patch.gates.push((gate, flipped));
            }
            _ => patch.defends.push(bas),
        }
    }
    patch
}

/// The variant as a standalone tree, defends priced out at
/// [`DEFENDED_COST`].
fn materialize(base: &CdpAttackTree, patch: &TreePatch) -> Arc<CdpAttackTree> {
    let mut stand_in = patch.clone();
    stand_in.costs.extend(stand_in.defends.drain(..).map(|b| (b, DEFENDED_COST)));
    Arc::new(stand_in.apply(base).expect("a defend-free patch materializes"))
}

/// Drops the answers that need a priced-out BAS from a reference response.
fn without_defended(response: Response) -> Response {
    match response {
        Response::Front(front) => Response::Front(ParetoFront::from_entries(
            front.entries().iter().filter(|e| e.point.cost < DEFENDED_COST).cloned(),
        )),
        Response::Entry(Some(e)) if e.point.cost >= DEFENDED_COST => Response::Entry(None),
        other => other,
    }
}

/// A response with its witnesses removed.
fn stripped(response: &Response) -> Response {
    let bare = |e: &FrontEntry| FrontEntry { point: e.point, witness: None };
    match response {
        Response::Front(front) => Response::Front(front.without_witnesses()),
        Response::Entry(entry) => Response::Entry(entry.as_ref().map(bare)),
        other => other.clone(),
    }
}

/// Seeded property: on random 60-BAS treelike trees, every line of a
/// multi-edit sweep equals `Engine::run` on the materialized variant, at
/// sweep width 1 and 3, with witnesses on and off; and every witness-off
/// line is its witness-on line with the witnesses stripped.
#[test]
fn sweeps_match_scratch_at_every_width_with_and_without_witnesses() {
    const TREES: u64 = 3;
    const PATCHES: usize = 8;
    for seed in 0..TREES {
        let mut rng = StdRng::seed_from_u64(0x5D1_3000 + seed);
        let base = Arc::new(decorate_prob(random_dag(&mut rng, 60, 0.0), &mut rng));
        assert!(base.tree().is_treelike(), "sharing 0 generates treelike trees");
        let patches: Vec<TreePatch> = (0..PATCHES).map(|_| random_patch(&mut rng, &base)).collect();
        let variants: Vec<Arc<CdpAttackTree>> =
            patches.iter().map(|patch| materialize(&base, patch)).collect();
        let budget = f64::from(rng.gen_range(5..=60));
        let threshold = f64::from(rng.gen_range(10..=120));
        // One engine per side for all queries: each variant's front (and
        // the base's memo) is computed once per family, then answered from
        // the cache for the family's other queries.
        let (reference, engine) = (Engine::new(1), Engine::new(1));
        // A front query and an entry query per family.
        for query in [Query::Cdpf, Query::Cgd(threshold), Query::Cedpf, Query::Edgc(budget)] {
            let mut witnessed = Vec::new();
            for witnesses in [true, false] {
                let requests: Vec<BatchRequest> = variants
                    .iter()
                    .map(|v| BatchRequest::new(v.clone(), query).with_witnesses(witnesses))
                    .collect();
                let scratch: Vec<Response> = reference
                    .run(&requests)
                    .into_iter()
                    .map(|r| without_defended(r.response))
                    .collect();
                for width in [1, 3] {
                    let request = DeltaRequest::sweep(base.clone(), query, patches.clone())
                        .with_witnesses(witnesses)
                        .with_width(width);
                    let lines: Vec<Response> =
                        engine.sweep(&request).into_iter().map(|r| r.response).collect();
                    assert_eq!(lines.len(), PATCHES, "one line per patch");
                    for (k, (line, want)) in lines.iter().zip(&scratch).enumerate() {
                        assert_eq!(
                            line, want,
                            "seed {seed}, {query:?}, witnesses {witnesses}, width {width}, \
                             patch {k}: {:?}",
                            patches[k]
                        );
                    }
                    if witnesses {
                        witnessed = lines;
                    } else {
                        for (k, (bare, full)) in lines.iter().zip(&witnessed).enumerate() {
                            assert_eq!(bare, &stripped(full), "seed {seed}, {query:?}, patch {k}");
                        }
                    }
                }
            }
        }
    }
}
