//! Random attack-tree generation by combining literature building blocks.
//!
//! Reproduces the generator of the paper's Section X-D (adapted from \[39\]):
//! starting from a random Table IV block, repeatedly combine with further
//! blocks via one of three operations until a target size is reached:
//!
//! 1. [`CombineOp::Graft`] — replace a random BAS of the first AT with the
//!    root of the second (joins the trees);
//! 2. [`CombineOp::Join`] — give the two roots a common parent of random
//!    type;
//! 3. [`CombineOp::JoinIdentify`] — like `Join`, but additionally identify a
//!    random BAS from each side, creating a shared node (hence a DAG).
//!
//! [`generate_suite`] reproduces the paper's test suites: for each
//! `1 ≤ n ≤ 100`, five ATs with at least `n` nodes — `T_tree` uses only
//! treelike blocks and the first two operations, `T_DAG` uses everything.
//! [`decorate`]/[`decorate_prob`] attach the paper's random attributes
//! (`c ∈ {1..10}`, `d ∈ {0..10}`, `p ∈ {0.1,…,1.0}`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cdat_core::{AttackTree, AttackTreeBuilder, CdAttackTree, CdpAttackTree, NodeId, NodeType};
use cdat_models::blocks::{self, Block};
use rand::prelude::*;
use rand::rngs::StdRng;

/// One of the three combination operations of \[39\].
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum CombineOp {
    /// Replace a random BAS of the first AT with the second AT's root.
    Graft,
    /// Put both roots under a fresh random-typed root.
    Join,
    /// `Join`, plus identification of one random BAS from each side
    /// (introduces sharing, so the result is DAG-like).
    JoinIdentify,
}

/// Copies `tree` into `builder` with fresh names; `skip` maps one original
/// node to an already-inserted replacement instead of copying it.
fn copy_tree(
    builder: &mut AttackTreeBuilder,
    tree: &AttackTree,
    counter: &mut usize,
    skip: Option<(NodeId, NodeId)>,
) -> Vec<NodeId> {
    let mut map: Vec<Option<NodeId>> = vec![None; tree.node_count()];
    for v in tree.node_ids() {
        if let Some((old, replacement)) = skip {
            if v == old {
                map[v.index()] = Some(replacement);
                continue;
            }
        }
        let name = format!("n{}", *counter);
        *counter += 1;
        let id = match tree.node_type(v) {
            NodeType::Bas => builder.bas(&name),
            ty => {
                let children: Vec<NodeId> = tree
                    .children(v)
                    .iter()
                    .map(|c| map[c.index()].expect("children precede parents"))
                    .collect();
                builder.gate(&name, ty, children)
            }
        };
        map[v.index()] = Some(id);
    }
    map.into_iter().map(|m| m.expect("every node mapped")).collect()
}

fn random_bas(tree: &AttackTree, rng: &mut impl Rng) -> NodeId {
    let b = rng.gen_range(0..tree.bas_count());
    tree.node_of_bas(cdat_core::BasId::new(b))
}

/// Combines two attack trees with the given operation.
///
/// Names are regenerated, so the inputs may share names freely. The result
/// of `Graft` and `Join` is treelike whenever both inputs are;
/// `JoinIdentify` always introduces a shared BAS (except in the degenerate
/// case where both trees are single BASs, which falls back to `Join`).
pub fn combine(a: &AttackTree, b: &AttackTree, op: CombineOp, rng: &mut impl Rng) -> AttackTree {
    let mut builder = AttackTreeBuilder::new();
    let mut counter = 0usize;
    let tree = match op {
        CombineOp::Graft => {
            let map_b = copy_tree(&mut builder, b, &mut counter, None);
            let replacement = map_b[b.root().index()];
            let target = random_bas(a, rng);
            copy_tree(&mut builder, a, &mut counter, Some((target, replacement)));
            builder
        }
        CombineOp::Join | CombineOp::JoinIdentify => {
            let map_a = copy_tree(&mut builder, a, &mut counter, None);
            let skip = if op == CombineOp::JoinIdentify {
                let ba = map_a[random_bas(a, rng).index()];
                Some((random_bas(b, rng), ba))
            } else {
                None
            };
            let map_b = copy_tree(&mut builder, b, &mut counter, skip);
            let (ra, rb) = (map_a[a.root().index()], map_b[b.root().index()]);
            let ty = if rng.gen_bool(0.5) { NodeType::Or } else { NodeType::And };
            let name = format!("n{counter}");
            if ra == rb {
                // Degenerate JoinIdentify of two single-BAS trees: nothing to
                // join; keep the single node as root.
            } else {
                builder.gate(&name, ty, [ra, rb]);
            }
            builder
        }
    };
    tree.build().expect("combination of valid trees is valid")
}

/// Configuration for [`generate_suite`].
#[derive(Copy, Clone, Debug)]
pub struct SuiteConfig {
    /// Use only treelike blocks and shape-preserving operations (`T_tree`)
    /// instead of all blocks and operations (`T_DAG`).
    pub treelike: bool,
    /// Largest size target `n` (the paper uses 100).
    pub max_target: usize,
    /// ATs per size target (the paper uses 5, for 500 ATs total).
    pub per_target: usize,
    /// RNG seed, for reproducible suites.
    pub seed: u64,
}

impl SuiteConfig {
    /// The paper's `T_tree` configuration (500 treelike ATs).
    pub fn tree_suite(seed: u64) -> Self {
        SuiteConfig { treelike: true, max_target: 100, per_target: 5, seed }
    }

    /// The paper's `T_DAG` configuration (500 DAG ATs).
    pub fn dag_suite(seed: u64) -> Self {
        SuiteConfig { treelike: false, max_target: 100, per_target: 5, seed }
    }
}

/// Generates one random AT with at least `target` nodes by combining blocks.
pub fn random_at(
    rng: &mut impl Rng,
    available: &[Block],
    ops: &[CombineOp],
    target: usize,
) -> AttackTree {
    let mut tree = (available[rng.gen_range(0..available.len())].build)();
    while tree.node_count() < target {
        let other = (available[rng.gen_range(0..available.len())].build)();
        let op = ops[rng.gen_range(0..ops.len())];
        tree = combine(&tree, &other, op, rng);
    }
    tree
}

/// Generates the paper's random suite: for each `1 ≤ n ≤ max_target`,
/// `per_target` ATs with `|N| ≥ n`.
pub fn generate_suite(config: SuiteConfig) -> Vec<AttackTree> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (available, ops): (Vec<Block>, &[CombineOp]) = if config.treelike {
        (blocks::treelike(), &[CombineOp::Graft, CombineOp::Join])
    } else {
        (blocks::all(), &[CombineOp::Graft, CombineOp::Join, CombineOp::JoinIdentify])
    };
    let mut suite = Vec::with_capacity(config.max_target * config.per_target);
    for target in 1..=config.max_target {
        for _ in 0..config.per_target {
            suite.push(random_at(&mut rng, &available, ops, target));
        }
    }
    suite
}

/// Decorates a tree with the paper's random attributes: integer costs in
/// `{1,…,10}` on BASs and integer damages in `{0,…,10}` on every node.
pub fn decorate(tree: AttackTree, rng: &mut impl Rng) -> CdAttackTree {
    let cost: Vec<f64> = (0..tree.bas_count()).map(|_| rng.gen_range(1..=10) as f64).collect();
    let damage: Vec<f64> = (0..tree.node_count()).map(|_| rng.gen_range(0..=10) as f64).collect();
    CdAttackTree::from_parts(tree, cost, damage).expect("random attributes are valid")
}

/// [`decorate`] with damage concentrated on a few nodes: each node carries
/// a damage in `{1,…,10}` with probability `density` (the root always
/// does), and `0` otherwise.
///
/// Dense damage makes the fused solver's damage diagram track one state
/// per distinct partial damage sum, which outgrows the diagram budget on
/// 100+-BAS suites; sparse damage keeps those suites solvable and matches
/// the case studies, where damage sits at a handful of assets rather than
/// at every gate.
pub fn decorate_sparse(tree: AttackTree, rng: &mut impl Rng, density: f64) -> CdAttackTree {
    assert!((0.0..=1.0).contains(&density), "density must lie in [0, 1]");
    let root = tree.root();
    let cost: Vec<f64> = (0..tree.bas_count()).map(|_| rng.gen_range(1..=10) as f64).collect();
    let damage: Vec<f64> = (0..tree.node_count())
        .map(|v| {
            if v == root.index() || rng.gen_bool(density) {
                rng.gen_range(1..=10) as f64
            } else {
                0.0
            }
        })
        .collect();
    CdAttackTree::from_parts(tree, cost, damage).expect("random attributes are valid")
}

/// [`decorate`] plus random success probabilities in `{0.1, 0.2, …, 1.0}`.
pub fn decorate_prob(tree: AttackTree, rng: &mut impl Rng) -> CdpAttackTree {
    let n = tree.bas_count();
    let cd = decorate(tree, rng);
    let prob: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=10) as f64 / 10.0).collect();
    CdpAttackTree::from_parts(cd, prob).expect("random probabilities are valid")
}

/// Builds a renamed, reordered, renumbered — but structurally and
/// semantically identical — copy of a decorated tree.
///
/// The copy inserts nodes in a *random topological order* (so node and BAS
/// ids are permuted), shuffles every gate's child order, regenerates all
/// names, and carries each node's attributes along to its new id. Its
/// canonical structural hash therefore equals the original's, while its BAS
/// numbering generally does not — exactly the situation the engine's
/// witness-preserving dedup must handle, and what this generator exists to
/// exercise.
pub fn isomorphic_copy(cdp: &CdpAttackTree, rng: &mut impl Rng) -> CdpAttackTree {
    let tree = cdp.tree();
    let n = tree.node_count();
    let mut builder = AttackTreeBuilder::new();
    // map[old node] = new id, filled in random topological order: a node
    // becomes ready once all its children are inserted.
    let mut map: Vec<Option<NodeId>> = vec![None; n];
    let mut waiting: Vec<usize> = tree.node_ids().map(|v| tree.children(v).len()).collect();
    let mut ready: Vec<NodeId> = tree.node_ids().filter(|&v| tree.children(v).is_empty()).collect();
    let mut counter = 0usize;
    while !ready.is_empty() {
        let v = ready.swap_remove(rng.gen_range(0..ready.len()));
        let name = format!("m{counter}");
        counter += 1;
        let id = match tree.node_type(v) {
            NodeType::Bas => builder.bas(&name),
            ty => {
                let mut children: Vec<NodeId> = tree
                    .children(v)
                    .iter()
                    .map(|c| map[c.index()].expect("children precede parents"))
                    .collect();
                // Shuffle sibling order (semantically irrelevant).
                for i in (1..children.len()).rev() {
                    children.swap(i, rng.gen_range(0..=i));
                }
                builder.gate(&name, ty, children)
            }
        };
        map[v.index()] = Some(id);
        for &p in tree.parents(v) {
            waiting[p.index()] -= 1;
            if waiting[p.index()] == 0 {
                ready.push(p);
            }
        }
    }
    let copy = builder.build().expect("copy of a valid tree is valid");

    // Carry the attributes over to the permuted ids.
    let mut damage = vec![0.0; n];
    let mut cost = vec![0.0; copy.bas_count()];
    let mut prob = vec![1.0; copy.bas_count()];
    for v in tree.node_ids() {
        let new = map[v.index()].expect("every node copied");
        damage[new.index()] = cdp.cd().damage(v);
        if let Some(b) = tree.bas_of_node(v) {
            let nb = copy.bas_of_node(new).expect("BASs stay BASs");
            cost[nb.index()] = cdp.cd().cost(b);
            prob[nb.index()] = cdp.prob(b);
        }
    }
    let cd = CdAttackTree::from_parts(copy, cost, damage).expect("attributes carried verbatim");
    CdpAttackTree::from_parts(cd, prob).expect("probabilities carried verbatim")
}

/// Generates a small random attack tree for cross-validation tests: top-down
/// expansion to at most `max_bas` BASs; treelike, or with extra sharing
/// injected when `treelike` is `false`.
///
/// Unlike [`random_at`], sizes start at a single BAS, so exhaustive
/// reference analyses stay feasible.
pub fn random_small(rng: &mut impl Rng, max_bas: usize, treelike: bool) -> AttackTree {
    assert!(max_bas >= 1, "need at least one BAS");
    let mut builder = AttackTreeBuilder::new();
    let mut counter = 0usize;
    let mut leaves: Vec<NodeId> = Vec::new();
    // Grow a random gate skeleton bottom-up.
    let n_bas = rng.gen_range(1..=max_bas);
    for _ in 0..n_bas {
        let name = format!("n{counter}");
        counter += 1;
        leaves.push(builder.bas(&name));
    }
    let mut roots = leaves.clone();
    while roots.len() > 1 {
        let arity = rng.gen_range(2..=3.min(roots.len()));
        let mut children: Vec<NodeId> = Vec::with_capacity(arity + 1);
        for _ in 0..arity {
            let i = rng.gen_range(0..roots.len());
            children.push(roots.swap_remove(i));
        }
        // Optional sharing: adopt an extra, already-parented node, giving
        // it a second parent (what makes the result DAG-like).
        if !treelike && rng.gen_bool(0.5) {
            let parented: Vec<NodeId> = (0..counter)
                .map(NodeId::new)
                .filter(|n| !roots.contains(n) && !children.contains(n))
                .collect();
            if !parented.is_empty() {
                children.push(parented[rng.gen_range(0..parented.len())]);
            }
        }
        let ty = if rng.gen_bool(0.5) { NodeType::Or } else { NodeType::And };
        let name = format!("n{counter}");
        counter += 1;
        roots.push(builder.gate(&name, ty, children));
    }
    builder.build().expect("random small tree is valid")
}

/// Generates a DAG-heavy random attack tree with **exactly** `bas` BASs
/// and a controllable `sharing` factor in `[0, 1]`.
///
/// BASs are created in clusters of 4–7, each folded into a small random
/// gate tree; every cluster additionally adopts each BAS of the *previous*
/// cluster with probability `sharing`, giving those BASs a second parent
/// (the DAG edges). Cluster roots are then chained under random gates.
/// Sharing is deliberately local — only adjacent clusters overlap — so the
/// BDD of the structure function under the natural BAS order stays small
/// and the BDD-fused solver scales to hundreds of BASs, while the
/// enumerative path is infeasible past `cdat_enumerative::MAX_ENUM_BAS`
/// (not a dependency of this crate; the cap is 30).
///
/// `sharing = 0.0` yields a treelike AT; at `0.5` most multi-cluster
/// results are DAGs.
pub fn random_dag(rng: &mut impl Rng, bas: usize, sharing: f64) -> AttackTree {
    assert!(bas >= 1, "need at least one BAS");
    assert!((0.0..=1.0).contains(&sharing), "sharing factor must be in [0, 1]");
    let mut builder = AttackTreeBuilder::new();
    let mut counter = 0usize;
    let mut remaining = bas;
    let mut cluster_roots: Vec<NodeId> = Vec::new();
    let mut previous_cluster: Vec<NodeId> = Vec::new();
    while remaining > 0 {
        let size = rng.gen_range(4..=7usize).min(remaining);
        remaining -= size;
        let fresh: Vec<NodeId> = (0..size)
            .map(|_| {
                let name = format!("n{counter}");
                counter += 1;
                builder.bas(&name)
            })
            .collect();
        let mut roots = fresh.clone();
        for &shared in &previous_cluster {
            if rng.gen_bool(sharing) {
                roots.push(shared);
            }
        }
        // Fold the cluster's leaves into a small random gate tree.
        while roots.len() > 1 {
            let arity = rng.gen_range(2..=3.min(roots.len()));
            let mut children: Vec<NodeId> = Vec::with_capacity(arity);
            for _ in 0..arity {
                let i = rng.gen_range(0..roots.len());
                children.push(roots.swap_remove(i));
            }
            let ty = if rng.gen_bool(0.5) { NodeType::Or } else { NodeType::And };
            let name = format!("n{counter}");
            counter += 1;
            roots.push(builder.gate(&name, ty, children));
        }
        cluster_roots.push(roots[0]);
        previous_cluster = fresh;
    }
    // Chain the cluster roots under random gates (keeps sharing local in
    // the final topological order too).
    let mut acc = cluster_roots[0];
    for &root in &cluster_roots[1..] {
        let ty = if rng.gen_bool(0.5) { NodeType::Or } else { NodeType::And };
        let name = format!("n{counter}");
        counter += 1;
        acc = builder.gate(&name, ty, [acc, root]);
    }
    builder.build().expect("random DAG-heavy tree is valid")
}

/// One call, one DAG suite: `count` independently drawn [`random_dag`]
/// trees with exactly `bas` BASs each and the given sharing factor —
/// the generator mode behind the `dag_cdpf_*` bench scenarios and the CI
/// `dag-smoke` suite, where 50–200-BAS DAG workloads are needed in bulk.
pub fn dag_heavy_suite(count: usize, bas: usize, sharing: f64, seed: u64) -> Vec<AttackTree> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_dag(&mut rng, bas, sharing)).collect()
}

/// [`dag_heavy_suite`] decorated in one deterministic call: the same seed
/// drives structure and attributes, so callers that hold no RNG of their
/// own (the `cdat gen` subcommand, the CI dag-smoke script) reproduce a
/// whole suite from `(count, bas, sharing, density, seed)` alone. Damage
/// is drawn per [`decorate_sparse`] — `density` `1.0` puts damage on every
/// node, smaller values keep 100+-BAS suites inside the fused solver's
/// diagram budget — and every BAS gets a success probability in
/// `{0.1, …, 1.0}` as in [`decorate_prob`].
pub fn decorated_dag_suite(
    count: usize,
    bas: usize,
    sharing: f64,
    density: f64,
    seed: u64,
) -> Vec<CdpAttackTree> {
    // A distinct stream for the attributes: the trees see exactly the
    // draws `dag_heavy_suite(_, _, _, seed)` makes.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA77E);
    dag_heavy_suite(count, bas, sharing, seed)
        .into_iter()
        .map(|tree| {
            let n = tree.bas_count();
            let cd = decorate_sparse(tree, &mut rng, density);
            let prob: Vec<f64> = (0..n).map(|_| rng.gen_range(1..=10) as f64 / 10.0).collect();
            CdpAttackTree::from_parts(cd, prob).expect("random probabilities are valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graft_preserves_node_budget() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = blocks::arnold2014_fig3();
        let b = blocks::kordy2018_fig1();
        let g = combine(&a, &b, CombineOp::Graft, &mut rng);
        // Graft removes one BAS of `a` and adds all of `b`.
        assert_eq!(g.node_count(), a.node_count() + b.node_count() - 1);
        assert!(g.is_treelike());
    }

    #[test]
    fn join_adds_one_root() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = blocks::arnold2014_fig3();
        let b = blocks::arnold2014_fig5();
        let j = combine(&a, &b, CombineOp::Join, &mut rng);
        assert_eq!(j.node_count(), a.node_count() + b.node_count() + 1);
        assert!(j.is_treelike());
    }

    #[test]
    fn join_identify_creates_sharing() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = blocks::arnold2014_fig3();
        let b = blocks::arnold2014_fig5();
        let j = combine(&a, &b, CombineOp::JoinIdentify, &mut rng);
        // One BAS of `b` is merged away, one root is added.
        assert_eq!(j.node_count(), a.node_count() + b.node_count());
        assert!(!j.is_treelike(), "identified BAS must have two parents");
    }

    #[test]
    fn tree_suite_is_treelike_and_sized() {
        let suite =
            generate_suite(SuiteConfig { treelike: true, max_target: 30, per_target: 2, seed: 9 });
        assert_eq!(suite.len(), 60);
        for (i, t) in suite.iter().enumerate() {
            let target = i / 2 + 1;
            assert!(t.is_treelike(), "suite AT {i} must be treelike");
            assert!(t.node_count() >= target, "suite AT {i} too small");
        }
    }

    #[test]
    fn dag_suite_contains_dags() {
        let suite = generate_suite(SuiteConfig {
            treelike: false,
            max_target: 40,
            per_target: 2,
            seed: 10,
        });
        assert!(suite.iter().any(|t| !t.is_treelike()), "T_DAG should contain DAGs");
    }

    #[test]
    fn suites_are_reproducible_by_seed() {
        let cfg = SuiteConfig { treelike: false, max_target: 10, per_target: 2, seed: 42 };
        let a = generate_suite(cfg);
        let b = generate_suite(cfg);
        let sizes_a: Vec<usize> = a.iter().map(|t| t.node_count()).collect();
        let sizes_b: Vec<usize> = b.iter().map(|t| t.node_count()).collect();
        assert_eq!(sizes_a, sizes_b);
    }

    #[test]
    fn decoration_respects_the_paper_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        let tree = blocks::arnold2014_fig5();
        let cdp = decorate_prob(tree, &mut rng);
        for b in cdp.tree().bas_ids() {
            let c = cdp.cd().cost(b);
            assert!((1.0..=10.0).contains(&c) && c.fract() == 0.0);
            let p = cdp.prob(b);
            assert!((0.1..=1.0).contains(&p));
        }
        for v in cdp.tree().node_ids() {
            let d = cdp.cd().damage(v);
            assert!((0.0..=10.0).contains(&d) && d.fract() == 0.0);
        }
    }

    #[test]
    fn random_small_generates_valid_trees_of_both_shapes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut saw_dag = false;
        for _ in 0..100 {
            let t = random_small(&mut rng, 6, true);
            assert!(t.is_treelike());
            assert!(t.bas_count() <= 6 && t.bas_count() >= 1);
            let d = random_small(&mut rng, 6, false);
            saw_dag |= !d.is_treelike();
        }
        assert!(saw_dag, "sharing injection should produce some DAGs");
    }

    #[test]
    fn isomorphic_copies_share_hashes_but_permute_numbering() {
        use cdat_core::canonical::{hash_cd, hash_cdp};
        let mut rng = StdRng::seed_from_u64(11);
        let mut permuted = false;
        for i in 0..30 {
            let treelike = rng.gen_bool(0.5);
            let tree = random_small(&mut rng, 8, treelike);
            let cdp = decorate_prob(tree, &mut rng);
            let copy = isomorphic_copy(&cdp, &mut rng);
            assert_eq!(hash_cdp(&cdp), hash_cdp(&copy), "case {i}: cdp hashes must agree");
            assert_eq!(hash_cd(cdp.cd()), hash_cd(copy.cd()), "case {i}: cd hashes must agree");
            assert_eq!(copy.tree().node_count(), cdp.tree().node_count());
            assert_eq!(copy.tree().bas_count(), cdp.tree().bas_count());
            assert_eq!(copy.cd().max_damage(), cdp.cd().max_damage(), "case {i}");
            assert_eq!(copy.cd().total_cost(), cdp.cd().total_cost(), "case {i}");
            permuted |= copy.cd().costs() != cdp.cd().costs();
        }
        assert!(permuted, "30 shuffles must permute at least one cost table");
    }

    #[test]
    fn dag_heavy_suites_hit_the_exact_bas_count_and_share() {
        for bas in [1, 5, 20, 120] {
            let suite = dag_heavy_suite(4, bas, 0.5, 77);
            assert_eq!(suite.len(), 4);
            for (i, t) in suite.iter().enumerate() {
                assert_eq!(t.bas_count(), bas, "suite AT {i} at target {bas}");
                assert!(t.reaches_root(&t.full_attack()));
            }
        }
        // At sharing 0.5, multi-cluster trees are overwhelmingly DAGs …
        let suite = dag_heavy_suite(10, 40, 0.5, 78);
        assert!(
            suite.iter().filter(|t| !t.is_treelike()).count() >= 9,
            "a 0.5 sharing factor must produce DAGs"
        );
        // … and sharing 0 turns the generator treelike.
        assert!(dag_heavy_suite(10, 40, 0.0, 79).iter().all(|t| t.is_treelike()));
    }

    #[test]
    fn dag_heavy_suites_are_reproducible_by_seed() {
        let a = dag_heavy_suite(3, 60, 0.4, 42);
        let b = dag_heavy_suite(3, 60, 0.4, 42);
        let sizes_a: Vec<usize> = a.iter().map(|t| t.node_count()).collect();
        let sizes_b: Vec<usize> = b.iter().map(|t| t.node_count()).collect();
        assert_eq!(sizes_a, sizes_b);
    }

    #[test]
    fn combined_trees_evaluate_consistently() {
        // The structure function of a Join is the OR/AND of the halves.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = random_small(&mut rng, 3, true);
            let b = random_small(&mut rng, 3, true);
            let j = combine(&a, &b, CombineOp::Join, &mut rng);
            assert_eq!(j.bas_count(), a.bas_count() + b.bas_count());
            // Full attack reaches the root (monotone functions, all inputs 1
            // ⇒ every gate fires).
            assert!(j.reaches_root(&j.full_attack()));
            assert!(!j.reaches_root(&j.empty_attack()));
        }
    }
}
