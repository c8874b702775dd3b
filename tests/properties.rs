//! Property-based tests over randomly generated attack trees: the
//! solver-level invariants that must hold on every instance.
//!
//! Instances are drawn from seeded [`StdRng`] streams (64 cases per
//! property), so failures reproduce exactly by seed. This plays the role a
//! proptest suite would on a networked machine, minus automatic shrinking —
//! the instances are kept small enough (≤ ~27 BASs, depth ≤ 3) that failing
//! cases are directly readable.

use cdat::solve;
use cdat::{Attack, AttackTreeBuilder, CdAttackTree, CdpAttackTree, CostDamage, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

const CASES: u64 = 64;

/// A description of a treelike attack-tree shape.
#[derive(Clone, Debug)]
enum Shape {
    Bas,
    Gate { or: bool, children: Vec<Shape> },
}

impl Shape {
    /// A random shape of depth at most `depth`, 1–3 children per gate.
    fn random(rng: &mut StdRng, depth: usize) -> Shape {
        if depth == 0 || rng.gen_bool(0.3) {
            return Shape::Bas;
        }
        let children = (0..rng.gen_range(1..=3)).map(|_| Shape::random(rng, depth - 1)).collect();
        Shape::Gate { or: rng.gen_bool(0.5), children }
    }

    fn build_into(&self, b: &mut AttackTreeBuilder, counter: &mut usize) -> NodeId {
        match self {
            Shape::Bas => {
                let name = format!("n{counter}");
                *counter += 1;
                b.bas(&name)
            }
            Shape::Gate { or, children } => {
                let kids: Vec<NodeId> = children.iter().map(|c| c.build_into(b, counter)).collect();
                let name = format!("n{counter}");
                *counter += 1;
                if *or {
                    b.or(&name, kids)
                } else {
                    b.and(&name, kids)
                }
            }
        }
    }
}

/// A treelike cd-AT with small integer attributes.
fn cd_tree(rng: &mut StdRng) -> CdAttackTree {
    let shape = Shape::random(rng, 3);
    let mut b = AttackTreeBuilder::new();
    let mut counter = 0;
    shape.build_into(&mut b, &mut counter);
    let tree = b.build().expect("shape builds a valid tree");
    let cost: Vec<f64> = (0..tree.bas_count()).map(|_| rng.gen_range(0..6) as f64).collect();
    let damage: Vec<f64> = (0..tree.node_count()).map(|_| rng.gen_range(0..6) as f64).collect();
    CdAttackTree::from_parts(tree, cost, damage).expect("valid attributes")
}

/// A treelike cdp-AT: [`cd_tree`] plus probabilities in {0, 0.25, …, 1}.
fn cdp_tree(rng: &mut StdRng) -> CdpAttackTree {
    let cd = cd_tree(rng);
    let p: Vec<f64> =
        (0..cd.tree().bas_count()).map(|_| rng.gen_range(0..=4) as f64 / 4.0).collect();
    CdpAttackTree::from_parts(cd, p).expect("valid probabilities")
}

/// The front is an antichain with a zero-cost point (possibly with free
/// damage, when zero-cost BASs exist) that dominates every attack value.
#[test]
fn front_is_a_dominating_antichain() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x0F00 + case);
        let cd = cd_tree(rng);
        let front = solve::cdpf(&cd).unwrap();
        assert!(front.is_antichain(), "case {case}");
        assert!(front.points().any(|p| p.cost == 0.0), "case {case}");
        assert!(front.dominates(CostDamage::new(0.0, 0.0)), "case {case}");
        if cd.tree().bas_count() <= 10 {
            for x in Attack::all(cd.tree().bas_count()) {
                let p = CostDamage::new(cd.cost_of(&x), cd.damage_of(&x));
                assert!(front.dominates(p), "case {case}: front {front} misses value {p}");
            }
        }
    }
}

/// Every witness on the front reproduces its point exactly.
#[test]
fn witnesses_are_faithful() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x1F00 + case);
        let cd = cd_tree(rng);
        for e in solve::cdpf(&cd).unwrap().entries() {
            let w = e.witness.as_ref().expect("witnesses tracked");
            assert_eq!(cd.cost_of(w), e.point.cost, "case {case}");
            assert_eq!(cd.damage_of(w), e.point.damage, "case {case}");
        }
    }
}

/// DgC is monotone in the budget, consistent with the front, and its
/// witness respects the budget.
#[test]
fn dgc_is_monotone_and_budget_respecting() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x2F00 + case);
        let cd = cd_tree(rng);
        let budget = rng.gen_range(0.0..20.0);
        let front = solve::cdpf(&cd).unwrap();
        let a = solve::dgc(&cd, budget).unwrap().expect("nonnegative budget");
        assert!(a.point.cost <= budget, "case {case}");
        assert_eq!(
            a.point.damage,
            front.max_damage_within(budget).unwrap().point.damage,
            "case {case}"
        );
        let b = solve::dgc(&cd, budget + 1.0).unwrap().expect("nonnegative budget");
        assert!(b.point.damage >= a.point.damage, "case {case}");
    }
}

/// CgD round-trips through DgC: spending the CgD-optimal cost achieves at
/// least the threshold.
#[test]
fn cgd_round_trips_through_dgc() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x3F00 + case);
        let cd = cd_tree(rng);
        let threshold = rng.gen_range(0.0..1.0) * cd.max_damage();
        if let Some(e) = solve::cgd(&cd, threshold).unwrap() {
            assert!(e.point.damage >= threshold, "case {case}");
            let back = solve::dgc(&cd, e.point.cost).unwrap().expect("nonnegative");
            assert!(back.point.damage >= threshold, "case {case}");
        } else {
            assert!(threshold > cd.max_damage(), "case {case}");
        }
    }
}

/// The probabilistic front refines the deterministic story: with all
/// probabilities 1 it coincides with the deterministic front.
#[test]
fn certain_probabilities_recover_deterministic_front() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x4F00 + case);
        let cd = cd_tree(rng);
        let det = solve::cdpf(&cd).unwrap();
        let cdp = cd.with_probabilities().finish().expect("valid");
        let prob = solve::cedpf(&cdp).expect("treelike");
        assert!(det.equivalent(&prob, 1e-9), "case {case}: det {det} vs prob-with-p=1 {prob}");
    }
}

/// Expected damage never exceeds deterministic damage, so the
/// probabilistic front is dominated by the deterministic one point-wise.
#[test]
fn probabilistic_front_lies_below_deterministic() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x5F00 + case);
        let cdp = cdp_tree(rng);
        let det = solve::cdpf(cdp.cd()).unwrap();
        let prob = solve::cedpf(&cdp).expect("treelike");
        for e in prob.entries() {
            assert!(
                det.dominates_within(e.point, 1e-9),
                "case {case}: prob point {} above deterministic front {det}",
                e.point
            );
        }
    }
}

/// Bottom-up and BILP agree on every generated treelike instance (the
/// agreement suite in `solver_agreement.rs` covers DAGs).
#[test]
fn bottom_up_and_bilp_agree() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x6F00 + case);
        let cd = cd_tree(rng);
        let bu = cdat_bottomup::cdpf(&cd).expect("treelike");
        let bilp = cdat_bilp::cdpf(&cd);
        assert!(bu.approx_eq(&bilp, 1e-9), "case {case}: BU {bu} vs BILP {bilp}");
    }
}

/// The expected damage of any attack equals the naive actualized-attack
/// expectation (Definition 6) on small instances.
#[test]
fn expected_damage_matches_naive() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(0x7F00 + case);
        let cdp = cdp_tree(rng);
        let mask = rng.next_u64();
        let n = cdp.tree().bas_count();
        if n > 10 {
            continue;
        }
        let mut x = Attack::empty(n);
        for i in 0..n {
            if mask >> i & 1 == 1 {
                x.insert(cdat::BasId::new(i));
            }
        }
        let fast = cdp.expected_damage(&x).expect("treelike");
        let naive = cdp.expected_damage_naive(&x);
        assert!((fast - naive).abs() < 1e-9, "case {case}");
    }
}

/// Rebuilds `cdp` with every node renamed from a pool of names that need
/// quoting, escapes or non-ASCII bytes in the text format.
fn with_awkward_names(cdp: &CdpAttackTree, rng: &mut StdRng) -> CdpAttackTree {
    const STEMS: [&str; 8] = ["n", "a b ", "q\"", "h#", "e=", "back\\", "nbsp\u{a0}", "é\u{2003}"];
    let tree = cdp.tree();
    let mut b = AttackTreeBuilder::new();
    for v in tree.node_ids() {
        let name = format!("{}{}", STEMS[rng.gen_range(0..STEMS.len())], v.index());
        match tree.node_type(v) {
            cdat::NodeType::Bas => b.bas(&name),
            ty => b.gate(&name, ty, tree.children(v).iter().copied()),
        };
    }
    let renamed = b.build().expect("same structure, new unique names");
    let cd =
        CdAttackTree::from_parts(renamed, cdp.cd().costs().to_vec(), cdp.cd().damages().to_vec())
            .expect("same attributes");
    CdpAttackTree::from_parts(cd, cdp.probs().to_vec()).expect("same probabilities")
}

/// The text format round-trips: writing a parsed document gives back the
/// written bytes, and the parsed tree keeps every node's name, on treelike
/// trees and DAGs alike.
#[test]
fn text_format_round_trips_through_the_parser() {
    let mut dags = 0;
    for case in 0..200u64 {
        let rng = &mut StdRng::seed_from_u64(0x8F00 + case);
        let sharing = if case % 2 == 0 { 0.0 } else { 0.5 };
        let bas = rng.gen_range(1..=24);
        let structure = cdat::gen::random_dag(rng, bas, sharing);
        dags += usize::from(!structure.is_treelike());
        let cdp = with_awkward_names(&cdat::gen::decorate_prob(structure, rng), rng);
        let text = cdat::format::write(&cdp);
        let parsed = cdat::format::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(cdat::format::write(&parsed), text, "case {case}");
        let names = |t: &CdpAttackTree| {
            let mut names: Vec<String> =
                t.tree().node_ids().map(|v| t.tree().name(v).to_owned()).collect();
            names.sort();
            names
        };
        assert_eq!(names(&parsed), names(&cdp), "case {case}");
    }
    assert!(dags >= 50, "only {dags} of 200 cases are DAGs");
}
