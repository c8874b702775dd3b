//! Randomized cross-validation: every solver that applies to an instance
//! must produce the same answer.

use cdat::solve;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Deterministic, treelike: bottom-up, BILP and enumeration must coincide.
#[test]
fn treelike_deterministic_three_way_agreement() {
    let mut rng = StdRng::seed_from_u64(2023);
    for case in 0..120 {
        let tree = cdat_gen::random_small(&mut rng, 8, true);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let bu = cdat_bottomup::cdpf(&cd).expect("treelike");
        let bilp = cdat_bilp::cdpf(&cd);
        let en = cdat_enumerative::cdpf(&cd, false);
        assert!(bu.approx_eq(&en, 1e-9), "case {case}: BU {bu} vs enum {en}");
        assert!(bilp.approx_eq(&en, 1e-9), "case {case}: BILP {bilp} vs enum {en}");
    }
}

/// Deterministic, DAG-like: the shape-dispatched facade (BDD-fused on
/// DAGs), the paper's BILP encoding and enumeration must coincide.
#[test]
fn dag_deterministic_agreement() {
    let mut rng = StdRng::seed_from_u64(2024);
    for case in 0..120 {
        let tree = cdat_gen::random_small(&mut rng, 8, false);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let dispatched = solve::cdpf(&cd).unwrap();
        let en = cdat_enumerative::cdpf(&cd, false);
        assert!(dispatched.approx_eq(&en, 1e-9), "case {case}: facade {dispatched} vs enum {en}");
        let bilp = cdat_bilp::cdpf(&cd);
        assert!(bilp.approx_eq(&en, 1e-9), "case {case}: BILP {bilp} vs enum {en}");
    }
}

/// Probabilistic, treelike: bottom-up, PS-propagation enumeration, and (on
/// tiny instances) the literal naive expectation must coincide.
#[test]
fn treelike_probabilistic_agreement() {
    let mut rng = StdRng::seed_from_u64(2025);
    for case in 0..80 {
        let tree = cdat_gen::random_small(&mut rng, 7, true);
        let cdp = cdat_gen::decorate_prob(tree, &mut rng);
        let bu = cdat_bottomup::cedpf(&cdp).expect("treelike");
        let en = cdat_enumerative::cedpf_treelike(&cdp, false).expect("treelike");
        // ε-domination equivalence: summation-order noise may split a
        // mathematically single point in two; the shape must agree.
        assert!(bu.equivalent(&en, 1e-9), "case {case}: BU {bu} vs enum {en}");
        if cdp.tree().bas_count() <= 5 {
            let naive = cdat_enumerative::cedpf_naive(&cdp);
            assert!(bu.equivalent(&naive, 1e-9), "case {case}: BU {bu} vs naive {naive}");
        }
    }
}

/// Probabilistic, DAG-like (extension): the BDD-exact enumeration matches
/// the literal naive expectation.
#[test]
fn dag_probabilistic_extension_agreement() {
    let mut rng = StdRng::seed_from_u64(2026);
    let mut dags = 0;
    for case in 0..60 {
        let tree = cdat_gen::random_small(&mut rng, 6, false);
        dags += usize::from(!tree.is_treelike());
        let cdp = cdat_gen::decorate_prob(tree, &mut rng);
        let exact = solve::cedpf_exhaustive(&cdp);
        let naive = cdat_enumerative::cedpf_naive(&cdp);
        assert!(exact.equivalent(&naive, 1e-9), "case {case}: BDD {exact} vs naive {naive}");
    }
    assert!(dags >= 10, "need a meaningful number of DAG instances, got {dags}");
}

/// DgC/CgD: all applicable solvers agree with the enumerative references on
/// random budgets/thresholds.
#[test]
fn single_objective_agreement() {
    let mut rng = StdRng::seed_from_u64(2027);
    for case in 0..60 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 7, treelike);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let max_cost = cd.total_cost();
        let max_damage = cd.max_damage();
        for _ in 0..4 {
            let budget = rng.gen_range(0.0..=max_cost + 2.0);
            let reference = cdat_enumerative::dgc(&cd, budget).map(|e| e.point.damage);
            let dispatched = solve::dgc(&cd, budget).unwrap().map(|e| e.point.damage);
            assert_eq!(dispatched, reference, "case {case}: DgC({budget})");
            if cd.tree().is_treelike() {
                let via_bilp = cdat_bilp::dgc(&cd, budget).map(|e| e.point.damage);
                assert_eq!(via_bilp, reference, "case {case}: BILP DgC({budget})");
            }
            let threshold = rng.gen_range(0.0..=max_damage + 2.0);
            let reference = cdat_enumerative::cgd(&cd, threshold).map(|e| e.point.cost);
            let dispatched = solve::cgd(&cd, threshold).unwrap().map(|e| e.point.cost);
            assert_eq!(dispatched, reference, "case {case}: CgD({threshold})");
        }
    }
}

/// Binarization must not change any analysis result.
#[test]
fn binarization_preserves_all_fronts() {
    let mut rng = StdRng::seed_from_u64(2028);
    for case in 0..40 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 7, treelike);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let (bin_cd, _) = cdat::core::binarize_cd(&cd);
        let a = solve::cdpf(&cd).unwrap();
        let b = solve::cdpf(&bin_cd).unwrap();
        assert!(a.approx_eq(&b, 1e-9), "case {case}: {a} vs binarized {b}");
    }
}
