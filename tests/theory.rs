//! Integration tests for the paper's theory section (§V): the reductions are
//! not just constructions, they interoperate with the real solvers.

use cdat::core::theory;
use cdat::solve;
use cdat::Attack;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Theorem 1 direction: solving DgC on the reduced cd-AT solves the binary
/// knapsack optimization problem.
#[test]
fn knapsack_optimization_via_dgc() {
    let mut rng = StdRng::seed_from_u64(501);
    for case in 0..60 {
        let n = rng.gen_range(1..=8);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0..12) as f64).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1..8) as f64).collect();
        let capacity = rng.gen_range(0..20) as f64;
        let cd = theory::knapsack_to_cd_at(&values, &weights).expect("valid instance");
        // Brute-force knapsack optimum.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut v, mut w) = (0.0, 0.0);
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    v += values[i];
                    w += weights[i];
                }
            }
            if w <= capacity {
                best = best.max(v);
            }
        }
        let via_dgc = solve::dgc(&cd, capacity).unwrap().expect("nonnegative budget").point.damage;
        assert_eq!(via_dgc, best, "case {case}: knapsack optimum mismatch");
    }
}

/// Theorem 2 direction: the CDPF of the constructed cd-AT is the Pareto
/// front of (cardinality-weighted cost, f).
#[test]
fn theorem_2_trees_solve_correctly() {
    let mut rng = StdRng::seed_from_u64(502);
    for case in 0..10 {
        let n = 3;
        // Random monotone f via max-over-subsets of a random seed function.
        let size = 1usize << n;
        let mut f: Vec<f64> =
            (0..size).map(|i| if i == 0 { 0.0 } else { rng.gen_range(0..30) as f64 }).collect();
        for bit in 0..n {
            for mask in 0..size {
                if mask >> bit & 1 == 1 {
                    let lower = f[mask ^ (1 << bit)];
                    if f[mask] < lower {
                        f[mask] = lower;
                    }
                }
            }
        }
        let table = f.clone();
        let cd = theory::nondecreasing_to_cd_at(n, move |x: &Attack| {
            let mask = x.iter().fold(0usize, |m, b| m | 1 << b.index());
            table[mask]
        })
        .expect("monotone with f(∅)=0");
        // Theorem 2's construction has zero costs, so its front is just the
        // two extremes; check d̂ = f through the *solver* stack instead: the
        // max damage is max f, the min cost achieving max f is 0.
        let max_f = f.iter().copied().fold(0.0f64, f64::max);
        assert_eq!(cd.max_damage(), max_f, "case {case}");
        let front = solve::cdpf(&cd).unwrap();
        assert_eq!(front.min_cost_achieving(max_f).unwrap().point.cost, 0.0);
        // And the decision problem agrees with direct evaluation.
        assert!(theory::cddp(&cd, 0.0, max_f).is_some());
        assert!(theory::cddp(&cd, 0.0, max_f + 1.0).is_none());
    }
}

/// CDDP is answered identically by the reference procedure and by DgC-based
/// decision (d_opt ≥ L iff a witness exists).
#[test]
fn cddp_agrees_with_dgc_based_decision() {
    let mut rng = StdRng::seed_from_u64(503);
    for case in 0..60 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 6, treelike);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let budget = rng.gen_range(0.0..=cd.total_cost() + 1.0);
        let threshold = rng.gen_range(0.0..=cd.max_damage() + 1.0);
        let reference = theory::cddp(&cd, budget, threshold).is_some();
        let via_dgc =
            solve::dgc(&cd, budget).unwrap().map(|e| e.point.damage >= threshold).unwrap_or(false);
        assert_eq!(reference, via_dgc, "case {case}: CDDP disagreement");
    }
}

/// The damage function of any cd-AT is nondecreasing (the converse of
/// Theorem 2, and the property that defeats knapsack heuristics).
#[test]
fn damage_functions_are_nondecreasing() {
    let mut rng = StdRng::seed_from_u64(504);
    for _ in 0..30 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 6, treelike);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let n = cd.tree().bas_count();
        let attacks: Vec<Attack> = Attack::all(n).collect();
        for x in &attacks {
            for y in &attacks {
                if x.is_subset(y) {
                    assert!(cd.damage_of(x) <= cd.damage_of(y));
                }
            }
        }
    }
}
