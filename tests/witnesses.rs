//! The witness-preserving-dedup acceptance suite: engine batch responses
//! with witnesses enabled must be entry-for-entry identical — points *and*
//! witness BAS sets, translated to each copy's numbering — to the one-call
//! solvers (`cdat_bottomup`, `cdat_bdd::fuse`, `cdat_enumerative`) run
//! directly on every renamed/reordered copy, while `CacheStats` proves the
//! copies were served from one cached entry. The paper's BILP encoding
//! (`cdat_bilp`), which no longer serves requests, is compared with the
//! engine's front the same way on every copy, treelike and DAG-like.
//! Covered: every solver hint, warm and cold cache, worker counts, and a
//! points-budgeted cache under eviction.
//!
//! # Why exact equality is provable here
//!
//! The suite decorates BAS `b` with cost `2^b` (in the original numbering;
//! copies carry the values along). Subset sums of distinct powers of two
//! are unique, so *every attack has a distinct total cost* — each front
//! point is achieved by exactly one attack and the witness is forced, for
//! every solver and every copy. Damages are quarter-integers and
//! probabilities quarter-fractions, so all sums and products are exact
//! dyadic `f64`s: points are bit-identical no matter the summation order a
//! copy's node numbering induces.

use std::sync::Arc;

use cdat::solve::{BatchRequest, Engine, FrontCache, Query, Response, SolverHint};
use cdat::{CdAttackTree, CdpAttackTree, ParetoFront};
use cdat_pareto::FrontEntry;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Decorates with attributes that make witnesses unique and arithmetic
/// exact (see the module docs).
fn decorate_dyadic(tree: cdat::AttackTree, rng: &mut StdRng) -> CdpAttackTree {
    let costs: Vec<f64> = (0..tree.bas_count()).map(|b| (1u64 << b) as f64).collect();
    let damages: Vec<f64> =
        (0..tree.node_count()).map(|_| rng.gen_range(0..=16) as f64 / 4.0).collect();
    let probs: Vec<f64> =
        (0..tree.bas_count()).map(|_| [0.25, 0.5, 0.75, 1.0][rng.gen_range(0..4usize)]).collect();
    let cd = CdAttackTree::from_parts(tree, costs, damages).expect("dyadic attributes are valid");
    CdpAttackTree::from_parts(cd, probs).expect("dyadic probabilities are valid")
}

/// A suite of base trees, each with three isomorphic (renamed, reordered,
/// renumbered) copies after the original: 4 instances per base tree.
fn copied_suite(seed: u64, bases: usize, treelike: bool) -> Vec<Vec<Arc<CdpAttackTree>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..bases)
        .map(|_| {
            let tree = cdat::gen::random_small(&mut rng, 9, treelike);
            let cdp = decorate_dyadic(tree, &mut rng);
            let mut instances = vec![Arc::new(cdp.clone())];
            for _ in 0..3 {
                instances.push(Arc::new(cdat::gen::isomorphic_copy(&cdp, &mut rng)));
            }
            instances
        })
        .collect()
}

/// The one-call reference for a deterministic front under a solver hint.
fn reference_cdpf(cdp: &CdpAttackTree, hint: SolverHint) -> ParetoFront {
    match hint {
        SolverHint::Auto | SolverHint::BottomUp if cdp.tree().is_treelike() => {
            cdat_bottomup::cdpf(cdp.cd()).expect("dispatched on shape")
        }
        SolverHint::BottomUp => panic!("the bottom-up hint is only referenced on treelike trees"),
        SolverHint::Auto | SolverHint::Bdd => {
            cdat_bdd::fuse::cdpf(cdp.cd()).expect("small trees fit the diagram budget")
        }
        SolverHint::Enumerative => cdat_enumerative::cdpf(cdp.cd(), true),
    }
}

/// Entry-for-entry equality: points and witness BAS sets.
fn assert_fronts_identical(engine: &ParetoFront, reference: &ParetoFront, what: &str) {
    assert_eq!(engine.len(), reference.len(), "{what}: front sizes differ");
    for (k, (e, r)) in engine.entries().iter().zip(reference.entries()).enumerate() {
        assert_eq!(e.point, r.point, "{what}: point {k}");
        let ew = e.witness.as_ref().unwrap_or_else(|| panic!("{what}: engine witness {k} missing"));
        let rw =
            r.witness.as_ref().unwrap_or_else(|| panic!("{what}: reference witness {k} missing"));
        assert_eq!(ew, rw, "{what}: witness {k} differs");
    }
}

fn front_of<'r>(response: &'r Response, what: &str) -> &'r ParetoFront {
    match response {
        Response::Front(front) => front,
        other => panic!("{what}: expected a front, got {other:?}"),
    }
}

fn entry_of<'r>(response: &'r Response, what: &str) -> Option<&'r FrontEntry> {
    match response {
        Response::Entry(e) => e.as_ref(),
        other => panic!("{what}: expected an entry, got {other:?}"),
    }
}

/// Every solver hint, in the order the requests below are issued.
const HINTS: [SolverHint; 4] =
    [SolverHint::Auto, SolverHint::BottomUp, SolverHint::Bdd, SolverHint::Enumerative];

/// The acceptance criterion on a treelike suite: every copy's witnessed
/// responses equal the one-call solvers' on that copy, under both hints,
/// while all copies share one cached front per (base tree, front kind).
#[test]
fn engine_witnesses_match_one_call_solvers_on_renamed_copies() {
    let suite = copied_suite(5001, 6, true);
    let budget = 5.0; // hits a strict subset of each front
    let threshold = 2.0;

    let mut requests: Vec<BatchRequest> = Vec::new();
    for instances in &suite {
        for cdp in instances {
            for hint in HINTS {
                requests.push(
                    BatchRequest::new(cdp.clone(), Query::Cdpf)
                        .with_hint(hint)
                        .with_witnesses(true),
                );
            }
            requests.push(BatchRequest::new(cdp.clone(), Query::Dgc(budget)).with_witnesses(true));
            requests
                .push(BatchRequest::new(cdp.clone(), Query::Cgd(threshold)).with_witnesses(true));
            requests.push(BatchRequest::new(cdp.clone(), Query::Cedpf).with_witnesses(true));
        }
    }

    let engine = Engine::new(4);
    let results = engine.run(&requests);

    // One deterministic + one probabilistic front per *base tree*, not per
    // instance: the stats prove the copies were deduplicated.
    let stats = engine.cache().stats();
    assert_eq!(stats.entries, 2 * suite.len(), "copies must share cache entries");
    assert_eq!(stats.misses as usize, 2 * suite.len());

    let mut i = 0;
    for (t, instances) in suite.iter().enumerate() {
        for (c, cdp) in instances.iter().enumerate() {
            for hint in HINTS {
                let what = format!("tree {t} copy {c} hint {hint:?}");
                let reference = reference_cdpf(cdp, hint);
                assert_fronts_identical(front_of(&results[i].response, &what), &reference, &what);
                i += 1;
            }
            // Every hint answered from the same shared front; the last one
            // stands for all of them.
            let what = format!("tree {t} copy {c} BILP");
            let bilp = cdat_bilp::cdpf(cdp.cd());
            assert_fronts_identical(front_of(&results[i - 1].response, &what), &bilp, &what);
            let what = format!("tree {t} copy {c} DgC");
            let reference = cdat_bottomup::dgc(cdp.cd(), budget).expect("treelike");
            assert_eq!(
                entry_of(&results[i].response, &what),
                reference.as_ref(),
                "{what}: entry (point + witness) differs"
            );
            i += 1;
            let what = format!("tree {t} copy {c} CgD");
            let reference = cdat_bottomup::cgd(cdp.cd(), threshold).expect("treelike");
            assert_eq!(
                entry_of(&results[i].response, &what),
                reference.as_ref(),
                "{what}: entry (point + witness) differs"
            );
            i += 1;
            let what = format!("tree {t} copy {c} CEDPF");
            let reference = cdat_bottomup::cedpf(cdp).expect("treelike");
            assert_fronts_identical(front_of(&results[i].response, &what), &reference, &what);
            i += 1;
        }
    }
    assert_eq!(i, results.len());
}

/// The same criterion on a DAG suite through the auto-dispatched BDD-fused
/// backend (witnesses are forced by the power-of-two costs, so the fused
/// fronts must match the direct one-call run bit for bit).
#[test]
fn dag_witnesses_match_the_fused_backend_on_renamed_copies() {
    let suite = copied_suite(5002, 4, false);
    let requests: Vec<BatchRequest> = suite
        .iter()
        .flatten()
        .map(|cdp| BatchRequest::new(cdp.clone(), Query::Cdpf).with_witnesses(true))
        .collect();
    let engine = Engine::new(4);
    let results = engine.run(&requests);
    assert_eq!(engine.cache().stats().entries, suite.len());

    for (i, cdp) in suite.iter().flatten().enumerate() {
        let what = format!("instance {i}");
        let front = front_of(&results[i].response, &what);
        assert_fronts_identical(front, &reference_cdpf(cdp, SolverHint::Auto), &what);
        assert_fronts_identical(front, &cdat_bilp::cdpf(cdp.cd()), &format!("{what} BILP"));
    }
}

/// Witnessed responses are identical cold, warm (every request a cache
/// hit), across worker counts, and under a points-budgeted cache whose
/// evictions force recomputation.
#[test]
fn witnessed_responses_survive_warm_cache_workers_and_eviction() {
    let mut suite = copied_suite(5003, 5, true);
    suite.extend(copied_suite(5004, 3, false));
    let requests: Vec<BatchRequest> = suite
        .iter()
        .flatten()
        .flat_map(|cdp| {
            [
                BatchRequest::new(cdp.clone(), Query::Cdpf).with_witnesses(true),
                BatchRequest::new(cdp.clone(), Query::Dgc(6.0)).with_witnesses(true),
            ]
        })
        .collect();

    let engine = Engine::new(1);
    let cold = engine.run(&requests);
    let warm = engine.run(&requests);
    assert!(warm.iter().all(|r| r.cache_hit), "second pass must be all hits");
    for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(a.response, b.response, "request {i}: warm answer drifted");
    }

    for workers in [2, 8] {
        let results = Engine::new(workers).run(&requests);
        for (i, (a, b)) in cold.iter().zip(&results).enumerate() {
            assert_eq!(a.response, b.response, "request {i} at {workers} workers");
        }
    }

    // A budget far below the suite's total weight: every pass evicts, yet
    // witnessed answers must never change.
    let tight = Engine::with_cache(4, FrontCache::with_budget(2, 24));
    for pass in 0..2 {
        let results = tight.run(&requests);
        for (i, (a, b)) in cold.iter().zip(&results).enumerate() {
            assert_eq!(a.response, b.response, "request {i}, evicting pass {pass}");
        }
        let stats = tight.cache().stats();
        assert!(stats.points <= 24, "points {} over budget", stats.points);
    }
    assert!(tight.cache().stats().evictions > 0, "the tight budget must evict");
}

/// Witness validity on the paper's own attribute distribution (integer
/// costs allow witness ties, so exact equality with the one-call solver is
/// not guaranteed — but every translated witness must still *achieve* its
/// point on the copy's tree).
#[test]
fn translated_witnesses_achieve_their_points_on_paper_style_suites() {
    let mut rng = StdRng::seed_from_u64(5005);
    for case in 0..25 {
        let treelike = rng.gen_bool(0.6);
        let tree = cdat::gen::random_small(&mut rng, 8, treelike);
        let cdp = cdat::gen::decorate_prob(tree, &mut rng);
        let copy = Arc::new(cdat::gen::isomorphic_copy(&cdp, &mut rng));
        let original = Arc::new(cdp);
        let engine = Engine::new(2);
        let results = engine.run(&[
            BatchRequest::new(original.clone(), Query::Cdpf).with_witnesses(true),
            BatchRequest::new(copy.clone(), Query::Cdpf).with_witnesses(true),
        ]);
        assert!(results[1].cache_hit, "case {case}: the copy must hit the original's entry");
        for (result, tree) in [(&results[0], &original), (&results[1], &copy)] {
            let front = front_of(&result.response, &format!("case {case}"));
            for e in front.entries() {
                let w = e.witness.as_ref().expect("witnesses requested");
                assert_eq!(tree.cd().cost_of(w), e.point.cost, "case {case}: witness cost");
                assert_eq!(tree.cd().damage_of(w), e.point.damage, "case {case}: witness damage");
            }
        }
    }
}
