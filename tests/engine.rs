//! Cross-validation of the batch engine against the one-call solvers:
//! agreement on random suites (treelike and DAG-like, seeded) and
//! determinism across worker counts.

use std::sync::Arc;

use cdat::solve::{self, BatchRequest, Engine, Query, Response};
use cdat::CdpAttackTree;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Seeded random cdp-ATs from the `cdat-gen` small-tree generator.
fn random_suite(seed: u64, count: usize, treelike: bool) -> Vec<Arc<CdpAttackTree>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let tree = cdat::gen::random_small(&mut rng, 8, treelike);
            Arc::new(cdat::gen::decorate_prob(tree, &mut rng))
        })
        .collect()
}

/// The engine's deterministic answers must match the sequential facade on
/// every tree of a random treelike suite.
#[test]
fn engine_agrees_with_sequential_on_treelike_suites() {
    let suite = random_suite(2001, 40, true);
    let requests: Vec<BatchRequest> = suite
        .iter()
        .flat_map(|cdp| {
            [
                BatchRequest::new(cdp.clone(), Query::Cdpf),
                BatchRequest::new(cdp.clone(), Query::Dgc(7.0)),
                BatchRequest::new(cdp.clone(), Query::Cgd(5.0)),
                BatchRequest::new(cdp.clone(), Query::Cedpf),
            ]
        })
        .collect();
    let results = solve::batch(&requests, 4);

    for (i, cdp) in suite.iter().enumerate() {
        let front = solve::cdpf(cdp.cd()).unwrap();
        match &results[4 * i].response {
            Response::Front(engine_front) => {
                assert!(
                    engine_front.approx_eq(&front, 0.0),
                    "tree {i}: engine CDPF {engine_front} != sequential {front}"
                )
            }
            other => panic!("tree {i}: {other:?}"),
        }
        // The single-objective answers are the front's own answers
        // (point-only: witnesses were not requested).
        let point_of = |response: &Response| match response {
            Response::Entry(e) => e.as_ref().map(|e| e.point),
            other => panic!("tree {i}: {other:?}"),
        };
        let expect_dgc = front.max_damage_within(7.0).map(|e| e.point);
        assert_eq!(point_of(&results[4 * i + 1].response), expect_dgc, "tree {i} DgC");
        let expect_cgd = front.min_cost_achieving(5.0).map(|e| e.point);
        assert_eq!(point_of(&results[4 * i + 2].response), expect_cgd, "tree {i} CgD");
        // ... and they agree with the dedicated solvers on the optimum.
        if let Some(p) = expect_dgc {
            let direct = solve::dgc(cdp.cd(), 7.0).unwrap().expect("nonnegative budget");
            assert!((direct.point.damage - p.damage).abs() < 1e-9, "tree {i} DgC optimum");
        }
        if let Some(p) = expect_cgd {
            let direct = solve::cgd(cdp.cd(), 5.0).unwrap().expect("attainable threshold");
            assert!((direct.point.cost - p.cost).abs() < 1e-9, "tree {i} CgD optimum");
        }
        let cedpf = solve::cedpf(cdp).expect("treelike");
        match &results[4 * i + 3].response {
            Response::Front(engine_front) => {
                assert!(engine_front.approx_eq(&cedpf, 0.0), "tree {i}: CEDPF mismatch")
            }
            other => panic!("tree {i}: {other:?}"),
        }
    }
}

/// Same agreement on a DAG suite (BDD-fused backend) — probabilistic
/// queries included: actual DAGs solve through the fused pass now, exactly
/// like the facade.
#[test]
fn engine_agrees_with_sequential_on_dag_suites() {
    let suite = random_suite(2002, 25, false);
    let requests: Vec<BatchRequest> = suite
        .iter()
        .flat_map(|cdp| {
            [
                BatchRequest::new(cdp.clone(), Query::Cdpf),
                BatchRequest::new(cdp.clone(), Query::Cedpf),
            ]
        })
        .collect();
    let results = solve::batch(&requests, 4);

    let mut saw_dag = false;
    for (i, cdp) in suite.iter().enumerate() {
        saw_dag |= !cdp.tree().is_treelike();
        let front = solve::cdpf(cdp.cd()).unwrap();
        match &results[2 * i].response {
            Response::Front(engine_front) => {
                assert!(engine_front.approx_eq(&front, 0.0), "tree {i}: CDPF mismatch")
            }
            other => panic!("tree {i}: {other:?}"),
        }
        let sequential = solve::cedpf(cdp).expect("small trees fit the diagram budget");
        match &results[2 * i + 1].response {
            Response::Front(engine_front) => {
                assert!(engine_front.approx_eq(&sequential, 0.0), "tree {i}: CEDPF mismatch")
            }
            other => panic!("tree {i}: {other:?}"),
        }
    }
    assert!(saw_dag, "the DAG suite should contain actual DAGs");
}

/// Responses and cache flags must not depend on the worker count.
#[test]
fn engine_results_are_worker_count_independent() {
    let mut suite = random_suite(2003, 30, true);
    suite.extend(random_suite(2004, 15, false));
    let requests: Vec<BatchRequest> = suite
        .iter()
        .flat_map(|cdp| {
            [
                BatchRequest::new(cdp.clone(), Query::Cdpf),
                BatchRequest::new(cdp.clone(), Query::Cedpf),
                BatchRequest::new(cdp.clone(), Query::Dgc(4.5)),
            ]
        })
        .collect();
    let reference = solve::batch(&requests, 1);
    for workers in [2, 8] {
        let results = solve::batch(&requests, workers);
        assert_eq!(reference.len(), results.len());
        for (i, (a, b)) in reference.iter().zip(&results).enumerate() {
            assert_eq!(a.response, b.response, "request {i} at {workers} workers");
            assert_eq!(a.cache_hit, b.cache_hit, "request {i} hit flag at {workers} workers");
        }
    }
}

/// A persistent engine answers a repeated batch entirely from cache, with
/// identical responses.
#[test]
fn warm_cache_replays_batches_identically() {
    let suite = random_suite(2005, 20, true);
    let requests: Vec<BatchRequest> =
        suite.iter().map(|cdp| BatchRequest::new(cdp.clone(), Query::Cdpf)).collect();
    let engine = Engine::new(2);
    let cold = engine.run(&requests);
    let warm = engine.run(&requests);
    assert!(warm.iter().all(|r| r.cache_hit), "every warm request is a hit");
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.response, b.response);
    }
    let stats = engine.cache().stats();
    assert!(stats.entries <= requests.len());
}
