//! Integration tests for the scalar attribute domains (min-time, max-prob):
//! the generic staircase kernel agrees with exact enumeration on random
//! trees, and the two new query families stay isolated from the cost-damage
//! families in the memory cache and the persistent store — under eviction
//! and across warm restarts.

use std::sync::Arc;

use cdat::solve::{
    BatchRequest, Engine, FrontCache, PersistentFrontCache, Query, Response, SolverHint,
};
use rand::prelude::*;
use rand::rngs::StdRng;

fn temp_store(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdat-domains-{tag}-{}.cdatstore", std::process::id()))
}

fn scalar_value(response: &Response) -> Option<f64> {
    match response {
        Response::Value(entry) => entry.as_ref().map(|e| e.point.cost),
        other => panic!("expected a scalar response, got {other:?}"),
    }
}

/// The generic bottom-up kernel agrees with exact enumeration on random
/// treelike trees, in both scalar domains, witnesses included.
#[test]
fn scalar_kernels_agree_with_enumeration_on_random_trees() {
    let mut rng = StdRng::seed_from_u64(1201);
    for case in 0..60 {
        let tree = cdat_gen::random_small(&mut rng, 7, true);
        let cdp = cdat_gen::decorate_prob(tree, &mut rng);
        let cd = cdp.cd();

        let kernel = cdat::bottomup::min_time(cd).expect("treelike");
        let oracle = cdat::enumerative::min_time(cd, true);
        assert_eq!(kernel.len(), 1, "case {case}: min-time front is a single optimum");
        let k = &kernel.entries()[0];
        let o = &oracle.entries()[0];
        assert!(
            (k.point.cost - o.point.cost).abs() < 1e-9,
            "case {case}: min-time kernel {} != enumeration {}",
            k.point.cost,
            o.point.cost
        );
        // The witness must reach the root and actually achieve the value
        // (duration is the sum of its BAS costs).
        let w = k.witness.as_ref().expect("min-time tracks witnesses");
        assert!(cd.tree().reaches_root(w), "case {case}: min-time witness misses the root");
        assert!(
            (cd.cost_of(w) - k.point.cost).abs() < 1e-9,
            "case {case}: witness duration {} != reported optimum {}",
            cd.cost_of(w),
            k.point.cost
        );

        let kernel = cdat::bottomup::max_prob(&cdp).expect("treelike");
        let oracle = cdat::enumerative::max_prob(&cdp, true);
        let k = &kernel.entries()[0];
        let o = &oracle.entries()[0];
        assert!(
            (k.point.cost - o.point.cost).abs() < 1e-9,
            "case {case}: max-prob kernel {} != enumeration {}",
            k.point.cost,
            o.point.cost
        );
        let w = k.witness.as_ref().expect("max-prob tracks witnesses");
        assert!(cd.tree().reaches_root(w), "case {case}: max-prob witness misses the root");
        let product: f64 = w.iter().map(|b| cdp.prob(b)).product();
        assert!(
            (product - k.point.cost).abs() < 1e-9,
            "case {case}: witness probability {} != reported optimum {}",
            product,
            k.point.cost
        );
    }
}

/// The facade solvers dispatch on shape: treelike trees run the bottom-up
/// kernel, DAG-like trees the BDD-fused one — both agree with enumeration.
#[test]
fn facade_scalar_solvers_handle_both_shapes() {
    // Treelike: the paper's factory model.
    let factory = cdat_models::factory_cdp();
    let mt = cdat::solve::min_time(factory.cd()).unwrap().expect("factory has attacks");
    assert!((mt.point.cost - 1.0).abs() < 1e-12, "cyberattack alone is fastest");
    let mp = cdat::solve::max_prob(&factory).unwrap().expect("factory has attacks");
    assert!((mp.point.cost - 0.4 * 0.9).abs() < 1e-12, "bomb+door is likelier than 0.2");

    // DAG-like: the data-server case study, against enumeration directly.
    let server = cdat_models::dataserver();
    let via_facade = cdat::solve::min_time(&server).unwrap().expect("dataserver has attacks");
    let via_enum = cdat::enumerative::min_time(&server, true);
    assert_eq!(via_facade.point.cost, via_enum.entries()[0].point.cost);
    assert!(server.tree().reaches_root(via_facade.witness.as_ref().expect("witnessed")));
}

/// Scalar queries ride the batch engine like any other family, and the
/// same structural tree never shares a cache entry across domains — the
/// cost-damage front for a tree must not answer its min-time query.
#[test]
fn domains_are_isolated_in_the_memory_cache() {
    let tree = Arc::new(cdat_models::factory_cdp());
    let requests = vec![
        BatchRequest::new(tree.clone(), Query::Cdpf),
        BatchRequest::new(tree.clone(), Query::MinTime),
        BatchRequest::new(tree.clone(), Query::MaxProb),
        BatchRequest::new(tree.clone(), Query::Cedpf),
    ];
    let engine = Engine::new(2);
    let results = engine.run(&requests);
    assert!(results.iter().all(|r| !r.cache_hit), "four families, four distinct entries");
    assert_eq!(engine.stats().entries, 4);
    assert_eq!(engine.stats().hits, 0);
    // And the answers are the domain's own, not a neighbour family's:
    assert!((scalar_value(&results[1].response).expect("reachable") - 1.0).abs() < 1e-12);
    assert!((scalar_value(&results[2].response).expect("reachable") - 0.36).abs() < 1e-9);

    // A repeat run hits all four entries.
    let warm = engine.run(&requests);
    assert!(warm.iter().all(|r| r.cache_hit));
    assert_eq!(warm.len(), results.len());
    for (w, c) in warm.iter().zip(&results) {
        assert_eq!(w.response, c.response, "warm answers are byte-for-byte the cold ones");
    }
}

/// Isolation survives eviction pressure: a cache too small to hold all
/// four families keeps evicting, yet every answer stays the unbounded
/// reference answer — an evicted cost-damage front can never be
/// resurrected as a min-time answer or vice versa.
#[test]
fn domains_stay_isolated_under_eviction() {
    let mut rng = StdRng::seed_from_u64(1205);
    let trees: Vec<Arc<cdat::CdpAttackTree>> = (0..6)
        .map(|_| {
            let tree = cdat_gen::random_small(&mut rng, 6, true);
            Arc::new(cdat_gen::decorate_prob(tree, &mut rng))
        })
        .collect();
    let mut requests = Vec::new();
    for tree in &trees {
        for query in [Query::Cdpf, Query::MinTime, Query::MaxProb] {
            requests.push(BatchRequest::new(tree.clone(), query).with_witnesses(true));
        }
    }
    let reference = Engine::new(1).run(&requests);
    // A 6-point budget holds at most a few fronts; replaying the workload
    // keeps evicting and re-solving.
    let tight = Engine::with_cache(3, FrontCache::with_budget(2, 6));
    for round in 0..3 {
        let results = tight.run(&requests);
        for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.response, want.response,
                "round {round}, request {i}: eviction changed an answer"
            );
        }
    }
    assert!(tight.stats().evictions > 0, "the budget must actually evict");
}

/// Isolation survives warm restarts: the persistent store keys records by
/// (hash, family), so a store populated under one domain answers nothing
/// for another, and a fully populated store answers all four families
/// from disk with the cold bytes.
#[test]
fn domains_stay_isolated_across_warm_restart() {
    let path = temp_store("families");
    let _ = std::fs::remove_file(&path);
    let tree = Arc::new(cdat_models::factory_cdp());
    let open = |workers| {
        let cache = PersistentFrontCache::open(&path, FrontCache::default()).expect("store opens");
        Engine::with_persistent(workers, cache)
    };

    // Session 1 persists only the min-time front.
    let min_time = vec![BatchRequest::new(tree.clone(), Query::MinTime).with_witnesses(true)];
    let session1 = open(1);
    let cold = session1.run(&min_time);
    assert_eq!(session1.stats().disk_entries, 1);
    drop(session1);

    // Session 2 asks for max-prob on the same tree: the min-time record
    // must not answer it (distinct family codes), so this is a full solve.
    let max_prob = vec![BatchRequest::new(tree.clone(), Query::MaxProb).with_witnesses(true)];
    let session2 = open(2);
    let results = session2.run(&max_prob);
    assert_eq!(session2.stats().disk_hits, 0, "a min-time record answered a max-prob query");
    assert!((scalar_value(&results[0].response).expect("reachable") - 0.36).abs() < 1e-9);
    assert_eq!(session2.stats().disk_entries, 2);
    drop(session2);

    // Session 3 replays min-time: answered from disk, byte-for-byte.
    let session3 = open(1);
    let warm = session3.run(&min_time);
    assert_eq!(session3.stats().disk_hits, 1);
    assert_eq!(warm[0].response, cold[0].response);
    drop(session3);

    // Session 4 runs all four families warm: two disk hits (the scalar
    // records), two fresh solves appended, four records total.
    let all = vec![
        BatchRequest::new(tree.clone(), Query::Cdpf),
        BatchRequest::new(tree.clone(), Query::Cedpf),
        BatchRequest::new(tree.clone(), Query::MinTime),
        BatchRequest::new(tree.clone(), Query::MaxProb),
    ];
    let session4 = open(2);
    session4.run(&all);
    assert_eq!(session4.stats().disk_hits, 2);
    assert_eq!(session4.stats().disk_entries, 4);
    let _ = std::fs::remove_file(&path);
}

/// Scalar queries reject an incompatible hint (bottom-up on a DAG-like
/// tree) cleanly, without poisoning the cache for valid requests.
#[test]
fn scalar_queries_reject_incompatible_hints() {
    let server = cdat_models::dataserver();
    let expected = cdat::solve::min_time(&server).unwrap().expect("dataserver has attacks");
    let tree = Arc::new(server.with_probabilities().finish().expect("certain probabilities"));
    let engine = Engine::new(1);
    let bad = BatchRequest::new(tree.clone(), Query::MinTime).with_hint(SolverHint::BottomUp);
    let results = engine.run(&[bad]);
    match &results[0].response {
        Response::Error(e) => assert!(e.contains("treelike"), "unexpected message: {e}"),
        other => panic!("expected an error, got {other:?}"),
    }
    // The rejection must not have cached anything that shadows the real
    // answer.
    assert_eq!(engine.cache().stats().entries, 0);
    let good = engine.run(&[BatchRequest::new(tree, Query::MinTime)]);
    assert!(!good[0].cache_hit);
    assert_eq!(scalar_value(&good[0].response), Some(expected.point.cost));
}
