//! End-to-end reproduction of the paper's case-study results (Fig. 6).

use cdat::solve;
use cdat::CostDamage;
use cdat_models::{dataserver, panda, panda_attack, panda_cdp};

/// Fig. 6a: the deterministic cost-damage Pareto front of the panda IoT AT.
#[test]
fn panda_deterministic_front_is_fig_6a() {
    let cd = panda();
    let front = solve::cdpf(&cd).unwrap();
    let expect = [
        (0.0, 0.0),
        (3.0, 20.0),
        (4.0, 50.0),
        (7.0, 65.0),
        (11.0, 75.0),
        (13.0, 80.0),
        (17.0, 90.0),
        (22.0, 95.0),
        (30.0, 100.0),
    ];
    assert_eq!(front.len(), expect.len(), "paper: 8 nonzero Pareto-optimal attacks; got {front}");
    for (e, (c, d)) in front.entries().iter().zip(expect) {
        assert_eq!(e.point, CostDamage::new(c, d));
    }
    // Every nonzero optimal attack reaches the top (Fig. 6a's `top` column)
    // and contains one of the minimal attacks {b18}, {b19,b20}, {b21,b22}.
    let b18 = panda_attack(&cd, &[18]);
    let b1920 = panda_attack(&cd, &[19, 20]);
    let b2122 = panda_attack(&cd, &[21, 22]);
    for e in &front.entries()[1..] {
        let w = e.witness.as_ref().expect("solvers track witnesses");
        assert!(cd.tree().reaches_root(w), "optimal attack at {} should reach top", e.point);
        assert!(
            b18.is_subset(w) || b1920.is_subset(w) || b2122.is_subset(w),
            "optimal attack at {} lacks every minimal attack",
            e.point
        );
    }
}

/// The paper: "only a few of the 2^22 possible attacks are Pareto optimal",
/// and the bottom-up front equals the enumerative one.
#[test]
#[ignore = "enumerates 2^22 attacks (~10 s in release); run with --ignored"]
fn panda_front_agrees_with_full_enumeration() {
    let cd = panda();
    let bu = solve::cdpf(&cd).unwrap();
    let en = cdat_enumerative::cdpf(&cd, false);
    assert!(bu.approx_eq(&en, 1e-9));
}

/// Fig. 6b: the probabilistic front's printed prefix and its shape.
#[test]
fn panda_probabilistic_front_matches_fig_6b() {
    let cdp = panda_cdp();
    let front = solve::cedpf(&cdp).expect("panda tree is treelike");
    // The paper lists the first five entries (1-decimal precision).
    let expect_prefix =
        [(0.0, 0.0), (3.0, 18.0), (7.0, 27.6), (11.0, 30.8), (13.0, 37.0), (16.0, 39.8)];
    for ((c, d), e) in expect_prefix.iter().zip(front.entries()) {
        assert_eq!(e.point.cost, *c);
        assert!(
            (e.point.damage - d).abs() < 0.06,
            "prob point at cost {c}: got {:.3}, paper prints {d}",
            e.point.damage
        );
    }
    // Paper: 31 Pareto-optimal attacks; the reconstruction yields 30 — the
    // count is decoration-sensitive (documented in EXPERIMENTS.md), but the
    // blow-up vs the 9-point deterministic front must reproduce.
    assert!(
        (25..=35).contains(&front.len()),
        "probabilistic front should have ≈31 points, got {}",
        front.len()
    );
    // Paper: "b18 is part of every Pareto-optimal attack" (nonzero ones).
    let b18 = panda_attack(cdp.cd(), &[18]);
    for e in &front.entries()[1..] {
        let w = e.witness.as_ref().expect("witnesses tracked");
        assert!(b18.is_subset(w), "optimal attack at {} misses b18", e.point);
    }
}

/// Regression snapshot: the full probabilistic front of the calibrated panda
/// model (30 points). If the model decoration ever changes, this test is the
/// tripwire; update it deliberately together with EXPERIMENTS.md.
#[test]
fn panda_probabilistic_front_snapshot() {
    let cdp = panda_cdp();
    let front = solve::cedpf(&cdp).expect("treelike");
    let expect: [(f64, f64); 30] = [
        (0.0, 0.0),
        (3.0, 18.0),
        (7.0, 27.555),
        (11.0, 30.79),
        (13.0, 37.005),
        (16.0, 39.84),
        (17.0, 40.24),
        (19.0, 40.691),
        (20.0, 43.075),
        (23.0, 43.926),
        (24.0, 44.575),
        (25.0, 45.575),
        (28.0, 46.982),
        (31.0, 47.833),
        (32.0, 48.482),
        (33.0, 49.482),
        (36.0, 50.333),
        (38.0, 50.732),
        (39.0, 51.083),
        (41.0, 51.583),
        (43.0, 51.587),
        (44.0, 52.333),
        (46.0, 52.381),
        (47.0, 52.409),
        (49.0, 53.131),
        (51.0, 53.134),
        (52.0, 53.17),
        (54.0, 53.17),
        (56.0, 53.173),
        (58.0, 53.174),
    ];
    assert_eq!(front.len(), expect.len());
    for (e, (c, d)) in front.entries().iter().zip(expect) {
        assert_eq!(e.point.cost, c);
        assert!(
            (e.point.damage - d).abs() < 1e-3,
            "point at cost {c}: got {:.6}, snapshot {d}",
            e.point.damage
        );
    }
}

/// Fig. 6c: the data-server front, solved by the BDD-fused backend (the
/// tree is DAG-like).
#[test]
fn dataserver_front_is_fig_6c() {
    let cd = dataserver();
    assert_eq!(solve::SolverBackend::for_shape(cd.tree()), solve::SolverBackend::BddFused);
    let front = solve::cdpf(&cd).unwrap();
    let expect =
        [(0.0, 0.0), (250.0, 24.0), (568.0, 60.0), (976.0, 70.8), (1131.0, 75.8), (1281.0, 82.8)];
    assert_eq!(front.len(), expect.len(), "paper: 5 nonzero Pareto-optimal attacks; got {front}");
    for (e, (c, d)) in front.entries().iter().zip(expect) {
        assert_eq!(e.point.cost, c);
        assert!((e.point.damage - d).abs() < 1e-9);
    }
    // Paper: every Pareto-optimal attack contains the previous one, and only
    // A1 misses the top.
    for pair in front.entries()[1..].windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            a.witness.as_ref().unwrap().is_subset(b.witness.as_ref().unwrap()),
            "nesting fails between {} and {}",
            a.point,
            b.point
        );
    }
    let tops: Vec<bool> = front.entries()[1..]
        .iter()
        .map(|e| cd.tree().reaches_root(e.witness.as_ref().unwrap()))
        .collect();
    assert_eq!(tops, vec![false, true, true, true, true], "only A1 misses the top");
    // Enumerative agreement (2^12 attacks, cheap).
    let en = cdat_enumerative::cdpf(&cd, false);
    assert!(front.approx_eq(&en, 1e-9));
}

/// DgC/CgD on the case studies answer directly from the front (eq. (1)/(2)).
#[test]
fn single_objective_answers_match_fronts() {
    for cd in [panda(), dataserver()] {
        let front = solve::cdpf(&cd).unwrap();
        for budget in [0.0, 3.0, 10.0, 250.0, 600.0, 10_000.0] {
            let via_front = front.max_damage_within(budget).map(|e| e.point.damage);
            let direct = solve::dgc(&cd, budget).unwrap().map(|e| e.point.damage);
            assert_eq!(direct, via_front, "DgC({budget})");
        }
        for threshold in [0.0, 20.0, 50.0, 75.8, 100.0] {
            let via_front = front.min_cost_achieving(threshold).map(|e| e.point.cost);
            let direct = solve::cgd(&cd, threshold).unwrap().map(|e| e.point.cost);
            assert_eq!(direct, via_front, "CgD({threshold})");
        }
    }
}

/// EDgC/CgED against the probabilistic front on the panda model.
#[test]
fn probabilistic_single_objective_answers_match_front() {
    let cdp = panda_cdp();
    let front = solve::cedpf(&cdp).unwrap();
    for budget in [0.0, 3.0, 7.0, 16.0, 100.0] {
        let via_front = front.max_damage_within(budget).map(|e| e.point.damage);
        let direct = solve::edgc(&cdp, budget).unwrap().map(|e| e.point.damage);
        assert_eq!(direct, via_front, "EDgC({budget})");
    }
    for threshold in [0.0, 18.0, 30.0, 60.0] {
        let via_front = front.min_cost_achieving(threshold).map(|e| e.point.cost);
        let direct = solve::cged(&cdp, threshold).unwrap().map(|e| e.point.cost);
        assert_eq!(direct, via_front, "CgED({threshold})");
    }
    // The probabilistic DAG case — open in the paper — is now solved by
    // the BDD-fused backend; the exhaustive oracle (2^12 attacks, cheap)
    // confirms the polynomial pass bit for bit.
    let ds = dataserver().with_probabilities().finish().unwrap();
    let fused = solve::cedpf(&ds).expect("the data server fits the diagram budget");
    assert_eq!(fused.to_string(), solve::cedpf_exhaustive(&ds).to_string());
}

/// The running example end-to-end through the dispatcher (Fig. 3).
#[test]
fn factory_example_fig_3() {
    let cd = cdat_models::factory();
    assert_eq!(solve::SolverBackend::for_shape(cd.tree()), solve::SolverBackend::BottomUp);
    let front = solve::cdpf(&cd).unwrap();
    assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}");
    assert_eq!(solve::dgc(&cd, 2.0).unwrap().unwrap().point.damage, 200.0);
    assert_eq!(solve::cgd(&cd, 201.0).unwrap().unwrap().point.cost, 3.0);
}
