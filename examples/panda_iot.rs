//! The paper's first case study: privacy attacks on a giant-panda
//! reservation's IoT sensor network (Fig. 4 / Fig. 6a / Fig. 6b).
//!
//! Reproduces the analysis narrative of Section X-A: find the Pareto-optimal
//! attacks, identify the minimal attacks every optimal attack builds on, and
//! see how the probabilistic view changes the defense priorities.
//!
//! Run with `cargo run --release --example panda_iot`.

use cdat::solve;
use cdat_models::{panda, panda_cdp};

fn main() {
    let cd = panda();
    println!(
        "panda IoT attack tree: {} nodes, {} BASs, treelike = {}",
        cd.tree().node_count(),
        cd.tree().bas_count(),
        cd.tree().is_treelike()
    );

    // ── Deterministic cost-damage Pareto front (Fig. 6a) ────────────────
    let front = solve::cdpf(&cd).expect("panda tree is treelike");
    println!(
        "\ndeterministic Pareto front: {} of {} possible attacks are optimal",
        front.len(),
        1u64 << cd.tree().bas_count()
    );
    println!("{:>6} {:>8} {:>4}  attack (paper BAS numbers)", "cost", "damage", "top");
    for entry in front.entries() {
        let w = entry.witness.as_ref().expect("witness tracked");
        let ids: Vec<String> = w.iter().map(|b| format!("b{}", b.index() + 1)).collect();
        println!(
            "{:>6} {:>8} {:>4}  {{{}}}",
            entry.point.cost,
            entry.point.damage,
            if cd.tree().reaches_root(w) { "y" } else { "n" },
            ids.join(",")
        );
    }

    // The security reading: which cheap attacks appear in every optimal one?
    println!(
        "\nreading: the curve rises steeply until cost 7 — the minimal attacks\n\
         {{b18}} (internal leakage), {{b19,b20}} (physical theft) and {{b21,b22}}\n\
         (code theft) buy most of the damage; defenses should start there."
    );

    // ── Probabilistic front (Fig. 6b) ────────────────────────────────────
    let cdp = panda_cdp();
    let prob = solve::cedpf(&cdp).expect("panda tree is treelike");
    println!(
        "\nprobabilistic front: {} Pareto-optimal attacks (vs {} deterministic)",
        prob.len(),
        front.len()
    );
    println!("first entries:");
    println!("{:>6} {:>10}  attack", "cost", "E[damage]");
    for entry in prob.entries().iter().take(6) {
        let w = entry.witness.as_ref().expect("witness tracked");
        let ids: Vec<String> = w.iter().map(|b| format!("b{}", b.index() + 1)).collect();
        println!("{:>6} {:>10.2}  {{{}}}", entry.point.cost, entry.point.damage, ids.join(","));
    }
    // b18 appears in every nonzero optimal attack.
    let b18 = cd.tree().attack_of_names(["internal leakage"]).expect("known BAS");
    let every =
        prob.entries()[1..].iter().all(|e| b18.is_subset(e.witness.as_ref().expect("witness")));
    println!(
        "\nb18 (internal leakage) in every optimal probabilistic attack: {every}\n\
         → in the probabilistic view, insider leakage is the single most\n\
         important step to defend against."
    );

    // ── Budget sweep (the DgC question for attacker profiles) ───────────
    println!("\ndamage achievable by attacker budget:");
    for budget in [0.0, 5.0, 10.0, 15.0, 20.0, 30.0] {
        let det = solve::dgc(&cd, budget).expect("treelike").expect("budget ≥ 0").point.damage;
        let exp = solve::edgc(&cdp, budget).expect("treelike").expect("budget ≥ 0").point.damage;
        println!("  budget {budget:>4}: worst-case damage {det:>5}, expected {exp:>7.2}");
    }
}
