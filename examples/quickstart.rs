//! Quickstart: model a small system, compute its cost-damage Pareto front,
//! and answer budget questions.
//!
//! Run with `cargo run --example quickstart`.

use cdat::{solve, AttackTreeBuilder, CdAttackTree};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── 1. Model the attack tree ────────────────────────────────────────
    // A web shop: the attacker wants to take the shop offline. They can
    // flood it (cheap, temporary outage) or compromise the admin account
    // (phish a credential AND bypass 2FA), which also corrupts the catalog.
    let mut b = AttackTreeBuilder::new();
    let flood = b.bas("flood traffic");
    let phish = b.bas("phish credential");
    let bypass = b.bas("bypass 2FA");
    let admin = b.and("admin account compromised", [phish, bypass]);
    let _offline = b.or("shop offline", [flood, admin]);
    let tree = b.build()?;

    // ── 2. Attach costs (attacker effort) and damages (defender loss) ───
    // Damage lives on *every* node: a compromised admin account is costly
    // even beyond the outage it causes.
    let cd = CdAttackTree::builder(tree)
        .cost("flood traffic", 2.0)?
        .cost("phish credential", 3.0)?
        .cost("bypass 2FA", 4.0)?
        .damage("admin account compromised", 50.0)?
        .damage("shop offline", 20.0)?
        .finish()?;

    // ── 3. The Pareto front: the whole cost-damage trade-off at once ────
    let front = solve::cdpf(&cd)?;
    println!("cost-damage Pareto front:");
    for entry in front.entries() {
        let witness = entry.witness.as_ref().expect("solvers track witnesses");
        let names: Vec<&str> =
            witness.iter().map(|bas| cd.tree().name(cd.tree().node_of_bas(bas))).collect();
        println!(
            "  cost {:>4}  damage {:>4}  attack {:?}",
            entry.point.cost, entry.point.damage, names
        );
    }

    // ── 4. Budgeted questions ───────────────────────────────────────────
    // "How bad can an attacker with budget 5 hurt us?" (DgC)
    let worst = solve::dgc(&cd, 5.0)?.expect("budget is nonnegative");
    println!("\nworst damage within budget 5: {}", worst.point.damage);

    // "How cheap is it to cause damage ≥ 60?" (CgD)
    match solve::cgd(&cd, 60.0)? {
        Some(entry) => println!("damage ≥ 60 costs the attacker ≥ {}", entry.point.cost),
        None => println!("damage ≥ 60 is not achievable"),
    }

    // ── 5. Probabilistic refinement ─────────────────────────────────────
    // Steps may fail; the metric becomes *expected* damage.
    let cdp = cd
        .with_probabilities()
        .probability("flood traffic", 0.9)?
        .probability("phish credential", 0.5)?
        .probability("bypass 2FA", 0.3)?
        .finish()?;
    let prob_front = solve::cedpf(&cdp)?;
    println!("\ncost vs expected damage (probabilistic front):");
    for entry in prob_front.entries() {
        println!("  cost {:>4}  E[damage] {:>7.3}", entry.point.cost, entry.point.damage);
    }
    Ok(())
}
