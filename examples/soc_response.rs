//! Cost-as-time analysis for a security operations center (SOC).
//!
//! The paper's introduction suggests measuring cost in *time*: "for a
//! security operations center monitoring a network, a cost-damage analysis
//! (with cost measured in time) provides insight in whether the response
//! time is sufficient to stop damaging attacks." This example plays that
//! scenario out, including the probabilistic redundancy effect of the
//! paper's Example 10.
//!
//! Run with `cargo run --example soc_response`.

use cdat::{solve, AttackTreeBuilder, CdAttackTree};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Attack steps with durations in minutes; damages in k$ per stage.
    let mut b = AttackTreeBuilder::new();
    let scan = b.bas("scan perimeter");
    let exploit_vpn = b.bas("exploit VPN appliance");
    let spearphish = b.bas("spearphish employee");
    let foothold = b.or("initial foothold", [exploit_vpn, spearphish]);
    let escalate = b.bas("escalate privileges");
    let lateral = b.and("lateral movement", [foothold, escalate]);
    let stage = b.and("staging complete", [scan, lateral]);
    let exfil = b.bas("exfiltrate data");
    let _breach = b.and("data breach", [stage, exfil]);
    let tree = b.build()?;

    let cd = CdAttackTree::builder(tree)
        .cost("scan perimeter", 10.0)?
        .cost("exploit VPN appliance", 45.0)?
        .cost("spearphish employee", 30.0)?
        .cost("escalate privileges", 25.0)?
        .cost("exfiltrate data", 20.0)?
        .damage("initial foothold", 5.0)?
        .damage("lateral movement", 40.0)?
        .damage("staging complete", 60.0)?
        .damage("data breach", 400.0)?
        .finish()?;

    // The SOC question: given our detection-and-response latency of T
    // minutes, how much damage can an intruder do before we stop them?
    println!("attacker time vs achievable damage (k$):");
    let front = solve::cdpf(&cd)?;
    for entry in front.entries() {
        println!("  within {:>4} min: damage {:>5}", entry.point.cost, entry.point.damage);
    }
    for response in [30.0, 60.0, 90.0, 130.0] {
        let worst = solve::dgc(&cd, response)?.expect("nonnegative");
        println!(
            "response time {response:>4} min → worst-case exposure {:>5} k$",
            worst.point.damage
        );
    }
    let catastrophic = solve::cgd(&cd, 400.0)?.expect("breach is achievable");
    println!(
        "\na full breach needs the attacker to stay {} min undetected\n\
         → any response faster than that caps damage at {} k$",
        catastrophic.point.cost,
        solve::dgc(&cd, catastrophic.point.cost - 1.0)?.expect("nonnegative").point.damage
    );

    // ── Probabilistic twist: redundancy pays (Example 10 effect) ────────
    // With uncertain steps, the attacker rationally *also* runs the backup
    // plan: both foothold vectors at once raise the success probability.
    let cdp = cd
        .with_probabilities()
        .probability("scan perimeter", 1.0)?
        .probability("exploit VPN appliance", 0.5)?
        .probability("spearphish employee", 0.5)?
        .probability("escalate privileges", 0.8)?
        .probability("exfiltrate data", 0.9)?
        .finish()?;
    let prob_front = solve::cedpf(&cdp)?;
    println!("\nprobabilistic front (time vs expected damage):");
    for entry in prob_front.entries() {
        let w = entry.witness.as_ref().expect("witness");
        let names: Vec<&str> =
            w.iter().map(|b| cdp.tree().name(cdp.tree().node_of_bas(b))).collect();
        println!("  {:>4} min  E[damage] {:>8.2}  {names:?}", entry.point.cost, entry.point.damage);
    }
    let redundant = prob_front.entries().iter().any(|e| {
        let w = e.witness.as_ref().expect("witness");
        let has = |n: &str| {
            let v = cdp.tree().find(n).expect("known");
            w.contains(cdp.tree().bas_of_node(v).expect("bas"))
        };
        has("exploit VPN appliance") && has("spearphish employee")
    });
    println!(
        "\nsome optimal probabilistic attack runs BOTH foothold vectors: {redundant}\n\
         (deterministically that is never optimal — the paper's Example 10)"
    );
    Ok(())
}
