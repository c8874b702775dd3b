//! The paper's second case study: a data server on a network behind a
//! firewall (Fig. 5 / Fig. 6c) — a DAG-like tree solved by the BDD-fused
//! backend. The paper's BILP encoding stays available as `cdat::bilp`.
//!
//! Run with `cargo run --release --example data_server`.

use cdat::solve;
use cdat_models::dataserver;

fn main() {
    let cd = dataserver();
    println!(
        "data-server attack tree: {} nodes, {} BASs, treelike = {}",
        cd.tree().node_count(),
        cd.tree().bas_count(),
        cd.tree().is_treelike()
    );
    println!(
        "dispatched backend: {:?} (bottom-up cannot handle shared nodes)",
        solve::SolverBackend::for_shape(cd.tree())
    );

    // ── Fig. 6c: the Pareto front via the BDD-fused solver ──────────────
    let front = solve::cdpf(&cd).expect("the data server fits the diagram budget");
    println!("\ncost-damage Pareto front ({} points):", front.len());
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

    // The nesting observation of the paper: each optimal attack extends the
    // previous one, so defenses can be prioritized greedily.
    let nested = front.entries()[1..].windows(2).all(|pair| {
        pair[0]
            .witness
            .as_ref()
            .expect("witness")
            .is_subset(pair[1].witness.as_ref().expect("witness"))
    });
    println!(
        "\nevery optimal attack contains the previous one: {nested}\n\
         → the FTP buffer overflow (b6, b8) is the most important pair to\n\
         defend against, then the data-server LICQ + suid pair (b11, b12), …"
    );

    // Note the first optimal attack does NOT reach the top: classical
    // minimal-attack analysis would never report it.
    let a1 = &front.entries()[1];
    println!(
        "\nA1 = {:?} damages the FTP server (damage {}) without ever reaching\n\
         the data server — invisible to success-only analyses.",
        a1.witness
            .as_ref()
            .expect("witness")
            .iter()
            .map(|b| format!("b{}", b.index() + 1))
            .collect::<Vec<_>>(),
        a1.point.damage
    );

    // ── Graphviz export for reports ─────────────────────────────────────
    let dot = cdat::core::to_dot_cd(&cd);
    println!("\nGraphviz export: {} bytes (pipe to `dot -Tpdf`)", dot.len());
}
