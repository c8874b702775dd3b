//! Defense planning: the paper's closing advice made executable.
//!
//! Section X-A ends with: "security improvements should focus on location
//! information leakage by internal sources (b18) and base station compromise
//! by either physical theft (b19, b20) or code theft (b21, b22). After
//! defenses are put in place, a new cost-damage analysis is needed to see
//! whether attack risks have been mitigated satisfactorily."
//!
//! This example runs that loop on the panda case study with `cdat-analysis`:
//! rank single defenses, apply the best ones, recompute the front, repeat.
//! The per-round "new cost-damage analysis" goes through the incremental
//! what-if engine: one [`Engine`] holds the base solve, and every round asks
//! for the front under the *accumulated* defends as a delta — only the
//! defended BASs' root paths recompute, and the answer is byte-identical to
//! solving the defended tree from scratch.
//!
//! Run with `cargo run --release --example defense_planning`.

use std::sync::Arc;

use cdat::analysis::{defend, minimal_attacks, rank_single_defenses, whatif::Defended};
use cdat::solve::{DeltaRequest, Engine, Query, Response, TreePatch};
use cdat::{solve, BasId, CdAttackTree};

fn main() {
    let budget = 7.0; // the attacker profile we defend against
    let mut current: CdAttackTree = cdat_models::panda();
    let base = Arc::new(cdat_models::panda_cdp());
    let engine = Engine::new(1);
    let mut defended: Vec<BasId> = Vec::new(); // in the base tree's numbering
    println!(
        "attacker budget {budget}: undefended worst-case damage = {}",
        solve::dgc(&current, budget).expect("treelike").expect("budget ≥ 0").point.damage
    );

    // Classical view first: the minimal successful attacks.
    let mut minimal = minimal_attacks(current.tree());
    minimal.sort_by(|a, b| {
        current.cost_of(a).partial_cmp(&current.cost_of(b)).expect("costs are not NaN")
    });
    println!("\n{} minimal attacks exist; the three cheapest:", minimal.len());
    for a in minimal.iter().take(3) {
        let names: Vec<&str> =
            a.iter().map(|b| current.tree().name(current.tree().node_of_bas(b))).collect();
        println!("  cost {:>3}: {}", current.cost_of(a), names.join(" + "));
    }

    // Iterative hardening: defend the best-ranked BAS, re-analyze, repeat.
    println!("\niterative hardening (defend the top-ranked step, re-analyze):");
    for round in 1..=4 {
        let ranking = rank_single_defenses(&current, budget);
        let best = &ranking[0];
        println!(
            "round {round}: defend {:?} → residual damage {} (was {})",
            best.name,
            best.residual_damage,
            solve::dgc(&current, budget).expect("treelike").expect("budget ≥ 0").point.damage,
        );
        // Surviving names are preserved by the prune, so the best defense
        // maps back to the base tree's numbering by name — the accumulated
        // defend set is one patch against the fixed base.
        let base_bas = base
            .tree()
            .find(&best.name)
            .and_then(|v| base.tree().bas_of_node(v))
            .expect("defense names come from the base tree");
        defended.push(base_bas);
        let victim: BasId = best.bas;
        match defend(&current, &[victim]) {
            Defended::Residual(next, _) => current = next,
            Defended::Neutralized => {
                println!("         the tree is fully neutralized");
                return;
            }
        }
        // "a new cost-damage analysis is needed" — answered incrementally:
        // the engine reuses the retained base solve and recomputes only the
        // defended root paths (byte-identical to a scratch solve).
        let patch = TreePatch { defends: defended.clone(), ..TreePatch::default() };
        let result = engine.whatif(&DeltaRequest::new(base.clone(), Query::Cdpf, patch));
        let Response::Front(front) = result.response else {
            panic!("treelike CDPF deltas answer fronts");
        };
        println!(
            "         residual front: {front}  (max damage {}; {} dirty nodes, {} subtree fronts reused)",
            current.max_damage(),
            result.dirty_nodes,
            result.subtree_hits,
        );
    }
}
