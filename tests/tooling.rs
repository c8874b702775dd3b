//! Integration tests for the tooling layer: text format round-trips through
//! the solvers, and the analysis toolkit composes with everything else.

use cdat::analysis::{defend, rank_single_defenses, whatif::Defended};
use cdat::{format, solve};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Case-study models survive a text round-trip with identical fronts.
#[test]
fn models_round_trip_through_the_text_format_with_equal_fronts() {
    // Treelike with probabilities.
    let panda = cdat_models::panda_cdp();
    let reparsed = format::parse(&format::write(&panda)).expect("panda renders and reparses");
    assert!(solve::cdpf(panda.cd()).unwrap().approx_eq(&solve::cdpf(reparsed.cd()).unwrap(), 1e-9));
    assert!(solve::cedpf(&panda)
        .expect("treelike")
        .equivalent(&solve::cedpf(&reparsed).expect("treelike"), 1e-9));

    // DAG-like.
    let server = cdat_models::dataserver();
    let reparsed = format::parse_cd(&format::write_cd(&server)).expect("server reparses");
    assert!(!reparsed.tree().is_treelike());
    assert!(solve::cdpf(&server).unwrap().approx_eq(&solve::cdpf(&reparsed).unwrap(), 1e-9));
}

/// Random trees: text round-trip preserves fronts (the strongest semantic
/// equality we can ask of a serializer).
#[test]
fn random_trees_round_trip_with_equal_fronts() {
    let mut rng = StdRng::seed_from_u64(909);
    for case in 0..40 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 7, treelike);
        let cdp = cdat_gen::decorate_prob(tree, &mut rng);
        let text = format::write(&cdp);
        let reparsed = format::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert!(
            solve::cdpf(cdp.cd()).unwrap().approx_eq(&solve::cdpf(reparsed.cd()).unwrap(), 1e-9),
            "case {case}: deterministic front changed across round-trip"
        );
        if treelike {
            assert!(
                solve::cedpf(&cdp)
                    .expect("treelike")
                    .equivalent(&solve::cedpf(&reparsed).expect("treelike"), 1e-9),
                "case {case}: probabilistic front changed across round-trip"
            );
        }
    }
}

/// Defense semantics against the solvers: defending a BAS can only shrink
/// the Pareto front (point-wise domination by the undefended front).
#[test]
fn defended_fronts_are_dominated_by_undefended_fronts() {
    let mut rng = StdRng::seed_from_u64(910);
    for case in 0..40 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 7, treelike);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let undefended = solve::cdpf(&cd).unwrap();
        let victim = cdat::BasId::new(rng.gen_range(0..cd.tree().bas_count()));
        match defend(&cd, &[victim]) {
            Defended::Neutralized => {}
            Defended::Residual(residual, _) => {
                for p in solve::cdpf(&residual).unwrap().points() {
                    assert!(
                        undefended.dominates_within(p, 1e-9),
                        "case {case}: defended point {p} beats the undefended front {undefended}"
                    );
                }
            }
        }
    }
}

/// Ranking agrees with direct evaluation: applying the top-ranked defense
/// yields exactly its predicted residual damage.
#[test]
fn ranking_predictions_are_accurate() {
    let mut rng = StdRng::seed_from_u64(911);
    for case in 0..25 {
        let treelike = rng.gen_bool(0.5);
        let tree = cdat_gen::random_small(&mut rng, 6, treelike);
        let cd = cdat_gen::decorate(tree, &mut rng);
        let budget = rng.gen_range(0.0..=cd.total_cost());
        for effect in rank_single_defenses(&cd, budget).iter().take(2) {
            let residual = match defend(&cd, &[effect.bas]) {
                Defended::Neutralized => 0.0,
                Defended::Residual(residual, _) => {
                    solve::dgc(&residual, budget).unwrap().map(|e| e.point.damage).unwrap_or(0.0)
                }
            };
            assert_eq!(residual, effect.residual_damage, "case {case}: {}", effect.name);
        }
    }
}

/// Minimal attacks compose with cost-damage analysis: every minimal attack's
/// value is dominated by the front, and the cheapest minimal attack's cost
/// equals the classical "min cost of a successful attack" metric.
#[test]
fn minimal_attacks_are_consistent_with_the_front() {
    for cd in [cdat_models::factory(), cdat_models::panda(), cdat_models::dataserver()] {
        let front = solve::cdpf(&cd).unwrap();
        let minimal = cdat::analysis::minimal_attacks(cd.tree());
        assert!(!minimal.is_empty());
        let min_cost_successful =
            minimal.iter().map(|a| cd.cost_of(a)).fold(f64::INFINITY, f64::min);
        for a in &minimal {
            let p = cdat::CostDamage::new(cd.cost_of(a), cd.damage_of(a));
            assert!(front.dominates_within(p, 1e-9));
            assert!(cd.tree().reaches_root(a));
        }
        // CgD at "damage of the top node only" relates: any successful attack
        // costs at least the cheapest minimal attack.
        let root_damage = cd.damage(cd.tree().root());
        if root_damage > 0.0 {
            let via_front = solve::cgd(&cd, root_damage).unwrap().expect("top is reachable");
            assert!(via_front.point.cost <= min_cost_successful + 1e-9);
        }
    }
}

fn readme() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md at the repo root")
}

/// Fenced code blocks of README.md with the given info string.
fn fenced_blocks(text: &str, tag: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        match &mut current {
            None if line.trim_end() == format!("```{tag}") => current = Some(String::new()),
            None => {}
            Some(block) if line.trim_end() == "```" => {
                blocks.push(std::mem::take(block));
                current = None;
            }
            Some(block) => {
                block.push_str(line);
                block.push('\n');
            }
        }
    }
    blocks
}

/// The README's text-format model block parses and yields exactly the
/// fronts and scalar optima the surrounding prose claims.
#[test]
fn readme_factory_model_matches_its_documented_answers() {
    let readme = readme();
    let blocks = fenced_blocks(&readme, "text");
    let model = blocks.first().expect("README carries the factory model as a ```text block");
    let cdp = format::parse(model).expect("the README model must stay parseable");

    // The quickstart's front, quoted twice (Rust block and CLI table).
    let front = solve::cdpf(cdp.cd()).unwrap();
    assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}");
    assert!(readme.contains("{(0, 0), (1, 200), (3, 210), (5, 310)}"));

    // The attribute-domain section's scalar claims.
    let mt = solve::min_time(cdp.cd()).unwrap().expect("factory has attacks");
    assert_eq!(mt.point.cost, 1.0);
    let mp = solve::max_prob(&cdp).unwrap().expect("factory has attacks");
    assert_eq!(mp.point.cost, 0.4 * 0.9);
}

/// Every `--flag` shown in a README console block is accepted by the CLI
/// (i.e. appears in its usage text) — the quickstart cannot drift from
/// the binary. Cargo's own flags are excluded by only reading cargo
/// lines after their `--` separator.
#[test]
fn readme_console_flags_exist_in_the_cli_usage() {
    let usage = std::process::Command::new(env!("CARGO_BIN_EXE_cdat"))
        .output()
        .expect("binary runs")
        .stdout;
    let usage = String::from_utf8(usage).expect("usage is utf-8");

    let readme = readme();
    let mut checked = 0;
    for block in fenced_blocks(&readme, "console") {
        for line in block.lines() {
            let trimmed = line.trim_start();
            let Some(command) = trimmed.strip_prefix("$ ").or(trimmed.strip_prefix("| ")) else {
                continue;
            };
            let args = if command.starts_with("cargo") {
                // Only cargo invocations of the `cdat` binary itself, and
                // only the argument side of their `--` separator.
                match (command.contains("--bin cdat "), command.split_once(" -- ")) {
                    (true, Some((_, rest))) => rest,
                    _ => continue,
                }
            } else if command.starts_with("cdat ") {
                command
            } else {
                continue;
            };
            for flag in args.split_whitespace().filter(|t| t.starts_with("--")) {
                assert!(
                    usage.contains(flag),
                    "README shows `{flag}` (in `{command}`) but the CLI usage does not"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "expected to find README flags to check, found {checked}");
}

/// The README's batch/scalar example lines are the binary's actual bytes:
/// run the documented pipeline and require every documented JSON line to
/// appear verbatim in the output.
#[test]
fn readme_example_output_lines_are_real() {
    let cdat = |args: &[&str], stdin: Option<&std::path::Path>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cdat"));
        cmd.args(args);
        if let Some(path) = stdin {
            cmd.stdin(std::fs::File::open(path).expect("stdin file"));
        }
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success(), "cdat {args:?} failed");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };

    let example = cdat(&["example"], None);
    let suite = format!("--- factory\n{example}");
    let path =
        std::env::temp_dir().join(format!("cdat-tooling-readme-{}.cdat", std::process::id()));
    std::fs::write(&path, suite).expect("temp suite writable");
    let suite_path = path.to_str().expect("utf-8 temp path");

    let batch = cdat(&["batch", suite_path, "--min-time", "--max-prob", "--witnesses"], None);
    for documented in [
        r#"{"doc":0,"name":"factory","query":"min-time","cache":"miss","value":1,"witness":[0]}"#,
        r#"{"doc":0,"name":"factory","query":"max-prob","cache":"miss","value":0.36000000000000004,"witness":[1,2]}"#,
    ] {
        assert!(
            readme().contains(documented) && batch.lines().any(|l| l == documented),
            "README line has drifted from `cdat batch` output: {documented}"
        );
    }

    let single = std::env::temp_dir()
        .join(format!("cdat-tooling-readme-single-{}.cdat", std::process::id()));
    std::fs::write(&single, &example).expect("temp file writable");
    let cdpf = cdat(&["cdpf", single.to_str().expect("utf-8 temp path")], None);
    assert!(cdpf.contains("4 Pareto-optimal points"), "{cdpf}");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&single);
}

/// The README's what-if sweep example is the binary's actual bytes: run
/// the documented `cdat whatif` edit and the documented three-patch
/// `cdat query --sweep` pipeline on the factory example and require
/// every documented JSON line (and the whatif stderr summary) verbatim
/// in both the README and the real output.
#[test]
fn readme_whatif_sweep_example_is_real() {
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cdat"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "cdat {args:?} failed");
        (
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            String::from_utf8(out.stderr).expect("utf-8 stderr"),
        )
    };

    let (example, _) = run(&["example"]);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let single = dir.join(format!("cdat-tooling-whatif-{pid}.cdat"));
    let suite = dir.join(format!("cdat-tooling-whatif-suite-{pid}.cdat"));
    let patches = dir.join(format!("cdat-tooling-whatif-patches-{pid}.jsonl"));
    std::fs::write(&single, &example).expect("temp file writable");
    std::fs::write(&suite, format!("--- factory\n{example}")).expect("temp suite writable");
    std::fs::write(
        &patches,
        "{\"cost\":{\"cyberattack\":2}}\n{\"defend\":[\"cyberattack\"]}\n\
         {\"gate\":{\"production shutdown\":\"and\"}}\n",
    )
    .expect("temp patches writable");

    let (stdout, stderr) = run(&[
        "whatif",
        single.to_str().expect("utf-8 temp path"),
        "--set",
        "cost:cyberattack=4",
        "--defend",
        "place bomb",
    ]);
    let front = r#"{"query":"cdpf","front":[[0,0],[2,10],[4,200],[6,210]]}"#;
    let summary = "whatif: 4 dirty nodes recomputed, 1 memoized subtree fronts reused";
    assert!(
        readme().contains(front) && stdout.lines().any(|l| l == front),
        "README whatif line has drifted from `cdat whatif` output: {stdout}"
    );
    assert!(
        readme().contains(summary) && stderr.lines().any(|l| l == summary),
        "README whatif summary has drifted from `cdat whatif` stderr: {stderr}"
    );

    let (stdout, _) = run(&[
        "query",
        suite.to_str().expect("utf-8 temp path"),
        "--sweep",
        patches.to_str().expect("utf-8 temp path"),
        "--dgc",
        "3",
    ]);
    for documented in [
        r#"{"id":0,"variant":0,"query":"dgc","arg":3,"point":[2,200]}"#,
        r#"{"id":0,"variant":1,"query":"dgc","arg":3,"point":[2,10]}"#,
        r#"{"id":0,"variant":2,"query":"dgc","arg":3,"point":[2,10]}"#,
    ] {
        assert!(
            readme().contains(documented) && stdout.lines().any(|l| l == documented),
            "README sweep line has drifted from `cdat query --sweep` output: {documented}"
        );
    }
    let _ = std::fs::remove_file(&single);
    let _ = std::fs::remove_file(&suite);
    let _ = std::fs::remove_file(&patches);
}

/// The README's "DAG analysis" section is the binary's actual bytes: its
/// `ref`-sharing model block parses, `cdat info` reports the fused
/// backend, and every documented batch JSON line appears verbatim in the
/// real output.
#[test]
fn readme_dag_example_output_lines_are_real() {
    let readme = readme();
    let model = fenced_blocks(&readme, "text")
        .into_iter()
        .find(|b| b.contains("ref x"))
        .expect("README carries the shared-x DAG model as a ```text block");
    let cdp = format::parse(&model).expect("the README DAG model must stay parseable");
    assert!(!cdp.tree().is_treelike(), "the model must actually be a DAG");

    let path = std::env::temp_dir().join(format!("cdat-tooling-dag-{}.cdat", std::process::id()));
    std::fs::write(&path, &model).expect("temp file writable");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cdat"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "cdat {args:?} failed");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let path_str = path.to_str().expect("utf-8 temp path");

    let info = run(&["info", path_str]);
    for documented in ["shape:     DAG-like", "solver for CDPF: BddFused"] {
        assert!(
            readme.contains(documented) && info.lines().any(|l| l == documented),
            "README info line has drifted from `cdat info` output: {documented}"
        );
    }

    let batch = run(&["batch", path_str, "--cdpf", "--cedpf", "--witnesses"]);
    for documented in [
        r#"{"doc":0,"query":"cdpf","cache":"miss","front":[[0,0],[5,1],[8,111],[9,121],[12,131]],"witnesses":[[],[0],[0,1],[0,2],[0,1,2]]}"#,
        r#"{"doc":0,"query":"cedpf","cache":"miss","front":[[0,0],[5,0.5],[8,41.75],[12,47.375]],"witnesses":[[],[0],[0,1],[0,1,2]]}"#,
    ] {
        assert!(
            readme.contains(documented) && batch.lines().any(|l| l == documented),
            "README line has drifted from `cdat batch` output: {documented}"
        );
    }
    // The hinted run answers with the same bytes — backend choice is
    // invisible in output (determinism invariant 5).
    let hinted = run(&["batch", path_str, "--cdpf", "--cedpf", "--witnesses", "--solver", "bdd"]);
    assert_eq!(hinted, batch, "--solver bdd must not change response bytes");
    let _ = std::fs::remove_file(&path);
}

/// Example 6 of the paper: a front of size 2^|B| exists, so CDPF is
/// necessarily exponential in the worst case (Theorem 5's lower bound).
#[test]
fn example_6_exponential_front() {
    let n = 10;
    let mut b = cdat::AttackTreeBuilder::new();
    let leaves: Vec<_> = (0..n).map(|i| b.bas(&format!("v{i}"))).collect();
    let _root = b.or("root", leaves);
    let mut builder = cdat::CdAttackTree::builder(b.build().expect("valid"));
    for i in 0..n {
        let w = (1u64 << i) as f64;
        builder = builder
            .cost(&format!("v{i}"), w)
            .expect("valid cost")
            .damage(&format!("v{i}"), w)
            .expect("valid damage");
    }
    let cd = builder.finish().expect("valid");
    let front = solve::cdpf(&cd).unwrap();
    assert_eq!(front.len(), 1 << n, "every subset is Pareto optimal");
}
