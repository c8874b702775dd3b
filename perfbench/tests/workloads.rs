//! Tiny-size runs of every workload against the real binary: each must
//! pass its output check with no failed request, and the traced replay
//! must reproduce the binary's response lines byte for byte.
//!
//! The `cdat` binary is looked up next to the test's profile directory
//! (`python3 perfbench/run.py --self-test` builds it there first) or
//! taken from `CDAT_BIN`.

use std::path::PathBuf;

use cdat_perfbench::replay;
use cdat_perfbench::workloads::{self, Ctx, Outcome, Size};

/// `target/<profile>`, the directory holding this test's `deps`.
fn profile_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    exe.parent().and_then(|deps| deps.parent()).expect("target/<profile>/deps").to_path_buf()
}

fn cdat() -> PathBuf {
    if let Some(path) = std::env::var_os("CDAT_BIN") {
        return PathBuf::from(path);
    }
    let path = profile_dir().join("cdat");
    assert!(path.is_file(), "build the cdat binary first: {} is missing", path.display());
    path
}

fn run(name: &str, workload: fn(&Ctx) -> std::io::Result<Outcome>) {
    let cdat = cdat();
    let work = profile_dir().join("perfbench-tests").join(name);
    std::fs::create_dir_all(&work).expect("scratch directory");
    let ctx =
        Ctx { cdat: &cdat, work: &work, seed: 3, seconds: 0.3, size: Size::TINY, trace: true };
    let outcome = workload(&ctx).expect("workload runs");
    assert!(outcome.problems.is_empty(), "{name}: {:?}", outcome.problems);
    assert!(outcome.measured.attempted > 0, "{name}: nothing attempted");
    assert_eq!(outcome.measured.failed, 0, "{name}: failed requests");
    assert!(outcome.measured.lines > 0 && !outcome.measured.setup_s.is_empty());

    let plan = outcome.plan.as_ref().expect("traced runs keep a plan");
    let replay = replay::run(plan, &work, true).expect("replay runs");
    assert!(replay.lines > 0, "{name}: nothing replayed");
    assert_eq!(replay.mismatched, 0, "{name}: replayed lines differ from the binary's");
    assert!(!replay.recorder.spans().is_empty());
    std::fs::remove_dir_all(&work).expect("scratch directory removed");
}

#[test]
fn serve_warm_passes_its_checks() {
    run("serve_warm", workloads::serve_warm);
}

#[test]
fn batch_cold_passes_its_checks() {
    run("batch_cold", workloads::batch_cold);
}

#[test]
fn serve_store_passes_its_checks() {
    run("serve_store", workloads::serve_store);
}

#[test]
fn serve_interactive_passes_its_checks() {
    run("serve_interactive", workloads::serve_interactive);
}
