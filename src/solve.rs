//! One-call solvers that dispatch on the shape of the tree.
//!
//! The paper's algorithm choice depends on the tree (Table I): treelike
//! trees use the bottom-up propagation, DAG-like trees the BDD-fused front
//! solver (`cdat_bdd::fuse`), which staircase-merges over a decision
//! diagram of the queried attribute and is exact under shared BASs — the
//! direction the paper's conclusion sketches for its open problem. These
//! functions make that choice with the batch engine's own shape rule
//! ([`SolverBackend::for_shape`]), so a one-call answer and an engine
//! answer come from the same backend. The engine also exposes the
//! enumerative oracle through per-request [`SolverHint`]s.
//!
//! The only failure mode is the BDD-fused solver's decision-diagram node
//! budget on a DAG-like tree: every function reports it as [`AddLimit`],
//! the same error the engine caches for that tree.

use cdat_core::{AttackTree, CdAttackTree, CdpAttackTree, NotTreelike};
use cdat_pareto::{FrontEntry, ParetoFront};

pub use cdat_bdd::add::AddLimit;
pub use cdat_engine::{
    BatchRequest, BatchResult, CacheStats, DeltaRequest, DeltaResult, Engine, EngineMetrics,
    EngineSnapshot, FrontCache, FrontKind, PersistentFrontCache, Query, Response, SolverBackend,
    SolverHint, StoreSnapshot, SubtreeMemo, TreePatch,
};

/// Runs `bottom_up` when the shape rule picks the bottom-up solver for
/// `tree`, `fused` otherwise.
fn by_shape<T>(
    tree: &AttackTree,
    bottom_up: impl FnOnce() -> Result<T, NotTreelike>,
    fused: impl FnOnce() -> Result<T, AddLimit>,
) -> Result<T, AddLimit> {
    match SolverBackend::for_shape(tree) {
        SolverBackend::BottomUp => {
            Ok(bottom_up().expect("the shape rule picks bottom-up for treelike trees only"))
        }
        _ => fused(),
    }
}

/// Cost-damage Pareto front of any cd-AT (CDPF), with witness attacks.
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
///
/// # Example
///
/// ```
/// let front = cdat::solve::cdpf(&cdat_models::factory()).unwrap();
/// assert_eq!(front.to_string(), "{(0, 0), (1, 200), (3, 210), (5, 310)}");
/// ```
pub fn cdpf(cd: &CdAttackTree) -> Result<ParetoFront, AddLimit> {
    by_shape(cd.tree(), || cdat_bottomup::cdpf(cd), || cdat_bdd::fuse::cdpf(cd))
}

/// Maximal damage within a cost budget (DgC). `Ok(None)` only for a
/// negative budget.
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn dgc(cd: &CdAttackTree, budget: f64) -> Result<Option<FrontEntry>, AddLimit> {
    by_shape(
        cd.tree(),
        || cdat_bottomup::dgc(cd, budget),
        || Ok(cdat_bdd::fuse::cdpf(cd)?.max_damage_within(budget).cloned()),
    )
}

/// Minimal cost achieving a damage threshold (CgD). `Ok(None)` when the
/// threshold exceeds the maximal damage.
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn cgd(cd: &CdAttackTree, threshold: f64) -> Result<Option<FrontEntry>, AddLimit> {
    by_shape(
        cd.tree(),
        || cdat_bottomup::cgd(cd, threshold),
        || Ok(cdat_bdd::fuse::cdpf(cd)?.min_cost_achieving(threshold).cloned()),
    )
}

/// Cost–expected-damage Pareto front (CEDPF) of any cdp-AT. The BDD-fused
/// solver is exact under shared BASs (the paper's open problem; see
/// `cdat_bdd::fuse`).
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn cedpf(cdp: &CdpAttackTree) -> Result<ParetoFront, AddLimit> {
    by_shape(cdp.tree(), || cdat_bottomup::cedpf(cdp), || cdat_bdd::fuse::cedpf(cdp))
}

/// Maximal expected damage within a cost budget (EDgC).
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn edgc(cdp: &CdpAttackTree, budget: f64) -> Result<Option<FrontEntry>, AddLimit> {
    by_shape(
        cdp.tree(),
        || cdat_bottomup::edgc(cdp, budget),
        || Ok(cdat_bdd::fuse::cedpf(cdp)?.max_damage_within(budget).cloned()),
    )
}

/// Minimal cost achieving an expected-damage threshold (CgED).
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn cged(cdp: &CdpAttackTree, threshold: f64) -> Result<Option<FrontEntry>, AddLimit> {
    by_shape(
        cdp.tree(),
        || cdat_bottomup::cged(cdp, threshold),
        || Ok(cdat_bdd::fuse::cedpf(cdp)?.min_cost_achieving(threshold).cloned()),
    )
}

/// Minimal time-to-attack of any cd-AT, reading each BAS's cost attribute
/// as its duration: `AND` sums child times, `OR` takes the faster child
/// (the min-plus semiring over the generic staircase kernel,
/// [`cdat_pareto::MinTime`]; on DAG-like trees shared BASs are counted
/// once). The returned entry carries the duration in its cost slot
/// (damage 0) and a witness attack achieving it.
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn min_time(cd: &CdAttackTree) -> Result<Option<FrontEntry>, AddLimit> {
    let front =
        by_shape(cd.tree(), || cdat_bottomup::min_time(cd), || cdat_bdd::fuse::min_time(cd))?;
    Ok(front.entries().first().cloned())
}

/// Maximal single-attack success probability of any cdp-AT: `AND`
/// multiplies child probabilities, `OR` takes the likelier child (the
/// Viterbi semiring, [`cdat_pareto::MaxProb`]; on DAG-like trees shared
/// BASs succeed once, so their probability is multiplied once) — the
/// likeliest *single* attack, unlike [`cedpf`]'s combinators which let the
/// attacker attempt several alternatives. The returned entry carries the
/// probability in its cost slot (damage 0) and a witness attack achieving
/// it.
///
/// # Errors
///
/// Returns [`AddLimit`] when a DAG-like tree's decision diagram exceeds
/// the node budget.
pub fn max_prob(cdp: &CdpAttackTree) -> Result<Option<FrontEntry>, AddLimit> {
    let front =
        by_shape(cdp.tree(), || cdat_bottomup::max_prob(cdp), || cdat_bdd::fuse::max_prob(cdp))?;
    Ok(front.entries().first().cloned())
}

/// Exact CEDPF for **any** cdp-AT by exhaustive enumeration on DAG-like
/// trees (BDD-exact per-attack expected damage; treelike trees, where the
/// shape rule picks bottom-up, use it) — the oracle the polynomial
/// [`cedpf`] path is differentially tested against.
///
/// # Panics
///
/// Panics on DAG-like trees with more than
/// [`cdat_enumerative::MAX_ENUM_BAS`] BASs, where enumeration is
/// intractable.
pub fn cedpf_exhaustive(cdp: &CdpAttackTree) -> ParetoFront {
    match SolverBackend::for_shape(cdp.tree()) {
        SolverBackend::BottomUp => cdat_bottomup::cedpf(cdp).expect("the tree is treelike"),
        _ => cdat_enumerative::cedpf_dag(cdp, true),
    }
}

/// Solves a batch of requests on `workers` threads, deduplicating
/// structurally identical trees and memoizing fronts for the duration of
/// the batch (one-shot facade over [`Engine`]; keep an [`Engine`] when the
/// cache should persist across batches).
///
/// Results are deterministic — responses and cache-hit flags do not depend
/// on `workers`. Witness attacks are available per request via
/// [`BatchRequest::with_witnesses`], translated into each requesting
/// tree's own BAS numbering even when the answer comes from a cached
/// front of a renamed/reordered copy; see [`cdat_engine`] for the
/// guarantees.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use cdat::solve::{batch, BatchRequest, Query, Response};
///
/// let tree = Arc::new(cdat_models::factory_cdp());
/// let requests: Vec<BatchRequest> =
///     (0..=5).map(|b| BatchRequest::new(tree.clone(), Query::Dgc(b as f64))).collect();
/// let results = batch(&requests, 4);
/// assert_eq!(results.iter().filter(|r| r.cache_hit).count(), 5, "one front, six answers");
/// assert!(matches!(&results[2].response, Response::Entry(Some(e)) if e.point.damage == 200.0));
/// ```
pub fn batch(requests: &[BatchRequest], workers: usize) -> Vec<BatchResult> {
    Engine::new(workers).run(requests)
}
