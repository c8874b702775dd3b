//! The solver-backend layer: per-family capability declarations and the
//! single dispatch point.
//!
//! Every cache miss is computed by exactly one [`SolverBackend`], chosen by
//! [`SolverBackend::select`] from the request's [`SolverHint`], its query's
//! [`FrontKind`], and the tree's shape. Selection happens in phase 1 of
//! [`Engine::run`](crate::Engine::run) — *before* cache keying — so an
//! unsupported combination is rejected with an immediate error response and
//! can never poison a shared cache entry.
//!
//! The backend never changes *what* is computed, only *how*: every backend
//! returns the same exact front (points and witness BAS sets) for the
//! workloads the generator produces, so hinted and unhinted requests share
//! cache entries, and `Auto` is free to pick the fastest supported backend
//! per shape — bottom-up on treelike trees, the BDD-fused solver on
//! DAG-like ones. This retires the enumerative exponential cliff (and the
//! "open problem" error for probabilistic DAGs) as the only DAG story.

use cdat_core::{AttackTree, CdpAttackTree};
use cdat_pareto::ParetoFront;

use crate::{FrontKind, SolverHint};

/// The solver families a cache miss can be dispatched to.
///
/// The capability matrix, enforced by [`select`](SolverBackend::select)
/// (`✓*` means size-gated at validation time):
///
/// | backend       | deterministic | probabilistic | min_time | max_prob | shape    |
/// |---------------|---------------|---------------|----------|----------|----------|
/// | `bottomup`    | ✓             | ✓             | ✓        | ✓        | treelike |
/// | `bdd`         | ✓             | ✓             | ✓        | ✓        | any      |
/// | `enumerative` | ✓*            | ✓*            | ✓*       | ✓*       | any      |
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum SolverBackend {
    /// The paper's bottom-up staircase solver (exact on treelike trees
    /// only: DAG sharing double-counts).
    BottomUp,
    /// The BDD-fused front solver ([`cdat_bdd::fuse`]): staircase-merges
    /// over a decision diagram of the queried attribute, exact on any
    /// shape. Its only failure mode is the decision-diagram node budget,
    /// reported as a clean, cacheable error.
    BddFused,
    /// The exhaustive oracle ([`cdat_enumerative`]): exact on any shape but
    /// exponential in the BAS count, so it is size-gated at validation time
    /// ([`cdat_enumerative::MAX_ENUM_BAS`]) and never auto-selected.
    Enumerative,
}

impl SolverBackend {
    /// Every backend, in [`SolverBackend::index`] order.
    pub const ALL: [SolverBackend; 3] =
        [SolverBackend::BottomUp, SolverBackend::BddFused, SolverBackend::Enumerative];

    /// A stable dense index (0..3), used to key per-backend metrics.
    pub fn index(self) -> usize {
        match self {
            SolverBackend::BottomUp => 0,
            SolverBackend::BddFused => 1,
            SolverBackend::Enumerative => 2,
        }
    }

    /// The stable label used in metric names and the protocol's `solver`
    /// hint values.
    pub fn label(self) -> &'static str {
        match self {
            SolverBackend::BottomUp => "bottomup",
            SolverBackend::BddFused => "bdd",
            SolverBackend::Enumerative => "enumerative",
        }
    }

    /// The shape rule: treelike → [`BottomUp`](Self::BottomUp), DAG-like →
    /// [`BddFused`](Self::BddFused), for every front family. This is what
    /// an `auto` hint resolves to, and the one place that picks a solver
    /// from the tree's shape; the `cdat::solve` facade dispatches through
    /// it too.
    pub fn for_shape(tree: &AttackTree) -> SolverBackend {
        if tree.is_treelike() {
            SolverBackend::BottomUp
        } else {
            SolverBackend::BddFused
        }
    }

    /// The single dispatch point: resolves a request's hint to the backend
    /// that will compute its front on a cache miss.
    ///
    /// `Auto` picks by shape ([`for_shape`](Self::for_shape)) and never
    /// fails. Explicit hints force their backend and fail with a stable
    /// message when the capability matrix (or the enumerative size gate)
    /// says no; the caller turns that into an immediate error response
    /// without consulting the cache. No row of the matrix depends on
    /// `kind` today; it stays in the signature as the family a backend is
    /// asked to answer.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unsupported combination.
    pub fn select(
        hint: SolverHint,
        _kind: FrontKind,
        cdp: &CdpAttackTree,
    ) -> Result<SolverBackend, String> {
        let backend = match hint {
            SolverHint::Auto => Self::for_shape(cdp.tree()),
            SolverHint::BottomUp => SolverBackend::BottomUp,
            SolverHint::Bdd => SolverBackend::BddFused,
            SolverHint::Enumerative => SolverBackend::Enumerative,
        };
        match backend {
            SolverBackend::BottomUp if !cdp.tree().is_treelike() => {
                Err("the bottom-up solver requires a treelike tree; use solver auto or bdd"
                    .to_owned())
            }
            SolverBackend::Enumerative
                if cdp.tree().bas_count() > cdat_enumerative::MAX_ENUM_BAS =>
            {
                Err(format!(
                    "the enumerative solver enumerates attacks and supports at most {} \
                     basic attack steps (this tree has {}); use solver auto or bdd",
                    cdat_enumerative::MAX_ENUM_BAS,
                    cdp.tree().bas_count()
                ))
            }
            _ => Ok(backend),
        }
    }

    /// Computes the front of `kind` with this backend, witnesses included
    /// (in the tree's own numbering; the engine re-expresses them in
    /// canonical positions before caching).
    ///
    /// # Errors
    ///
    /// Only the BDD-fused backend can fail — by exhausting its
    /// decision-diagram node budget ([`cdat_bdd::add::AddLimit`]). The
    /// message is stable and deterministic for a given tree, so the engine
    /// caches it like any computed result.
    ///
    /// # Panics
    ///
    /// Panics if the combination was never validated by
    /// [`select`](SolverBackend::select) (e.g. bottom-up on a DAG).
    pub fn compute(self, kind: FrontKind, cdp: &CdpAttackTree) -> Result<ParetoFront, String> {
        let fused = |r: Result<ParetoFront, cdat_bdd::add::AddLimit>| r.map_err(|e| e.to_string());
        match self {
            SolverBackend::BottomUp => Ok(match kind {
                FrontKind::Deterministic => cdat_bottomup::cdpf(cdp.cd()),
                FrontKind::Probabilistic => cdat_bottomup::cedpf(cdp),
                FrontKind::MinTime => cdat_bottomup::min_time(cdp.cd()),
                FrontKind::MaxProb => cdat_bottomup::max_prob(cdp),
            }
            .expect("the bottom-up backend is selected for treelike trees only")),
            SolverBackend::BddFused => match kind {
                FrontKind::Deterministic => fused(cdat_bdd::fuse::cdpf(cdp.cd())),
                FrontKind::Probabilistic => fused(cdat_bdd::fuse::cedpf(cdp)),
                FrontKind::MinTime => fused(cdat_bdd::fuse::min_time(cdp.cd())),
                FrontKind::MaxProb => fused(cdat_bdd::fuse::max_prob(cdp)),
            },
            SolverBackend::Enumerative => Ok(match kind {
                FrontKind::Deterministic => cdat_enumerative::cdpf(cdp.cd(), true),
                FrontKind::Probabilistic => cdat_enumerative::cedpf_dag(cdp, true),
                FrontKind::MinTime => cdat_enumerative::min_time(cdp.cd(), true),
                FrontKind::MaxProb => cdat_enumerative::max_prob(cdp, true),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn dag() -> Arc<CdpAttackTree> {
        let cd = cdat_models::dataserver();
        let n = cd.tree().bas_count();
        Arc::new(CdpAttackTree::from_parts(cd, vec![1.0; n]).unwrap())
    }

    fn treelike() -> Arc<CdpAttackTree> {
        Arc::new(cdat_models::factory_cdp())
    }

    #[test]
    fn auto_dispatches_by_shape_for_every_family() {
        for kind in FrontKind::ALL {
            assert_eq!(
                SolverBackend::select(SolverHint::Auto, kind, &treelike()),
                Ok(SolverBackend::BottomUp),
                "{kind:?}"
            );
            assert_eq!(
                SolverBackend::select(SolverHint::Auto, kind, &dag()),
                Ok(SolverBackend::BddFused),
                "{kind:?}"
            );
        }
    }

    /// A treelike tree one BAS past the enumerative cap.
    fn past_the_enumerative_cap() -> Arc<CdpAttackTree> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let tree = cdat_gen::random_dag(&mut rng, cdat_enumerative::MAX_ENUM_BAS + 1, 0.0);
        Arc::new(cdat_gen::decorate_prob(tree, &mut rng))
    }

    #[test]
    fn capability_matrix_gates_explicit_hints() {
        let dag = dag();
        let err = SolverBackend::select(SolverHint::BottomUp, FrontKind::Deterministic, &dag)
            .unwrap_err();
        assert!(err.contains("treelike"), "{err}");
        let big = past_the_enumerative_cap();
        for kind in FrontKind::ALL {
            let err = SolverBackend::select(SolverHint::Enumerative, kind, &big).unwrap_err();
            assert!(err.contains("at most 30 basic attack steps"), "{err}");
        }
        assert_eq!(
            SolverBackend::select(SolverHint::Bdd, FrontKind::Probabilistic, &dag),
            Ok(SolverBackend::BddFused)
        );
        assert_eq!(
            SolverBackend::select(SolverHint::Enumerative, FrontKind::MaxProb, &dag),
            Ok(SolverBackend::Enumerative)
        );
    }

    #[test]
    fn every_backend_supports_what_it_claims() {
        let hints =
            [SolverHint::Auto, SolverHint::BottomUp, SolverHint::Bdd, SolverHint::Enumerative];
        let mut reached = [false; SolverBackend::ALL.len()];
        for hint in hints {
            for kind in FrontKind::ALL {
                for tree in [treelike(), dag()] {
                    if let Ok(backend) = SolverBackend::select(hint, kind, &tree) {
                        reached[backend.index()] = true;
                        let front = backend.compute(kind, &tree);
                        assert!(front.is_ok(), "{hint:?} -> {backend:?} {kind:?}: {front:?}");
                    }
                }
            }
        }
        assert_eq!(reached, [true; SolverBackend::ALL.len()], "every backend is selectable");
    }

    #[test]
    fn labels_and_indices_are_stable() {
        let labels: Vec<&str> = SolverBackend::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels, ["bottomup", "bdd", "enumerative"]);
        for (i, backend) in SolverBackend::ALL.into_iter().enumerate() {
            assert_eq!(backend.index(), i);
        }
    }
}
