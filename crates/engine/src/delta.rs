//! The incremental what-if path: subtree-front memoization plus
//! dirty-path recomputation.
//!
//! A what-if request names a *base* tree and a small [`TreePatch`]
//! (attribute edits, gate swaps, BAS defends). Solving each variant from
//! scratch re-runs the full bottom-up pass; the delta path instead reuses
//! a [`SubtreeMemo`] — the per-subtree staircase fronts of one retaining
//! treelike solve ([`cdat_bottomup::RetainedFronts`]) attached to the
//! cache entry under the same `(canonical hash, front family)` key the
//! root front lives under — and recomputes only the patched nodes and
//! their ancestors ([`RetainedFronts::delta`]).
//!
//! # Byte-identity
//!
//! Delta responses are **byte-identical** to what [`Engine::run`] returns
//! for the materialized variant ([`TreePatch::apply`]) on the same tree
//! instance:
//!
//! * the dirty-path recompute replicates the scratch gate fold operation
//!   for operation (see `cdat_bottomup::delta`), so the root front —
//!   witnesses included — is bit-for-bit the scratch front;
//! * witnesses come out in the base tree's own BAS numbering, exactly
//!   what the root-level cache's canonical round trip (store at canonical
//!   positions, translate back through the requester's canonical order)
//!   nets out to for the same instance.
//!
//! # Memo lifecycle
//!
//! Plain solves ([`Engine::run`]) cache the bare root front and never a
//! memo. The first delta request on a key runs one retaining solve,
//! builds the memo and attaches it to the cached entry (or stores the
//! entry, if the key was not cached), counting one `memo_builds` tick;
//! later delta requests on the key reuse it. Memos are **memory-only**:
//! persisted records never carry them, so after a restart the first
//! what-if on a tree builds its memo again. Before reuse the memo's tree is
//! compared *structurally* against the requester's (node types, child
//! lists, attribute bits — names excluded): the cache key alone cannot
//! distinguish sibling orders, which witness tie-breaking depends on.
//! From the moment it is attached, a memo weighs [`SubtreeMemo::points`]
//! points in the budgeted LRU on top of its entry's root front, so
//! retained fronts are evicted under the same bound as everything else.
//!
//! # Sweep width
//!
//! The variants of a sweep are independent given the shared, read-only
//! memo, so [`Engine::sweep`] answers them on a scoped pool of up to
//! [`DeltaRequest::width`] threads (default [`Engine::workers`]), one
//! result slot per patch, and returns them in patch order. Each variant's
//! bytes come from its own fold alone, so they do not depend on the width.
//!
//! [`RetainedFronts::delta`]: cdat_bottomup::RetainedFronts::delta
//! [`RetainedFronts`]: cdat_bottomup::RetainedFronts
//! [`TreePatch::apply`]: cdat_core::TreePatch::apply

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdat_bottomup::{retain_cdpf, retain_cedpf, RetainedFronts};
use cdat_core::canonical::{hash_cd, hash_cdp};
use cdat_core::{CdpAttackTree, NodeType, StructuralHash, TreePatch};
use cdat_obs::TraceField;
use cdat_pareto::{FrontEntry, ParetoFront, Prob, Triple};

use crate::cache::{CacheKey, CachedFront};
use crate::{fan_out, Engine, FrontKind, Query, Response};

/// The stable error for what-if requests against scalar query families,
/// which have no incremental path (their one-entry fronts are not folded
/// from per-subtree staircases).
pub const DELTA_SCALAR_UNSUPPORTED: &str =
    "what-if serving answers cost-damage queries only; solve the variant directly instead";

/// The stable error for what-if requests whose base tree is DAG-like:
/// subtree fronts only compose independently on treelike trees.
pub const DELTA_DAG_UNSUPPORTED: &str =
    "what-if serving requires a treelike base tree; solve the variant directly instead";

/// The retained solve of one front family, in base-tree numbering.
enum Retained {
    /// Deterministic (CDPF) staircases.
    Deterministic(RetainedFronts<bool>),
    /// Probabilistic (CEDPF) staircases.
    Probabilistic(RetainedFronts<Prob>),
}

/// Per-subtree memoization of one treelike bottom-up solve: the retained
/// per-node staircase fronts, in the solved tree's own numbering.
pub struct SubtreeMemo {
    /// The instance the solve ran on; delta requests validate against it
    /// and share its numbering.
    tree: Arc<CdpAttackTree>,
    /// The retained solve.
    retained: Retained,
}

impl std::fmt::Debug for SubtreeMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeMemo")
            .field("kind", &self.kind())
            .field("nodes", &self.tree.tree().node_count())
            .field("points", &self.points())
            .finish_non_exhaustive()
    }
}

impl SubtreeMemo {
    /// Runs the retaining solve for `kind` on `tree`, returning the root
    /// front (witnessed, in `tree`'s own numbering — bit-for-bit the
    /// scratch solver's front) alongside the memo. `None` when the family
    /// has no incremental path (scalar kinds) or the tree is DAG-like.
    pub(crate) fn build(
        kind: FrontKind,
        tree: &Arc<CdpAttackTree>,
    ) -> Option<(ParetoFront, SubtreeMemo)> {
        let retained = match kind {
            FrontKind::Deterministic => Retained::Deterministic(retain_cdpf(tree.cd()).ok()?),
            FrontKind::Probabilistic => Retained::Probabilistic(retain_cedpf(tree).ok()?),
            FrontKind::MinTime | FrontKind::MaxProb => return None,
        };
        let memo = SubtreeMemo { tree: tree.clone(), retained };
        let front = match &memo.retained {
            Retained::Deterministic(r) => r.root_front(memo.tree.tree()),
            Retained::Probabilistic(r) => r.root_front(memo.tree.tree()),
        };
        Some((front, memo))
    }

    /// Which front family the memo serves.
    pub fn kind(&self) -> FrontKind {
        match self.retained {
            Retained::Deterministic(_) => FrontKind::Deterministic,
            Retained::Probabilistic(_) => FrontKind::Probabilistic,
        }
    }

    /// The memo's weight against the cache's points budget: the retained
    /// fronts at the root-entry convention (one point per staircase entry
    /// plus one per tracked witness).
    pub fn points(&self) -> usize {
        match &self.retained {
            Retained::Deterministic(r) => r.points(),
            Retained::Probabilistic(r) => r.points(),
        }
    }

    /// Whether `tree` is the *same instance* as the memo's base, up to
    /// names: identical node numbering, types, child lists (sibling order
    /// matters — it breaks witness ties) and attribute bits at the
    /// family's depth. Delta answers for a matching tree are then valid
    /// verbatim, numbering and witnesses included.
    fn matches(&self, tree: &Arc<CdpAttackTree>, kind: FrontKind) -> bool {
        if Arc::ptr_eq(&self.tree, tree) {
            return true;
        }
        let (a, b) = (self.tree.as_ref(), tree.as_ref());
        let (ta, tb) = (a.tree(), b.tree());
        let bits = |x: &[f64], y: &[f64]| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        };
        ta.node_count() == tb.node_count()
            && ta.bas_count() == tb.bas_count()
            && bits(a.cd().costs(), b.cd().costs())
            && bits(a.cd().damages(), b.cd().damages())
            && (kind != FrontKind::Probabilistic || bits(a.probs(), b.probs()))
            && ta
                .node_ids()
                .all(|v| ta.node_type(v) == tb.node_type(v) && ta.children(v) == tb.children(v))
    }
}

/// One what-if request: a base tree, a query, and one or more patches to
/// answer it under (in order).
#[derive(Clone, Debug)]
pub struct DeltaRequest {
    /// The base tree (the instance whose numbering patches refer to).
    pub tree: Arc<CdpAttackTree>,
    /// The query to answer for every variant.
    pub query: Query,
    /// The patch list; [`Engine::sweep`] answers them in order, one
    /// [`DeltaResult`] each.
    pub patches: Vec<TreePatch>,
    /// How many threads [`Engine::sweep`] may answer the patches on (0
    /// counts as 1); `None` means [`Engine::workers`]. Responses do not
    /// depend on it.
    pub width: Option<usize>,
    /// Whether responses carry witness attacks (in the base tree's own
    /// BAS numbering — identical to what a scratch solve of the variant
    /// returns).
    pub witnesses: bool,
    /// Precomputed canonical hash of the base tree at the query family's
    /// attribute depth (same contract as
    /// [`BatchRequest::with_hash`](crate::BatchRequest::with_hash));
    /// `None` means the engine computes it.
    pub hash: Option<StructuralHash>,
}

impl DeltaRequest {
    /// A single-patch what-if request.
    pub fn new(tree: Arc<CdpAttackTree>, query: Query, patch: TreePatch) -> Self {
        Self::sweep(tree, query, vec![patch])
    }

    /// A multi-patch sweep request.
    pub fn sweep(tree: Arc<CdpAttackTree>, query: Query, patches: Vec<TreePatch>) -> Self {
        DeltaRequest { tree, query, patches, width: None, witnesses: false, hash: None }
    }

    /// Caps the threads the sweep's variants run on (see
    /// [`DeltaRequest::width`]).
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = Some(width);
        self
    }

    /// Requests witness attacks in the responses.
    pub fn with_witnesses(mut self, witnesses: bool) -> Self {
        self.witnesses = witnesses;
        self
    }

    /// Supplies the base tree's canonical hash (must equal what the
    /// engine would compute; see
    /// [`BatchRequest::with_hash`](crate::BatchRequest::with_hash)).
    pub fn with_hash(mut self, hash: StructuralHash) -> Self {
        self.hash = Some(hash);
        self
    }
}

/// The answer to one patch of a what-if request.
#[derive(Clone, Debug)]
pub struct DeltaResult {
    /// The response — byte-identical to [`Engine::run`] on the
    /// materialized variant (see the module docs).
    pub response: Response,
    /// Whether the subtree memo was already cached (and validated) when
    /// this request arrived; `false` means this request (re)built it.
    pub memo_hit: bool,
    /// Nodes recomputed for this patch: the patched nodes plus their
    /// ancestors (0 for rejected patches and empty patches).
    pub dirty_nodes: usize,
    /// Clean subtree fronts reused from the memo.
    pub subtree_hits: usize,
    /// Wall time spent answering this patch (the memo build, if any, is
    /// not attributed to individual patches).
    pub compute: Duration,
}

impl Engine {
    /// Answers a what-if request's first patch (the common single-patch
    /// case; see [`Engine::sweep`] for the contract).
    ///
    /// # Panics
    ///
    /// Panics if `request.patches` is empty ([`DeltaRequest::new`] always
    /// holds one patch).
    pub fn whatif(&self, request: &DeltaRequest) -> DeltaResult {
        self.sweep(request)
            .into_iter()
            .next()
            .expect("a what-if request carries at least one patch")
    }

    /// Answers every patch of `request` against the shared subtree memo,
    /// returning one result per patch, in patch order. The variants run
    /// on up to [`DeltaRequest::width`] threads (see the module docs).
    ///
    /// Responses are byte-identical to [`Engine::run`] on each
    /// materialized variant (see the module docs); invalid patches, and
    /// requests whose family or shape has no incremental path, answer
    /// [`Response::Error`] without disturbing the memo. Each patch counts
    /// one `delta_requests` tick (and one `dirty_path_len` observation)
    /// in the attached [`EngineMetrics`](crate::EngineMetrics) — delta
    /// traffic never touches the `requests` tier counters.
    pub fn sweep(&self, request: &DeltaRequest) -> Vec<DeltaResult> {
        let kind = request.query.kind();
        let reject = |message: &str| {
            request
                .patches
                .iter()
                .map(|_| {
                    self.observe_delta(kind, 0, 0);
                    DeltaResult {
                        response: Response::Error(message.to_owned()),
                        memo_hit: false,
                        dirty_nodes: 0,
                        subtree_hits: 0,
                        compute: Duration::ZERO,
                    }
                })
                .collect()
        };
        if matches!(kind, FrontKind::MinTime | FrontKind::MaxProb) {
            return reject(DELTA_SCALAR_UNSUPPORTED);
        }
        if !request.tree.tree().is_treelike() {
            return reject(DELTA_DAG_UNSUPPORTED);
        }

        let hash = request.hash.unwrap_or_else(|| match kind {
            FrontKind::Deterministic => hash_cd(request.tree.cd()),
            _ => hash_cdp(&request.tree),
        });
        let key = CacheKey { hash, kind };
        let (memo, memo_hit) = self.acquire_memo(key, &request.tree, kind);
        let width = request.width.unwrap_or(self.workers);
        fan_out(width, request.patches.len(), |i| {
            self.answer_patch(request, &memo, memo_hit, &request.patches[i])
        })
    }

    /// Answers one patch of `request` on the memo's dirty path.
    fn answer_patch(
        &self,
        request: &DeltaRequest,
        memo: &SubtreeMemo,
        memo_hit: bool,
        patch: &TreePatch,
    ) -> DeltaResult {
        let kind = request.query.kind();
        let base = request.tree.as_ref();
        let tree = base.tree();
        let started = Instant::now();
        if let Err(message) = patch.validate(base) {
            self.observe_delta(kind, 0, 0);
            return DeltaResult {
                response: Response::Error(message),
                memo_hit,
                dirty_nodes: 0,
                subtree_hits: 0,
                compute: started.elapsed(),
            };
        }
        // The patched model, as parallel tables over the base numbering
        // (the delta solver never materializes a tree).
        let mut costs = base.cd().costs().to_vec();
        for &(b, c) in &patch.costs {
            costs[b.index()] = c;
        }
        let mut damages = base.cd().damages().to_vec();
        for &(v, d) in &patch.damages {
            damages[v.index()] = d;
        }
        let mut types: Vec<NodeType> = tree.node_ids().map(|v| tree.node_type(v)).collect();
        for &(v, ty) in &patch.gates {
            types[v.index()] = ty;
        }
        let mut off = vec![false; tree.bas_count()];
        for &b in &patch.defends {
            off[b.index()] = true;
        }
        let touched = patch.touched(tree);
        let (front, stats) = match &memo.retained {
            Retained::Deterministic(retained) => retained.delta(
                tree,
                &damages,
                |b| {
                    (!off[b.index()]).then(|| Triple {
                        cost: costs[b.index()],
                        damage: damages[tree.node_of_bas(b).index()],
                        act: true,
                    })
                },
                |v| types[v.index()],
                &touched,
                request.witnesses,
            ),
            Retained::Probabilistic(retained) => {
                let mut probs = base.probs().to_vec();
                for &(b, p) in &patch.probs {
                    probs[b.index()] = p;
                }
                retained.delta(
                    tree,
                    &damages,
                    |b| {
                        (!off[b.index()]).then(|| {
                            let p = probs[b.index()];
                            Triple {
                                cost: costs[b.index()],
                                damage: p * damages[tree.node_of_bas(b).index()],
                                act: Prob::new(p),
                            }
                        })
                    },
                    |v| types[v.index()],
                    &touched,
                    request.witnesses,
                )
            }
        };
        self.observe_delta(kind, stats.dirty_nodes, stats.reused_fronts);
        let compute = started.elapsed();
        if let Some(trace) = &self.trace {
            trace.emit(
                "delta_solve",
                compute,
                &[
                    ("kind", TraceField::Str(kind.label())),
                    ("dirty", TraceField::U64(stats.dirty_nodes as u64)),
                ],
            );
        }
        DeltaResult {
            response: answer_delta(request.query, front, request.witnesses),
            memo_hit,
            dirty_nodes: stats.dirty_nodes,
            subtree_hits: stats.reused_fronts,
            compute,
        }
    }

    /// Fetches the validated subtree memo for `key`, or builds it from
    /// `tree` — the delta path is the only builder — and attaches it to
    /// the cached entry through [`FrontCache::replace`]. The memoized root
    /// front is bit-for-bit the plain solve's, so a cached entry keeps its
    /// own front, solve time and provenance; an uncached key gets a fresh
    /// entry. Returns the memo and whether it was a memo hit.
    ///
    /// [`FrontCache::replace`]: crate::FrontCache::replace
    fn acquire_memo(
        &self,
        key: CacheKey,
        tree: &Arc<CdpAttackTree>,
        kind: FrontKind,
    ) -> (Arc<SubtreeMemo>, bool) {
        let cached = self.tier.memory().touch(&key);
        if let Some(memo) = cached.as_ref().and_then(|entry| entry.memo.as_ref()) {
            if memo.matches(tree, kind) {
                return (memo.clone(), true);
            }
        }
        let started = Instant::now();
        let (front, memo) =
            SubtreeMemo::build(kind, tree).expect("family and shape validated by sweep");
        let memo = Arc::new(memo);
        let compute = started.elapsed();
        if let Some(metrics) = &self.metrics {
            metrics.family(kind).memo_builds.inc();
        }
        if let Some(trace) = &self.trace {
            trace.emit("delta_build", compute, &[("kind", TraceField::Str(kind.label()))]);
        }
        let entry = match cached {
            Some(entry) => CachedFront { memo: Some(memo.clone()), ..CachedFront::clone(&entry) },
            None => CachedFront {
                result: Ok(crate::canonical_witnesses(kind, tree, front)),
                compute,
                memo: Some(memo.clone()),
                backend: Some(crate::SolverBackend::BottomUp),
            },
        };
        // Memos are memory-only: deliberately no `persist` here.
        self.tier.memory().replace(key, entry);
        (memo, false)
    }

    /// Records one delta request in the attached metrics: one
    /// `delta_requests` tick, the reuse/dirty counters, and exactly one
    /// `dirty_path_len` observation.
    fn observe_delta(&self, kind: FrontKind, dirty: usize, reused: usize) {
        if let Some(metrics) = &self.metrics {
            let family = metrics.family(kind);
            family.delta_requests.inc();
            family.subtree_hits.add(reused as u64);
            family.dirty_nodes.add(dirty as u64);
            metrics.dirty_path_len.observe(dirty as u64);
        }
    }
}

/// Answers `query` from a delta-solved front already in the requester's
/// own numbering: the identity-translation mirror of the root cache's
/// `answer` (witnesses kept verbatim when asked for, stripped otherwise).
fn answer_delta(query: Query, front: ParetoFront, witnesses: bool) -> Response {
    let keep = |e: &FrontEntry| FrontEntry {
        point: e.point,
        witness: if witnesses { e.witness.clone() } else { None },
    };
    match query {
        Query::Cdpf | Query::Cedpf => {
            Response::Front(if witnesses { front } else { front.without_witnesses() })
        }
        Query::Dgc(budget) | Query::Edgc(budget) => {
            Response::Entry(front.max_damage_within(budget).map(keep))
        }
        Query::Cgd(threshold) | Query::Cged(threshold) => {
            Response::Entry(front.min_cost_achieving(threshold).map(keep))
        }
        Query::MinTime | Query::MaxProb => {
            unreachable!("scalar families are rejected before the memo is consulted")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchRequest, FrontCache};
    use cdat_core::{BasId, NodeId};

    fn factory() -> Arc<CdpAttackTree> {
        Arc::new(cdat_models::factory_cdp())
    }

    fn patches() -> Vec<TreePatch> {
        vec![
            TreePatch::default(),
            TreePatch { costs: vec![(BasId::new(0), 9.0)], ..Default::default() },
            TreePatch {
                damages: vec![(NodeId::new(3), 55.0)],
                probs: vec![(BasId::new(2), 0.5)],
                ..Default::default()
            },
            TreePatch { gates: vec![(NodeId::new(4), NodeType::And)], ..Default::default() },
        ]
    }

    #[test]
    fn sweep_responses_are_byte_identical_to_scratch_solves() {
        let base = factory();
        for witnesses in [false, true] {
            for query in [
                Query::Cdpf,
                Query::Dgc(2.0),
                Query::Cgd(205.0),
                Query::Cedpf,
                Query::Edgc(2.0),
                Query::Cged(1.0),
            ] {
                let engine = Engine::new(2);
                let request =
                    DeltaRequest::sweep(base.clone(), query, patches()).with_witnesses(witnesses);
                let results = engine.sweep(&request);
                assert_eq!(results.len(), patches().len(), "one response per patch, in order");
                for (patch, result) in patches().iter().zip(&results) {
                    let variant = Arc::new(patch.apply(&base).unwrap());
                    let scratch = Engine::new(1)
                        .run(&[BatchRequest::new(variant, query).with_witnesses(witnesses)])
                        .remove(0);
                    assert_eq!(
                        result.response, scratch.response,
                        "{query:?} witnesses={witnesses} patch={patch:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_first_whatif_builds_the_memo_and_later_ones_hit_it() {
        let base = factory();
        let engine = Engine::new(1);
        engine.run(&[BatchRequest::new(base.clone(), Query::Cdpf)]);
        let key = CacheKey { hash: hash_cd(base.cd()), kind: FrontKind::Deterministic };
        let plain = engine.cache().peek(&key).expect("the solve cached its front");
        assert!(plain.memo.is_none(), "a plain solve leaves the entry memo-less");

        let edit = TreePatch { costs: vec![(BasId::new(0), 2.0)], ..Default::default() };
        let request =
            DeltaRequest::new(base.clone(), Query::Cdpf, edit.clone()).with_witnesses(true);
        let first = engine.whatif(&request);
        assert!(!first.memo_hit, "the first what-if on the key builds the memo");
        let variant = Arc::new(edit.apply(&base).unwrap());
        let scratch = Engine::new(1)
            .run(&[BatchRequest::new(variant, Query::Cdpf).with_witnesses(true)])
            .remove(0);
        assert_eq!(first.response, scratch.response, "the building what-if answers scratch bytes");
        let attached = engine.cache().peek(&key).expect("the entry stays cached");
        assert!(attached.memo.is_some(), "the memo is attached to the cached entry");
        assert_eq!(attached.result, plain.result, "attaching keeps the plain front");

        let second = engine.whatif(&request);
        assert!(second.memo_hit, "the second what-if reuses the memo");
        assert_eq!(second.response, first.response);
        assert!(second.dirty_nodes >= 2, "the edited leaf and the root are dirty");
        assert!(second.subtree_hits >= 1, "the sibling subtree front is reused");

        // A cold engine builds the memo on the first delta request...
        let cold = Engine::new(1);
        let first =
            cold.whatif(&DeltaRequest::new(base.clone(), Query::Cdpf, TreePatch::default()));
        assert!(!first.memo_hit);
        // ...the stored entry answers ordinary batch requests as hits...
        let batch = cold.run(&[BatchRequest::new(base.clone(), Query::Cdpf)]);
        assert!(batch[0].cache_hit, "the delta-built entry doubles as the root front");
        // ...and later delta requests reuse the memo.
        let second = cold.whatif(&DeltaRequest::new(base, Query::Cdpf, TreePatch::default()));
        assert!(second.memo_hit);
    }

    #[test]
    fn defends_are_answered_without_the_defended_bas() {
        let base = factory();
        let engine = Engine::new(1);
        let patch = TreePatch { defends: vec![BasId::new(0)], ..Default::default() };
        let result =
            engine.whatif(&DeltaRequest::new(base, Query::Cdpf, patch).with_witnesses(true));
        match &result.response {
            Response::Front(front) => {
                assert!(front.len() < 4, "defending ca removes its Pareto points");
                for e in front.entries() {
                    assert!(!e.witness.as_ref().unwrap().contains(BasId::new(0)));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn families_and_shapes_without_an_incremental_path_are_rejected() {
        let base = factory();
        let engine = Engine::new(1);
        let scalar =
            engine.whatif(&DeltaRequest::new(base.clone(), Query::MinTime, TreePatch::default()));
        assert_eq!(scalar.response, Response::Error(DELTA_SCALAR_UNSUPPORTED.to_owned()));
        let dag = {
            let cd = cdat_models::dataserver();
            let n = cd.tree().bas_count();
            Arc::new(CdpAttackTree::from_parts(cd, vec![1.0; n]).unwrap())
        };
        let dag_result = engine.whatif(&DeltaRequest::new(dag, Query::Cdpf, TreePatch::default()));
        assert_eq!(dag_result.response, Response::Error(DELTA_DAG_UNSUPPORTED.to_owned()));
        let bad = TreePatch { costs: vec![(BasId::new(0), -3.0)], ..Default::default() };
        let invalid = engine.whatif(&DeltaRequest::new(base, Query::Cdpf, bad));
        match invalid.response {
            Response::Error(m) => assert!(m.contains("invalid cost")),
            other => panic!("{other:?}"),
        }
        assert_eq!((invalid.dirty_nodes, invalid.subtree_hits), (0, 0));
    }

    #[test]
    fn the_memo_is_attached_under_the_cache_key() {
        let base = factory();
        let engine = Engine::new(1);
        engine.run(&[BatchRequest::new(base.clone(), Query::Cdpf)]);
        engine.whatif(&DeltaRequest::new(base.clone(), Query::Cdpf, TreePatch::default()));
        let key = CacheKey { hash: hash_cd(base.cd()), kind: FrontKind::Deterministic };
        let entry = engine.cache().peek(&key).expect("the solve cached its front");
        let memo = entry.memo.as_ref().expect("the what-if attached its memo");
        assert_eq!(memo.kind(), FrontKind::Deterministic);
        assert!(memo.matches(&base, FrontKind::Deterministic), "the memo is the base instance's");
        let other = CacheKey { hash: hash_cdp(&base), kind: FrontKind::Probabilistic };
        assert!(engine.cache().peek(&other).is_none(), "no entry under the other family's key");
    }

    #[test]
    fn memo_weight_is_charged_to_the_points_budget() {
        let base = factory();
        let engine = Engine::with_cache(1, FrontCache::with_budget(1, 1_000));
        engine.whatif(&DeltaRequest::new(base.clone(), Query::Cdpf, TreePatch::default()));
        let stats = engine.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.points > 8, "the memo weighs more than the root front alone");
        assert!(stats.points <= 1_000);
        // A slice too small for front + memo refuses storage but still
        // answers — eviction pressure never changes responses.
        let tiny = Engine::with_cache(1, FrontCache::with_budget(1, 8));
        let result = tiny.whatif(&DeltaRequest::new(base, Query::Cdpf, TreePatch::default()));
        assert!(matches!(result.response, Response::Front(_)));
        assert!(tiny.stats().points <= 8);
        assert!(tiny.stats().evictions >= 1);
    }

    #[test]
    fn delta_metrics_partition_and_histogram_tie_out() {
        let base = factory();
        let metrics = Arc::new(crate::EngineMetrics::new());
        let engine = Engine::new(1).with_metrics(metrics.clone());
        engine.run(&[BatchRequest::new(base.clone(), Query::Cdpf)]);
        let bad = TreePatch { costs: vec![(BasId::new(0), -1.0)], ..Default::default() };
        let mut sweep_patches = patches();
        sweep_patches.push(bad);
        engine.sweep(&DeltaRequest::sweep(base.clone(), Query::Cdpf, sweep_patches.clone()));
        engine.sweep(&DeltaRequest::sweep(base, Query::Cedpf, sweep_patches.clone()));
        let mut snapshot = crate::EngineSnapshot::new();
        snapshot.absorb(&metrics);
        let delta_total: u64 = snapshot.families.iter().map(|f| f.delta_requests).sum();
        assert_eq!(delta_total, 2 * sweep_patches.len() as u64);
        assert_eq!(
            snapshot.dirty_path_len.count, delta_total,
            "exactly one dirty-path observation per delta request"
        );
        // Delta traffic never leaks into the tier-counter partition.
        for fam in &snapshot.families {
            assert_eq!(fam.hits + fam.disk_hits + fam.misses, fam.requests);
        }
        assert_eq!(snapshot.families[0].requests, 1, "only the batch request is counted");
        // The batch solve built no memo; each family's sweep built one.
        assert_eq!(snapshot.families[0].memo_builds, 1);
        assert_eq!(snapshot.families[1].memo_builds, 1);
        assert!(snapshot.families[0].subtree_hits > 0);
        assert!(snapshot.families[0].dirty_nodes > 0);
    }
}
