//! The sharded, memoizing front cache with optional LRU eviction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cdat_core::StructuralHash;
use cdat_pareto::ParetoFront;

use crate::delta::SubtreeMemo;
use crate::{FrontKind, SolverBackend};

/// What a batch ultimately memoizes: one computed front (or the error that
/// computing it produced — errors are structural, so they cache equally
/// well) plus the solver wall time that produced it, and — once a what-if
/// has run on the tree — the retained per-subtree fronts the incremental
/// path reuses ([`SubtreeMemo`]).
#[derive(Clone, Debug)]
pub struct CachedFront {
    /// The Pareto front — witnesses stored in canonical BAS positions (see
    /// the crate docs on witnesses) — or a stable error message.
    pub result: Result<ParetoFront, String>,
    /// Solver wall time of the original computation.
    pub compute: Duration,
    /// The subtree-front memo [`Engine::sweep`](crate::Engine::sweep)
    /// uses to recompute only dirty root paths. Plain solves never attach
    /// one: the first what-if on the tree builds it and attaches it to
    /// this entry, and it weighs against the points budget only from
    /// then on. Memory-only: persisted records never carry it, so
    /// disk-promoted entries start with `None` as well.
    pub memo: Option<Arc<SubtreeMemo>>,
    /// Which backend computed this entry — observability only, never part
    /// of the answer (all backends return the same exact front). `None`
    /// for entries promoted from the disk tier, whose records do not store
    /// provenance.
    pub backend: Option<SolverBackend>,
}

impl CachedFront {
    /// The entry's weight against a points budget: the number of front
    /// points **plus one extra point per stored witness** (a witnessed
    /// point retains a BAS set alongside its two coordinates, so it weighs
    /// twice a bare one), minimum 1 (errors and empty fronts still occupy
    /// a slot). An attached [`SubtreeMemo`] adds its own points
    /// ([`SubtreeMemo::points`]) so retained per-subtree fronts are charged
    /// to the same budget and eviction stays bounded.
    pub fn weight(&self) -> usize {
        let memo = self.memo.as_ref().map_or(0, |m| m.points());
        match &self.result {
            Ok(front) => {
                let witnessed = front.entries().iter().filter(|e| e.witness.is_some()).count();
                (front.len() + witnessed).max(1) + memo
            }
            Err(_) => 1 + memo,
        }
    }
}

/// Key of one cached front: the canonical structural hash of the tree at
/// the attribute depth the query needs.
///
/// Deterministic queries key on [`hash_cd`](cdat_core::canonical::hash_cd)
/// (probabilities excluded), probabilistic queries on
/// [`hash_cdp`](cdat_core::canonical::hash_cdp), so a cdp-AT and its
/// probability-stripped twin share their deterministic entry.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical hash of the tree (attribute depth per `kind`).
    pub hash: StructuralHash,
    /// Which front family the entry belongs to.
    pub kind: FrontKind,
}

/// Monotonic cache counters, readable at any time.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from an already-computed front.
    pub hits: u64,
    /// Requests that had to compute (or wait for) a new front.
    pub misses: u64,
    /// Fronts currently stored.
    pub entries: usize,
    /// Total weight of the stored fronts, in points (the budget's unit).
    pub points: usize,
    /// Entries dropped (or refused on insert) to respect the points budget.
    pub evictions: u64,
    /// Memory misses answered from the disk tier (always 0 without a
    /// persistent store; see `PersistentFrontCache`).
    pub disk_hits: u64,
    /// Fronts in the disk tier, as indexed by this handle (0 without one).
    pub disk_entries: usize,
}

/// One cached front plus its LRU bookkeeping.
#[derive(Debug)]
struct Slot {
    entry: Arc<CachedFront>,
    weight: usize,
    last_used: u64,
}

/// One lock's worth of the cache: the map plus this shard's LRU clock and
/// points total. Clocks are per-shard so recency updates never contend
/// across shards.
///
/// `lru` mirrors the map ordered by recency (clock values are unique per
/// shard, so they key a `BTreeMap`); it is only maintained for budgeted
/// caches, where it makes victim selection O(log n) instead of a full
/// scan.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
    lru: std::collections::BTreeMap<u64, CacheKey>,
    clock: u64,
    points: usize,
}

impl Shard {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A sharded concurrent map from [`CacheKey`] to computed fronts, with an
/// optional points budget enforced by least-recently-used eviction.
///
/// Sharding bounds contention: readers and writers lock only the shard a
/// key hashes to, so N workers inserting distinct fronts rarely collide.
/// The shard count is fixed at construction (a power of two, so shard
/// selection is a mask).
///
/// # Eviction
///
/// An unbudgeted cache ([`new`](Self::new)) grows without bound. A budgeted
/// cache ([`with_budget`](Self::with_budget)) splits its budget over the
/// shards — as evenly as possible, spreading the division remainder one
/// point at a time so the per-shard slices sum to exactly the budget — and,
/// per shard, evicts least-recently-used entries whenever an insert would
/// push the shard's points total past its slice — so the cache-wide total
/// never exceeds the budget, and the full budget is actually usable.
/// Recency is bumped by [`get`](Self::get) and [`touch`](Self::touch), not
/// by [`peek`](Self::peek). An entry heavier than a whole shard slice is
/// returned to the caller but never stored (counted as an eviction).
#[derive(Debug)]
pub struct FrontCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard points budget slices; `None` means unbounded.
    budgets: Option<Box<[usize]>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for FrontCache {
    fn default() -> Self {
        Self::new(16)
    }
}

impl FrontCache {
    /// Creates an unbounded cache with `shards` shards (rounded up to a
    /// power of two, minimum 1).
    pub fn new(shards: usize) -> Self {
        Self::build(shards, None)
    }

    /// Creates a cache bounded to exactly `budget` total points, split over
    /// `shards` shards.
    ///
    /// The shard count is halved until every shard's slice holds at least
    /// [`MIN_SLICE`](Self::MIN_SLICE) points (so small budgets are not
    /// fragmented into slices too small to hold a front), then the budget
    /// splits as evenly as possible — the division remainder is spread one
    /// point at a time over the first shards ([`split_budget`](Self::split_budget)),
    /// so the slices sum to exactly `budget`: the cache-wide points total
    /// can never exceed the budget *and* never silently loses the up-to-
    /// `shards − 1` remainder points a floor division would drop. A budget
    /// of 0 disables storage entirely (every insert is refused and counted
    /// as an eviction).
    pub fn with_budget(shards: usize, budget: usize) -> Self {
        let n = Self::shards_for_budget(shards.max(1).next_power_of_two(), budget);
        Self::build(n, Some(Self::split_budget(budget, n)))
    }

    /// Splits `budget` points over `n` slices that sum to exactly `budget`:
    /// each slice gets `budget / n`, and the first `budget % n` slices one
    /// extra point. Shared policy between this cache's own construction
    /// and routers that partition a budget over per-shard caches.
    pub fn split_budget(budget: usize, n: usize) -> Vec<usize> {
        let (base, remainder) = (budget / n.max(1), budget % n.max(1));
        (0..n).map(|i| base + usize::from(i < remainder)).collect()
    }

    /// The smallest per-shard budget slice [`with_budget`](Self::with_budget)
    /// accepts before collapsing shards (a slice smaller than a typical
    /// front caches nothing and just spins the eviction counter).
    pub const MIN_SLICE: usize = 8;

    /// How many of `shards` shards a points budget can sustain: halved
    /// until every shard's slice holds at least [`MIN_SLICE`](Self::MIN_SLICE)
    /// points (minimum 1 shard). Shared policy between this cache's own
    /// construction and routers that partition a budget over per-shard
    /// caches.
    pub fn shards_for_budget(shards: usize, budget: usize) -> usize {
        let mut n = shards.max(1);
        while n > 1 && budget / n < Self::MIN_SLICE {
            n /= 2;
        }
        n
    }

    fn build(shards: usize, budgets: Option<Vec<usize>>) -> Self {
        let n = shards.max(1).next_power_of_two();
        debug_assert!(budgets.as_ref().is_none_or(|b| b.len() == n));
        let shards = (0..n).map(|_| Mutex::new(Shard::default())).collect::<Vec<_>>();
        FrontCache {
            shards: shards.into_boxed_slice(),
            budgets: budgets.map(Vec::into_boxed_slice),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The total points budget (the sum of the per-shard slices); `None`
    /// for an unbounded cache.
    pub fn budget(&self) -> Option<usize> {
        self.budgets.as_ref().map(|b| b.iter().sum())
    }

    fn shard_index(&self, key: &CacheKey) -> usize {
        // The structural hash is already well-mixed; its low bits pick the
        // shard and the map's own hasher re-mixes the rest.
        (key.hash.0 as usize) & (self.shards.len() - 1)
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks a front up, counting a hit or miss and bumping LRU recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedFront>> {
        let found = self.touch(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks a front up and bumps its LRU recency, without touching the
    /// hit/miss counters — used by the engine, which classifies a whole
    /// batch deterministically up front and adds the counts in bulk.
    pub fn touch(&self, key: &CacheKey) -> Option<Arc<CachedFront>> {
        let tracked = self.budgets.is_some();
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let now = shard.tick();
        let slot = shard.map.get_mut(key)?;
        let previous = std::mem::replace(&mut slot.last_used, now);
        let entry = slot.entry.clone();
        if tracked {
            shard.lru.remove(&previous);
            shard.lru.insert(now, *key);
        }
        Some(entry)
    }

    /// Looks a front up without touching counters or recency.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CachedFront>> {
        self.shard(key).lock().expect("cache shard poisoned").map.get(key).map(|s| s.entry.clone())
    }

    /// Adds to the hit/miss counters directly (see [`touch`](Self::touch)).
    pub(crate) fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Whether a front for `key` is stored (no counter or recency effect).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.shard(key).lock().expect("cache shard poisoned").map.contains_key(key)
    }

    /// Stores a computed front and returns the stored entry.
    ///
    /// First write wins: if the key is already present (another worker
    /// raced this insert), the existing entry is returned untouched —
    /// nothing is overwritten, no `Arc` churns, and the points total and
    /// hit/miss counters are unaffected. Harmless because entries for one
    /// key are deterministic.
    ///
    /// Under a points budget, least-recently-used entries are evicted
    /// until the shard fits its slice again. An entry heavier than the
    /// whole slice first sheds its (memory-only, rebuildable) subtree
    /// memo — counted as an eviction — so the front itself still caches;
    /// only if it is *still* too heavy is it returned uncached.
    pub fn insert(&self, key: CacheKey, entry: CachedFront) -> Arc<CachedFront> {
        self.store(key, entry, false)
    }

    /// Stores `entry` for `key`, **overwriting** any existing entry — the
    /// exception to the first-writer-wins rule, used by the delta path to
    /// attach a freshly built [`SubtreeMemo`] to an entry that lacks one
    /// (a plain solve's entry, or a disk-promoted record). Safe because
    /// the replacement's front is byte-identical to the replaced one; only
    /// the memo differs.
    ///
    /// Points accounting matches [`insert`](Self::insert): the old weight
    /// is released, the new one charged, memo shedding and LRU eviction
    /// run the same way. An entry too heavy for the slice even without
    /// its memo leaves the cache untouched and is returned uncached.
    pub(crate) fn replace(&self, key: CacheKey, entry: CachedFront) -> Arc<CachedFront> {
        self.store(key, entry, true)
    }

    /// The shared body of [`insert`](Self::insert) (`overwrite == false`)
    /// and [`replace`](Self::replace).
    fn store(&self, key: CacheKey, mut entry: CachedFront, overwrite: bool) -> Arc<CachedFront> {
        let index = self.shard_index(&key);
        let slice = self.budgets.as_ref().map(|b| b[index]);
        if let Some(budget) = slice {
            if entry.weight() > budget && entry.memo.is_some() {
                entry.memo = None;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let weight = entry.weight();
        let mut shard = self.shards[index].lock().expect("cache shard poisoned");
        if !overwrite {
            if let Some(slot) = shard.map.get(&key) {
                return slot.entry.clone();
            }
        }
        let entry = Arc::new(entry);
        if let Some(budget) = slice {
            if weight > budget {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return entry;
            }
        }
        let now = shard.tick();
        if let Some(old) = shard.map.remove(&key) {
            shard.points -= old.weight;
            shard.lru.remove(&old.last_used);
        }
        shard.points += weight;
        shard.map.insert(key, Slot { entry: entry.clone(), weight, last_used: now });
        if let Some(budget) = slice {
            shard.lru.insert(now, key);
            while shard.points > budget {
                // The newest entry carries the max clock and fits the
                // budget alone, so the LRU victim is always an older one.
                let (_, victim) = shard.lru.pop_first().expect("a shard over budget is nonempty");
                let slot = shard.map.remove(&victim).expect("lru mirrors the map");
                shard.points -= slot.weight;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        entry
    }

    /// Number of stored fronts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Whether the cache holds no fronts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of the stored fronts, in points.
    pub fn points(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").points).sum()
    }

    /// Drops every stored front (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.lru.clear();
            shard.points = 0;
        }
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            points: self.points(),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_hits: 0,
            disk_entries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdat_pareto::CostDamage;

    fn key(h: u128) -> CacheKey {
        CacheKey { hash: StructuralHash(h), kind: FrontKind::Deterministic }
    }

    fn entry() -> CachedFront {
        entry_of(1)
    }

    /// An entry weighing exactly `points`.
    fn entry_of(points: usize) -> CachedFront {
        // An ascending staircase: every point is Pareto-optimal, so the
        // front keeps all of them and the entry weighs exactly `points`.
        let points = (0..points).map(|i| CostDamage::new(i as f64, (i + 1) as f64));
        CachedFront {
            result: Ok(ParetoFront::from_points(points)),
            compute: Duration::from_micros(5),
            memo: None,
            backend: Some(SolverBackend::BottomUp),
        }
    }

    #[test]
    fn get_insert_and_stats() {
        let cache = FrontCache::new(4);
        let k = key(42);
        assert!(cache.get(&k).is_none());
        cache.insert(k, entry());
        assert!(cache.get(&k).is_some());
        assert!(cache.contains(&k));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.points, stats.evictions), (1, 0));
    }

    #[test]
    fn kinds_do_not_alias() {
        let cache = FrontCache::default();
        let det = key(7);
        let prob = CacheKey { hash: StructuralHash(7), kind: FrontKind::Probabilistic };
        cache.insert(det, entry());
        assert!(cache.peek(&det).is_some());
        assert!(cache.peek(&prob).is_none());
    }

    #[test]
    fn first_insert_wins_races() {
        let cache = FrontCache::new(1);
        let k = key(9);
        let stats_before = cache.stats();
        let first = cache.insert(k, entry());
        let second = cache.insert(
            k,
            CachedFront {
                result: Err("late".into()),
                compute: Duration::ZERO,
                memo: None,
                backend: None,
            },
        );
        assert!(Arc::ptr_eq(&first, &second), "the losing insert must return the existing Arc");
        assert!(second.result.is_ok());
        let stats = cache.stats();
        assert_eq!(stats.points, 1, "the losing insert must not add weight");
        assert_eq!(
            (stats.hits, stats.misses),
            (stats_before.hits, stats_before.misses),
            "inserts must not skew hit/miss counters"
        );
    }

    #[test]
    fn clear_and_len() {
        let cache = FrontCache::new(2);
        for h in 0..10 {
            cache.insert(key(h), entry());
        }
        assert_eq!(cache.len(), 10);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.points(), 0);
    }

    #[test]
    fn shard_count_rounds_up() {
        // Not directly observable, but construction must not panic and the
        // mask math must hold for degenerate shard counts.
        for shards in [0, 1, 3, 16, 17] {
            let cache = FrontCache::new(shards);
            cache.insert(key(u128::MAX), entry());
            assert_eq!(cache.len(), 1);
        }
    }

    #[test]
    fn budget_is_enforced_by_lru_eviction() {
        let cache = FrontCache::with_budget(1, 6);
        cache.insert(key(1), entry_of(3));
        cache.insert(key(2), entry_of(3));
        assert_eq!(cache.points(), 6);
        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.touch(&key(1)).is_some());
        cache.insert(key(3), entry_of(3));
        assert!(cache.contains(&key(1)), "recently used entry survives");
        assert!(!cache.contains(&key(2)), "LRU entry evicted");
        assert!(cache.contains(&key(3)));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.points <= 6, "points {} exceed budget", stats.points);
    }

    #[test]
    fn points_never_exceed_the_budget() {
        let cache = FrontCache::with_budget(4, 20);
        for h in 0..100u128 {
            cache.insert(key(h), entry_of(1 + (h as usize % 7)));
            assert!(cache.points() <= 20, "points {} exceed budget at h={h}", cache.points());
        }
        assert!(cache.stats().evictions > 0, "a 100-entry stream must evict");
    }

    #[test]
    fn oversized_entries_are_returned_but_not_stored() {
        let cache = FrontCache::with_budget(1, 4);
        let arc = cache.insert(key(5), entry_of(9));
        assert_eq!(arc.weight(), 9, "the caller still gets the computed front");
        assert!(!cache.contains(&key(5)));
        assert_eq!(cache.points(), 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn split_budget_spreads_the_remainder() {
        assert_eq!(FrontCache::split_budget(35, 4), vec![9, 9, 9, 8]);
        assert_eq!(FrontCache::split_budget(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(FrontCache::split_budget(7, 4), vec![2, 2, 2, 1]);
        assert_eq!(FrontCache::split_budget(0, 4), vec![0, 0, 0, 0]);
        for (budget, n) in [(35, 4), (7, 3), (100, 16), (5, 8)] {
            assert_eq!(FrontCache::split_budget(budget, n).iter().sum::<usize>(), budget);
        }
    }

    #[test]
    fn budget_capacity_is_tight() {
        // 35 points over 4 shards: floor division would cap the cache at
        // 32 points; the remainder distribution must make all 35 usable.
        let budget = 35;
        let cache = FrontCache::with_budget(4, budget);
        assert_eq!(cache.budget(), Some(budget), "no budget point may be lost to truncation");
        // Fill every shard to its slice: hash low bits select the shard,
        // so hashes ≡ i (mod 4) land on shard i. Slices are [9,9,9,8].
        for (shard, slice) in [9usize, 9, 9, 8].into_iter().enumerate() {
            for k in 0..slice {
                cache.insert(key((shard + 4 * k) as u128), entry_of(1));
            }
        }
        assert_eq!(cache.points(), budget, "the whole budget is fillable");
        assert_eq!(cache.stats().evictions, 0, "filling to capacity must not evict");
        // One more point anywhere now evicts instead of overflowing.
        cache.insert(key(1000), entry_of(1));
        assert_eq!(cache.points(), budget);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn witnessed_entries_weigh_their_witness_storage() {
        use cdat_core::{Attack, BasId};
        use cdat_pareto::FrontEntry;
        let witnessed = CachedFront {
            result: Ok(ParetoFront::from_entries([
                FrontEntry::with_witness(0.0, 1.0, Attack::empty(3)),
                FrontEntry::with_witness(1.0, 2.0, Attack::from_bas_ids(3, [BasId::new(0)])),
                FrontEntry::point(2.0, 3.0),
            ])),
            compute: Duration::ZERO,
            memo: None,
            backend: None,
        };
        assert_eq!(witnessed.weight(), 5, "3 points + 2 witnesses");
        assert_eq!(entry_of(4).weight(), 4, "bare points weigh one each");
        let error = CachedFront {
            result: Err("x".into()),
            compute: Duration::ZERO,
            memo: None,
            backend: None,
        };
        assert_eq!(error.weight(), 1);
    }

    #[test]
    fn overweight_entries_shed_their_memo_before_refusing() {
        use crate::delta::SubtreeMemo;
        let tree = Arc::new(cdat_models::factory_cdp());
        let (front, memo) =
            SubtreeMemo::build(FrontKind::Deterministic, &tree).expect("factory is treelike");
        let with_memo = CachedFront {
            result: Ok(front),
            compute: Duration::ZERO,
            memo: Some(Arc::new(memo)),
            backend: Some(SolverBackend::BottomUp),
        };
        let bare_weight = CachedFront { memo: None, ..with_memo.clone() }.weight();
        assert!(with_memo.weight() > bare_weight, "the memo must actually add weight");
        // A slice exactly the bare front's weight: the memo is shed (one
        // eviction) and the front itself still caches.
        let cache = FrontCache::with_budget(1, bare_weight);
        let stored = cache.insert(key(3), with_memo);
        assert!(stored.memo.is_none(), "the memo is shed, not the front");
        assert!(cache.contains(&key(3)));
        assert_eq!(cache.points(), bare_weight);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn small_budgets_shrink_the_shard_count() {
        // 16 requested shards but only 3 points: the shard count collapses
        // far enough that at least one entry fits somewhere.
        let cache = FrontCache::with_budget(16, 3);
        cache.insert(key(0), entry_of(2));
        assert_eq!(cache.len(), 1);
        assert!(cache.points() <= 3);
    }

    #[test]
    fn zero_budget_disables_storage() {
        let cache = FrontCache::with_budget(4, 0);
        let arc = cache.insert(key(1), entry());
        assert!(arc.result.is_ok());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = FrontCache::with_budget(1, 2);
        cache.insert(key(1), entry_of(1));
        cache.insert(key(2), entry_of(1));
        // get() (not peek) protects key 1 from the next eviction.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), entry_of(1));
        assert!(cache.contains(&key(1)));
        assert!(!cache.contains(&key(2)));
    }
}
