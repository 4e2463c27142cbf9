//! `hqmr-serve` — the concurrent serving layer over a block-indexed store.
//!
//! A [`StoreReader`] gives random access to a compressed multi-resolution
//! container, but every query re-fetches and re-decodes its chunks from
//! scratch. Interactive visualization traffic does the opposite of touching
//! each chunk once: many clients pan and zoom over the *same* hot regions,
//! and a chunk decoded for one ROI is needed again milliseconds later by the
//! next. [`StoreServer`] is the layer in between — a `Send + Sync` server
//! over one shared store or one shared temporal (`HQTM`) series, with:
//!
//! * a **decoded-chunk LRU cache** keyed by `(t, level, chunk)` under a
//!   configurable byte budget — chunk payloads are shared `Arc<[f32]>`
//!   slabs, so a cache hit is a refcount bump, not a copy;
//! * **single-flight decode**: concurrent requests for the same non-resident
//!   chunk decode it once; the first requester runs the codec while the rest
//!   wait on the shared flight and clone its result;
//! * a **batched query planner** ([`StoreServer::serve_batch`]): a set of
//!   level/ROI/isovalue requests is planned as the *union* of needed chunks,
//!   misses decode in parallel through the rayon shim, and every response is
//!   assembled from the shared decoded set — overlapping requests in one
//!   batch never decode a chunk twice, whatever the cache budget;
//! * [`CacheStats`] — hits / misses / shared waits / evictions / resident
//!   bytes, alongside the reader's existing `bytes_decoded` accounting.
//!
//! A single store is served as a one-frame series: it is frame 0, and the
//! store-level reads ([`StoreServer::read_level`],
//! [`StoreServer::serve_batch`], …) read frame 0. A server built with
//! [`StoreServer::temporal`] serves every frame of a temporal store through
//! the same cache and decode path, one frame at a time through
//! [`StoreServer::frame`]. A delta chunk's decode resolves its chain through
//! the cache, so a chain is walked at most once however many clients ask for
//! its tip.
//!
//! Every read method returns results byte-identical to the bare
//! [`StoreReader`] (or [`TemporalReader`]): both funnel through the
//! provider-generic assembly in [`hqmr_store::read`], and the differential
//! property suites (`tests/serve_props.rs`, the workspace's
//! `tests/temporal_props.rs`) pin the equivalence across every backend,
//! arrangement and budget (including 0 and unbounded).

mod cache;

pub use cache::CacheStats;

use cache::ChunkCache;
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{LevelData, MultiResData, Upsample};
use hqmr_store::read::{self, ChunkSource};
use hqmr_store::temporal::{apply_residual, TemporalReader, TimeKey};
use hqmr_store::{
    temporal_sidecars, DecodedChunk, ParitySidecar, Progressive, ScrubReport, SidecarStatus,
    StoreError, StoreMeta, StoreReader, Throttle,
};
use rayon::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

// Compile-time thread-safety contract: the whole point of the server is to
// be shared across client threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StoreServer>();
    assert_send_sync::<CacheStats>();
};

/// Cache budget meaning "never evict" ([`StoreServer::unbounded`]).
pub const UNBOUNDED: usize = usize::MAX;

/// Carves one global decoded-chunk byte budget into per-tenant budgets,
/// proportionally to `weights` (e.g. each tenant's compressed store size or
/// expected traffic share). Guarantees:
///
/// * the per-tenant budgets sum to exactly `total` (largest-remainder
///   rounding), so a fleet of [`StoreServer`]s provisioned from one global
///   budget can never collectively exceed it;
/// * a tenant with nonzero weight gets a nonzero budget whenever
///   `total >= weights.len()`, so no live tenant is starved to cache-off;
/// * [`UNBOUNDED`] passes through: every tenant is unbounded.
///
/// Zero weights (idle tenants) receive zero budget. An empty weight slice
/// returns an empty vec.
pub fn partition_budget(total: usize, weights: &[u64]) -> Vec<usize> {
    if weights.is_empty() {
        return Vec::new();
    }
    if total == UNBOUNDED {
        return vec![UNBOUNDED; weights.len()];
    }
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    if sum == 0 {
        // No information: split evenly, remainder to the front.
        let base = total / weights.len();
        let mut rem = total % weights.len();
        return weights
            .iter()
            .map(|_| {
                let extra = usize::from(rem > 0);
                rem -= extra;
                base + extra
            })
            .collect();
    }
    // Largest-remainder apportionment over floor(total * w / sum).
    let mut out: Vec<usize> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: usize = 0;
    for (i, &w) in weights.iter().enumerate() {
        let prod = total as u128 * w as u128;
        let share = (prod / sum) as usize;
        fracs.push((prod % sum, i));
        out.push(share);
        assigned += share;
    }
    fracs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter().take(total - assigned) {
        out[i] += 1;
    }
    // Nonzero-weight tenants must not be starved when there is budget to
    // hand out: steal single bytes from the largest allocations.
    if total >= weights.len() {
        while let Some(starved) = (0..out.len()).find(|&i| weights[i] > 0 && out[i] == 0) {
            let richest = (0..out.len()).max_by_key(|&i| out[i]).expect("nonempty");
            debug_assert!(out[richest] > 1);
            out[richest] -= 1;
            out[starved] += 1;
        }
    }
    out
}

/// One client request in a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// One whole resolution level.
    Level {
        /// Level index (refinement distance, 0 = finest).
        level: usize,
    },
    /// An axis-aligned box `[lo, hi)` of one level, uncovered cells filled
    /// with `fill`.
    Roi {
        /// Level index.
        level: usize,
        /// Low corner, level cell coordinates.
        lo: [usize; 3],
        /// High corner (exclusive).
        hi: [usize; 3],
        /// Fill value for cells no unit block covers.
        fill: f32,
    },
    /// One level under isovalue chunk-skipping.
    Iso {
        /// Level index.
        level: usize,
        /// The isovalue.
        iso: f32,
    },
}

/// The response to one [`Query`], same order as the request slice.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Level`].
    Level(LevelData),
    /// Answer to [`Query::Roi`].
    Roi(Field3),
    /// Answer to [`Query::Iso`].
    Iso(LevelData),
}

/// One query's answer under [`StoreServer::serve_batch_degraded`], carrying
/// the quality flag alongside the data: `degraded` lists every
/// `(level, chunk)` the query touched whose real payload could not be
/// decoded and was replaced by a best-effort fill (nearest coarser level
/// upsampled, chunk-table proxy where no coarser data covers the region).
/// Empty means the response is bit-identical to [`StoreServer::serve_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The assembled answer (possibly containing filled regions).
    pub response: Response,
    /// `(level, chunk)` pairs served from fill instead of real data, sorted.
    pub degraded: Vec<(usize, usize)>,
}

impl QueryResult {
    /// Whether every chunk behind this answer decoded cleanly.
    pub fn is_exact(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// Decides whether a chunk fetch is forced to fail as
/// [`StoreError::CorruptChunk`] — the injection point fault-injection
/// harnesses (the `chaos` module of `hqmr-net`) hook into. Called with
/// `(level, block)` before the real fetch; returning `true` simulates a
/// chunk whose CRC check failed. Because every stored chunk is CRC-guarded,
/// this is observationally identical to real at-rest bit rot.
pub type FaultHook = Arc<dyn Fn(usize, usize) -> bool + Send + Sync>;

/// What a server reads from: one store (served as frame 0), or a temporal
/// series whose frames are stores and may hold delta chunks.
enum Frames {
    Store(Arc<StoreReader>),
    Series(Arc<TemporalReader>),
}

impl Frames {
    fn count(&self) -> usize {
        match self {
            Frames::Store(_) => 1,
            Frames::Series(s) => s.frame_count(),
        }
    }

    /// The store holding frame `t`'s chunk streams.
    fn reader(&self, t: usize) -> Result<&StoreReader, StoreError> {
        match self {
            Frames::Store(r) if t == 0 => Ok(r),
            Frames::Store(_) => Err(StoreError::NoSuchFrame(t)),
            Frames::Series(s) => s.frame_reader(t),
        }
    }

    /// Whether frame `t` stores `(level, block)` as a residual against frame
    /// `t − 1` (never for a single store).
    fn is_delta(&self, t: usize, level: usize, block: usize) -> bool {
        match self {
            Frames::Store(_) => false,
            Frames::Series(s) => s.manifest().frames[t].is_delta(level, block),
        }
    }
}

/// Whether a batch fails on an undecodable chunk or answers around it.
#[derive(Clone, Copy, PartialEq)]
enum Exactness {
    Exact,
    Degraded,
}

/// A `Send + Sync` serving layer over one shared [`StoreReader`] or
/// [`TemporalReader`].
///
/// All methods take `&self`; clone the `Arc<StoreServer>` (or borrow across
/// `std::thread::scope`) into as many client threads as needed. Results are
/// byte-identical to the bare reader's at every cache budget.
pub struct StoreServer {
    frames: Frames,
    cache: ChunkCache,
    fault_hook: Option<FaultHook>,
    /// Parity sidecars for online repair, one slot per frame: when frame
    /// `t`'s slot is armed, a chunk of it that fails its CRC (or a
    /// chaos-injected fault) is reconstructed from its XOR group before any
    /// degradation kicks in. Repaired chunks are exact and enter the LRU
    /// like clean decodes.
    parity: Vec<Option<ParitySidecar>>,
    /// Chunks that failed to decode during a degraded batch. Quarantined
    /// chunks are never re-fetched by the degraded path (they go straight
    /// to fill), keeping repeat traffic off a known-bad disk region.
    quarantine: Mutex<BTreeSet<TimeKey>>,
}

impl StoreServer {
    /// Wraps `reader` with a decoded-chunk cache of at most `cache_budget`
    /// bytes (decoded payload footprint). A budget of `0` disables caching
    /// entirely — reads stay correct and single-flight still deduplicates
    /// concurrent decodes; [`UNBOUNDED`] never evicts.
    pub fn new(reader: Arc<StoreReader>, cache_budget: usize) -> Self {
        Self::over(Frames::Store(reader), cache_budget)
    }

    /// Serves every frame of a temporal store through one cache of at most
    /// `cache_budget` bytes; reads return actual values, delta chains
    /// resolved. At budget `0` a cold delta read re-walks its chain. Fails
    /// with [`StoreError::NoSuchFrame`] on a series with no frames.
    pub fn temporal(reader: Arc<TemporalReader>, cache_budget: usize) -> Result<Self, StoreError> {
        if reader.is_empty() {
            return Err(StoreError::NoSuchFrame(0));
        }
        Ok(Self::over(Frames::Series(reader), cache_budget))
    }

    fn over(frames: Frames, cache_budget: usize) -> Self {
        StoreServer {
            parity: vec![None; frames.count()],
            frames,
            cache: ChunkCache::new(cache_budget),
            fault_hook: None,
            quarantine: Mutex::new(BTreeSet::new()),
        }
    }

    /// Installs a [`FaultHook`] consulted before every stored-chunk decode
    /// (builder form, for use before the server is shared). Production
    /// servers leave this unset; the chaos harness injects simulated
    /// corruption here. The hook fires inside the cache's decode path, so a
    /// chunk already resident (including one just repaired) is served
    /// without re-rolling the fault — matching real at-rest rot, which only
    /// bites on fetch. A delta chunk's fault surfaces while walking any
    /// chain through it.
    pub fn with_fault_hook(mut self, hook: FaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// Arms online repair of a single store with a parity sidecar (builder
    /// form). Fails with [`StoreError::SidecarMismatch`] if the sidecar
    /// describes a different store than the wrapped reader, and with
    /// [`StoreError::Malformed`] on a server of more than one frame.
    pub fn with_parity(self, sidecar: ParitySidecar) -> Result<Self, StoreError> {
        self.arm(vec![Some(sidecar)])
    }

    /// Builds a fresh parity sidecar over every served frame (each must
    /// verify clean) and arms online repair with them — the
    /// in-memory-dataset path, where no `.hqpr` file exists to load. `group`
    /// chunks share one XOR parity block (`0` is rejected by construction
    /// downstream; use [`hqmr_store::DEFAULT_PARITY_GROUP`] by default).
    pub fn with_built_parity(self, group: usize) -> Result<Self, StoreError> {
        let sidecars = (0..self.frames.count())
            .map(|t| ParitySidecar::from_reader(self.frames.reader(t)?, group).map(Some))
            .collect::<Result<_, _>>()?;
        self.arm(sidecars)
    }

    /// Arms online repair of a temporal store from the `.hqpr` files next
    /// to its frame files, tolerating absent or damaged sidecars per frame
    /// (those frames simply stay unprotected). A single store has no frame
    /// directory to search and is returned unchanged; arm it with
    /// [`StoreServer::with_parity`].
    pub fn with_disk_parity(self) -> Result<Self, StoreError> {
        let Frames::Series(series) = &self.frames else {
            return Ok(self);
        };
        let sidecars = temporal_sidecars(series.dir(), series.manifest());
        self.arm(sidecars)
    }

    /// Installs one optional sidecar per frame after checking each against
    /// its frame's directory.
    fn arm(mut self, sidecars: Vec<Option<ParitySidecar>>) -> Result<Self, StoreError> {
        if sidecars.len() != self.frames.count() {
            return Err(StoreError::Malformed("one parity slot per frame"));
        }
        for (t, sidecar) in sidecars.iter().enumerate() {
            if let Some(sidecar) = sidecar {
                if !sidecar.matches(self.frames.reader(t)?.meta()) {
                    return Err(StoreError::SidecarMismatch);
                }
            }
        }
        self.parity = sidecars;
        Ok(self)
    }

    /// Whether online parity repair is armed for any frame.
    pub fn has_parity(&self) -> bool {
        self.parity.iter().any(Option::is_some)
    }

    /// [`StoreServer::new`] with an unbounded budget.
    pub fn unbounded(reader: Arc<StoreReader>) -> Self {
        Self::new(reader, UNBOUNDED)
    }

    /// Frame 0's store reader — the wrapped reader of a single-store server
    /// (e.g. for its `bytes_decoded` accounting).
    pub fn reader(&self) -> &StoreReader {
        self.frames
            .reader(0)
            .expect("every server has a frame 0: `temporal` rejects empty series")
    }

    /// Frame 0's directory.
    pub fn meta(&self) -> &StoreMeta {
        self.reader().meta()
    }

    /// Snapshot of the cache counters. The snapshot is atomically
    /// consistent with respect to the ledger identity: `requests` is
    /// derived as `hits + misses` at read time, so the identity holds even
    /// when other client threads have lookups mid-flight — an exporter
    /// never has to quiesce traffic to publish balanced stats.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot-and-reset in one step: returns the counter window
    /// accumulated since the last reset and starts a fresh one, losing no
    /// concurrent increment (each lands in exactly one window). The
    /// per-tenant stats export of the network serving layer drives this.
    pub fn take_stats(&self) -> CacheStats {
        self.cache.take_stats()
    }

    /// Zeroes the cache counters and restarts the high-water mark from the
    /// current residency; resident chunks are kept.
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
    }

    /// Drops every resident chunk (a cold cache without rebuilding the
    /// server). Counters are kept.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// A [`ChunkSource`] view of frame `t` whose chunks come through the
    /// server's cache: the [`hqmr_store::read`] functions read any level,
    /// ROI, isovalue skim or progressive refinement of the frame from it.
    /// Fails with [`StoreError::NoSuchFrame`] past the last frame.
    pub fn frame(&self, t: usize) -> Result<Frame<'_>, StoreError> {
        Ok(Frame {
            server: self,
            t,
            meta: self.frames.reader(t)?.meta(),
        })
    }

    /// Reads one whole resolution level through the cache.
    pub fn read_level(&self, level: usize) -> Result<LevelData, StoreError> {
        read::read_level(self, level)
    }

    /// Reads every level through the cache.
    pub fn read_all(&self) -> Result<MultiResData, StoreError> {
        read::read_all(self)
    }

    /// Reads the axis-aligned box `[lo, hi)` of one level through the cache;
    /// equals [`StoreReader::read_roi`] byte-for-byte.
    pub fn read_roi(
        &self,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Field3, StoreError> {
        read::read_roi(self, level, lo, hi, fill)
    }

    /// Reads one level under isovalue chunk-skipping through the cache;
    /// equals [`StoreReader::read_level_iso`] byte-for-byte.
    pub fn read_level_iso(&self, level: usize, iso: f32) -> Result<LevelData, StoreError> {
        read::read_level_iso(self, level, iso)
    }

    /// Coarse→fine progressive refinement through the cache.
    pub fn progressive(&self, scheme: Upsample) -> Progressive<'_, Self> {
        read::progressive(self, scheme)
    }

    /// The set of `(level, chunk)` pairs a batch of queries needs — the
    /// union across requests, each chunk exactly once.
    pub fn plan(&self, queries: &[Query]) -> Result<BTreeSet<(usize, usize)>, StoreError> {
        Ok(plan(self.meta(), queries)?.1)
    }

    /// Serves a batch of queries: plans the union of needed chunks, decodes
    /// the misses in parallel (each through single-flight, so a concurrent
    /// batch on another thread still shares the work), then assembles every
    /// response from the shared decoded set. Overlapping queries in one
    /// batch touch each chunk once even at cache budget 0. Responses are in
    /// request order and byte-identical to issuing each query alone.
    pub fn serve_batch(&self, queries: &[Query]) -> Result<Vec<Response>, StoreError> {
        let results = self.serve(0, queries, Exactness::Exact)?;
        Ok(results.into_iter().map(|r| r.response).collect())
    }

    /// [`StoreServer::serve_batch`] with graceful degradation: a chunk whose
    /// payload cannot be decoded ([`StoreError::CorruptChunk`] or
    /// [`StoreError::Codec`]) no longer fails the whole batch. The chunk is
    /// quarantined, its blocks are synthesized from the nearest coarser
    /// level's data upsampled into place (falling back to the chunk table's
    /// `(min+max)/2` proxy where no coarser level covers the region — in
    /// this adaptive layout levels *partition* the domain, so a fine chunk
    /// usually has no coarser twin), and each answer carries the
    /// `(level, chunk)` pairs it was degraded on. Planning errors
    /// (`NoSuchLevel`, `RoiOutOfBounds`) and store I/O failures still fail
    /// the batch: those are caller or infrastructure faults, not data decay.
    ///
    /// With no corrupt chunks, every [`QueryResult::is_exact`] and the
    /// responses are bit-identical to [`StoreServer::serve_batch`].
    pub fn serve_batch_degraded(&self, queries: &[Query]) -> Result<Vec<QueryResult>, StoreError> {
        self.serve(0, queries, Exactness::Degraded)
    }

    /// The batch pipeline of frame `t`: plan, fetch the union in parallel,
    /// then assemble every answer from the batch's own decoded set. Under
    /// [`Exactness::Degraded`] an undecodable chunk is quarantined and
    /// filled instead of failing the batch.
    fn serve(
        &self,
        t: usize,
        queries: &[Query],
        exactness: Exactness,
    ) -> Result<Vec<QueryResult>, StoreError> {
        let frame = self.frame(t)?;
        let (per_query, need) = plan(frame.meta, queries)?;
        let degrade = exactness == Exactness::Degraded;
        let keys: Vec<(usize, usize)> = need.into_iter().collect();
        let fetched: Vec<Result<DecodedChunk, StoreError>> = keys
            .par_iter()
            .map(|&(level, block)| {
                if degrade && self.is_quarantined((t, level, block)) {
                    Err(StoreError::CorruptChunk { level, block })
                } else {
                    self.chunk_at(t, level, block)
                }
            })
            .collect();
        let mut chunks = HashMap::with_capacity(keys.len());
        let mut filled: BTreeSet<(usize, usize)> = BTreeSet::new();
        for ((level, block), res) in keys.into_iter().zip(fetched) {
            let chunk = match res {
                Err(StoreError::CorruptChunk { .. } | StoreError::Codec { .. }) if degrade => {
                    self.quarantine
                        .lock()
                        .expect("quarantine lock")
                        .insert((t, level, block));
                    filled.insert((level, block));
                    // Fills never enter the shared cache: an exact read
                    // after the disk heals must not see stale synthetic
                    // data.
                    self.synthesize_fill(&frame, level, block)?
                }
                res => res?,
            };
            chunks.insert((level, block), chunk);
        }
        // Assembly pulls from the batch's own decoded set, so the responses
        // are immune to evictions happening underneath (budget 0 included).
        let view = BatchView { frame, chunks };
        queries
            .iter()
            .zip(per_query)
            .map(|(q, (level, indices))| {
                let response = match *q {
                    Query::Level { level } => read::read_level(&view, level).map(Response::Level),
                    Query::Roi {
                        level,
                        lo,
                        hi,
                        fill,
                    } => read::read_roi(&view, level, lo, hi, fill).map(Response::Roi),
                    Query::Iso { level, iso } => {
                        read::read_level_iso(&view, level, iso).map(Response::Iso)
                    }
                }?;
                let degraded = indices
                    .into_iter()
                    .filter(|&i| filled.contains(&(level, i)))
                    .map(|i| (level, i))
                    .collect();
                Ok(QueryResult { response, degraded })
            })
            .collect()
    }

    /// Best-effort replacement for a chunk of `frame` that will not decode.
    /// Starts every block at the chunk table's `(min+max)/2` proxy, then
    /// overlays data from coarser levels, coarsest first, so the *nearest*
    /// coarser level that covers a cell wins — the same coarse→fine
    /// precedence the progressive path uses. Coarser chunks that themselves
    /// fail to decode are skipped (the proxy remains).
    fn synthesize_fill(
        &self,
        frame: &Frame<'_>,
        level: usize,
        block: usize,
    ) -> Result<DecodedChunk, StoreError> {
        let meta = frame.meta;
        let lm = meta
            .levels
            .get(level)
            .ok_or(StoreError::NoSuchLevel(level))?;
        let cm = lm
            .chunks
            .get(block)
            .ok_or(StoreError::Malformed("chunk index out of range"))?;
        let unit = cm.unit;
        let n = unit.pow(3);
        let mid = 0.5 * (cm.min + cm.max);
        let proxy = if mid.is_finite() { mid } else { 0.0 };
        let origins: Vec<[usize; 3]> = cm.slots.iter().map(|&(_, origin)| origin).collect();
        let mut data = vec![proxy; origins.len() * n];
        let bd = Dims3::cube(unit);
        for lc in ((level + 1)..meta.levels.len()).rev() {
            // One level-`lc` cell spans `rel` level-`level` cells.
            let rel = 1usize << (lc - level);
            let cd = meta.levels[lc].dims;
            for (slot, &origin) in origins.iter().enumerate() {
                let clo: [usize; 3] = std::array::from_fn(|a| origin[a] / rel);
                let chi: [usize; 3] = std::array::from_fn(|a| {
                    ((origin[a] + unit).div_ceil(rel)).min([cd.nx, cd.ny, cd.nz][a])
                });
                if (0..3).any(|a| clo[a] >= chi[a]) {
                    continue;
                }
                // NaN marks "no coarse block covers this cell" so real
                // coarse zeros are not mistaken for absence.
                let coarse = match read::read_roi(frame, lc, clo, chi, f32::NAN) {
                    Ok(f) => f,
                    Err(_) => continue,
                };
                for x in 0..unit {
                    for y in 0..unit {
                        for z in 0..unit {
                            let g = [origin[0] + x, origin[1] + y, origin[2] + z];
                            let gc: [usize; 3] = std::array::from_fn(|a| g[a] / rel);
                            if (0..3).any(|a| gc[a] < clo[a] || gc[a] >= chi[a]) {
                                continue;
                            }
                            let v = coarse.get(gc[0] - clo[0], gc[1] - clo[1], gc[2] - clo[2]);
                            if !v.is_nan() {
                                data[slot * n + bd.idx(x, y, z)] = v;
                            }
                        }
                    }
                }
            }
        }
        Ok(DecodedChunk {
            unit,
            origins: origins.into(),
            data: data.into(),
        })
    }

    /// The actual-value chunk `(t, level, block)`, through the cache. On a
    /// miss: the fault hook, the decode of frame `t`'s stored stream, parity
    /// repair from frame `t`'s sidecar if that fails, and — for a delta
    /// chunk — the residual applied onto `(t − 1, level, block)`, itself
    /// fetched through the cache, so chain prefixes land in the cache and
    /// are walked once however many clients ask for the tip. The recursion
    /// cannot deadlock: the decode closure runs outside every cache lock and
    /// only asks for a strictly smaller `t`.
    fn chunk_at(&self, t: usize, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.cache.get_or_decode((t, level, block), || {
            let store = self.frames.reader(t)?;
            let faulted = self
                .fault_hook
                .as_ref()
                .is_some_and(|hook| hook(level, block));
            let decoded = if faulted {
                Err(StoreError::CorruptChunk { level, block })
            } else {
                store.decode_chunk(level, block)
            };
            let stored = match decoded {
                Err(original @ (StoreError::CorruptChunk { .. } | StoreError::Codec { .. })) => {
                    self.repair(t, store, level, block).ok_or(original)?
                }
                other => other?,
            };
            if !self.frames.is_delta(t, level, block) {
                return Ok(stored);
            }
            // `TemporalReader::open` rejects a delta chunk in frame 0.
            let prev = t
                .checked_sub(1)
                .ok_or(StoreError::Malformed("delta chain has no keyframe root"))?;
            apply_residual(&self.chunk_at(prev, level, block)?, &stored)
        })
    }

    /// Parity reconstruction of frame `t`'s stored chunk: XOR the group's
    /// surviving members back into the missing payload, verify it against
    /// the chunk table's CRC (bit-exactness by construction), and decode
    /// it. `None` when the frame has no sidecar or its group cannot heal the
    /// chunk; each attempt on an armed frame is tallied in [`CacheStats`].
    fn repair(
        &self,
        t: usize,
        store: &StoreReader,
        level: usize,
        block: usize,
    ) -> Option<DecodedChunk> {
        let parity = self.parity[t].as_ref()?;
        let healed = parity
            .reconstruct(store, level, block)
            .and_then(|bytes| store.decode_chunk_bytes(level, block, &bytes))
            .ok();
        if healed.is_some() {
            self.cache.note_repair();
        } else {
            self.cache.note_repair_failure();
        }
        healed
    }

    /// One background scrub cycle over every chunk of frame 0 (the whole
    /// store of a single-store server; temporal series are scrubbed at rest
    /// by [`hqmr_store::scrub_temporal`]): verifies each stored payload
    /// against its chunk-table CRC (paced by `throttle`) and tries parity
    /// reconstruction on each corrupt one. A chunk counts as repaired only
    /// when that reconstruction verified; without an armed sidecar every
    /// corrupt chunk is unrepairable, whatever the cache holds. The wrapped
    /// store's bytes are immutable here (in-memory or shared file), so reads
    /// keep repairing the chunk inline; at-rest healing of files is
    /// [`hqmr_store::scrub_store`]'s job.
    pub fn scrub_pass(&self, mut throttle: Option<&mut Throttle>) -> ScrubReport {
        let mut report = ScrubReport {
            verified: 0,
            repaired: 0,
            unrepairable: Vec::new(),
            bytes_scanned: 0,
            sidecar: if self.parity[0].is_some() {
                SidecarStatus::Present
            } else {
                SidecarStatus::Missing
            },
            sidecar_rebuilt: false,
        };
        let store = self.reader();
        let meta = store.meta();
        for level in 0..meta.levels.len() {
            for block in 0..meta.levels[level].chunks.len() {
                let len = meta.levels[level].chunks[block].len as u64;
                if let Some(t) = throttle.as_deref_mut() {
                    t.consume(len);
                }
                report.bytes_scanned += len;
                match store.fetch_chunk_bytes(level, block) {
                    Ok(_) => report.verified += 1,
                    Err(_) => match self.repair(0, store, level, block) {
                        Some(_) => report.repaired += 1,
                        None => report.unrepairable.push((level, block)),
                    },
                }
            }
        }
        report
    }

    fn is_quarantined(&self, key: TimeKey) -> bool {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .contains(&key)
    }

    /// The `(t, level, chunk)` keys currently quarantined (sorted).
    pub fn quarantined(&self) -> Vec<TimeKey> {
        self.quarantine
            .lock()
            .expect("quarantine lock")
            .iter()
            .copied()
            .collect()
    }

    /// Empties the quarantine (e.g. after the underlying store was
    /// repaired); subsequent degraded batches re-attempt real decodes.
    pub fn clear_quarantine(&self) {
        self.quarantine.lock().expect("quarantine lock").clear();
    }
}

/// Each query's level and chunk indices, in request order, and the union of
/// `(level, chunk)` pairs the batch needs, each exactly once.
type Plan = (Vec<(usize, Vec<usize>)>, BTreeSet<(usize, usize)>);

/// Plans a batch against one frame's directory, from chunk-table accounting
/// alone (no decoding).
fn plan(meta: &StoreMeta, queries: &[Query]) -> Result<Plan, StoreError> {
    let per_query: Vec<(usize, Vec<usize>)> = queries
        .iter()
        .map(|q| match *q {
            Query::Level { level } => {
                let lm = meta
                    .levels
                    .get(level)
                    .ok_or(StoreError::NoSuchLevel(level))?;
                Ok((level, (0..lm.chunks.len()).collect()))
            }
            Query::Roi { level, lo, hi, .. } => {
                Ok((level, read::roi_chunk_indices(meta, level, lo, hi)?))
            }
            Query::Iso { level, iso } => Ok((level, read::iso_chunk_indices(meta, level, iso)?)),
        })
        .collect::<Result<_, StoreError>>()?;
    let need = per_query
        .iter()
        .flat_map(|(level, indices)| indices.iter().map(move |&i| (*level, i)))
        .collect();
    Ok((per_query, need))
}

/// The single-store view: frame 0.
impl ChunkSource for StoreServer {
    fn store_meta(&self) -> &StoreMeta {
        self.meta()
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.chunk_at(0, level, block)
    }

    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        let frame = Frame {
            server: self,
            t: 0,
            meta: self.meta(),
        };
        frame.chunks(level, indices)
    }
}

/// One frame of a [`StoreServer`] as a [`ChunkSource`] of actual-value
/// chunks, every one through the server's `(t, level, chunk)` cache
/// ([`StoreServer::frame`]).
pub struct Frame<'a> {
    server: &'a StoreServer,
    t: usize,
    meta: &'a StoreMeta,
}

impl ChunkSource for Frame<'_> {
    fn store_meta(&self) -> &StoreMeta {
        self.meta
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.server.chunk_at(self.t, level, block)
    }

    /// Bulk override: one lock acquisition harvests every resident chunk,
    /// then only the misses go through the (parallel) single-flight decode
    /// path — a warm read never pays per-chunk locking or thread fan-out.
    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        let keys: Vec<TimeKey> = indices.iter().map(|&i| (self.t, level, i)).collect();
        let mut out = self.server.cache.get_resident(&keys);
        let missing: Vec<(usize, usize)> = out
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(pos, _)| (pos, indices[pos]))
            .collect();
        if missing.is_empty() {
            return Ok(out.into_iter().map(|c| c.expect("all resident")).collect());
        }
        let decoded: Vec<Result<DecodedChunk, StoreError>> = missing
            .par_iter()
            .map(|&(_, block)| self.chunk(level, block))
            .collect();
        for ((pos, _), res) in missing.into_iter().zip(decoded) {
            out[pos] = Some(res?);
        }
        Ok(out
            .into_iter()
            .map(|c| c.expect("misses just filled"))
            .collect())
    }
}

/// One batch's decoded chunk set, viewed as a [`ChunkSource`] for assembly.
/// Falls back to the frame for anything outside the plan (which only
/// happens if a query slips past the planner — correctness never depends on
/// the plan being complete).
struct BatchView<'a> {
    frame: Frame<'a>,
    chunks: HashMap<(usize, usize), DecodedChunk>,
}

impl ChunkSource for BatchView<'_> {
    fn store_meta(&self) -> &StoreMeta {
        self.frame.meta
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        match self.chunks.get(&(level, block)) {
            Some(c) => Ok(c.clone()),
            None => self.frame.chunk(level, block),
        }
    }

    /// Assembly from an in-memory map: plain serial lookups, no fan-out.
    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        indices.iter().map(|&i| self.chunk(level, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::synth;
    use hqmr_mr::{to_adaptive, RoiConfig};
    use hqmr_store::{write_store, StoreConfig};
    use hqmr_sz3::Sz3Codec;

    fn test_store() -> Vec<u8> {
        let f = synth::nyx_like(32, 77);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
        write_store(
            &mr,
            &StoreConfig::new(1e6).with_chunk_blocks(2),
            &Sz3Codec::default(),
        )
    }

    fn test_server(budget: usize) -> StoreServer {
        StoreServer::new(
            Arc::new(StoreReader::from_bytes(test_store()).unwrap()),
            budget,
        )
    }

    /// A chunk that rots on disk after it was cached: the cached copy says
    /// nothing about the stored bytes, so only a verified parity
    /// reconstruction counts as a repair.
    #[test]
    fn scrub_counts_only_verified_parity_repairs() {
        use std::io::{Seek, SeekFrom, Write};
        let buf = test_store();
        let (meta, data_start) = hqmr_store::parse_head(&buf).unwrap();
        let at = data_start + meta.levels[0].chunks[0].offset;
        let path =
            std::env::temp_dir().join(format!("hqmr_serve_scrub_rot_{}.hqst", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let sidecar = ParitySidecar::from_reader(
            &StoreReader::from_bytes(buf.clone()).unwrap(),
            hqmr_store::DEFAULT_PARITY_GROUP,
        )
        .unwrap();
        let s = StoreServer::new(Arc::new(StoreReader::open(&path).unwrap()), UNBOUNDED);
        s.read_all().unwrap();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&[buf[at as usize] ^ 0xFF]).unwrap();
        drop(file);

        let report = s.scrub_pass(None);
        assert_eq!(
            report.repaired, 0,
            "no parity armed, nothing can be repaired"
        );
        assert_eq!(report.unrepairable, vec![(0, 0)]);
        assert_eq!(s.stats().repairs, 0);

        let armed = StoreServer::new(Arc::new(StoreReader::open(&path).unwrap()), UNBOUNDED)
            .with_parity(sidecar)
            .unwrap();
        armed.read_all().unwrap();
        let report = armed.scrub_pass(None);
        assert_eq!((report.repaired, report.unrepairable.len()), (1, 0));
        assert_eq!(
            armed.stats().repairs,
            2,
            "the read and the scrub each healed (0, 0)"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn warm_reads_hit_the_cache() {
        let s = test_server(UNBOUNDED);
        let cold = s.read_level(0).unwrap();
        let st = s.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.misses, st.requests);
        assert!(st.resident_bytes > 0);
        let warm = s.read_level(0).unwrap();
        assert_eq!(cold, warm);
        let st = s.stats();
        assert_eq!(st.hits, st.misses, "second pass is all hits");
        assert_eq!(st.requests, st.hits + st.misses);
    }

    #[test]
    fn zero_budget_caches_nothing_but_serves_correctly() {
        let s = test_server(0);
        let a = s.read_level(0).unwrap();
        let b = s.read_level(0).unwrap();
        assert_eq!(a, b);
        let st = s.stats();
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.peak_resident_bytes, 0);
        assert_eq!(st.hits, 0, "nothing resident to hit");
        assert_eq!(st.requests, st.misses);
    }

    #[test]
    fn tiny_budget_evicts_but_never_exceeds() {
        let budget = 64 * 1024;
        let s = test_server(budget);
        for _ in 0..3 {
            s.read_all().unwrap();
        }
        let st = s.stats();
        assert!(st.evictions > 0, "a 64 KiB budget must evict at 32^3");
        assert!(st.peak_resident_bytes <= budget as u64);
        assert_eq!(st.requests, st.hits + st.misses);
    }

    #[test]
    fn batch_reuses_overlapping_chunks() {
        let s = test_server(0); // even without a cache, a batch decodes once
        let d = s.meta().levels[0].dims;
        let queries = [
            Query::Level { level: 0 },
            Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx, d.ny, d.nz],
                fill: 0.0,
            },
            Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx / 2, d.ny, d.nz],
                fill: 0.0,
            },
        ];
        let total = s.meta().levels[0].chunks.len() as u64;
        let responses = s.serve_batch(&queries).unwrap();
        let st = s.stats();
        assert_eq!(
            st.misses, total,
            "three overlapping fine-level queries decode each chunk once"
        );
        // Responses equal the individual reads.
        let oracle = s.reader();
        match &responses[0] {
            Response::Level(l) => assert_eq!(*l, oracle.read_level(0).unwrap()),
            other => panic!("wrong response kind: {other:?}"),
        }
        match &responses[1] {
            Response::Roi(f) => {
                assert_eq!(
                    *f,
                    oracle
                        .read_roi(0, [0, 0, 0], [d.nx, d.ny, d.nz], 0.0)
                        .unwrap()
                )
            }
            other => panic!("wrong response kind: {other:?}"),
        }
    }

    #[test]
    fn take_stats_returns_window_and_resets() {
        let s = test_server(UNBOUNDED);
        s.read_level(0).unwrap();
        let w1 = s.take_stats();
        assert!(w1.misses > 0);
        assert_eq!(w1.requests, w1.hits + w1.misses);
        // Fresh window: a warm pass is all hits, and nothing from the first
        // window leaks in.
        s.read_level(0).unwrap();
        let w2 = s.take_stats();
        assert_eq!(w2.misses, 0);
        assert_eq!(w2.hits, w1.misses, "same chunk count, now all resident");
        assert_eq!(w2.requests, w2.hits + w2.misses);
        // Residency survives the reset; peak restarts from it.
        assert!(w2.resident_bytes > 0);
        assert_eq!(w2.peak_resident_bytes, w2.resident_bytes);
    }

    #[test]
    fn stats_identity_holds_under_concurrent_load() {
        let s = test_server(64 * 1024);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        s.read_all().unwrap();
                    }
                });
            }
            // Snapshots taken *while* clients are mid-request still balance.
            for _ in 0..64 {
                let st = s.stats();
                assert_eq!(st.requests, st.hits + st.misses);
                assert!(st.shared <= st.hits);
            }
        });
    }

    #[test]
    fn partition_budget_sums_and_protects_tenants() {
        assert_eq!(partition_budget(100, &[]), Vec::<usize>::new());
        assert_eq!(partition_budget(UNBOUNDED, &[1, 2]), vec![UNBOUNDED; 2]);
        // Proportional, exact sum.
        let parts = partition_budget(100, &[3, 1]);
        assert_eq!(parts.iter().sum::<usize>(), 100);
        assert_eq!(parts, vec![75, 25]);
        // Uneven split still sums exactly.
        let parts = partition_budget(100, &[1, 1, 1]);
        assert_eq!(parts.iter().sum::<usize>(), 100);
        // Zero weights get nothing; others share it all.
        let parts = partition_budget(64, &[0, 1, 1]);
        assert_eq!(parts[0], 0);
        assert_eq!(parts.iter().sum::<usize>(), 64);
        // A dominant tenant cannot starve small live tenants.
        let parts = partition_budget(10, &[1_000_000, 1, 1]);
        assert!(parts[1] > 0 && parts[2] > 0, "{parts:?}");
        assert_eq!(parts.iter().sum::<usize>(), 10);
        // All-zero weights: even split.
        let parts = partition_budget(7, &[0, 0, 0]);
        assert_eq!(parts.iter().sum::<usize>(), 7);
    }

    /// Hook failing exactly the named chunk, as injected chaos would.
    fn fail_only(level: usize, block: usize) -> FaultHook {
        Arc::new(move |l, b| l == level && b == block)
    }

    #[test]
    fn degraded_batch_equals_exact_when_clean() {
        let s = test_server(UNBOUNDED);
        let d = s.meta().levels[0].dims;
        let queries = [
            Query::Level { level: 0 },
            Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx, d.ny, d.nz / 2],
                fill: 0.0,
            },
            Query::Iso { level: 0, iso: 0.5 },
        ];
        let exact = s.serve_batch(&queries).unwrap();
        let degraded = s.serve_batch_degraded(&queries).unwrap();
        assert_eq!(exact.len(), degraded.len());
        for (e, d) in exact.iter().zip(&degraded) {
            assert!(d.is_exact());
            assert_eq!(*e, d.response, "clean degraded read must be bit-identical");
        }
        assert!(s.quarantined().is_empty());
    }

    #[test]
    fn corrupt_chunk_is_quarantined_and_filled_not_fatal() {
        let s = test_server(UNBOUNDED).with_fault_hook(fail_only(0, 0));
        let queries = [Query::Level { level: 0 }];
        // The exact path keeps its strict contract.
        let err = s.serve_batch(&queries).expect_err("exact path must fail");
        assert!(matches!(
            err,
            StoreError::CorruptChunk { level: 0, block: 0 }
        ));
        // The degraded path answers, flagging the filled chunk.
        let results = s.serve_batch_degraded(&queries).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].degraded, vec![(0, 0)]);
        assert_eq!(s.quarantined(), vec![(0, 0, 0)]);
        // Blocks outside the corrupt chunk are bit-identical to the oracle;
        // the filled blocks are at least finite.
        let oracle = s.reader().read_level(0).unwrap();
        let Response::Level(got) = &results[0].response else {
            panic!("wrong response kind");
        };
        let corrupt: std::collections::HashSet<[usize; 3]> = s.meta().levels[0].chunks[0]
            .slots
            .iter()
            .map(|&(_, origin)| origin)
            .collect();
        assert_eq!(got.blocks.len(), oracle.blocks.len());
        for (g, o) in got.blocks.iter().zip(&oracle.blocks) {
            assert_eq!(g.origin, o.origin);
            if corrupt.contains(&g.origin) {
                assert!(g.data.iter().all(|v| v.is_finite()));
            } else {
                assert_eq!(g.data, o.data, "clean chunk altered at {:?}", g.origin);
            }
        }
        // Quarantine is sticky until cleared, then the (still-failing) hook
        // re-quarantines on the next degraded read.
        s.clear_quarantine();
        assert!(s.quarantined().is_empty());
        let again = s.serve_batch_degraded(&queries).unwrap();
        assert_eq!(again[0].degraded, vec![(0, 0)]);
    }

    #[test]
    fn degraded_fill_prefers_coarser_data_over_proxy() {
        // A chunk fully covered by a coarser level must take its fill from
        // the upsampled coarse data, not the flat proxy. Build a 2-level
        // store by brute force: find a fine chunk whose region some coarser
        // block covers.
        let s = test_server(UNBOUNDED);
        let meta = s.meta();
        if meta.levels.len() < 2 {
            return; // layout has a single level at this scale; nothing to assert
        }
        // Corrupt every chunk of the finest level; fills may draw on any
        // coarser level.
        let s = test_server(UNBOUNDED).with_fault_hook(Arc::new(|l, _| l == 0));
        let results = s
            .serve_batch_degraded(&[Query::Level { level: 0 }])
            .unwrap();
        let Response::Level(got) = &results[0].response else {
            panic!("wrong response kind");
        };
        assert!(!results[0].is_exact());
        assert!(got
            .blocks
            .iter()
            .all(|b| b.data.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn batch_propagates_typed_errors() {
        let s = test_server(UNBOUNDED);
        let err = s
            .serve_batch(&[Query::Level { level: 99 }])
            .expect_err("no such level");
        assert!(matches!(err, StoreError::NoSuchLevel(99)));
        // Degradation covers data decay only — planning errors stay fatal.
        let err = s
            .serve_batch_degraded(&[Query::Level { level: 99 }])
            .expect_err("no such level");
        assert!(matches!(err, StoreError::NoSuchLevel(99)));
        let d = s.meta().levels[0].dims;
        let err = s
            .serve_batch(&[Query::Roi {
                level: 0,
                lo: [0, 0, 0],
                hi: [d.nx + 1, d.ny, d.nz],
                fill: 0.0,
            }])
            .expect_err("roi out of bounds");
        assert!(matches!(err, StoreError::RoiOutOfBounds));
    }
}
