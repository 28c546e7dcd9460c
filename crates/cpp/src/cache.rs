//! A content-addressed, dependency-validated parse cache.
//!
//! A real compiler discovers a translation unit's include closure only
//! *while* preprocessing it, so — exactly like `make` depfiles or ccache's
//! direct mode — the cache records the closure observed on the previous
//! parse and validates it against current file hashes on lookup:
//!
//! * **key**: `(main path, defines hash)` selects the entry;
//! * **validation**: the entry is a hit iff every file that entered the
//!   previous parse (the main file and all transitively included headers)
//!   still has the same content hash;
//! * **artifact**: the parsed TU behind an [`Arc`], so hits are O(closure)
//!   hash comparisons and one pointer clone — no preprocessing, no lexing,
//!   no parsing.
//!
//! A whole-TU miss first tries the entries' [preamble snapshots]
//! ([`crate::preamble`]): when the main file's leading directive block is
//! byte-identical to a snapshot's and every file that block entered is
//! unchanged, the parse resumes from the snapshot and only the main file's
//! suffix is preprocessed and parsed. Versions resumed from one snapshot
//! share its declarations, and the byte model counts the snapshot once.
//!
//! Every parse also hands out its [include snapshots]
//! ([`crate::preamble::IncludeSnapshot`]), kept next to its preamble
//! snapshot. [`ParseCache::check`] takes them explicitly: a TU that
//! includes one of those headers in the same pristine context is checked
//! from the snapshot on, without preprocessing or parsing the header.
//!
//! Every entry also carries a `closure_hash` content-addressing the whole
//! input set (main path + defines + every dependency's hash). Downstream
//! stages key *their* artifacts on it: if the closure hash is unchanged,
//! the parse — and anything derived only from it — cannot have changed.
//!
//! With an attached [`yalla_store::Store`], the cache additionally
//! persists each parse's *dependency manifest* (the depfile: every file in
//! the closure with its hash, plus the closure hash) to disk under the
//! `parse` namespace. ASTs never leave memory — the manifest exists so a
//! *fresh process* can prove via [`ParseCache::probe_disk`] that its input
//! set is byte-identical to a previous parse and recover the closure hash
//! without preprocessing anything, which is the anchor the session layer
//! needs to look up a whole-run artifact bundle on disk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use yalla_store::module::{ModuleBuilder, ModuleReader, PartitionBuilder};
use yalla_store::{Store, NS_PARSE};

use crate::error::Result;
use crate::frontend::ParsedTu;
use crate::hash::{self, Fnv64};
use crate::pp::PpStats;
use crate::preamble::{self, IncludeSnapshot, IncludeSnapshots, MainPreamble, Preamble};
use crate::vfs::Vfs;

/// Sentinel for "no explicit budget set — consult `YALLA_MEM_BUDGET`".
const BUDGET_UNSET: u64 = u64::MAX;

/// Process-wide in-memory byte budget, shared by every cache in
/// [`BudgetMode::Global`] mode. `BUDGET_UNSET` defers to the
/// `YALLA_MEM_BUDGET` environment variable; `0` means unlimited.
static GLOBAL_MEM_BUDGET: AtomicU64 = AtomicU64::new(BUDGET_UNSET);

/// Estimated bytes of parsed TUs resident across every in-memory parse
/// cache in the process, and the high-water mark since the last reset.
static RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT_BYTES: AtomicU64 = AtomicU64::new(0);

fn env_mem_budget() -> Option<u64> {
    static CACHED: OnceLock<Option<u64>> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let raw = std::env::var("YALLA_MEM_BUDGET").ok()?;
        // An unparsable value is ignored rather than fatal: the CLI flag
        // validates loudly; the env var is best-effort plumbing.
        parse_mem_budget(&raw).ok().filter(|&b| b > 0)
    })
}

/// Sets the process-wide parse-cache byte budget. `None` (or `Some(0)`)
/// disables eviction. Overrides `YALLA_MEM_BUDGET` for every cache in
/// [`BudgetMode::Global`] mode; the budget is consulted on each insert,
/// so a change applies to already-open caches too.
pub fn set_mem_budget(bytes: Option<u64>) {
    GLOBAL_MEM_BUDGET.store(bytes.unwrap_or(0), Ordering::Relaxed);
}

/// The effective process-wide budget: the explicit
/// [`set_mem_budget`] value if one was set, else `YALLA_MEM_BUDGET`,
/// else unlimited.
pub fn mem_budget() -> Option<u64> {
    match GLOBAL_MEM_BUDGET.load(Ordering::Relaxed) {
        BUDGET_UNSET => env_mem_budget(),
        0 => None,
        n => Some(n),
    }
}

/// Parses a human-readable byte budget: a decimal count with an
/// optional binary suffix (`k`/`K` = 2^10, `m`/`M` = 2^20, `g`/`G` =
/// 2^30), e.g. `64M`, `512k`, `2G`, `1048576`. `0` disables the budget.
///
/// # Errors
///
/// Returns a human-readable message for empty, non-numeric, or
/// overflowing inputs.
pub fn parse_mem_budget(s: &str) -> std::result::Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k') | Some('K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m') | Some('M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g') | Some('G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte budget {t:?} (want e.g. 64M, 512k, 1048576)"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte budget {t:?} overflows u64"))
}

/// Estimated bytes of parsed TUs currently resident in in-memory parse
/// caches, process-wide.
pub fn bytes_resident() -> u64 {
    RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`bytes_resident`] since process start or the
/// last [`reset_peak_resident`].
pub fn peak_bytes_resident() -> u64 {
    PEAK_RESIDENT_BYTES.load(Ordering::Relaxed)
}

/// Resets the [`peak_bytes_resident`] high-water mark to the current
/// resident total (benches call this between presets).
pub fn reset_peak_resident() {
    PEAK_RESIDENT_BYTES.store(RESIDENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn add_resident(bytes: u64) {
    let now = RESIDENT_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_RESIDENT_BYTES.fetch_max(now, Ordering::Relaxed);
    yalla_obs::gauge(yalla_obs::metrics::names::CACHE_BYTES_RESIDENT, now as i64);
}

fn sub_resident(bytes: u64) {
    let prev = RESIDENT_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    yalla_obs::gauge(
        yalla_obs::metrics::names::CACHE_BYTES_RESIDENT,
        prev.saturating_sub(bytes) as i64,
    );
}

/// Where a cache takes its in-memory byte budget from.
#[derive(Debug, Clone, Copy, Default)]
pub enum BudgetMode {
    /// Follow the process-wide budget ([`set_mem_budget`] /
    /// `YALLA_MEM_BUDGET`), re-read on every insert.
    #[default]
    Global,
    /// A fixed per-cache budget; `None` disables eviction. Used by
    /// tests and benches that must not depend on process-global state.
    Fixed(Option<u64>),
}

/// How a cache lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLookup {
    /// Valid entry found; the cached artifact was reused.
    Hit,
    /// No entry existed for the key; the artifact was computed.
    Miss,
    /// An entry existed but its inputs changed; the stale artifact was
    /// recomputed and replaced.
    Invalidated,
}

impl CacheLookup {
    /// True for [`CacheLookup::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, CacheLookup::Hit)
    }

    /// Display label (`hit`, `miss`, `inval`).
    pub fn label(self) -> &'static str {
        match self {
            CacheLookup::Hit => "hit",
            CacheLookup::Miss => "miss",
            CacheLookup::Invalidated => "inval",
        }
    }
}

/// A successfully validated (or freshly computed) cached parse.
#[derive(Debug, Clone)]
pub struct CachedParse {
    /// The parsed TU (shared; cloning is a pointer bump).
    pub tu: Arc<ParsedTu>,
    /// Content address of the parse's entire input set.
    pub closure_hash: u64,
    /// How the lookup resolved.
    pub lookup: CacheLookup,
    /// True when a miss was served by resuming from a preamble snapshot
    /// (only the main file's suffix was preprocessed and parsed).
    pub resumed: bool,
    /// The parse's include snapshots, for [`ParseCache::check`]s of other
    /// TUs that include the same headers.
    pub includes: IncludeSnapshots,
}

/// A validated (or freshly computed) [`ParseCache::check`].
#[derive(Debug, Clone, Copy)]
pub struct CheckedTu {
    /// Content address of the TU's entire input set.
    pub closure_hash: u64,
    /// True when a miss was checked from an include snapshot on (the
    /// snapshot's header was neither preprocessed nor parsed).
    pub resumed: bool,
}

#[derive(Debug)]
struct Entry {
    /// `(path, content hash)` of every file that entered the parse, main
    /// file first.
    deps: Vec<(String, u64)>,
    closure_hash: u64,
    /// The parsed TU; `None` for an entry recorded by
    /// [`ParseCache::check`], which keeps only the closure.
    tu: Option<Arc<ParsedTu>>,
    /// The preamble snapshot this parse recorded or resumed from, shared
    /// by every version resumed from it.
    preamble: Option<Arc<Preamble>>,
    /// The parse's include snapshots (empty for a check).
    includes: IncludeSnapshots,
    /// Deterministic estimate of this entry's own in-memory footprint,
    /// without its shared preamble (see [`ParseCache::approx_entry_bytes`]).
    bytes: u64,
    /// LRU clock tick of the last hit or insert; the eviction scan
    /// removes the minimum-stamp entry first.
    stamp: u64,
}

/// What a parse keeps in its cache entry besides the closure: the TU and
/// the snapshots it recorded or resumed from. A check keeps none of it.
struct Kept {
    tu: Arc<ParsedTu>,
    preamble: Option<Arc<Preamble>>,
    includes: IncludeSnapshots,
}

/// Parse versions retained per `(path, defines)` key. A small history
/// makes edit-then-revert (comment out, rebuild, undo, rebuild — the
/// A/B pattern of an interactive session) a cache *hit* instead of a
/// recompute, at the cost of a few retained ASTs per TU.
const VERSIONS_PER_KEY: usize = 4;

/// A per-TU parse cache keyed by `(main path, defines)` and validated
/// against file content hashes. Each key retains up to
/// [`VERSIONS_PER_KEY`] recent parses, so reverting an edit re-hits the
/// version cached before the edit.
///
/// The cache is internally synchronized: [`ParseCache::parse`] takes
/// `&self`, so one cache (behind an `Arc`) serves concurrent per-TU
/// parse tasks. The map lock is held only for lookup and insertion —
/// never across an actual parse — so misses on different TUs
/// preprocess and parse in parallel. Two threads missing the *same*
/// key may both parse; the loser's insert deduplicates by closure
/// hash, so the history stays consistent (the work is wasted, never
/// wrong).
///
/// # Example
///
/// ```
/// use yalla_cpp::cache::{CacheLookup, ParseCache};
/// use yalla_cpp::vfs::Vfs;
///
/// let mut vfs = Vfs::new();
/// vfs.add_file("a.hpp", "int x;");
/// vfs.add_file("m.cpp", "#include \"a.hpp\"\nint y;");
/// let cache = ParseCache::new();
/// let first = cache.parse(&vfs, &[], "m.cpp").unwrap();
/// assert_eq!(first.lookup, CacheLookup::Miss);
/// let second = cache.parse(&vfs, &[], "m.cpp").unwrap();
/// assert_eq!(second.lookup, CacheLookup::Hit);
/// assert_eq!(first.closure_hash, second.closure_hash);
/// ```
#[derive(Debug, Default)]
pub struct ParseCache {
    entries: Mutex<HashMap<(String, u64), Vec<Entry>>>,
    store: Option<Arc<Store>>,
    /// In-memory byte budget policy; enforced after every insert.
    budget: BudgetMode,
    /// Estimated bytes held by *this* cache (the budget is per cache;
    /// the process-wide gauge sums every cache).
    resident: AtomicU64,
    /// Monotone LRU clock; bumped on every hit and insert.
    clock: AtomicU64,
}

impl ParseCache {
    /// An empty cache.
    pub fn new() -> Self {
        ParseCache::default()
    }

    /// An empty cache that persists dependency manifests to `store`.
    pub fn with_store(store: Option<Arc<Store>>) -> Self {
        ParseCache {
            entries: Mutex::new(HashMap::new()),
            store,
            budget: BudgetMode::Global,
            resident: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    /// An empty cache with a fixed per-cache byte budget (`None`
    /// disables eviction), independent of the process-global setting.
    pub fn with_budget(store: Option<Arc<Store>>, budget: Option<u64>) -> Self {
        let mut cache = ParseCache::with_store(store);
        cache.budget = BudgetMode::Fixed(budget);
        cache
    }

    /// The byte budget this cache enforces right now.
    pub fn effective_budget(&self) -> Option<u64> {
        match self.budget {
            BudgetMode::Fixed(b) => b.filter(|&b| b > 0),
            BudgetMode::Global => mem_budget(),
        }
    }

    /// Estimated bytes of parsed TUs this cache currently holds.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// The attached on-disk store, if any.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Key of the on-disk dependency manifest for `(path, defines)` with
    /// the root file's own content hash folded in. Without the root hash,
    /// an edited main file would leave the stale manifest squatting on
    /// the key (the dedup `contains` check would skip the overwrite) and
    /// every later process would probe the dead manifest forever; with
    /// it, each content generation gets its own slot and the LRU sweeps
    /// out the old ones.
    fn manifest_key(path: &str, defines_hash: u64, root_hash: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(path);
        h.write_u64(defines_hash);
        h.write_u64(root_hash);
        h.finish()
    }

    /// Manifest payloads are modules ([`yalla_store::module`]): dep paths
    /// interned once, one fixed 12-byte row (`path StrRef`, `content
    /// hash u64`) per closure file, closure hash in a meta partition.
    /// [`ParseCache::probe_disk`] validates the rows straight off the
    /// store's payload view without materializing a single `String`.
    const MODULE_KIND: u8 = 1;
    const PART_DEPS: u8 = 1;
    const PART_META: u8 = 2;
    const DEP_ROW_SIZE: usize = 12;

    fn encode_manifest(deps: &[(String, u64)], closure_hash: u64) -> Vec<u8> {
        let mut m = ModuleBuilder::new(Self::MODULE_KIND);
        let mut rows = PartitionBuilder::fixed(Self::PART_DEPS, Self::DEP_ROW_SIZE);
        for (path, hash) in deps {
            let path = m.intern(path);
            let row = rows.row();
            row.put_u32(path.0);
            row.put_u64(*hash);
        }
        m.push(rows);
        let mut meta = PartitionBuilder::var(Self::PART_META);
        meta.row().put_varint(closure_hash);
        m.push(meta);
        m.finish()
    }

    /// Best-effort write of the manifest for `deps` if the store does not
    /// already hold one for this content (`contains` is a cheap stat).
    fn persist_manifest(
        &self,
        key: &(String, u64),
        root_hash: Option<u64>,
        deps: &[(String, u64)],
        closure_hash: u64,
    ) {
        let (Some(store), Some(root_hash)) = (&self.store, root_hash) else {
            return;
        };
        let disk_key = Self::manifest_key(&key.0, key.1, root_hash);
        if !store.contains(NS_PARSE, disk_key) {
            store.put(
                NS_PARSE,
                disk_key,
                &Self::encode_manifest(deps, closure_hash),
            );
        }
    }

    /// Validates the *on-disk* dependency manifest for `path` against the
    /// current file tree: returns the previous parse's closure hash when
    /// every file in the recorded include closure still has the same
    /// content hash. No TU is produced (ASTs are not persisted) — the
    /// session layer uses the recovered closure hash to address whole-run
    /// artifact bundles on disk. Returns `None` (with no side effects
    /// beyond the store's own hit/miss counters) when no store is
    /// attached, no manifest exists, or any dependency changed.
    pub fn probe_disk(&self, vfs: &Vfs, defines: &[(String, String)], path: &str) -> Option<u64> {
        let store = self.store.as_ref()?;
        let root_hash = vfs.hash_of(path)?;
        let key = Self::manifest_key(path, hash::hash_defines(defines), root_hash);
        let view = store.get_view(NS_PARSE, key)?;
        // Zero-copy validation: each dep row is read in place from the
        // record's payload view — no paths are copied out of the buffer.
        let m = ModuleReader::parse(&view).ok()?;
        if m.kind() != Self::MODULE_KIND {
            return None;
        }
        for row in m.part(Self::PART_DEPS)?.iter() {
            let dep = m.get(row.str_at(0).ok()?).ok()?;
            let hash = row.u64_at(4).ok()?;
            if vfs.hash_of(dep) != Some(hash) {
                return None;
            }
        }
        m.part(Self::PART_META)?.reader().get_varint().ok()
    }

    /// Number of cached TUs.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("parse cache lock").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().expect("parse cache lock").is_empty()
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("parse cache lock");
        entries.clear();
        self.set_resident(0);
    }

    /// Looks up `path` without parsing: returns the validated cached TU
    /// on a hit (counting it exactly as [`ParseCache::parse`] would), or
    /// `None` — with no metric side effects — when a parse would be
    /// needed. The session layer probes before building its stage DAG so
    /// a warm parse short-circuits scheduling entirely.
    pub fn probe(
        &self,
        vfs: &Vfs,
        defines: &[(String, String)],
        path: &str,
    ) -> Option<CachedParse> {
        let key = (path.to_string(), hash::hash_defines(defines));
        self.lookup_and_repair(&key, vfs)
    }

    /// The hit path of [`ParseCache::parse`] and [`ParseCache::probe`].
    fn lookup_and_repair(&self, key: &(String, u64), vfs: &Vfs) -> Option<CachedParse> {
        let (tu, closure_hash, includes) = self.lookup_valid(key, vfs, true)?;
        Some(CachedParse {
            tu: tu.expect("lookup_valid returns a TU when asked for one"),
            closure_hash,
            lookup: CacheLookup::Hit,
            resumed: false,
            includes,
        })
    }

    /// The shared hit path: finds a validated version for `key` (one with
    /// a TU when `need_tu`), promotes it to most-recently-used, and counts
    /// the hit. A memory hit whose manifest is missing on disk (evicted,
    /// or a failed earlier write) re-persists it, so disk warmth converges
    /// back toward memory warmth.
    fn lookup_valid(
        &self,
        key: &(String, u64),
        vfs: &Vfs,
        need_tu: bool,
    ) -> Option<(Option<Arc<ParsedTu>>, u64, IncludeSnapshots)> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let (tu, closure_hash, includes, deps) = {
            let mut entries = self.entries.lock().expect("parse cache lock");
            let versions = entries.get_mut(key)?;
            let valid = versions.iter().position(|entry| {
                (entry.tu.is_some() || !need_tu)
                    && entry
                        .deps
                        .iter()
                        .all(|(dep, h)| vfs.hash_of(dep) == Some(*h))
            })?;
            // Most-recently-used first, so the history evicts the version
            // least likely to come back.
            let mut entry = versions.remove(valid);
            entry.stamp = tick;
            let (tu, closure_hash) = (entry.tu.clone(), entry.closure_hash);
            let includes = Arc::clone(&entry.includes);
            let deps = self.store.is_some().then(|| entry.deps.clone());
            versions.insert(0, entry);
            (tu, closure_hash, includes, deps)
        };
        yalla_obs::count(yalla_obs::metrics::names::CACHE_HITS, 1);
        if let Some(deps) = deps {
            self.persist_manifest(key, vfs.hash_of(&key.0), &deps, closure_hash);
        }
        Some((tu, closure_hash, includes))
    }

    /// Parses `path` against `vfs` with `defines`, reusing the cached TU
    /// when the whole include closure is byte-identical to the previous
    /// parse, and resuming from a cached preamble snapshot when only the
    /// main file's code after its leading directives changed.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (which are never cached).
    pub fn parse(
        &self,
        vfs: &Vfs,
        defines: &[(String, String)],
        path: &str,
    ) -> Result<CachedParse> {
        let key = (path.to_string(), hash::hash_defines(defines));
        if let Some(cached) = self.lookup_and_repair(&key, vfs) {
            return Ok(cached);
        }
        let (stale, snapshots) = {
            let entries = self.entries.lock().expect("parse cache lock");
            let versions = entries.get(&key);
            let snapshots: Vec<Arc<Preamble>> = versions
                .into_iter()
                .flatten()
                .filter_map(|e| e.preamble.clone())
                .collect();
            (versions.is_some(), snapshots)
        };
        // Lock released: the parse itself runs unsynchronized, so cache
        // misses on different TUs overlap on the executor.
        yalla_obs::count(yalla_obs::metrics::names::CACHE_MISSES, 1);
        if stale {
            yalla_obs::count(yalla_obs::metrics::names::CACHE_INVALIDATIONS, 1);
        }

        let resumable = (!snapshots.is_empty())
            .then(|| MainPreamble::scan(vfs, path))
            .flatten()
            .and_then(|main| {
                let pre = snapshots.into_iter().find(|p| p.matches(&main, vfs))?;
                Some((pre, main))
            });
        let (tu, preamble, includes, resumed) = match resumable {
            Some((pre, main)) => {
                yalla_obs::count(yalla_obs::metrics::names::CACHE_PREAMBLE_HITS, 1);
                let tu = preamble::resume(vfs, &pre, &main)?;
                let includes = Arc::clone(&pre.includes);
                (tu, Some(pre), includes, true)
            }
            None => {
                yalla_obs::count(yalla_obs::metrics::names::CACHE_PREAMBLE_MISSES, 1);
                let (tu, pre, includes) = preamble::parse_recording(vfs, defines, path)?;
                (tu, pre, includes, false)
            }
        };
        let tu = Arc::new(tu);
        let kept = Kept {
            tu: Arc::clone(&tu),
            preamble,
            includes: Arc::clone(&includes),
        };
        let closure_hash = self.record(key, vfs, &tu.stats, Some(kept), resumed);
        Ok(CachedParse {
            tu,
            closure_hash,
            lookup: if stale {
                CacheLookup::Invalidated
            } else {
                CacheLookup::Miss
            },
            resumed,
            includes,
        })
    }

    /// Checks that `path` parses against `vfs` with `defines` and returns
    /// the closure hash, like [`ParseCache::parse`] minus the AST: a miss
    /// checks the TU, then keeps only its dependency closure. For a large
    /// TU that is checked but never read (verify's wrappers TU), staying
    /// warm costs a few bytes per file instead of a whole AST.
    ///
    /// A miss continues from the first of `includes` that applies at an
    /// include point of `path` ([`crate::preamble::check`]), and checks
    /// the TU in full when none does.
    ///
    /// # Errors
    ///
    /// Propagates frontend errors (which are never cached).
    pub fn check(
        &self,
        vfs: &Vfs,
        defines: &[(String, String)],
        path: &str,
        includes: &[IncludeSnapshot],
    ) -> Result<CheckedTu> {
        let key = (path.to_string(), hash::hash_defines(defines));
        if let Some((_, closure_hash, _)) = self.lookup_valid(&key, vfs, false) {
            return Ok(CheckedTu {
                closure_hash,
                resumed: false,
            });
        }
        yalla_obs::count(yalla_obs::metrics::names::CACHE_MISSES, 1);
        let (stats, resumed) = preamble::check(vfs, defines, path, includes)?;
        yalla_obs::count(
            if resumed {
                yalla_obs::metrics::names::CACHE_INCLUDE_SNAPSHOT_HITS
            } else {
                yalla_obs::metrics::names::CACHE_INCLUDE_SNAPSHOT_MISSES
            },
            1,
        );
        let closure_hash = self.record(key, vfs, &stats, None, false);
        Ok(CheckedTu {
            closure_hash,
            resumed,
        })
    }

    /// Inserts a fresh parse of `key` (`kept` is `None` for a
    /// [`ParseCache::check`]) as its most recent version, enforces the
    /// byte budget, spills evicted manifests, and returns the closure
    /// hash.
    fn record(
        &self,
        key: (String, u64),
        vfs: &Vfs,
        stats: &PpStats,
        kept: Option<Kept>,
        resumed: bool,
    ) -> u64 {
        let (tu, preamble, includes) = match kept {
            Some(k) => (Some(k.tu), k.preamble, k.includes),
            None => (None, None, Vec::new().into()),
        };
        let mut deps = Vec::with_capacity(stats.files_entered.len());
        let mut closure = Fnv64::new();
        closure.write_str(&key.0);
        closure.write_u64(key.1);
        for &file in &stats.files_entered {
            let dep_path = vfs.path(file).to_string();
            let dep_hash = vfs.file_hash(file);
            closure.write_str(&dep_path);
            closure.write_u64(dep_hash);
            deps.push((dep_path, dep_hash));
        }
        let closure_hash = closure.finish();
        self.persist_manifest(&key, vfs.hash_of(&key.0), &deps, closure_hash);
        let lines = if tu.is_some() {
            stats.lines_compiled
        } else {
            0
        };
        let bytes = Self::approx_entry_bytes(lines, preamble.as_deref(), &deps);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let spilled = {
            let mut entries = self.entries.lock().expect("parse cache lock");
            let versions = entries.entry(key).or_default();
            versions.retain(|e| e.closure_hash != closure_hash);
            if !resumed {
                // A fresh snapshot supersedes the older versions' ones:
                // they stay for edit-then-revert hits, but without the
                // derived data (a symbol table) memoized on them.
                for pre in versions.iter().filter_map(|e| e.preamble.as_ref()) {
                    pre.forget_memo();
                }
            }
            versions.insert(
                0,
                Entry {
                    deps,
                    closure_hash,
                    tu,
                    preamble,
                    includes,
                    bytes,
                    stamp,
                },
            );
            versions.truncate(VERSIONS_PER_KEY);
            let spilled = match self.effective_budget() {
                Some(budget) => Self::enforce_budget(&mut entries, budget, stamp),
                None => Vec::new(),
            };
            self.set_resident(Self::model_bytes(&entries));
            spilled
        };
        // Spill outside the map lock: each evicted entry's dependency
        // manifest is (re-)persisted to the store tier, so the record
        // round-trips — a later probe_disk recovers the closure hash and
        // the run-bundle tier rebuilds the artifacts without a cold parse.
        if !spilled.is_empty() {
            yalla_obs::count(
                yalla_obs::metrics::names::CACHE_EVICTIONS,
                spilled.len() as i64,
            );
            for s in spilled {
                self.persist_manifest(&s.key, Some(s.root_hash), &s.deps, s.closure_hash);
            }
        }
        closure_hash
    }

    /// Deterministic estimate of an entry's own in-memory footprint: a
    /// per-line constant for the retained AST/tokens plus the dep table,
    /// leaving out the lines its shared preamble accounts for. It is a
    /// *model*, not an allocator measurement — what matters for the
    /// budget is that it is stable across runs and monotone in TU size,
    /// so eviction decisions (and the bench's peak-resident numbers) are
    /// reproducible.
    fn approx_entry_bytes(
        lines: usize,
        preamble: Option<&Preamble>,
        deps: &[(String, u64)],
    ) -> u64 {
        let shared = preamble.map_or(0, Preamble::lines);
        let lines = lines.saturating_sub(shared) as u64;
        let dep_bytes: u64 = deps.iter().map(|(p, _)| p.len() as u64 + 24).sum();
        256 + lines * 160 + dep_bytes
    }

    /// The byte model of a preamble snapshot, counted once per cache
    /// however many versions share it.
    fn approx_preamble_bytes(pre: &Preamble) -> u64 {
        let dep_bytes: u64 = pre.dep_paths().map(|p| p.len() as u64 + 24).sum();
        256 + pre.lines() as u64 * 160 + dep_bytes
    }

    /// The byte model of everything in `entries`: each entry's own bytes
    /// plus each distinct preamble snapshot once.
    fn model_bytes(entries: &HashMap<(String, u64), Vec<Entry>>) -> u64 {
        let mut seen: Vec<*const Preamble> = Vec::new();
        let mut total = 0;
        for e in entries.values().flatten() {
            total += e.bytes;
            if let Some(pre) = &e.preamble {
                if !seen.contains(&Arc::as_ptr(pre)) {
                    seen.push(Arc::as_ptr(pre));
                    total += Self::approx_preamble_bytes(pre);
                }
            }
        }
        total
    }

    /// Sets this cache's resident estimate and moves the process-wide
    /// gauge by the difference.
    fn set_resident(&self, now: u64) {
        let prev = self.resident.swap(now, Ordering::Relaxed);
        if now >= prev {
            add_resident(now - prev);
        } else {
            sub_resident(prev - now);
        }
    }

    /// Evicts least-recently-used entries (never the one stamped
    /// `keep_stamp`, so the insert that triggered enforcement always
    /// survives — a cache smaller than one TU still makes progress)
    /// until the cache's byte model fits `budget`. Returns the spill
    /// manifests for the caller to persist after the lock drops.
    fn enforce_budget(
        entries: &mut HashMap<(String, u64), Vec<Entry>>,
        budget: u64,
        keep_stamp: u64,
    ) -> Vec<Spill> {
        let mut spilled = Vec::new();
        while Self::model_bytes(entries) > budget {
            let victim = entries
                .iter()
                .flat_map(|(k, vs)| vs.iter().map(move |e| (e.stamp, k)))
                .filter(|&(stamp, _)| stamp != keep_stamp)
                .min_by_key(|&(stamp, _)| stamp)
                .map(|(stamp, k)| (stamp, k.clone()));
            let Some((stamp, key)) = victim else {
                break;
            };
            let versions = entries.get_mut(&key).expect("victim key present");
            let idx = versions
                .iter()
                .position(|e| e.stamp == stamp)
                .expect("victim version present");
            let e = versions.remove(idx);
            if versions.is_empty() {
                entries.remove(&key);
            }
            spilled.push(Spill {
                key,
                root_hash: e.deps.first().map(|d| d.1).unwrap_or_default(),
                deps: e.deps,
                closure_hash: e.closure_hash,
            });
        }
        spilled
    }
}

/// What the eviction path carries out of the lock: enough to persist
/// the dependency manifest of a spilled entry to the store tier.
struct Spill {
    key: (String, u64),
    root_hash: u64,
    deps: Vec<(String, u64)>,
    closure_hash: u64,
}

impl Drop for ParseCache {
    /// Returns this cache's resident estimate to the process-wide gauge
    /// (serve shards come and go; the gauge must not leak their bytes).
    fn drop(&mut self) {
        sub_resident(self.resident.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs() -> Vfs {
        let mut vfs = Vfs::new();
        vfs.add_file("lib.hpp", "#pragma once\nnamespace l { class C; }\n");
        vfs.add_file("other.hpp", "#pragma once\nint unrelated;\n");
        vfs.add_file("main.cpp", "#include \"lib.hpp\"\nint y;\n");
        vfs
    }

    #[test]
    fn second_parse_is_a_hit_sharing_the_ast() {
        let v = vfs();
        let cache = ParseCache::new();
        let a = cache.parse(&v, &[], "main.cpp").unwrap();
        let b = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(a.lookup, CacheLookup::Miss);
        assert_eq!(b.lookup, CacheLookup::Hit);
        assert!(Arc::ptr_eq(&a.tu, &b.tu));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn editing_a_dependency_invalidates() {
        let mut v = vfs();
        let cache = ParseCache::new();
        let a = cache.parse(&v, &[], "main.cpp").unwrap();
        v.apply_edit(
            "lib.hpp",
            "#pragma once\nnamespace l { class C; class D; }\n",
        )
        .unwrap();
        let b = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(b.lookup, CacheLookup::Invalidated);
        assert_ne!(a.closure_hash, b.closure_hash);
        // Reverting restores the original closure hash and re-hits the
        // version cached before the edit — no reparse.
        v.apply_edit("lib.hpp", "#pragma once\nnamespace l { class C; }\n")
            .unwrap();
        let c = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(c.lookup, CacheLookup::Hit);
        assert_eq!(a.closure_hash, c.closure_hash);
        assert!(Arc::ptr_eq(&a.tu, &c.tu));
    }

    #[test]
    fn version_history_is_bounded() {
        let mut v = vfs();
        let cache = ParseCache::new();
        for i in 0..10 {
            v.apply_edit("lib.hpp", format!("#pragma once\nint v{i};\n"))
                .unwrap();
            cache.parse(&v, &[], "main.cpp").unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.entries.lock().unwrap()[&("main.cpp".to_string(), hash::hash_defines(&[]))].len(),
            VERSIONS_PER_KEY
        );
        // The most recent content is still a hit...
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        // ...and re-caching identical content does not duplicate it.
        assert_eq!(
            cache.entries.lock().unwrap()[&("main.cpp".to_string(), hash::hash_defines(&[]))].len(),
            VERSIONS_PER_KEY
        );
    }

    #[test]
    fn editing_an_unreached_file_keeps_the_hit() {
        let mut v = vfs();
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        v.apply_edit("other.hpp", "#pragma once\nint changed;\n")
            .unwrap();
        let b = cache.parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(b.lookup, CacheLookup::Hit);
    }

    #[test]
    fn defines_partition_the_cache() {
        let v = vfs();
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        let defined = vec![("MODE".to_string(), "2".to_string())];
        let b = cache.parse(&v, &defined, "main.cpp").unwrap();
        assert_eq!(b.lookup, CacheLookup::Miss);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_tus_cache_independently() {
        let mut v = vfs();
        v.add_file("second.cpp", "#include \"other.hpp\"\nint z;\n");
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        cache.parse(&v, &[], "second.cpp").unwrap();
        // Editing other.hpp touches only second.cpp's closure.
        v.apply_edit("other.hpp", "#pragma once\nint changed;\n")
            .unwrap();
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        assert_eq!(
            cache.parse(&v, &[], "second.cpp").unwrap().lookup,
            CacheLookup::Invalidated
        );
    }

    #[test]
    fn concurrent_parses_share_one_cache() {
        // 8 threads × 2 TUs through one &self cache: every thread gets a
        // correct TU, and at the end each TU re-hits.
        let mut v = vfs();
        v.add_file("second.cpp", "#include \"other.hpp\"\nint z;\n");
        let cache = ParseCache::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let v = &v;
                scope.spawn(move || {
                    let path = if t % 2 == 0 { "main.cpp" } else { "second.cpp" };
                    for _ in 0..4 {
                        cache.parse(v, &[], path).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
        assert!(cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        assert!(cache.parse(&v, &[], "second.cpp").unwrap().lookup.is_hit());
    }

    #[test]
    fn disk_manifest_probe_survives_process_restart() {
        let dir =
            std::env::temp_dir().join(format!("yalla-parsecache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open store"));
        let v = vfs();
        let cache = ParseCache::with_store(Some(Arc::clone(&store)));
        let parsed = cache.parse(&v, &[], "main.cpp").unwrap();

        // A fresh cache on the same store (a restarted process): the
        // memory tier is cold, but the disk manifest validates and
        // recovers the closure hash without parsing anything.
        let fresh = ParseCache::with_store(Some(Arc::clone(&store)));
        assert!(fresh.probe(&v, &[], "main.cpp").is_none());
        assert_eq!(
            fresh.probe_disk(&v, &[], "main.cpp"),
            Some(parsed.closure_hash)
        );

        // Editing a file in the closure defeats the manifest; editing an
        // unreached file does not.
        let mut edited = v.clone();
        edited
            .apply_edit("lib.hpp", "#pragma once\nnamespace l { class X; }\n")
            .unwrap();
        assert_eq!(fresh.probe_disk(&edited, &[], "main.cpp"), None);
        let mut unrelated = v.clone();
        unrelated
            .apply_edit("other.hpp", "#pragma once\nint changed;\n")
            .unwrap();
        assert_eq!(
            fresh.probe_disk(&unrelated, &[], "main.cpp"),
            Some(parsed.closure_hash)
        );

        // Without a store, probe_disk is inert.
        assert_eq!(ParseCache::new().probe_disk(&v, &[], "main.cpp"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_budget_suffixes_parse() {
        assert_eq!(parse_mem_budget("1048576"), Ok(1 << 20));
        assert_eq!(parse_mem_budget("512k"), Ok(512 << 10));
        assert_eq!(parse_mem_budget("64M"), Ok(64 << 20));
        assert_eq!(parse_mem_budget(" 2G "), Ok(2 << 30));
        assert_eq!(parse_mem_budget("0"), Ok(0));
        assert!(parse_mem_budget("").is_err());
        assert!(parse_mem_budget("lots").is_err());
        assert!(parse_mem_budget("99999999999G").is_err());
    }

    #[test]
    fn tiny_budget_evicts_lru_and_reparses_correctly() {
        let mut v = vfs();
        for i in 0..6 {
            v.add_file(
                &format!("tu{i}.cpp"),
                format!("#include \"lib.hpp\"\nint t{i};\n"),
            );
        }
        // A budget of one byte: after every insert, everything except the
        // newest entry is evicted.
        let cache = ParseCache::with_budget(None, Some(1));
        for i in 0..6 {
            cache.parse(&v, &[], &format!("tu{i}.cpp")).unwrap();
        }
        assert_eq!(cache.len(), 1, "only the newest TU survives");
        assert!(cache.resident_bytes() > 0);
        // Evicted TUs reparse as misses (not stale invalidations), and the
        // result is identical to the original parse.
        let again = cache.parse(&v, &[], "tu0.cpp").unwrap();
        assert_eq!(again.lookup, CacheLookup::Miss);
        // Unbounded cache on the same inputs agrees on the closure hash.
        let free = ParseCache::with_budget(None, None);
        assert_eq!(
            free.parse(&v, &[], "tu0.cpp").unwrap().closure_hash,
            again.closure_hash
        );
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        let mut v = vfs();
        v.add_file("a.cpp", "#include \"lib.hpp\"\nint a;\n");
        v.add_file("b.cpp", "#include \"lib.hpp\"\nint b;\n");
        // Size the budget from the real estimates: exactly two of these
        // near-identical TUs fit, a third overflows by well under the
        // 64-byte margin's complement.
        let sizer = ParseCache::with_budget(None, None);
        sizer.parse(&v, &[], "a.cpp").unwrap();
        sizer.parse(&v, &[], "b.cpp").unwrap();
        let budget = sizer.resident_bytes() + 64;
        let bounded = ParseCache::with_budget(None, Some(budget));
        bounded.parse(&v, &[], "a.cpp").unwrap();
        bounded.parse(&v, &[], "b.cpp").unwrap();
        // Touch a so b becomes the LRU victim when main.cpp arrives.
        assert!(bounded.probe(&v, &[], "a.cpp").is_some());
        bounded.parse(&v, &[], "main.cpp").unwrap();
        assert!(
            bounded.probe(&v, &[], "a.cpp").is_some(),
            "recently used survives"
        );
        assert!(
            bounded.probe(&v, &[], "b.cpp").is_none(),
            "LRU entry evicted"
        );
    }

    #[test]
    fn evicted_entries_spill_manifests_to_the_store() {
        let dir =
            std::env::temp_dir().join(format!("yalla-parsecache-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).expect("open store"));
        let mut v = vfs();
        for i in 0..4 {
            v.add_file(
                &format!("tu{i}.cpp"),
                format!("#include \"lib.hpp\"\nint t{i};\n"),
            );
        }
        let cache = ParseCache::with_budget(Some(Arc::clone(&store)), Some(1));
        let mut hashes = Vec::new();
        for i in 0..4 {
            hashes.push(
                cache
                    .parse(&v, &[], &format!("tu{i}.cpp"))
                    .unwrap()
                    .closure_hash,
            );
        }
        // Every evicted TU's manifest round-trips: a fresh cache on the
        // same store recovers each closure hash from disk alone.
        let fresh = ParseCache::with_store(Some(store));
        for (i, expect) in hashes.iter().enumerate() {
            assert_eq!(
                fresh.probe_disk(&v, &[], &format!("tu{i}.cpp")),
                Some(*expect),
                "spilled manifest for tu{i}.cpp must validate from disk"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_accounting_balances_on_clear() {
        let v = vfs();
        let before = bytes_resident();
        let cache = ParseCache::new();
        cache.parse(&v, &[], "main.cpp").unwrap();
        assert!(cache.resident_bytes() > 0);
        assert!(bytes_resident() >= before + cache.resident_bytes());
        cache.clear();
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn check_keeps_only_the_closure() {
        let mut v = vfs();
        let cache = ParseCache::new();
        let closure = cache.check(&v, &[], "main.cpp", &[]).unwrap().closure_hash;
        let parsed = ParseCache::new().parse(&v, &[], "main.cpp").unwrap();
        assert_eq!(closure, parsed.closure_hash);
        assert!(cache.probe(&v, &[], "main.cpp").is_none(), "no TU kept");
        assert_eq!(
            cache.check(&v, &[], "main.cpp", &[]).unwrap().closure_hash,
            closure
        );
        // A parse of the same key still gets a TU, and a check then hits it.
        assert!(!cache.parse(&v, &[], "main.cpp").unwrap().lookup.is_hit());
        assert!(cache.probe(&v, &[], "main.cpp").is_some());
        v.add_file("bad.cpp", "int f( {\n");
        assert!(cache.check(&v, &[], "bad.cpp", &[]).is_err());
    }

    #[test]
    fn resumed_versions_count_their_shared_preamble_once() {
        let mut v = vfs();
        let big: String = (0..200).map(|i| format!("int g{i};\n")).collect();
        v.add_file("big.hpp", format!("#pragma once\n{big}"));
        v.add_file("tu.cpp", "#include \"big.hpp\"\nint v0;\n");
        let cache = ParseCache::new();
        cache.parse(&v, &[], "tu.cpp").unwrap();
        let one = cache.resident_bytes();
        for i in 1..VERSIONS_PER_KEY {
            v.apply_edit("tu.cpp", format!("#include \"big.hpp\"\nint v{i};\n"))
                .unwrap();
            assert!(cache.parse(&v, &[], "tu.cpp").unwrap().resumed);
        }
        let all = cache.resident_bytes();
        assert!(all < 2 * one, "{VERSIONS_PER_KEY} versions: {one} -> {all}");
    }

    #[test]
    fn errors_are_not_cached() {
        let mut v = Vfs::new();
        v.add_file("bad.cpp", "#include \"missing.hpp\"\n");
        let cache = ParseCache::new();
        assert!(cache.parse(&v, &[], "bad.cpp").is_err());
        assert!(cache.is_empty());
        // Adding the header makes it parse (a miss, not a stale error).
        v.add_file("missing.hpp", "int ok;\n");
        let ok = cache.parse(&v, &[], "bad.cpp").unwrap();
        assert_eq!(ok.lookup, CacheLookup::Miss);
    }
}
