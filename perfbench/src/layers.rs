//! The traced replay: after each timed step, the step's input is pushed
//! through each layer's public functions from here, one benchmark-side
//! span per call, so per-layer cost is attributed to the crate that owns
//! it (`yalla-cpp`, `yalla-analysis`, `yalla-core`, `yalla-store`).
//!
//! The replay mirrors the session's stage implementations: preprocess and
//! parse every TU root, build each root's symbol table and collect its
//! usage, plan, emit, rewrite every source against its owning root, and
//! verify the user TU and the wrappers TU separately, exactly as
//! `yalla_core::verify::verify` does. Its artifacts must equal the timed
//! step's, which doubles as a cross-check of the incremental result.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;

use yalla_analysis::{check_incomplete_rules, SymbolKind, SymbolTable, UsageReport};
use yalla_core::{emit, persist, rewrite, Options, Plan, SessionRun, Stage, SubstitutionResult};
use yalla_cpp::loc::FileId;
use yalla_cpp::vfs::Vfs;
use yalla_cpp::{Frontend, ParseCache};
use yalla_store::Store;

use crate::spans::SpanLog;

/// Replay-side state kept across steps.
#[derive(Debug)]
pub struct Replay {
    pub log: SpanLog,
    /// A parse cache of the replay's own, for timing `ParseCache::probe`
    /// on an unchanged tree.
    probe_cache: ParseCache,
    /// A store of the replay's own, for timing `Store::put`/`get` of the
    /// run bundle without touching the measured session's store.
    store: Store,
    /// Per-step counts (`cpp.tokens`, `cpp.files_entered`, `analysis.symbols`).
    pub counts: BTreeMap<&'static str, Vec<f64>>,
    next_key: u64,
}

impl Replay {
    pub fn new(dir: &Path) -> std::io::Result<Replay> {
        Ok(Replay {
            log: SpanLog::new(),
            probe_cache: ParseCache::new(),
            store: Store::open(dir.join("replay-store"))?,
            counts: BTreeMap::new(),
            next_key: 1,
        })
    }

    /// Bytes the replay's own parse cache holds (excluded from the
    /// session's `cpp.cache_bytes`).
    pub fn own_cache_bytes(&self) -> u64 {
        self.probe_cache.resident_bytes()
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Replays one step's input (`vfs`, `opts`) through the layers and
    /// checks the replayed artifacts against `expected`, the timed step's
    /// result.
    pub fn layers(
        &mut self,
        vfs: &Vfs,
        opts: &Options,
        expected: &SubstitutionResult,
    ) -> Result<(), String> {
        let roots = opts.parse_roots();
        let mut tus = Vec::with_capacity(roots.len());
        let (mut tokens, mut files) = (0usize, 0usize);
        for root in &roots {
            let (pp, _) = self.log.time("cpp.preprocess", |_| {
                let mut pp = yalla_cpp::pp::Preprocessor::new(vfs);
                for (k, v) in &opts.defines {
                    pp.define(k, v);
                }
                pp.run(root)
            });
            let pp = pp.map_err(|e| format!("preprocess {root}: {e}"))?;
            tokens += pp.tokens.len();
            files += pp.stats.files_entered.len();
            let (ast, _) = self
                .log
                .time("cpp.parse", |_| yalla_cpp::parse::parse_tokens(pp.tokens));
            let ast = ast.map_err(|e| format!("parse {root}: {e}"))?;
            tus.push((ast, pp.stats));
        }
        self.count("cpp.tokens", tokens as f64);
        self.count("cpp.files_entered", files as f64);

        let header = vfs
            .resolve_include(&opts.header, None, false)
            .map_err(|e| format!("header {}: {e}", opts.header))?;
        let source_files: HashSet<FileId> =
            opts.sources.iter().filter_map(|s| vfs.lookup(s)).collect();
        // The primary root anchors the table; other roots that include
        // the header contribute their usage (as the analyze stage does).
        let users: Vec<usize> = (0..tus.len())
            .filter(|&i| i == 0 || tus[i].1.headers.contains(&header))
            .collect();
        let (tables, _) = self.log.time("analysis.symbols", |_| {
            users
                .iter()
                .map(|&i| SymbolTable::build(&tus[i].0))
                .collect::<Vec<_>>()
        });
        self.count("analysis.symbols", tables[0].len() as f64);
        let (usage, _) = self.log.time("analysis.usage", |_| {
            let mut usage: Option<UsageReport> = None;
            for (&i, table) in users.iter().zip(&tables) {
                let targets = reachable_from(header, &tus[i].1.include_edges);
                let report = UsageReport::collect(&tus[i].0, table, &targets, &source_files);
                match &mut usage {
                    None => usage = Some(report),
                    Some(u) => u.merge_from(report),
                }
            }
            usage.expect("the primary root is always a user")
        });
        let (plan, _) = self
            .log
            .time("core.plan", |_| Plan::build(&usage, &tables[0]));
        let ((lightweight, wrappers), _) = self.log.time("core.emit", |_| {
            (
                emit::lightweight_header(&plan, &opts.header),
                emit::wrappers_file(&plan, &opts.header, &opts.lightweight_name),
            )
        });
        let (rewritten, _) = self.log.time("core.rewrite", |_| {
            opts.sources
                .iter()
                .map(|source| {
                    let owner = roots.iter().position(|r| r == source).unwrap_or(0);
                    let id = vfs.lookup(source).expect("sources exist");
                    let decls: Vec<_> = tus[owner].0.decls.iter().collect();
                    let mut tr = rewrite::Transformer::new(&plan, &tables[0]);
                    let text = rewrite::rewrite_file(
                        id,
                        vfs.text(id),
                        &opts.header,
                        &opts.lightweight_name,
                        &decls,
                        &mut tr,
                    );
                    (source.clone(), text)
                })
                .collect::<BTreeMap<String, String>>()
        });
        let main = opts.sources.first().expect("sources given").clone();
        let (passed, _) = self.log.time("core.verify", |log| {
            let (user_ok, _) = log.time("core.verify_user", |_| {
                let mut user_vfs = vfs.clone();
                for (path, text) in &rewritten {
                    user_vfs.add_file(path, text.clone());
                }
                user_vfs.add_file(&opts.lightweight_name, lightweight.clone());
                match Frontend::new(user_vfs).parse_translation_unit(&main) {
                    Ok(tu) => {
                        let table = SymbolTable::build(&tu.ast);
                        let incomplete: HashSet<String> = table
                            .iter()
                            .filter_map(|s| match &s.kind {
                                SymbolKind::Class(c) if !c.is_definition => Some(s.key.clone()),
                                _ => None,
                            })
                            .collect();
                        check_incomplete_rules(&tu.ast, &incomplete, &table).is_empty()
                    }
                    Err(_) => false,
                }
            });
            let (wrappers_ok, _) = log.time("core.verify_wrappers", |_| {
                let mut wrap_vfs = vfs.clone();
                wrap_vfs.add_file(&opts.lightweight_name, lightweight.clone());
                wrap_vfs.add_file(&opts.wrappers_name, wrappers.clone());
                Frontend::new(wrap_vfs)
                    .parse_translation_unit(&opts.wrappers_name)
                    .is_ok()
            });
            user_ok && wrappers_ok
        });

        let (bytes, _) = self
            .log
            .time("core.persist_encode", |_| persist::encode_run(expected));
        let bytes = bytes.ok_or("persist::encode_run produced no bundle")?;
        let (decoded, _) = self
            .log
            .time("core.persist_decode", |_| persist::decode_run(&bytes));
        let key = self.next_key;
        self.next_key += 1;
        let store = &self.store;
        self.log
            .time("store.put", |_| store.put(yalla_store::NS_RUN, key, &bytes));
        let (fetched, _) = self
            .log
            .time("store.get", |_| store.get(yalla_store::NS_RUN, key));

        let cache = &self.probe_cache;
        for root in &roots {
            // Warm the replay cache (a hit when the root is unchanged since
            // the last step), then time the probe of the unchanged tree.
            let (parsed, _) = self
                .log
                .time("cpp.cache_parse", |_| cache.parse(vfs, &opts.defines, root));
            parsed.map_err(|e| format!("cache parse {root}: {e}"))?;
            self.log
                .time("cpp.probe", |_| cache.probe(vfs, &opts.defines, root));
        }

        let mut wrong = Vec::new();
        if !passed {
            wrong.push("verification");
        }
        if lightweight != expected.lightweight_header {
            wrong.push("lightweight header");
        }
        if wrappers != expected.wrappers_file {
            wrong.push("wrappers file");
        }
        if rewritten != expected.rewritten_sources {
            wrong.push("rewritten sources");
        }
        if decoded.is_none_or(|d| d.lightweight_header != expected.lightweight_header) {
            wrong.push("persisted bundle");
        }
        if fetched.as_deref() != Some(bytes.as_slice()) {
            wrong.push("store round trip");
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "replay differs from the timed step: {}",
                wrong.join(", ")
            ))
        }
    }
}

/// Files reachable from `root` in the include graph (including `root`).
fn reachable_from(root: FileId, edges: &[(FileId, FileId)]) -> HashSet<FileId> {
    let mut reach = HashSet::new();
    let mut stack = vec![root];
    while let Some(f) = stack.pop() {
        if reach.insert(f) {
            stack.extend(
                edges
                    .iter()
                    .filter(|(from, _)| *from == f)
                    .map(|(_, to)| *to),
            );
        }
    }
    reach
}

/// The six pipeline stages, in order.
pub const STAGES: [Stage; 6] = [
    Stage::Parse,
    Stage::Analyze,
    Stage::Plan,
    Stage::Emit,
    Stage::Rewrite,
    Stage::Verify,
];

/// Session-layer counts over a stream's reruns, from the public
/// [`SessionRun`].
#[derive(Debug, Default)]
pub struct SessionStats {
    pub reruns: u64,
    hits: [u64; 6],
    stage_ms: [f64; 6],
    files_reparsed: u64,
    rewrites_recomputed: u64,
    parse_longest_ms: f64,
    parse_work_ms: f64,
    wall_ms: f64,
}

impl SessionStats {
    pub fn add(&mut self, run: &SessionRun, wall_ms: f64) {
        self.reruns += 1;
        for (i, stage) in STAGES.iter().enumerate() {
            let outcome = run
                .stages
                .iter()
                .find(|s| s.stage == *stage)
                .expect("every stage is reported");
            self.hits[i] += u64::from(outcome.lookup.is_hit());
            self.stage_ms[i] += outcome.duration.as_secs_f64() * 1e3;
        }
        self.files_reparsed += run.files_reparsed as u64;
        self.rewrites_recomputed += run.rewrites_recomputed as u64;
        self.parse_longest_ms += run.parse_longest.as_secs_f64() * 1e3;
        self.parse_work_ms += run.stages[0].duration.as_secs_f64() * 1e3;
        self.wall_ms += wall_ms;
    }

    /// `(name, value, unit)` per session metric: hit ratios over
    /// `reruns`, the rest as means per rerun; plus the measured parse
    /// concurrency (summed parse work over summed rerun wall time).
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let n = self.reruns.max(1) as f64;
        let mut out = Vec::new();
        for (i, stage) in STAGES.iter().enumerate() {
            out.push((
                format!("session.{}.hit_ratio", stage.label()),
                self.hits[i] as f64 / n,
                "ratio",
            ));
            out.push((
                format!("session.{}_ms", stage.label()),
                self.stage_ms[i] / n,
                "ms",
            ));
        }
        out.push((
            "session.files_reparsed".into(),
            self.files_reparsed as f64 / n,
            "count",
        ));
        out.push((
            "session.rewrites_recomputed".into(),
            self.rewrites_recomputed as f64 / n,
            "count",
        ));
        out.push((
            "session.parse_longest_ms".into(),
            self.parse_longest_ms / n,
            "ms",
        ));
        out.push((
            "exec.parse_concurrency".into(),
            if self.wall_ms > 0.0 {
                self.parse_work_ms / self.wall_ms
            } else {
                0.0
            },
            "ratio",
        ));
        out
    }
}

/// Executor counters (`yalla_obs` aggregates them with tracing off).
pub const EXEC_COUNTERS: [&str; 3] = ["exec.tasks_executed", "exec.tasks_stolen", "exec.parks"];

/// Current totals of [`EXEC_COUNTERS`].
pub fn exec_counters() -> [i64; 3] {
    EXEC_COUNTERS.map(|name| yalla_obs::global().metrics().counter(name).get())
}
