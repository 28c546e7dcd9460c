//! State shared by the workloads: arguments, the step loop's bookkeeping,
//! report rows, and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use yalla_core::serve::ServeState;
use yalla_core::{Options, SessionRun, SubstitutionResult};
use yalla_cpp::vfs::Vfs;
use yalla_exec::Executor;
use yalla_obs::chrome::escape_json;

use crate::layers::{exec_counters, Replay, SessionStats, EXEC_COUNTERS};
use crate::mem::MemTrack;
use crate::stats;

/// Executor width of every workload (the reference host has 2 cores).
pub const WORKERS: usize = 2;

/// Times repeated to take the median set-up time.
pub const SETUP_REPEATS: usize = 5;

/// End-to-end metrics printed in the result line with `--trace 0`.
pub const GATED: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cold_ms", "ms"),
    ("body_edit_ms", "ms"),
    ("edit_ms", "ms"),
];

/// Per-layer metrics printed in the result line with `--trace 1`.
pub const LAYERS: [(&str, &str); 48] = [
    ("cpp.preprocess_ms", "ms"),
    ("cpp.parse_ms", "ms"),
    ("cpp.tokens", "count"),
    ("cpp.files_entered", "count"),
    ("cpp.probe_ms", "ms"),
    ("cpp.cache_bytes", "bytes"),
    ("analysis.symbols_ms", "ms"),
    ("analysis.symbols", "count"),
    ("analysis.usage_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.emit_ms", "ms"),
    ("core.rewrite_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.verify_user_ms", "ms"),
    ("core.verify_wrappers_ms", "ms"),
    ("core.persist_encode_ms", "ms"),
    ("core.persist_decode_ms", "ms"),
    ("session.parse.hit_ratio", "ratio"),
    ("session.analyze.hit_ratio", "ratio"),
    ("session.plan.hit_ratio", "ratio"),
    ("session.emit.hit_ratio", "ratio"),
    ("session.rewrite.hit_ratio", "ratio"),
    ("session.verify.hit_ratio", "ratio"),
    ("session.parse_ms", "ms"),
    ("session.analyze_ms", "ms"),
    ("session.plan_ms", "ms"),
    ("session.emit_ms", "ms"),
    ("session.rewrite_ms", "ms"),
    ("session.verify_ms", "ms"),
    ("session.files_reparsed", "count"),
    ("session.rewrites_recomputed", "count"),
    ("session.parse_longest_ms", "ms"),
    ("exec.tasks_executed", "count"),
    ("exec.tasks_stolen", "count"),
    ("exec.parks", "count"),
    ("exec.parse_concurrency", "ratio"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes", "bytes"),
    ("store.corrupt", "count"),
    ("serve.edit_ms", "ms"),
    ("serve.rerun_ms", "ms"),
    ("serve.get_ms", "ms"),
    ("serve.cancelled", "count"),
    ("serve.edits_coalesced", "count"),
    ("serve.reruns", "count"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    /// `all` for the workload's own figure, else the subject or project.
    pub scope: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub samples: usize,
}

/// One workload run: its measurements, failures and traced replay.
pub struct Run {
    pub args: Args,
    pub exec: Executor,
    pub dir: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub rows: Vec<Row>,
    pub info: Vec<(String, String)>,
    pub mem: MemTrack,
    pub sessions: SessionStats,
    exec_delta: [i64; 3],
    pub replay: Option<Replay>,
    /// Wall time of the timed operations and of the traced replay, ms.
    pub timed_ms: f64,
    pub replay_ms: f64,
    pub next_edit: u64,
    /// Extra per-layer values (`store.*`, `serve.*` counters, `cpp.cache_bytes`).
    pub layer_values: BTreeMap<String, Vec<f64>>,
}

impl Run {
    pub fn new(args: Args, dir: PathBuf) -> std::io::Result<Run> {
        let replay = if args.trace {
            Some(Replay::new(&dir)?)
        } else {
            None
        };
        Ok(Run {
            args,
            exec: Executor::new(WORKERS),
            dir,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rows: Vec::new(),
            info: Vec::new(),
            mem: MemTrack::default(),
            sessions: SessionStats::default(),
            exec_delta: [0; 3],
            replay,
            timed_ms: 0.0,
            replay_ms: 0.0,
            next_edit: 0,
            layer_values: BTreeMap::new(),
        })
    }

    /// Counts one attempted operation that failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn row(
        &mut self,
        name: &str,
        scope: &str,
        value: Option<f64>,
        unit: &'static str,
        samples: usize,
    ) {
        self.rows.push(Row {
            name: name.to_string(),
            scope: scope.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Median row over `values`.
    pub fn median_row(&mut self, name: &str, scope: &str, values: &[f64], unit: &'static str) {
        self.row(name, scope, stats::median(values), unit, values.len());
    }

    /// p90 row over `values`, withheld unless ten samples lie beyond.
    pub fn p90_row(&mut self, name: &str, scope: &str, values: &[f64], unit: &'static str) {
        self.row(name, scope, stats::tail(values, 0.9), unit, values.len());
    }

    pub fn layer_value(&mut self, name: &str, value: f64) {
        self.layer_values
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Starts a step: assigns its edit id (stamped on its spans).
    pub fn begin_step(&mut self) -> u64 {
        self.next_edit += 1;
        if let Some(r) = &mut self.replay {
            r.log.set_edit(self.next_edit);
        }
        self.next_edit
    }

    /// Times one session rerun as a step of the stream: checks it
    /// succeeded with passing verification, samples memory, and (when
    /// `stream`) adds it to the session and executor statistics. Returns
    /// the run and its wall time in ms.
    pub fn timed_rerun(
        &mut self,
        session: &mut yalla_core::Session,
        label: &str,
        stream: bool,
    ) -> Option<(SessionRun, f64)> {
        let before = exec_counters();
        let exec = self.exec.clone();
        let (run, ms) = match &mut self.replay {
            Some(r) => r.log.time("session.rerun", |_| session.rerun_on(&exec)),
            None => {
                let t = Instant::now();
                let run = session.rerun_on(&exec);
                (run, t.elapsed().as_secs_f64() * 1e3)
            }
        };
        let after = exec_counters();
        self.timed_ms += ms;
        self.mem.after_rerun();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                self.check(false, || format!("{label}: rerun failed: {e}"));
                return None;
            }
        };
        let passed = run.result.report.verification.passed();
        self.check(passed, || format!("{label}: verification failed"));
        if stream {
            self.sessions.add(&run, ms);
            self.add_exec_delta(before, after);
        }
        if self.args.trace {
            let own = self.replay.as_ref().map_or(0, Replay::own_cache_bytes);
            let resident = yalla_cpp::cache::bytes_resident().saturating_sub(own);
            self.layer_value("cpp.cache_bytes", resident as f64);
        }
        Some((run, ms))
    }

    /// The traced run's side daemon for `project` (`None` untraced, or
    /// counted as a failure when it cannot open).
    pub fn side_daemon(&mut self, project: &str, vfs: &Vfs, opts: &Options) -> Option<ServeSide> {
        if !self.args.trace {
            return None;
        }
        match ServeSide::open(self.exec.clone(), project, vfs, opts) {
            Ok(side) => Some(side),
            Err(e) => {
                self.check(false, || format!("{project}: side daemon: {e}"));
                None
            }
        }
    }

    /// Ends a stream: the warm artifacts must equal a cold engine run over
    /// the final tree, and the side daemon's counters are read.
    pub fn finish_stream(
        &mut self,
        scope: &str,
        warm: Option<&SubstitutionResult>,
        opts: &Options,
        vfs: &Vfs,
        side: Option<&ServeSide>,
    ) {
        let cold = yalla_core::Engine::new(opts.clone()).run(vfs);
        let bad = match (warm, &cold) {
            (Some(warm), Ok(cold)) => artifacts_differ(warm, cold)
                .map(|what| format!("{scope}: warm {what} differs from a cold run")),
            (None, _) => Some(format!("{scope}: no stream rerun completed")),
            (_, Err(e)) => Some(format!("{scope}: cold oracle run failed: {e}")),
        };
        self.check(bad.is_none(), || bad.clone().unwrap_or_default());
        if let Some(side) = side {
            match side.counters() {
                Ok(c) => record_serve_counters(self, &c),
                Err(e) => self.check(false, || format!("{scope}: side daemon metrics: {e}")),
            }
        }
    }

    /// Checks a cold run against the first cold run of its scope: their
    /// artifacts must be byte-equal. The first is kept and, in a traced
    /// run, replayed through the layers; later ones have the same input.
    pub fn cold_result(
        &mut self,
        label: &str,
        input: (&Vfs, &Options),
        result: SubstitutionResult,
        first: &mut Option<SubstitutionResult>,
        side: Option<&ServeSide>,
    ) {
        match first {
            Some(first) => {
                let bad = artifacts_differ(&result, first);
                self.check(bad.is_none(), || {
                    format!(
                        "{label}: {} differs from the first cold run",
                        bad.unwrap_or_default()
                    )
                });
            }
            None => {
                let (vfs, opts) = input;
                self.replay_step(label, vfs, opts, &result, side.map(|s| (s, &[][..])));
                *first = Some(result);
            }
        }
    }

    /// Adds executor counter deltas taken around one timed rerun.
    pub fn add_exec_delta(&mut self, before: [i64; 3], after: [i64; 3]) {
        for i in 0..3 {
            self.exec_delta[i] += after[i] - before[i];
        }
    }

    /// Traced runs only: replays the step's input through the layers,
    /// then through the side daemon when one is given. Adds the replay's
    /// wall time to the step.
    pub fn replay_step(
        &mut self,
        label: &str,
        vfs: &Vfs,
        opts: &Options,
        result: &SubstitutionResult,
        side: Option<(&ServeSide, &[(String, String)])>,
    ) {
        let Some(replay) = &mut self.replay else {
            return;
        };
        let t = Instant::now();
        let mut errors = Vec::new();
        if let Err(e) = replay.layers(vfs, opts, result) {
            errors.push(e);
        }
        if let Some((serve, edits)) = side {
            if let Err(e) = serve.step(&mut replay.log, edits) {
                errors.push(e);
            }
        }
        self.replay_ms += t.elapsed().as_secs_f64() * 1e3;
        for e in errors {
            self.check(false, || format!("{label}: {e}"));
        }
    }

    /// Per-layer metrics of a traced run, by name.
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some(replay) = &self.replay else {
            return out;
        };
        // Per-step totals per span name, medians over steps.
        let mut per_step: BTreeMap<&str, BTreeMap<u64, f64>> = BTreeMap::new();
        for s in replay.log.spans() {
            *per_step
                .entry(s.name)
                .or_default()
                .entry(s.edit)
                .or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        for (name, steps) in per_step {
            let v: Vec<f64> = steps.into_values().collect();
            out.insert(format!("{name}_ms"), stats::median(&v).unwrap_or(0.0));
        }
        for (name, v) in &replay.counts {
            out.insert(name.to_string(), stats::median(v).unwrap_or(0.0));
        }
        for (name, v) in &self.layer_values {
            out.insert(name.clone(), stats::median(v).unwrap_or(0.0));
        }
        for (name, value, _) in self.sessions.metrics() {
            out.entry(name).or_insert(value);
        }
        let n = self.sessions.reruns.max(1) as f64;
        for (i, name) in EXEC_COUNTERS.iter().enumerate() {
            out.insert(name.to_string(), self.exec_delta[i] as f64 / n);
        }
        let overhead = if self.timed_ms > 0.0 {
            100.0 * self.replay_ms / self.timed_ms
        } else {
            0.0
        };
        out.insert("trace.overhead_pct".into(), overhead);
        out
    }

    /// The `metrics` object of the result line.
    pub fn result_metrics(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        if self.args.trace {
            let values = self.layer_metrics();
            for (name, unit) in LAYERS {
                let v = values
                    .get(name)
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
                fields.push(metric_json(name, *v, unit));
            }
        } else {
            for (name, unit) in GATED {
                let v = self
                    .rows
                    .iter()
                    .find(|r| r.name == name && r.scope == "all")
                    .and_then(|r| r.value)
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
                fields.push(metric_json(name, v, unit));
            }
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }

    /// Human-readable report: envelope, rows, and (traced) the layer
    /// table.
    pub fn print_report(&self) {
        println!(
            "# workload {} seed {} seconds {} trace {}",
            self.args.workload,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace)
        );
        for (k, v) in &self.info {
            println!("# {k}: {v}");
        }
        println!(
            "{:<24} {:<14} {:>14} {:<6} {:>8}",
            "metric", "scope", "value", "unit", "samples"
        );
        for r in &self.rows {
            let value = r.value.map_or("n/a".to_string(), |v| format!("{v:.3}"));
            println!(
                "{:<24} {:<14} {:>14} {:<6} {:>8}",
                r.name, r.scope, value, r.unit, r.samples
            );
        }
        if let Some(replay) = &self.replay {
            println!(
                "# layer self time (ms, summed over {} steps)",
                self.next_edit
            );
            for (name, (ms, n)) in replay.log.self_times() {
                println!("{name:<28} {ms:>12.3} {n:>8} spans");
            }
            let values = self.layer_metrics();
            println!("# per-layer metrics");
            for (name, unit) in LAYERS {
                let v = values
                    .get(name)
                    .map_or("n/a".to_string(), |v| format!("{v:.4}"));
                println!("{name:<28} {v:>14} {unit}");
            }
        }
        println!("# attempted {} failed {}", self.attempted, self.failed);
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// A daemon state of the replay's own, driven in-process through
/// `ServeState::handle_line` so the serve layer's own cost is traced on
/// workloads that do not use the daemon.
pub struct ServeSide {
    state: ServeState,
    project: String,
}

impl ServeSide {
    pub fn open(
        exec: Executor,
        project: &str,
        vfs: &Vfs,
        opts: &Options,
    ) -> Result<ServeSide, String> {
        let state = ServeState::with_store(exec, None);
        let line = open_request(project, vfs, opts);
        let side = ServeSide {
            state,
            project: project.to_string(),
        };
        side.request(&line)?;
        Ok(side)
    }

    fn request(&self, line: &str) -> Result<yalla_obs::json::JsonValue, String> {
        let resp = self.state.handle_line(line);
        let v = yalla_obs::json::parse(&resp.text).map_err(|e| format!("serve response: {e}"))?;
        match v.get("ok") {
            Some(yalla_obs::json::JsonValue::Bool(true)) => Ok(v),
            _ => Err(format!("serve request failed: {}", resp.text)),
        }
    }

    /// Queues `edits`, reruns and reads the lightweight header, one span
    /// per request.
    pub fn step(
        &self,
        log: &mut crate::spans::SpanLog,
        edits: &[(String, String)],
    ) -> Result<(), String> {
        for (path, text) in edits {
            let line = edit_request(&self.project, path, text);
            log.time("serve.edit", |_| self.request(&line)).0?;
        }
        let rerun = format!("{{\"op\": \"rerun\", \"project\": \"{}\"}}", self.project);
        log.time("serve.rerun", |_| self.request(&rerun)).0?;
        let get = get_request(&self.project, "lightweight");
        log.time("serve.get", |_| self.request(&get)).0?;
        Ok(())
    }

    /// The daemon's own counters, from its `metrics` op.
    pub fn counters(&self) -> Result<BTreeMap<String, f64>, String> {
        let v = self.request("{\"op\": \"metrics\"}")?;
        Ok(parse_prometheus(
            v.get("text").and_then(|t| t.as_str()).unwrap_or(""),
        ))
    }
}

pub fn open_request(project: &str, vfs: &Vfs, opts: &Options) -> String {
    let files: Vec<String> = vfs
        .iter()
        .map(|(id, _)| {
            format!(
                "\"{}\": \"{}\"",
                escape_json(vfs.path(id)),
                escape_json(vfs.text(id))
            )
        })
        .collect();
    let sources: Vec<String> = opts
        .sources
        .iter()
        .map(|s| format!("\"{}\"", escape_json(s)))
        .collect();
    format!(
        "{{\"op\": \"open\", \"project\": \"{}\", \"header\": \"{}\", \"sources\": [{}], \"files\": {{{}}}}}",
        escape_json(project),
        escape_json(&opts.header),
        sources.join(", "),
        files.join(", ")
    )
}

pub fn edit_request(project: &str, path: &str, text: &str) -> String {
    format!(
        "{{\"op\": \"edit\", \"project\": \"{}\", \"path\": \"{}\", \"text\": \"{}\"}}",
        escape_json(project),
        escape_json(path),
        escape_json(text)
    )
}

pub fn get_request(project: &str, artifact: &str) -> String {
    format!(
        "{{\"op\": \"get\", \"project\": \"{}\", \"artifact\": \"{}\"}}",
        escape_json(project),
        escape_json(artifact)
    )
}

/// `yalla_<name> <value>` lines of a Prometheus text scrape, keyed by the
/// dotted metric name (`yalla_serve_cancelled` -> `serve.cancelled` is
/// not reversible, so keys stay in exposition form).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Sets the daemon counters the serve layer metrics read. The counters
/// are process totals, so the latest scrape replaces earlier ones.
pub fn record_serve_counters(run: &mut Run, counters: &BTreeMap<String, f64>) {
    for (metric, key) in [
        ("serve.cancelled", "yalla_serve_cancelled"),
        ("serve.edits_coalesced", "yalla_serve_edits_coalesced"),
        ("serve.reruns", "yalla_serve_reruns"),
    ] {
        let value = counters.get(key).copied().unwrap_or(0.0);
        run.layer_values.insert(metric.to_string(), vec![value]);
    }
}

/// Adds the session store's statistics (zeros without a store).
pub fn record_store_stats(run: &mut Run, store: Option<&yalla_store::Store>) {
    let s = store.map(|s| s.stats()).unwrap_or_default();
    let lookups = s.hits + s.misses;
    run.layer_value(
        "store.hit_ratio",
        if lookups > 0 {
            s.hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    run.layer_value("store.bytes", s.bytes as f64);
    run.layer_value("store.corrupt", s.corrupt as f64);
    run.info.push((
        "store".into(),
        format!(
            "{} hits / {} lookups, {} bytes, {} corrupt",
            s.hits, lookups, s.bytes, s.corrupt
        ),
    ));
}

/// The current text of `path` in the session's tree.
pub fn current_text(session: &yalla_core::Session, path: &str) -> String {
    let vfs = session.vfs();
    vfs.text(vfs.lookup(path).expect("edited files exist"))
        .to_string()
}

/// Compares a warm result with a cold one; `None` when byte-equal.
fn artifacts_differ(warm: &SubstitutionResult, cold: &SubstitutionResult) -> Option<&'static str> {
    if warm.lightweight_header != cold.lightweight_header {
        Some("lightweight header")
    } else if warm.wrappers_file != cold.wrappers_file {
        Some("wrappers file")
    } else if warm.rewritten_sources != cold.rewritten_sources {
        Some("rewritten sources")
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_obs::json::JsonValue;

    /// `BENCHMARK.json` lists exactly the metrics the result line prints.
    #[test]
    fn benchmark_json_matches_the_result_line() {
        let text = include_str!("../../BENCHMARK.json");
        let json = yalla_obs::json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |metrics: &[(&str, &str)]| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(&GATED));
        assert_eq!(list("per_layer"), own(&LAYERS));
    }

    #[test]
    fn prometheus_lines_parse() {
        let text = "# TYPE yalla_serve_cancelled counter\nyalla_serve_cancelled 3\nyalla_x{quantile=\"0.5\"} 1.5\n";
        let m = parse_prometheus(text);
        assert_eq!(m["yalla_serve_cancelled"], 3.0);
        assert_eq!(m["yalla_x{quantile=\"0.5\"}"], 1.5);
    }
}
