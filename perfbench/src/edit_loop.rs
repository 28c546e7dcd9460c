//! `edit-loop`: one large TU per subject, in-process `Session` without a
//! store. Per subject: fresh cold runs, then one closed-loop seeded
//! stream of body edits, no-op reruns and header-closure edits on one
//! session that is never reset.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use yalla_core::{Options, Session};
use yalla_corpus::all_subjects;
use yalla_cpp::vfs::Vfs;

use crate::common::{current_text, record_store_stats, Run, SETUP_REPEATS};
use crate::stats;
use crate::stream::{body_comment_edit, trailing_comment_edit, Kind, Rng, Schedule};

/// Corpus subjects: Asio `chat_server` (2,112 files), Kokkos `02` (584
/// files) and RapidJSON `capitalize` (386 files), largest first so the
/// process's peak memory is set on a fresh heap.
const SUBJECTS: [&str; 3] = ["chat_server", "02", "capitalize"];

/// Fresh sessions run cold and dropped before the stream's session
/// (whose first rerun is one more cold sample).
const EXTRA_COLD: usize = 2;

/// More fresh sessions run cold after the stream, once its session is
/// dropped, so a subject's cold samples come from two windows of its
/// share of the run.
const END_COLD: usize = 3;

/// Whole rounds every subject's stream runs, even past its time share,
/// so each edit kind has samples on slow subjects too.
const MIN_ROUNDS: usize = 3;

/// Kind mix of one round of the stream.
const MIX: [Kind; 5] = [Kind::Body, Kind::Body, Kind::Noop, Kind::Header, Kind::Noop];

/// One subject's generated inputs.
struct Input {
    name: &'static str,
    vfs: Vfs,
    opts: Options,
    main: String,
    /// Files of the substituted header's include closure, sorted.
    closure: Vec<String>,
}

fn setup() -> Result<Vec<Input>, String> {
    let all = all_subjects();
    SUBJECTS
        .iter()
        .map(|&name| {
            let s = all
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown subject {name}"))?;
            let opts = Options {
                header: s.header.clone(),
                sources: s.sources.clone(),
                ..Options::default()
            };
            // The header's include closure, as the preprocessor enters it.
            let pp = yalla_cpp::pp::Preprocessor::new(&s.vfs)
                .run(&s.main_source)
                .map_err(|e| format!("{name}: preprocess: {e}"))?;
            let header = s
                .vfs
                .resolve_include(&s.header, None, false)
                .map_err(|e| format!("{name}: header: {e}"))?;
            let mut reach = HashSet::new();
            let mut stack = vec![header];
            while let Some(f) = stack.pop() {
                if reach.insert(f) {
                    stack.extend(
                        pp.stats
                            .include_edges
                            .iter()
                            .filter(|e| e.0 == f)
                            .map(|e| e.1),
                    );
                }
            }
            let mut closure: Vec<String> =
                reach.iter().map(|&f| s.vfs.path(f).to_string()).collect();
            closure.retain(|p| !s.sources.contains(p));
            closure.sort();
            let main_text = s
                .vfs
                .text(s.vfs.lookup(&s.main_source).ok_or("main source missing")?);
            body_comment_edit(main_text, 0)
                .ok_or_else(|| format!("{name}: no function body to edit"))?;
            Ok(Input {
                name,
                vfs: s.vfs.clone(),
                opts,
                main: s.main_source.clone(),
                closure,
            })
        })
        .collect()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    // Set-up runs SETUP_REPEATS times: twice here, then once after each
    // subject, so its samples are spread over the run.
    let up_front = SETUP_REPEATS - SUBJECTS.len();
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..up_front {
        let t = Instant::now();
        let next = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        inputs = next;
    }

    let mut rng = Rng::new(run.args.seed);
    let budget = Duration::from_secs_f64(run.args.seconds / SUBJECTS.len() as f64);
    let mut per_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut edit_medians = Vec::new();
    let mut stream_log = Vec::new();
    for input in inputs {
        let subject_rng = rng.fork();
        let medians = subject(run, &input, subject_rng, budget, &mut stream_log);
        let t = Instant::now();
        let again = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        drop(again);
        for (kind, m) in medians {
            per_kind.entry(kind).or_default().push(m);
            if kind == "body_edit_ms" || kind == "header_edit_ms" {
                edit_medians.push(m);
            }
        }
    }
    run.median_row("setup_s", "all", &setups, "s");
    for name in ["cold_ms", "noop_ms", "body_edit_ms", "header_edit_ms"] {
        let medians = per_kind.get(name).cloned().unwrap_or_default();
        let value = (medians.len() == SUBJECTS.len())
            .then(|| stats::geomean(&medians))
            .flatten();
        run.row(name, "all", value, "ms", medians.len());
    }
    let value = (edit_medians.len() == 2 * SUBJECTS.len())
        .then(|| stats::geomean(&edit_medians))
        .flatten();
    run.row("edit_ms", "all", value, "ms", edit_medians.len());
    let growth = run.mem.growth();
    run.row(
        "rss_growth_mb",
        "all",
        stats::mean(&growth),
        "MB",
        growth.len(),
    );
    run.info.push((
        "stream_hash".into(),
        format!(
            "{:016x}",
            yalla_store::fnv64(stream_log.join("\n").as_bytes())
        ),
    ));
    record_store_stats(run, None);
    Ok(())
}

/// Runs one subject's cold runs and stream; returns `(metric, median)`
/// per measured kind.
fn subject(
    run: &mut Run,
    input: &Input,
    mut rng: Rng,
    budget: Duration,
    stream_log: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let start = Instant::now();
    let name = input.name;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let side = run.side_daemon(name, &input.vfs, &input.opts);

    // Cold runs; the first is held to the checked-in goldens.
    let mut session = None;
    let mut first_cold = None;
    for c in 0..=EXTRA_COLD {
        run.begin_step();
        let mut fresh = Session::with_store(input.opts.clone(), input.vfs.clone(), None);
        let label = format!("{name} cold {c}");
        if let Some((res, ms)) = run.timed_rerun(&mut fresh, &label, false) {
            samples.entry("cold_ms").or_default().push(ms);
            if c == 0 {
                check_goldens(run, name, &res.result);
            }
            run.cold_result(
                &label,
                (&input.vfs, &input.opts),
                res.result,
                &mut first_cold,
                side.as_ref(),
            );
        }
        session = Some(fresh);
    }
    let mut session = session.expect("at least one cold run");
    run.mem.after_cold();

    let mut schedule = Schedule::new(rng.fork(), &MIX);
    let mut last = None;
    // The traced run replays every step, so one round is its floor.
    let min_steps = if run.args.trace {
        MIX.len()
    } else {
        MIN_ROUNDS * MIX.len()
    };
    let mut steps = 0;
    while start.elapsed() < budget || steps < min_steps {
        steps += 1;
        let kind = schedule.next_kind();
        let id = run.begin_step();
        let value = rng.next_u64() % 1_000_000;
        let edit = match kind {
            Kind::Body => {
                let text = current_text(&session, &input.main);
                Some((
                    input.main.clone(),
                    body_comment_edit(&text, value).expect("checked in setup"),
                ))
            }
            Kind::Header => {
                let path = input.closure[rng.below(input.closure.len())].clone();
                let text = trailing_comment_edit(&current_text(&session, &path), value);
                Some((path, text))
            }
            _ => None,
        };
        // The hashed prefix is the part every run executes, so equal
        // seeds print equal stream hashes whatever the host speed.
        if steps <= MIX.len() {
            stream_log.push(format!(
                "{name} {id} {} {} {value}",
                kind.label(),
                edit.as_ref().map_or("-", |e| e.0.as_str())
            ));
        }
        let label = format!("{name} step {id} ({})", kind.label());
        if let Some((path, text)) = &edit {
            if let Err(e) = session.apply_edit(path, text.clone()) {
                run.check(false, || format!("{label}: {e}"));
                continue;
            }
        }
        let Some((res, ms)) = run.timed_rerun(&mut session, &label, true) else {
            continue;
        };
        let metric = match kind {
            Kind::Body => "body_edit_ms",
            Kind::Header => "header_edit_ms",
            _ => "noop_ms",
        };
        samples.entry(metric).or_default().push(ms);
        let edits: Vec<(String, String)> = edit.into_iter().collect();
        run.replay_step(
            &label,
            session.vfs(),
            &input.opts,
            &res.result,
            side.as_ref().map(|s| (s, edits.as_slice())),
        );
        last = Some(res.result);
    }

    run.finish_stream(
        name,
        last.as_ref(),
        &input.opts,
        session.vfs(),
        side.as_ref(),
    );
    run.mem.end_stream();
    drop(session);

    // Cold runs after the stream.
    for c in EXTRA_COLD + 1..=EXTRA_COLD + END_COLD {
        run.begin_step();
        let mut fresh = Session::with_store(input.opts.clone(), input.vfs.clone(), None);
        let label = format!("{name} cold {c}");
        if let Some((res, ms)) = run.timed_rerun(&mut fresh, &label, false) {
            samples.entry("cold_ms").or_default().push(ms);
            run.cold_result(
                &label,
                (&input.vfs, &input.opts),
                res.result,
                &mut first_cold,
                None,
            );
        }
    }

    let growth = run.mem.growth();
    run.row("rss_growth_mb", name, growth.last().copied(), "MB", 1);
    let mut medians = Vec::new();
    for (metric, values) in &samples {
        run.median_row(metric, name, values, "ms");
        if let Some(m) = stats::median(values) {
            medians.push((*metric, m));
        }
    }
    medians
}

/// The first cold run must byte-equal the checked-in goldens.
fn check_goldens(run: &mut Run, name: &str, result: &yalla_core::SubstitutionResult) {
    for (kind, actual) in [
        ("lightweight", &result.lightweight_header),
        ("wrappers", &result.wrappers_file),
    ] {
        let path = format!("tests/goldens/{name}.{kind}.expected");
        let ok = std::fs::read_to_string(&path).is_ok_and(|expected| expected == *actual);
        run.check(ok, || {
            format!("{name}: first cold {kind} differs from {path}")
        });
    }
}
