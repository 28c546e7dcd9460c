//! `mega-fanout`: the generated `mega-4k` tree (4,000 files, 48 TU roots,
//! ~256 shared headers), re-seeded from the benchmark seed, on one
//! `Session` backed by a `Store` in a fresh directory. Closed-loop stream
//! of body edits, usage edits, header edits, no-op reruns and restarts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use yalla_core::{Options, Session, SubstitutionResult};
use yalla_cpp::vfs::Vfs;
use yalla_fuzz::mega::{MegaConfig, MegaProject, MEGA_NAMESPACE};
use yalla_store::Store;

use crate::common::{current_text, record_store_stats, Run, ServeSide, SETUP_REPEATS};
use crate::stats;
use crate::stream::{
    called_functions, defined_functions, literal_edit, trailing_comment_edit, usage_edit, Kind,
    Rng, Schedule,
};

/// Fresh sessions (each over its own empty store) run cold before the
/// stream's session, whose first rerun is one more cold sample.
const EXTRA_COLD: usize = 6;

/// More such sessions run cold after the stream, once its session is
/// dropped: the cold samples come from two windows of the run, so a burst
/// of load from other processes on the host lands on a part of them, not
/// on all. While the stream's session is alive a cold run is a quarter
/// slower or more, and by how much depends on how far the stream got, so
/// none runs amid the stream.
const END_COLD: usize = 6;

/// Whole rounds the stream runs, even past the time budget.
const MIN_ROUNDS: usize = 2;

/// Kind mix of one round of the stream. A body edit costs a fraction of
/// a header edit or a restart, so it comes four times a round: its
/// median, which the result line carries, then rests on more samples.
const MIX: [Kind; 8] = [
    Kind::Body,
    Kind::Body,
    Kind::Body,
    Kind::Body,
    Kind::Noop,
    Kind::Header,
    Kind::Usage,
    Kind::Restart,
];

struct Input {
    project: MegaProject,
    vfs: Vfs,
    opts: Options,
    store: Arc<Store>,
    shared: Vec<String>,
}

fn setup(run: &Run, seed: u64, k: usize) -> Result<Input, String> {
    let config = MegaConfig {
        seed,
        ..MegaConfig::preset("mega-4k").expect("mega-4k is a preset")
    };
    let project = MegaProject::generate(&config);
    let (vfs, opts) = project.render();
    let dir = run.dir.join(format!("store-{k}"));
    let store = Store::open(&dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let shared = project
        .files
        .iter()
        .filter(|(p, _)| p.starts_with("mg_"))
        .map(|(p, _)| p.clone())
        .collect();
    Ok(Input {
        project,
        vfs,
        opts,
        store: Arc::new(store),
        shared,
    })
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let mut rng = Rng::new(run.args.seed);
    let tree_seed = rng.next_u64();
    let mut setups = Vec::new();
    let mut input = None;
    for k in 0..SETUP_REPEATS {
        let t = Instant::now();
        let next = setup(run, tree_seed, k)?;
        setups.push(t.elapsed().as_secs_f64());
        input = Some(next);
    }
    let input = input.expect("set up at least once");
    let tree_hash = input.project.tree_hash();
    run.info
        .push(("tree_hash".into(), format!("{tree_hash:016x}")));
    run.info
        .push(("files".into(), input.project.file_count().to_string()));

    let start = Instant::now();
    let budget = Duration::from_secs_f64(run.args.seconds);
    let side = run.side_daemon("mega", &input.vfs, &input.opts);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    // Cold runs: extra sessions over empty stores of their own, then the
    // stream's session over the workload store.
    let mut first_cold = None;
    for c in 0..EXTRA_COLD {
        let ms = cold(run, &input, c, side.as_ref(), &mut first_cold)?;
        samples.entry("cold_ms").or_default().extend(ms);
    }
    run.begin_step();
    let mut session = Session::with_store(
        input.opts.clone(),
        input.vfs.clone(),
        Some(Arc::clone(&input.store)),
    );
    let label = format!("cold {EXTRA_COLD}");
    if let Some((res, ms)) = run.timed_rerun(&mut session, &label, false) {
        samples.entry("cold_ms").or_default().push(ms);
        run.cold_result(
            &label,
            (&input.vfs, &input.opts),
            res.result,
            &mut first_cold,
            side.as_ref(),
        );
    }
    run.mem.after_cold();

    let mut schedule = Schedule::new(rng.fork(), &MIX);
    let mut stream_log = Vec::new();
    let mut last = None;
    // The traced run replays every step, so one round is its floor.
    let min_steps = if run.args.trace {
        MIX.len()
    } else {
        MIN_ROUNDS * MIX.len()
    };
    let mut steps = 0;
    while start.elapsed() < budget || steps < min_steps {
        if steps % MIX.len() == 0 {
            // One more set-up a round: the set-up takes milliseconds, so
            // its samples are spread over the run like the stream's.
            let t = Instant::now();
            let again = setup(run, tree_seed, setups.len())?;
            setups.push(t.elapsed().as_secs_f64());
            run.check(again.project.tree_hash() == tree_hash, || {
                "a repeated set-up generated another tree".into()
            });
        }
        steps += 1;
        let kind = schedule.next_kind();
        let id = run.begin_step();
        let value = rng.next_u64() % 1_000_000;
        let tus = &input.opts.sources;
        let edit = match kind {
            Kind::Body => {
                let tu = tus[rng.below(tus.len())].clone();
                let text = literal_edit(&current_text(&session, &tu), "  int acc = a", value)
                    .expect("generated TUs declare acc");
                Some((tu, text))
            }
            Kind::Usage => usage(&session, &input.shared, tus, &mut rng, value),
            Kind::Header => {
                let path = input.shared[rng.below(input.shared.len())].clone();
                let text = trailing_comment_edit(&current_text(&session, &path), value);
                Some((path, text))
            }
            _ => None,
        };
        // Once every deep shared function is called, a usage step has
        // nothing to add: by its content it is a no-op.
        let kind = if kind == Kind::Usage && edit.is_none() {
            Kind::Noop
        } else {
            kind
        };
        // The hashed prefix is the part every run executes, so equal
        // seeds print equal stream hashes whatever the host speed.
        if steps <= MIX.len() {
            stream_log.push(format!(
                "{id} {} {} {value}",
                kind.label(),
                edit.as_ref().map_or("-", |e| e.0.as_str())
            ));
        }
        let label = format!("step {id} ({})", kind.label());
        if let Some((path, text)) = &edit {
            if let Err(e) = session.apply_edit(path, text.clone()) {
                run.check(false, || format!("{label}: {e}"));
                continue;
            }
        }
        let timed = if kind == Kind::Restart {
            let mut fresh = Session::with_store(
                input.opts.clone(),
                session.vfs().clone(),
                Some(Arc::clone(&input.store)),
            );
            run.timed_rerun(&mut fresh, &label, true)
        } else {
            run.timed_rerun(&mut session, &label, true)
        };
        let Some((res, ms)) = timed else {
            continue;
        };
        let metric = match kind {
            Kind::Body => "body_edit_ms",
            Kind::Usage => "usage_edit_ms",
            Kind::Header => "header_edit_ms",
            Kind::Restart => "restart_ms",
            Kind::Noop => "noop_ms",
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
        if kind != Kind::Restart {
            last = Some(res.result);
        }
    }

    run.finish_stream(
        "mega",
        last.as_ref(),
        &input.opts,
        session.vfs(),
        side.as_ref(),
    );
    run.mem.end_stream();
    drop(session);
    for c in 0..END_COLD {
        let ms = cold(run, &input, EXTRA_COLD + 1 + c, None, &mut first_cold)?;
        samples.entry("cold_ms").or_default().extend(ms);
    }
    record_store_stats(run, Some(&input.store));
    let corrupt = input.store.stats().corrupt;
    run.check(corrupt == 0, || {
        format!("store reports {corrupt} corrupt records")
    });

    run.median_row("setup_s", "all", &setups, "s");
    for name in [
        "cold_ms",
        "noop_ms",
        "body_edit_ms",
        "header_edit_ms",
        "usage_edit_ms",
        "restart_ms",
    ] {
        let values = samples.get(name).cloned().unwrap_or_default();
        run.median_row(name, "all", &values, "ms");
    }
    let edits: Vec<f64> = ["body_edit_ms", "header_edit_ms", "usage_edit_ms"]
        .iter()
        .filter_map(|k| samples.get(k).and_then(|v| stats::median(v)))
        .collect();
    let value = (edits.len() == 3).then(|| stats::geomean(&edits)).flatten();
    run.row("edit_ms", "all", value, "ms", edits.len());
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
    Ok(())
}

/// One cold sample: the first rerun of a fresh session over an empty
/// store of its own and the generated tree, checked against the first
/// cold run. The store is removed afterwards. Returns the wall time, ms.
fn cold(
    run: &mut Run,
    input: &Input,
    c: usize,
    side: Option<&ServeSide>,
    first: &mut Option<SubstitutionResult>,
) -> Result<Option<f64>, String> {
    run.begin_step();
    let dir = run.dir.join(format!("cold-store-{c}"));
    let store = Store::open(&dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let mut fresh =
        Session::with_store(input.opts.clone(), input.vfs.clone(), Some(Arc::new(store)));
    let label = format!("cold {c}");
    let timed = run.timed_rerun(&mut fresh, &label, false);
    drop(fresh);
    let _ = std::fs::remove_dir_all(&dir);
    let Some((res, ms)) = timed else {
        return Ok(None);
    };
    run.cold_result(&label, (&input.vfs, &input.opts), res.result, first, side);
    Ok(Some(ms))
}

/// A usage edit: one TU starts calling a shared function from layer 1 or
/// deeper that no TU calls yet, found by a text scan of the current tree.
/// `None` once every such function is called.
fn usage(
    session: &Session,
    shared: &[String],
    tus: &[String],
    rng: &mut Rng,
    k: u64,
) -> Option<(String, String)> {
    let tu_texts: Vec<String> = tus.iter().map(|t| current_text(session, t)).collect();
    let shared_texts: Vec<String> = shared.iter().map(|p| current_text(session, p)).collect();
    let called = called_functions(tu_texts.iter().map(String::as_str), MEGA_NAMESPACE);
    let candidates: Vec<String> = defined_functions(shared_texts.iter().map(String::as_str), 1)
        .into_iter()
        .filter(|f| !called.contains(f))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let function = &candidates[rng.below(candidates.len())];
    let i = rng.below(tus.len());
    let text = usage_edit(
        &tu_texts[i],
        "  return acc;",
        MEGA_NAMESPACE,
        function,
        k % 13 + 1,
    )?;
    Some((tus[i].clone(), text))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage edit is a pure function of the tree and the seed, and
    /// picks a deep shared function no TU called before.
    #[test]
    fn usage_edit_is_deterministic_and_new() {
        let project = MegaProject::generate(&MegaConfig::preset("mega-1k").expect("preset"));
        let (vfs, opts) = project.render();
        let shared: Vec<String> = project
            .files
            .iter()
            .filter(|(p, _)| p.starts_with("mg_"))
            .map(|(p, _)| p.clone())
            .collect();
        let session = Session::with_store(opts.clone(), vfs, None);
        let pick = |seed| {
            usage(&session, &shared, &opts.sources, &mut Rng::new(seed), 5).expect("a candidate")
        };
        let (tu, text) = pick(9);
        assert_eq!((tu.clone(), text.clone()), pick(9));
        let before = called_functions(
            opts.sources
                .iter()
                .map(|t| current_text(&session, t))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str),
            MEGA_NAMESPACE,
        );
        let after = called_functions(std::iter::once(text.as_str()), MEGA_NAMESPACE);
        let added: Vec<_> = after.difference(&before).collect();
        assert_eq!(added.len(), 1, "{added:?}");
        assert!(!added[0].starts_with("h0_"), "{added:?}");
        assert_ne!(current_text(&session, &tu), text);
    }
}
