//! Session-backed edit-stream fuzzing.
//!
//! This mode stresses the incremental layer's cache keys: it holds one
//! warm [`Session`] over a generated project, applies a random stream of
//! syntactically valid edits (new user statements, new library
//! functions, identical-content touches, driver edits outside the
//! engine's input set), and after every edit asserts that the warm
//! rerun's artifacts are byte-identical to a cold engine run over the
//! same file state. Any difference means a cache key failed to capture
//! an input.
//!
//! With a store dir attached, every step additionally simulates a
//! process restart: a *fresh* session (fresh [`Store`] handle, empty
//! memory caches) over the same file state reruns warm-from-disk and is
//! held to the same byte-identical oracle — fuzzing the on-disk cache
//! keys the same way the in-memory ones are fuzzed.

use std::path::Path;
use std::sync::Arc;

use yalla_core::{Engine, Options, Session};
use yalla_corpus::gen::DetRng;
use yalla_cpp::vfs::Vfs;
use yalla_store::Store;

use crate::grammar::{ProjectModel, UserStmt, DRIVER_SOURCE, LIB_HEADER, MAIN_SOURCE};

/// One warm-vs-cold mismatch.
#[derive(Debug, Clone)]
pub struct SessionMismatch {
    /// Edit number (1-based) after which the mismatch appeared.
    pub step: usize,
    /// What the edit was.
    pub edit: String,
    /// Which artifact differed.
    pub artifact: String,
}

/// Outcome of one session-fuzz case.
#[derive(Debug)]
pub struct SessionCaseReport {
    /// Edits applied.
    pub edits: usize,
    /// Description of every edit, in application order. Because the edit
    /// stream is a pure function of the case seed (see
    /// [`edit_stream_seed`]), replaying the same case seed must
    /// reproduce this log byte-for-byte — the replay-stability test
    /// holds it to that.
    pub edit_log: Vec<String>,
    /// Mismatches found (empty on success).
    pub mismatches: Vec<SessionMismatch>,
    /// Identical-content touches that still re-ran a stage (cache
    /// over-invalidation; informational, not a failure).
    pub touch_recomputes: usize,
}

/// The random edits the stream draws from.
#[derive(Debug, Clone, Copy)]
enum EditKind {
    AppendUserStmt,
    AppendLibFn,
    TouchMain,
    TouchDriver,
    TweakDriver,
}

/// Derives the edit-stream RNG seed from a case seed — a pure
/// splitmix64-style mix, so the stream is a function of the case seed
/// *alone*. Campaign position (`--iters`, `--session-every` cadence)
/// must never leak into it: a divergence replayed later, under a
/// different iteration budget, has to walk the exact same edits.
pub fn edit_stream_seed(case_seed: u64) -> u64 {
    let mut z = case_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One edit of a session-fuzz stream.
#[derive(Debug, Clone)]
pub struct StreamEdit {
    /// What the edit was.
    pub description: String,
    /// The edited file.
    pub path: String,
    /// The file's text after the edit.
    pub text: String,
    /// True when the edit rewrites the file with identical content.
    pub touch: bool,
}

/// The edit stream of case `seed`, without running the engine: the
/// generated project's initial file tree and options, and `edits` edits
/// to apply to that tree in order. A pure function of `seed`, shared by
/// [`run_session_case`] and by tests that replay the stream against the
/// frontend alone.
pub fn edit_stream(seed: u64, edits: usize) -> (Vfs, Options, Vec<StreamEdit>) {
    let mut model = ProjectModel::generate(seed);
    let (vfs, options) = model.render();
    let mut current = vfs.clone();
    let mut rng = DetRng::new(edit_stream_seed(seed));
    let mut extra_lib_fns = 0usize;
    let stream = (0..edits)
        .map(|_| {
            let kind = match rng.next(5) {
                0 => EditKind::AppendUserStmt,
                1 => EditKind::AppendLibFn,
                2 => EditKind::TouchMain,
                3 => EditKind::TouchDriver,
                _ => EditKind::TweakDriver,
            };
            let edit = next_edit(&current, &mut model, kind, &mut rng, &mut extra_lib_fns);
            current.add_file(&edit.path, edit.text.clone());
            edit
        })
        .collect();
    (vfs, options, stream)
}

/// Runs one session-fuzz case: `edits` random edits against the project
/// generated from `seed`, checking warm-vs-cold equivalence after each.
///
/// # Errors
///
/// Returns a diagnostic when the engine itself fails (which the
/// generator is expected to avoid).
pub fn run_session_case(seed: u64, edits: usize) -> Result<SessionCaseReport, String> {
    run_session_case_with_store(seed, edits, None)
}

/// Like [`run_session_case`], optionally backed by an on-disk store at
/// `store_dir`: after each edit's warm-vs-cold check, a fresh session
/// (simulating a restarted process that has only the cache dir) reruns
/// warm-from-disk and its artifacts are compared against the cold oracle
/// too. Disk mismatches are reported with a `disk:` artifact prefix.
///
/// # Errors
///
/// Returns a diagnostic when the engine fails or the store dir cannot be
/// opened.
pub fn run_session_case_with_store(
    seed: u64,
    edits: usize,
    store_dir: Option<&Path>,
) -> Result<SessionCaseReport, String> {
    let store = match store_dir {
        Some(dir) => {
            Some(Arc::new(Store::open(dir).map_err(|e| {
                format!("opening store {}: {e}", dir.display())
            })?))
        }
        None => None,
    };
    let (vfs, options, stream) = edit_stream(seed, edits);
    let mut session = Session::with_store(options.clone(), vfs, store.clone());
    session.rerun().map_err(|e| format!("cold run: {e}"))?;

    let mut report = SessionCaseReport {
        edits: 0,
        edit_log: Vec::new(),
        mismatches: Vec::new(),
        touch_recomputes: 0,
    };

    for (step, edit) in stream.into_iter().enumerate() {
        let step = step + 1;
        session
            .apply_edit(&edit.path, edit.text)
            .map_err(|e| e.to_string())?;
        let description = edit.description;
        report.edits += 1;
        report.edit_log.push(description.clone());

        let warm = session.rerun().map_err(|e| format!("warm rerun: {e}"))?;
        if edit.touch && !warm.fully_cached() {
            report.touch_recomputes += 1;
        }
        let cold = Engine::new(options.clone())
            .run(session.vfs())
            .map_err(|e| format!("cold comparison run: {e}"))?;

        let warm_r = &warm.result;
        if warm_r.lightweight_header != cold.lightweight_header {
            report.mismatches.push(SessionMismatch {
                step,
                edit: description.clone(),
                artifact: "lightweight_header".to_string(),
            });
        }
        if warm_r.wrappers_file != cold.wrappers_file {
            report.mismatches.push(SessionMismatch {
                step,
                edit: description.clone(),
                artifact: "wrappers_file".to_string(),
            });
        }
        if warm_r.rewritten_sources != cold.rewritten_sources {
            report.mismatches.push(SessionMismatch {
                step,
                edit: description.clone(),
                artifact: "rewritten_sources".to_string(),
            });
        }

        // Restart simulation: a fresh session with a fresh store handle
        // on the same dir — only the cache dir survives — must reproduce
        // the cold artifacts from disk.
        if let Some(dir) = store_dir {
            let restart_store = Arc::new(
                Store::open(dir).map_err(|e| format!("reopening store {}: {e}", dir.display()))?,
            );
            let restart =
                Session::with_store(options.clone(), session.vfs().clone(), Some(restart_store))
                    .rerun()
                    .map_err(|e| format!("disk-warm rerun: {e}"))?;
            let r = &restart.result;
            for (artifact, differs) in [
                (
                    "disk:lightweight_header",
                    r.lightweight_header != cold.lightweight_header,
                ),
                ("disk:wrappers_file", r.wrappers_file != cold.wrappers_file),
                (
                    "disk:rewritten_sources",
                    r.rewritten_sources != cold.rewritten_sources,
                ),
            ] {
                if differs {
                    report.mismatches.push(SessionMismatch {
                        step,
                        edit: description.clone(),
                        artifact: artifact.to_string(),
                    });
                }
            }
        }
    }
    Ok(report)
}

/// Draws the next edit of `kind` against the current tree `vfs`.
fn next_edit(
    vfs: &Vfs,
    model: &mut ProjectModel,
    kind: EditKind,
    rng: &mut DetRng,
    extra_lib_fns: &mut usize,
) -> StreamEdit {
    let edit = |description: String, path: &str, text: String, touch: bool| StreamEdit {
        description,
        path: path.to_string(),
        text,
        touch,
    };
    let text_of = |path: &str| -> String {
        vfs.text(
            vfs.lookup(path)
                .expect("generated projects have every file"),
        )
        .to_string()
    };
    match kind {
        EditKind::AppendUserStmt => {
            let f = rng.next(model.user_fns.len().max(1));
            let stmt = match rng.next(3) {
                0 => UserStmt::Probe(6_000 + rng.next(400) as i64),
                1 => UserStmt::Update {
                    n: 0,
                    op: '+',
                    expr: format!("{}", 1 + rng.next(30)),
                },
                _ => UserStmt::ProbeLocal(0),
            };
            // Keep the trailing probe/return shape: insert before the end.
            let fun = &mut model.user_fns[f];
            let at = fun.stmts.len().saturating_sub(1);
            fun.stmts.insert(at, stmt);
            let index = fun.index;
            edit(
                format!("append statement to u{index}"),
                MAIN_SOURCE,
                model.render_main(),
                false,
            )
        }
        EditKind::AppendLibFn => {
            *extra_lib_fns += 1;
            model.free_fns.push(crate::grammar::FreeFnModel {
                name: format!("ffx{extra_lib_fns}"),
                k: 1 + rng.next(9) as i64,
            });
            edit(
                format!("add library function ffx{extra_lib_fns}"),
                LIB_HEADER,
                model.render_lib(),
                false,
            )
        }
        EditKind::TouchMain => edit(
            "touch main.cpp".to_string(),
            MAIN_SOURCE,
            text_of(MAIN_SOURCE),
            true,
        ),
        EditKind::TouchDriver => edit(
            "touch driver.cpp".to_string(),
            DRIVER_SOURCE,
            text_of(DRIVER_SOURCE),
            true,
        ),
        EditKind::TweakDriver => {
            let mut text = text_of(DRIVER_SOURCE);
            text.push_str(&format!("// pad {}\n", rng.next(1_000_000)));
            edit(
                "append comment to driver.cpp".to_string(),
                DRIVER_SOURCE,
                text,
                false,
            )
        }
    }
}
