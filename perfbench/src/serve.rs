//! `serve-autosave`: an in-process `yalla serve` daemon on a Unix socket
//! with projects `condense` and `capitalize` opened during set-up. Client
//! `dev` runs a closed loop of `edit` (a real body change) -> `rerun` ->
//! `get lightweight`, alternating projects. Client `editor` runs an open
//! loop at 4 requests/s, alternating an autosave `edit` of `dev`'s current
//! project with `status`, timed from each request's due time.

use std::collections::BTreeMap;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use yalla_core::serve::{client_request, Server};
use yalla_core::{Engine, Options, Session};
use yalla_corpus::all_subjects;
use yalla_cpp::vfs::Vfs;
use yalla_obs::json::JsonValue;

use crate::common::{
    edit_request, get_request, open_request, parse_prometheus, record_serve_counters,
    record_store_stats, Run, SETUP_REPEATS,
};
use crate::stats;
use crate::stream::{body_comment_edit, trailing_comment_edit, Rng};

/// The daemon's projects.
const PROJECTS: [&str; 2] = ["condense", "capitalize"];

/// Every this many `dev` cycles, one is a cold rerun of a fresh variant
/// tree instead, so cold samples spread over the whole run.
const COLD_EVERY: usize = 8;

/// `dev` cycles whose edits are hashed into `stream_hash` (every run
/// completes them on the reference host).
const HASHED_CYCLES: usize = 20;

/// Open-loop rate of the `editor` client.
const EDITOR_PERIOD: Duration = Duration::from_millis(250);

struct Project {
    name: &'static str,
    vfs: Vfs,
    opts: Options,
    main: String,
}

fn projects() -> Result<Vec<Project>, String> {
    let all = all_subjects();
    PROJECTS
        .iter()
        .map(|&name| {
            let s = all
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("unknown subject {name}"))?;
            let text = s
                .vfs
                .text(s.vfs.lookup(&s.main_source).ok_or("main source missing")?);
            body_comment_edit(text, 0)
                .ok_or_else(|| format!("{name}: no function body to edit"))?;
            Ok(Project {
                name,
                vfs: s.vfs.clone(),
                opts: Options {
                    header: s.header.clone(),
                    sources: s.sources.clone(),
                    ..Options::default()
                },
                main: s.main_source.clone(),
            })
        })
        .collect()
}

fn request(stream: &mut UnixStream, line: &str) -> Result<JsonValue, String> {
    let v = client_request(stream, line)?;
    match v.get("ok") {
        Some(JsonValue::Bool(true)) => Ok(v),
        _ => Err(format!(
            "request failed: {}",
            v.get("error").and_then(JsonValue::as_str).unwrap_or("?")
        )),
    }
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let stream =
        UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// What `dev` and `editor` share: the project `dev` works on and the
/// current text of each project's main source. Edits of a file are sent
/// under this lock, so the daemon receives them in the order the texts
/// were made and the final tree is known.
struct Shared {
    current: usize,
    texts: Vec<String>,
}

/// The editor client's measurements.
#[derive(Default)]
struct EditorLog {
    status_ms: Vec<f64>,
    autosave_ms: Vec<f64>,
    late_ms: Vec<f64>,
    errors: Vec<String>,
}

pub fn run(run: &mut Run) -> Result<(), String> {
    // Set-up: build the projects, start the daemon, open both projects.
    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..SETUP_REPEATS {
        if let Some((server, _, _)) = live.take() {
            stop(server);
        }
        let (secs, server, socket, projects) = set_up(run, k)?;
        setups.push(secs);
        live = Some((server, socket, projects));
    }
    let (server, socket, projects) = live.expect("set up at least once");
    let result = measure(run, &socket, &projects);
    stop(server);
    result?;
    // As many set-ups again after the measurement, so the set-up samples
    // come from both ends of the run.
    for k in SETUP_REPEATS..2 * SETUP_REPEATS {
        let (secs, server, _, _) = set_up(run, k)?;
        setups.push(secs);
        stop(server);
    }
    run.median_row("setup_s", "all", &setups, "s");
    Ok(())
}

/// One set-up: builds the projects, starts a daemon and opens both
/// projects on it. Returns its wall time in seconds with the live daemon.
fn set_up(run: &Run, k: usize) -> Result<(f64, Server, PathBuf, Vec<Project>), String> {
    let t = Instant::now();
    let projects = projects()?;
    let socket = run.dir.join(format!("serve-{k}.sock"));
    let server = Server::start_with_store(&socket, run.exec.clone(), None)
        .map_err(|e| format!("serve: {e}"))?;
    let mut stream = connect(&socket)?;
    for p in &projects {
        request(&mut stream, &open_request(p.name, &p.vfs, &p.opts))?;
    }
    Ok((t.elapsed().as_secs_f64(), server, socket, projects))
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

fn measure(run: &mut Run, socket: &Path, projects: &[Project]) -> Result<(), String> {
    let mut rng = Rng::new(run.args.seed);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(run.args.seconds);
    let mut dev = connect(socket)?;

    // Cold reruns: each project's own first rerun now; fresh variant
    // trees (each on a new shard) are spread over the loop below.
    let mut cold: Vec<Vec<f64>> = vec![Vec::new(); projects.len()];
    for (p, project) in projects.iter().enumerate() {
        run.begin_step();
        cold[p].push(cold_rerun(run, &mut dev, project.name)?);
    }
    run.mem.after_cold();

    // Side sessions for the traced run's session-layer replay.
    let mut side: Vec<Session> = if run.args.trace {
        projects
            .iter()
            .map(|p| Session::with_store(p.opts.clone(), p.vfs.clone(), None))
            .collect()
    } else {
        Vec::new()
    };
    let shared = Arc::new(Mutex::new(Shared {
        current: 0,
        texts: projects
            .iter()
            .map(|p| p.vfs.text(p.vfs.lookup(&p.main).expect("main")).to_string())
            .collect(),
    }));
    let stop_flag = Arc::new(AtomicBool::new(false));
    let editor = {
        let (shared, stop_flag) = (Arc::clone(&shared), Arc::clone(&stop_flag));
        let mains: Vec<(String, String)> = projects
            .iter()
            .map(|p| (p.name.to_string(), p.main.clone()))
            .collect();
        let mut stream = connect(socket)?;
        std::thread::spawn(move || editor_loop(&mut stream, &shared, &stop_flag, &mains))
    };

    let mut cycles: Vec<Vec<f64>> = vec![Vec::new(); projects.len()];
    let (mut edit_ms, mut rerun_ms, mut get_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut stream_log = Vec::new();
    let mut i = 0usize;
    while start.elapsed() < budget {
        let p = i % projects.len();
        i += 1;
        let id = run.begin_step();
        let value = rng.next_u64() % 1_000_000;
        if i.is_multiple_of(COLD_EVERY) {
            // A fresh tree variant, so the rerun lands on a new shard.
            let p = (i / COLD_EVERY) % projects.len();
            let project = &projects[p];
            let mut vfs = project.vfs.clone();
            let main = vfs.lookup(&project.main).expect("main source exists");
            let text = trailing_comment_edit(vfs.text(main), value);
            vfs.apply_edit(&project.main, text)
                .map_err(|e| e.to_string())?;
            let name = format!("{}-cold-{i}", project.name);
            request(&mut dev, &open_request(&name, &vfs, &project.opts))?;
            cold[p].push(cold_rerun(run, &mut dev, &name)?);
            run.mem.after_rerun();
            if i <= HASHED_CYCLES {
                stream_log.push(format!("{id} cold {name} {value}"));
            }
            continue;
        }
        let project = &projects[p];
        if i <= HASHED_CYCLES {
            stream_log.push(format!("{id} {} {value}", project.name));
        }
        let before = crate::layers::exec_counters();
        let cycle_start = Instant::now();
        // edit: the new text is made and sent under the shared lock.
        let t = Instant::now();
        let (text, res) = {
            let mut s = shared.lock().expect("shared lock");
            s.current = p;
            let text = body_comment_edit(&s.texts[p], value).expect("checked in set-up");
            s.texts[p] = text.clone();
            let res = request(&mut dev, &edit_request(project.name, &project.main, &text));
            (text, res)
        };
        edit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let label = format!("{} cycle {id}", project.name);
        if let Err(e) = res {
            run.check(false, || format!("{label}: edit: {e}"));
            continue;
        }
        let t = Instant::now();
        let res = request(
            &mut dev,
            &format!("{{\"op\": \"rerun\", \"project\": \"{}\"}}", project.name),
        );
        rerun_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let after = crate::layers::exec_counters();
        if let Err(e) = res {
            run.check(false, || format!("{label}: rerun: {e}"));
            continue;
        }
        let t = Instant::now();
        let res = request(&mut dev, &get_request(project.name, "lightweight"));
        get_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let cycle = cycle_start.elapsed().as_secs_f64() * 1e3;
        run.timed_ms += cycle;
        run.mem.after_rerun();
        run.check(res.is_ok(), || {
            format!(
                "{label}: get: {}",
                res.as_ref().err().cloned().unwrap_or_default()
            )
        });
        cycles[p].push(cycle);
        // Every published rerun must pass verification.
        let report = request(&mut dev, &get_request(project.name, "report"));
        let passed = report
            .as_ref()
            .ok()
            .and_then(|v| {
                v.get("text")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            })
            .is_some_and(|r| {
                r.contains("sources_parse: true")
                    && r.contains("wrappers_parse: true")
                    && r.contains("violations: []")
            });
        run.check(passed, || format!("{label}: verification failed"));

        if run.args.trace {
            // The traced run attributes the client ops to the serve layer
            // and replays the step through a side session and the layers.
            if let Some(replay) = &mut run.replay {
                for (name, ms) in [
                    ("serve.edit", edit_ms[edit_ms.len() - 1]),
                    ("serve.rerun", rerun_ms[rerun_ms.len() - 1]),
                    ("serve.get", get_ms[get_ms.len() - 1]),
                ] {
                    replay.log.record(name, ms);
                }
            }
            let t = Instant::now();
            let exec = run.exec.clone();
            let session = &mut side[p];
            let applied = session.apply_edit(&project.main, text);
            let res = match (&mut run.replay, applied) {
                (Some(replay), Ok(_)) => replay
                    .log
                    .time("session.rerun", |_| session.rerun_on(&exec))
                    .0
                    .map_err(|e| e.to_string()),
                (_, Err(e)) => Err(e.to_string()),
                (None, _) => unreachable!("traced runs have a replay"),
            };
            let side_ms = t.elapsed().as_secs_f64() * 1e3;
            run.replay_ms += side_ms;
            match res {
                Ok(side_run) => {
                    run.sessions.add(&side_run, side_ms);
                    run.replay_step(&label, side[p].vfs(), &project.opts, &side_run.result, None);
                }
                Err(e) => run.check(false, || format!("{label}: side session: {e}")),
            }
            let own = run
                .replay
                .as_ref()
                .map_or(0, crate::layers::Replay::own_cache_bytes);
            run.layer_value(
                "cpp.cache_bytes",
                yalla_cpp::cache::bytes_resident().saturating_sub(own) as f64,
            );
        }
        run.add_exec_delta(before, after);
    }
    stop_flag.store(true, Ordering::SeqCst);
    let editor_log = editor
        .join()
        .map_err(|_| "editor client panicked".to_string())?;
    run.attempted += (editor_log.status_ms.len() + editor_log.autosave_ms.len()) as u64;
    for e in editor_log.errors {
        run.fail(format!("editor: {e}"));
    }

    // Oracle: each project's published artifacts equal a cold engine run
    // over the final tree.
    let texts = shared.lock().expect("shared lock").texts.clone();
    for (p, project) in projects.iter().enumerate() {
        let mut vfs = project.vfs.clone();
        vfs.apply_edit(&project.main, texts[p].clone())
            .map_err(|e| e.to_string())?;
        let bad = oracle(&mut dev, project, &vfs);
        run.check(bad.is_none(), || {
            format!("{}: {}", project.name, bad.clone().unwrap_or_default())
        });
    }

    let counters = request(&mut dev, "{\"op\": \"metrics\"}")
        .map(|v| parse_prometheus(v.get("text").and_then(JsonValue::as_str).unwrap_or("")))
        .unwrap_or_default();
    record_serve_counters(run, &counters);
    record_store_stats(run, None);
    for (key, name) in [
        ("yalla_serve_cancelled", "cancelled"),
        ("yalla_serve_edits_coalesced", "edits_coalesced"),
        ("yalla_serve_reruns", "reruns"),
    ] {
        run.info.push((
            format!("daemon {name}"),
            counters.get(key).copied().unwrap_or(0.0).to_string(),
        ));
    }

    run.info.push((
        "stream_hash".into(),
        format!(
            "{:016x}",
            yalla_store::fnv64(stream_log.join("\n").as_bytes())
        ),
    ));
    let mut cold_medians = Vec::new();
    for (p, project) in projects.iter().enumerate() {
        run.median_row("cold_ms", project.name, &cold[p], "ms");
        cold_medians.extend(stats::median(&cold[p]));
    }
    let all_cold = cold.iter().map(Vec::len).sum();
    run.row(
        "cold_ms",
        "all",
        stats::geomean(&cold_medians),
        "ms",
        all_cold,
    );

    // Like edit-loop: the geometric mean over projects of per-project
    // medians (the projects' cycle times differ by ~30%, so a median over
    // the mixture would sit between two modes).
    let mut medians = Vec::new();
    for (p, project) in projects.iter().enumerate() {
        run.median_row("serve_cycle_ms", project.name, &cycles[p], "ms");
        medians.extend(stats::median(&cycles[p]));
    }
    let all: Vec<f64> = cycles.iter().flatten().copied().collect();
    let cycle = (medians.len() == projects.len())
        .then(|| stats::geomean(&medians))
        .flatten();
    for name in ["serve_cycle_ms", "body_edit_ms", "edit_ms"] {
        run.row(name, "all", cycle, "ms", all.len());
    }
    run.p90_row("serve_cycle_ms_p90", "all", &all, "ms");
    run.median_row("serve_status_ms", "all", &editor_log.status_ms, "ms");
    run.p90_row("serve_status_ms_p90", "all", &editor_log.status_ms, "ms");
    run.median_row("serve_autosave_ms", "all", &editor_log.autosave_ms, "ms");
    run.median_row("serve.edit_ms", "all", &edit_ms, "ms");
    run.median_row("serve.rerun_ms", "all", &rerun_ms, "ms");
    run.median_row("serve.get_ms", "all", &get_ms, "ms");
    run.p90_row("serve.gen_late_ms_p90", "all", &editor_log.late_ms, "ms");
    let growth = run.mem.growth();
    run.row(
        "rss_growth_mb",
        "all",
        stats::mean(&growth),
        "MB",
        growth.len(),
    );
    Ok(())
}

/// Times the first `rerun` of the freshly opened project `name`.
fn cold_rerun(run: &mut Run, dev: &mut UnixStream, name: &str) -> Result<f64, String> {
    let line = format!("{{\"op\": \"rerun\", \"project\": \"{name}\"}}");
    let t = Instant::now();
    let res = request(dev, &line);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    run.timed_ms += ms;
    let ok = res.map_err(|e| format!("{name}: cold rerun: {e}"));
    run.check(ok.is_ok(), || ok.clone().err().unwrap_or_default());
    Ok(ms)
}

/// Final check of one project: absorb pending autosaves, then compare
/// every artifact with a cold engine run. `Some(reason)` on a mismatch.
fn oracle(dev: &mut UnixStream, project: &Project, vfs: &Vfs) -> Option<String> {
    let rerun = format!("{{\"op\": \"rerun\", \"project\": \"{}\"}}", project.name);
    if let Err(e) = request(dev, &rerun) {
        return Some(format!("final rerun: {e}"));
    }
    let cold = match Engine::new(project.opts.clone()).run(vfs) {
        Ok(cold) => cold,
        Err(e) => return Some(format!("cold oracle run failed: {e}")),
    };
    let mut wanted: BTreeMap<String, &str> = BTreeMap::new();
    wanted.insert("lightweight".into(), &cold.lightweight_header);
    wanted.insert("wrappers".into(), &cold.wrappers_file);
    for (path, text) in &cold.rewritten_sources {
        wanted.insert(format!("source:{path}"), text);
    }
    for (artifact, expected) in wanted {
        let got = request(dev, &get_request(project.name, &artifact));
        let text = got
            .as_ref()
            .ok()
            .and_then(|v| v.get("text").and_then(JsonValue::as_str));
        if text != Some(expected) {
            return Some(format!("published {artifact} differs from a cold run"));
        }
    }
    None
}

/// The open-loop `editor`: one request every [`EDITOR_PERIOD`], even slots
/// an autosave of `dev`'s current project, odd slots `status`; latency is
/// timed from the slot's due time.
fn editor_loop(
    stream: &mut UnixStream,
    shared: &Mutex<Shared>,
    stop: &AtomicBool,
    mains: &[(String, String)],
) -> EditorLog {
    let mut log = EditorLog::default();
    let origin = Instant::now();
    let mut k = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let due = origin + EDITOR_PERIOD * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        log.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let res = if k.is_multiple_of(2) {
            let s = shared.lock().expect("shared lock");
            let (project, main) = &mains[s.current];
            let res = request(stream, &edit_request(project, main, &s.texts[s.current]));
            drop(s);
            log.autosave_ms.push(due.elapsed().as_secs_f64() * 1e3);
            res
        } else {
            let res = request(stream, "{\"op\": \"status\"}");
            log.status_ms.push(due.elapsed().as_secs_f64() * 1e3);
            res
        };
        if let Err(e) = res {
            log.errors.push(e);
        }
        k += 1;
    }
    log
}
