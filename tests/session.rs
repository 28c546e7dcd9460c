//! End-to-end tests of the incremental session layer: cache invalidation
//! granularity, the §6 "no re-run needed" steady state, and the
//! zero-reparse guarantee of no-op reruns.

use std::sync::Mutex;
use std::time::Duration;

use proptest::prelude::*;
use yalla::core::{CacheLookup, Stage};
use yalla::{Options, Session, Vfs};

/// The global profiler's counters are process-wide; tests that assert on
/// counter deltas serialize behind this lock.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// The Figure 3 Kokkos-style fixture (same shape as the engine tests).
fn kokkos_vfs() -> Vfs {
    let mut vfs = Vfs::new();
    vfs.add_file(
        "Kokkos_Core.hpp",
        r#"
#pragma once
#include <Kokkos_Impl.hpp>
namespace Kokkos {
  class OpenMP;
  class LayoutRight {};
  template<class D, class L> class View {
  public:
    View();
    int& operator()(int i, int j);
    int extent(int d) const;
  };
  template<class S> class TeamPolicy {
  public:
    using member_type = Impl::HostThreadTeamMember<S>;
  };
  template<class M> Impl::TeamThreadRangeBoundariesStruct TeamThreadRange(M& m, int n);
  template<class R, class F> void parallel_for(R range, F functor);
  template<class T> T clamp_index(T v);
}
"#,
    );
    vfs.add_file(
        "Kokkos_Impl.hpp",
        r#"
#pragma once
namespace Kokkos { namespace Impl {
  struct TeamThreadRangeBoundariesStruct { int lo; int hi; };
  template<class P> class HostThreadTeamMember {
  public:
    int league_rank() const;
  };
} }
"#,
    );
    vfs.add_file(
        "functor.hpp",
        r#"#pragma once
#include <Kokkos_Core.hpp>
using sp_t = Kokkos::OpenMP;
using member_t = Kokkos::TeamPolicy<sp_t>::member_type;
struct add_y {
  int y;
  Kokkos::View<int**, Kokkos::LayoutRight> x;
  void operator()(member_t &m);
};
"#,
    );
    vfs.add_file(
        "kernel.cpp",
        r#"#include "functor.hpp"
void add_y::operator()(member_t &m) {
  int j = m.league_rank();
  Kokkos::parallel_for(
    Kokkos::TeamThreadRange(m, 5),
    [&](int i) { x(j, i) += y; });
}
"#,
    );
    vfs
}

fn kokkos_options() -> Options {
    Options {
        header: "Kokkos_Core.hpp".into(),
        sources: vec!["kernel.cpp".into(), "functor.hpp".into()],
        ..Options::default()
    }
}

fn kokkos_session() -> Session {
    Session::new(kokkos_options(), kokkos_vfs())
}

fn counter(name: &str) -> i64 {
    yalla::obs::global().metrics().counter(name).get()
}

/// Appends `extra` (plus a newline) to `path` in the session's file tree.
fn append(session: &mut Session, path: &str, extra: &str) {
    let id = session.vfs().lookup(path).expect("file exists");
    let new_text = format!("{}{extra}\n", session.vfs().text(id));
    session.apply_edit(path, new_text).expect("edit applies");
}

#[test]
fn noop_rerun_is_fully_cached_with_zero_reparses() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    use yalla::obs::metrics::names;

    let mut session = kokkos_session();
    let cold = session.rerun().unwrap();
    assert!(!cold.fully_cached());
    assert_eq!(cold.files_reparsed, 1);
    assert_eq!(cold.rewrites_recomputed, 2);

    // Zero re-parses, asserted through the observability counters: not a
    // single file may enter the preprocessor during a warm no-op rerun.
    let files_before = counter(names::FILES_PREPROCESSED);
    let parse_hits_before = counter(&names::stage_cache("parse", "hits"));
    let reparsed_before = counter(names::SESSION_TUS_REPARSED);
    let warm = session.rerun().unwrap();
    assert_eq!(
        counter(names::FILES_PREPROCESSED),
        files_before,
        "a warm no-op rerun must not preprocess any file"
    );
    assert_eq!(
        counter(&names::stage_cache("parse", "hits")),
        parse_hits_before + 1
    );
    assert_eq!(counter(names::SESSION_TUS_REPARSED), reparsed_before);

    assert!(warm.fully_cached());
    assert_eq!(warm.files_reparsed, 0);
    assert_eq!(warm.rewrites_recomputed, 0);
    assert_eq!(warm.rewrites_cached, 2);
    for stage in [
        Stage::Parse,
        Stage::Analyze,
        Stage::Plan,
        Stage::Emit,
        Stage::Rewrite,
        Stage::Verify,
    ] {
        assert_eq!(warm.outcome(stage), CacheLookup::Hit, "{stage}");
    }
    // Cached stages report zero duration, never a stale measurement.
    assert_eq!(warm.result.timings.total(), Duration::ZERO);
    assert!(cold.result.timings.total() > Duration::ZERO);

    // The artifacts are byte-identical to the cold run's.
    assert_eq!(
        cold.result.lightweight_header,
        warm.result.lightweight_header
    );
    assert_eq!(cold.result.wrappers_file, warm.result.wrappers_file);
    assert_eq!(cold.result.rewritten_sources, warm.result.rewritten_sources);
}

#[test]
fn editing_one_source_reparses_one_tu_and_keeps_the_plan() {
    let mut session = kokkos_session();
    let cold = session.rerun().unwrap();

    // A trailing comment after the lambda: the TU must re-parse, but the
    // used-symbol set (and every span the plan stores) is unchanged, so
    // plan and emit are skipped — the paper's §6 steady state.
    append(&mut session, "kernel.cpp", "// tweak");
    let run = session.rerun().unwrap();
    assert_eq!(run.files_reparsed, 1, "exactly one TU re-parses");
    assert_eq!(run.outcome(Stage::Parse), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Analyze), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
    assert_eq!(run.outcome(Stage::Emit), CacheLookup::Hit);
    // Only the edited source's rewrite recomputes.
    assert_eq!(run.rewrites_recomputed, 1);
    assert_eq!(run.rewrites_cached, 1);
    assert_eq!(
        run.result.rewritten_sources["functor.hpp"],
        cold.result.rewritten_sources["functor.hpp"]
    );
    assert!(run.result.rewritten_sources["kernel.cpp"].contains("// tweak"));
    // The generated artifacts did not change.
    assert_eq!(
        run.result.lightweight_header,
        cold.result.lightweight_header
    );
    assert_eq!(run.result.wrappers_file, cold.result.wrappers_file);
}

#[test]
fn editing_a_header_dependency_invalidates_downstream() {
    let mut session = kokkos_session();
    session.rerun().unwrap();

    // Growing the *header* changes the include closure, so parse and
    // analyze recompute; the used set is unchanged, so the plan holds.
    append(
        &mut session,
        "Kokkos_Impl.hpp",
        "namespace Kokkos { namespace Impl { struct Fresh {}; } }",
    );
    let run = session.rerun().unwrap();
    assert_eq!(run.files_reparsed, 1);
    assert_eq!(run.outcome(Stage::Parse), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
}

#[test]
fn growing_the_used_set_recomputes_plan_and_emit() {
    let mut session = kokkos_session();
    let cold = session.rerun().unwrap();
    assert!(!cold.result.lightweight_header.contains("clamp_index"));

    // The edit starts using a header function no source used before: the
    // usage fingerprint changes and plan/emit must re-run (§6: this is
    // the one edit class that needs the tool again).
    append(
        &mut session,
        "kernel.cpp",
        "int probe() { return Kokkos::clamp_index(7); }",
    );
    let run = session.rerun().unwrap();
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Emit), CacheLookup::Invalidated);
    assert!(
        run.result.lightweight_header.contains("clamp_index"),
        "{}",
        run.result.lightweight_header
    );
}

#[test]
fn pre_declared_symbols_absorb_growth_into_them() {
    // With `clamp_index` pre-declared (§6 extra symbols), the same growth
    // edit leaves the fingerprint stable: the symbol was already planned
    // for, so plan and emit stay cached.
    let options = Options {
        extra_symbols: vec!["Kokkos::clamp_index".into()],
        ..kokkos_options()
    };
    let mut session = Session::new(options, kokkos_vfs());
    let cold = session.rerun().unwrap();
    assert!(cold.result.lightweight_header.contains("clamp_index"));

    append(
        &mut session,
        "kernel.cpp",
        "int probe() { return Kokkos::clamp_index(7); }",
    );
    let run = session.rerun().unwrap();
    assert_eq!(run.outcome(Stage::Parse), CacheLookup::Invalidated);
    assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
    assert_eq!(run.outcome(Stage::Emit), CacheLookup::Hit);
    assert_eq!(
        run.result.lightweight_header,
        cold.result.lightweight_header
    );
    // `clamp_index` is forward declared in the (pre-built) lightweight
    // header, so the new call stays direct and needs no rewriting.
    assert!(
        run.result.rewritten_sources["kernel.cpp"].contains("Kokkos::clamp_index(7)"),
        "{}",
        run.result.rewritten_sources["kernel.cpp"]
    );
}

#[test]
fn all_missing_sources_are_reported_in_one_error() {
    let options = Options {
        sources: vec![
            "kernel.cpp".into(),
            "missing_a.cpp".into(),
            "functor.hpp".into(),
            "missing_b.cpp".into(),
        ],
        ..kokkos_options()
    };
    let err = Session::new(options, kokkos_vfs()).rerun().unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("missing_a.cpp") && msg.contains("missing_b.cpp"),
        "{msg}"
    );
}

#[test]
fn apply_edit_rejects_unknown_paths() {
    let mut session = kokkos_session();
    assert!(session.apply_edit("nope.cpp", "int x;").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical reruns are always 100% cache hits, however many times.
    #[test]
    fn identical_reruns_always_hit(n in 1usize..4) {
        let mut session = kokkos_session();
        session.rerun().unwrap();
        for _ in 0..n {
            // `touch`: rewrite a file with identical content — the hash is
            // unchanged, so this must not invalidate anything.
            let id = session.vfs().lookup("kernel.cpp").unwrap();
            let same = session.vfs().text(id).to_string();
            session.apply_edit("kernel.cpp", same).unwrap();
            let run = session.rerun().unwrap();
            prop_assert!(run.fully_cached());
            prop_assert_eq!(run.files_reparsed, 0);
        }
    }

    /// Trailing-comment edits re-parse but never rebuild the plan: the
    /// used-symbol set is unchanged, whatever the comment says.
    #[test]
    fn trailing_comments_never_rebuild_the_plan(comments in prop::collection::vec("[ a-zA-Z0-9_+*()]{0,24}", 1..4)) {
        let mut session = kokkos_session();
        let cold = session.rerun().unwrap();
        for c in &comments {
            append(&mut session, "kernel.cpp", &format!("// {c}"));
            let run = session.rerun().unwrap();
            prop_assert_eq!(run.files_reparsed, 1);
            prop_assert_eq!(run.outcome(Stage::Plan), CacheLookup::Hit);
            prop_assert_eq!(run.outcome(Stage::Emit), CacheLookup::Hit);
            prop_assert_eq!(
                run.result.lightweight_header.clone(),
                cold.result.lightweight_header.clone()
            );
        }
    }
}

#[test]
fn body_edits_resume_the_preamble_and_share_its_bytes() {
    let subject = yalla::corpus::all_subjects()
        .into_iter()
        .find(|s| s.name == "02")
        .expect("subject 02");
    let options = Options {
        header: subject.header.clone(),
        sources: subject.sources.clone(),
        ..Options::default()
    };
    let mut session = Session::with_store(options, subject.vfs.clone(), None);
    let cold = session.rerun().unwrap();
    assert_eq!(cold.files_resumed, 0);
    let cold_bytes = session.cache_bytes();
    assert!(cold_bytes > 0);
    for i in 0..3 {
        append(
            &mut session,
            &subject.main_source,
            &format!("// body edit {i}"),
        );
        let run = session.rerun().unwrap();
        assert!(run.result.report.verification.passed());
        assert_eq!(run.files_reparsed, 1);
        assert_eq!(
            run.files_resumed, 1,
            "a body edit resumes after the include block"
        );
        assert!(run.summary_line().contains("1 reparsed, 1 resumed"));
    }
    // Four retained versions of the TU share one preamble snapshot, so
    // the byte model does not grow with the version history.
    let after = session.cache_bytes();
    assert!(
        after < 2 * cold_bytes,
        "resident bytes grew {cold_bytes} -> {after} over 3 body edits"
    );
}
