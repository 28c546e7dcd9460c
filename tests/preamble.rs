//! Preamble snapshots: a parse resumed after an unchanged include block
//! must equal a full parse, and every case where the preamble's meaning
//! could differ must fall back to one.

use proptest::prelude::*;
use yalla::analysis::SymbolTable;
use yalla::cpp::ast::visit::{walk_tu, Visitor};
use yalla::cpp::ast::LambdaExpr;
use yalla::cpp::cache::ParseCache;
use yalla::cpp::pretty::print_tu;
use yalla::cpp::ParsedTu;
use yalla::fuzz::edit_stream;
use yalla::{Frontend, Vfs};

/// Lambda ids in walk order.
fn lambda_ids(tu: &ParsedTu) -> Vec<u32> {
    struct Ids(Vec<u32>);
    impl Visitor for Ids {
        fn visit_lambda(&mut self, lambda: &LambdaExpr) {
            self.0.push(lambda.id);
        }
    }
    let mut ids = Ids(Vec::new());
    walk_tu(&mut ids, &tu.ast);
    ids.0
}

/// Every query of a symbol table, rendered: each symbol by key, and what
/// each key and each unqualified name resolves to.
fn table_view(table: &SymbolTable) -> Vec<String> {
    let mut keys: Vec<&str> = table.iter().map(|s| s.key.as_str()).collect();
    keys.sort_unstable();
    let mut out = vec![format!("len {}", table.len())];
    for key in keys {
        let base = key.rsplit("::").next().unwrap_or(key);
        out.push(format!("{:?}", table.get(key)));
        out.push(format!("{:?}", table.resolve(key).map(|s| &s.key)));
        out.push(format!("{:?}", table.resolve(base).map(|s| &s.key)));
    }
    out
}

/// Asserts `cached` (possibly resumed) equals the plain frontend's parse
/// of `path`: declarations (spans included), pretty output, preprocessing
/// stats, lambda ids, and every symbol-table query.
fn assert_equals_full_parse(cached: &ParsedTu, vfs: &Vfs, path: &str) {
    let full = Frontend::new(vfs.clone())
        .parse_translation_unit(path)
        .expect("full parse");
    assert_eq!(
        format!("{:?}", cached.ast),
        format!("{:?}", full.ast),
        "{path}: declarations differ"
    );
    assert_eq!(print_tu(&cached.ast), print_tu(&full.ast));
    let (a, b) = (&cached.stats, &full.stats);
    assert_eq!(a.lines_compiled, b.lines_compiled, "{path}: lines");
    assert_eq!(a.lines_per_file, b.lines_per_file, "{path}: lines per file");
    assert_eq!(a.files_entered, b.files_entered, "{path}: files entered");
    assert_eq!(a.headers, b.headers, "{path}: headers");
    assert_eq!(a.include_edges, b.include_edges, "{path}: include edges");
    assert_eq!(a.macro_expansions, b.macro_expansions, "{path}: expansions");
    assert_eq!(lambda_ids(cached), lambda_ids(&full), "{path}: lambda ids");
    assert_eq!(
        table_view(&SymbolTable::build(&cached.ast)),
        table_view(&SymbolTable::build(&full.ast)),
        "{path}: symbol tables differ"
    );
}

/// Replays session-fuzz case `seed` through one parse cache per TU root,
/// checking every parse against the full frontend. Returns how many
/// parses resumed from a snapshot.
fn replay_stream(seed: u64, edits: usize) -> usize {
    let (mut vfs, opts, stream) = edit_stream(seed, edits);
    let cache = ParseCache::new();
    let roots = ["main.cpp", "driver.cpp"];
    let mut resumed = 0;
    for step in 0..=stream.len() {
        if step > 0 {
            let edit = &stream[step - 1];
            vfs.apply_edit(&edit.path, edit.text.clone()).unwrap();
        }
        for root in roots {
            let cached = cache.parse(&vfs, &opts.defines, root).unwrap();
            resumed += usize::from(cached.resumed);
            assert_equals_full_parse(&cached.tu, &vfs, root);
        }
    }
    resumed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A parse resumed from a preamble snapshot equals the plain frontend
    /// parse after every edit of a session-fuzz edit stream.
    #[test]
    fn resumed_parses_equal_full_parses_on_fuzzed_edit_streams(seed in 0u64..1_000_000) {
        replay_stream(seed, 10);
    }
}

#[test]
fn fuzzed_edit_streams_do_resume() {
    let resumed: usize = (0..6).map(|seed| replay_stream(seed, 10)).sum();
    assert!(resumed > 0, "no parse resumed from a snapshot");
}

fn cache_and_vfs(files: &[(&str, &str)]) -> (ParseCache, Vfs) {
    let mut vfs = Vfs::new();
    for (path, text) in files {
        vfs.add_file(path, *text);
    }
    (ParseCache::new(), vfs)
}

/// Parses `main.cpp`, edits it to `edited`, parses again; returns whether
/// the second parse resumed, after checking it against a full parse.
fn reparse_after(cache: &ParseCache, vfs: &mut Vfs, edited: &str) -> bool {
    cache.parse(vfs, &[], "main.cpp").unwrap();
    vfs.apply_edit("main.cpp", edited).unwrap();
    let again = cache.parse(vfs, &[], "main.cpp").unwrap();
    assert!(!again.lookup.is_hit());
    assert_equals_full_parse(&again.tu, vfs, "main.cpp");
    again.resumed
}

#[test]
fn a_body_edit_resumes() {
    let (cache, mut vfs) = cache_and_vfs(&[
        (
            "lib.hpp",
            "#pragma once\nnamespace l { class C { public: int f(); }; }\n",
        ),
        (
            "main.cpp",
            "#include \"lib.hpp\"\nint g(l::C& c) { return c.f(); }\n",
        ),
    ]);
    let edited = "#include \"lib.hpp\"\nint g(l::C& c) { return c.f() + 1; }\n";
    assert!(reparse_after(&cache, &mut vfs, edited));
}

#[test]
fn changing_a_define_the_header_tests_misses_the_snapshot() {
    // The context hazard: the header's meaning depends on a macro the
    // main file defines before its include.
    let lib = "#pragma once\n#if MODE == 2\nint two;\n#else\nint other;\n#endif\n";
    let (cache, mut vfs) = cache_and_vfs(&[
        ("lib.hpp", lib),
        (
            "main.cpp",
            "#define MODE 2\n#include \"lib.hpp\"\nint body;\n",
        ),
    ]);
    let edited = "#define MODE 3\n#include \"lib.hpp\"\nint body;\n";
    assert!(!reparse_after(&cache, &mut vfs, edited));
    let tu = cache.parse(&vfs, &[], "main.cpp").unwrap().tu;
    assert!(print_tu(&tu.ast).contains("other"));
}

#[test]
fn an_edit_to_a_preamble_header_misses_the_snapshot() {
    let (cache, mut vfs) = cache_and_vfs(&[
        ("lib.hpp", "#pragma once\nint a;\n"),
        ("main.cpp", "#include \"lib.hpp\"\nint body;\n"),
    ]);
    cache.parse(&vfs, &[], "main.cpp").unwrap();
    vfs.apply_edit("lib.hpp", "#pragma once\nint b;\n").unwrap();
    vfs.apply_edit("main.cpp", "#include \"lib.hpp\"\nint body2;\n")
        .unwrap();
    let again = cache.parse(&vfs, &[], "main.cpp").unwrap();
    assert!(!again.resumed);
    assert_equals_full_parse(&again.tu, &vfs, "main.cpp");
}

#[test]
fn an_unterminated_preamble_if_falls_back_to_a_full_parse() {
    let (cache, mut vfs) = cache_and_vfs(&[
        ("lib.hpp", "#pragma once\nint a;\n"),
        (
            "main.cpp",
            "#include \"lib.hpp\"\n#if 1\nint body;\n#endif\n",
        ),
    ]);
    let edited = "#include \"lib.hpp\"\n#if 1\nint body2;\n#endif\n";
    assert!(!reparse_after(&cache, &mut vfs, edited));
}

#[test]
fn a_header_ending_mid_declaration_falls_back_to_a_full_parse() {
    let (cache, mut vfs) = cache_and_vfs(&[
        ("lib.hpp", "namespace n {\nint a;\n"),
        ("main.cpp", "#include \"lib.hpp\"\nint body;\n}\n"),
    ]);
    let edited = "#include \"lib.hpp\"\nint body2;\n}\n";
    assert!(!reparse_after(&cache, &mut vfs, edited));
}

#[test]
fn a_main_file_without_a_directive_block_falls_back_to_a_full_parse() {
    let (cache, mut vfs) = cache_and_vfs(&[("main.cpp", "int body;\n#define X 1\nint x = X;\n")]);
    assert!(!reparse_after(
        &cache,
        &mut vfs,
        "int body2;\n#define X 1\nint x = X;\n"
    ));
}

#[test]
fn suffix_directives_and_macros_from_the_preamble_resume_exactly() {
    let (cache, mut vfs) = cache_and_vfs(&[
        (
            "lib.hpp",
            "#pragma once\n#define TWICE(x) ((x) + (x))\ninline int lib_fn(int v) { auto k = [](int x) { return x; }; return k(v); }\n",
        ),
        ("late.hpp", "#pragma once\nint late;\n"),
        (
            "main.cpp",
            "#include \"lib.hpp\"\n// a comment\nint a = TWICE(1);\n#include \"late.hpp\"\n#include \"lib.hpp\"\nint f() { auto l = [](int v) { return v; }; return l(a); }\n",
        ),
    ]);
    let edited = "#include \"lib.hpp\"\n// a comment\nint a = TWICE(2);\n#include \"late.hpp\"\n#include \"lib.hpp\"\nint f() { auto l = [](int v) { return v; }; return l(a) + TWICE(a); }\n";
    assert!(reparse_after(&cache, &mut vfs, edited));
}

#[test]
fn a_preamble_that_includes_the_main_file_falls_back_to_a_full_parse() {
    let (cache, mut vfs) = cache_and_vfs(&[
        ("lib.hpp", "#pragma once\n#include \"main.cpp\"\n"),
        (
            "main.cpp",
            "#pragma once\n#include \"lib.hpp\"\nint body;\n",
        ),
    ]);
    assert!(!reparse_after(
        &cache,
        &mut vfs,
        "#pragma once\n#include \"lib.hpp\"\nint body2;\n"
    ));
}

// ---- include-point snapshots: verify's wrappers TU --------------------

/// A wrappers TU the way `emit` shapes it: the header first, then code.
fn wrappers_for(header: &str, body: &str) -> String {
    format!("// Generated wrappers.\n#include <{header}>\n{body}")
}

/// Checks `wrappers` (added to `vfs` as `w.cpp`) through `cache` from the
/// include snapshots of `main`'s parse in `parses`, and asserts verdict
/// and closure hash equal a fresh-cache full check and the frontend's
/// verdict. Returns whether the check resumed from a snapshot.
fn check_wrappers(
    parses: &ParseCache,
    cache: &ParseCache,
    vfs: &Vfs,
    main: &str,
    wrappers: &str,
) -> bool {
    let defines: &[(String, String)] = &[];
    let includes = parses.parse(vfs, defines, main).unwrap().includes;
    let mut wrap_vfs = vfs.clone();
    wrap_vfs.add_file("w.cpp", wrappers);
    let resumed = cache.check(&wrap_vfs, defines, "w.cpp", &includes);
    let full = ParseCache::new().check(&wrap_vfs, defines, "w.cpp", &[]);
    let oracle = Frontend::new(wrap_vfs)
        .parse_translation_unit("w.cpp")
        .is_ok();
    assert_eq!(resumed.is_ok(), oracle, "verdict differs from the frontend");
    assert_eq!(full.is_ok(), oracle, "full check differs from the frontend");
    match (resumed, full) {
        (Ok(r), Ok(f)) => {
            assert_eq!(r.closure_hash, f.closure_hash, "closure hashes differ");
            r.resumed
        }
        _ => false,
    }
}

/// Replays session-fuzz case `seed`; after each edit, checks a wrappers
/// TU through a session-lived cache and through a fresh one, both from
/// `main.cpp`'s snapshots. Returns how many checks resumed.
fn replay_wrappers(seed: u64, edits: usize) -> usize {
    let (mut vfs, opts, stream) = edit_stream(seed, edits);
    let parses = ParseCache::new();
    let verify_cache = ParseCache::new();
    let wrappers = wrappers_for(&opts.header, "int wrapper_probe() { return 0; }\n");
    let mut resumed = 0;
    for step in 0..=stream.len() {
        if step > 0 {
            let edit = &stream[step - 1];
            vfs.apply_edit(&edit.path, edit.text.clone()).unwrap();
        }
        resumed += usize::from(check_wrappers(
            &parses,
            &verify_cache,
            &vfs,
            "main.cpp",
            &wrappers,
        ));
        resumed += usize::from(check_wrappers(
            &parses,
            &ParseCache::new(),
            &vfs,
            "main.cpp",
            &wrappers,
        ));
    }
    resumed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A wrappers check from the main TU's include snapshot equals a full
    /// check and the frontend, in verdict and closure hash, after every
    /// body and header edit of a session-fuzz edit stream.
    #[test]
    fn wrappers_checks_from_snapshots_equal_full_checks_on_fuzzed_edit_streams(seed in 0u64..1_000_000) {
        replay_wrappers(seed, 10);
    }
}

#[test]
fn fuzzed_wrappers_checks_do_resume() {
    let resumed: usize = (0..6).map(|seed| replay_wrappers(seed, 10)).sum();
    assert!(resumed > 0, "no wrappers check resumed from a snapshot");
}

const KOKKOS_IMPL: &str =
    "#pragma once\nnamespace Kokkos { namespace Impl { struct Range { int lo; int hi; }; } }\n";
const KOKKOS_CORE: &str = "#pragma once\n#include <Kokkos_Impl.hpp>\nnamespace Kokkos { inline int rank() { auto f = [](int v) { return v; }; return f(0); } }\n";

/// Figure 3's include shape: `kernel.cpp` → `functor.hpp` (`#pragma
/// once`) → `Kokkos_Core.hpp` → `Kokkos_Impl.hpp`.
fn figure3(kernel: &str) -> Vfs {
    let mut vfs = Vfs::new();
    vfs.add_file("Kokkos_Impl.hpp", KOKKOS_IMPL);
    vfs.add_file("Kokkos_Core.hpp", KOKKOS_CORE);
    vfs.add_file(
        "functor.hpp",
        "#pragma once\n#include <Kokkos_Core.hpp>\nstruct add_y { int run(); };\n",
    );
    vfs.add_file("kernel.cpp", kernel);
    vfs
}

const WRAPPERS_BODY: &str = "int rank_w() { return Kokkos::rank(); }\n";

#[test]
fn the_wrappers_tu_resumes_after_a_nested_header() {
    let vfs = figure3("#include \"functor.hpp\"\nint add_y::run() { return Kokkos::rank(); }\n");
    let parses = ParseCache::new();
    let wrappers = wrappers_for("Kokkos_Core.hpp", WRAPPERS_BODY);
    assert!(check_wrappers(
        &parses,
        &ParseCache::new(),
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}

#[test]
fn a_define_before_the_header_falls_back_to_a_full_check() {
    let vfs = figure3(
        "#define KOKKOS_MODE 2\n#include \"functor.hpp\"\nint add_y::run() { return 0; }\n",
    );
    let wrappers = wrappers_for("Kokkos_Core.hpp", WRAPPERS_BODY);
    assert!(!check_wrappers(
        &ParseCache::new(),
        &ParseCache::new(),
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}

#[test]
fn tokens_before_the_header_fall_back_to_a_full_check() {
    let vfs = figure3("int before;\n#include \"functor.hpp\"\nint add_y::run() { return 0; }\n");
    let wrappers = wrappers_for("Kokkos_Core.hpp", WRAPPERS_BODY);
    assert!(!check_wrappers(
        &ParseCache::new(),
        &ParseCache::new(),
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}

#[test]
fn a_header_reincluding_a_pragma_once_ancestor_falls_back_to_a_full_check() {
    // `Kokkos_Core.hpp` includes `functor.hpp`, which the main TU had
    // already marked `#pragma once`; the wrappers TU enters it.
    let mut vfs = figure3("#include \"functor.hpp\"\nint add_y::run() { return 0; }\n");
    vfs.add_file(
        "Kokkos_Core.hpp",
        KOKKOS_CORE.replacen(
            "#pragma once\n",
            "#pragma once\n#include \"functor.hpp\"\n",
            1,
        ),
    );
    let wrappers = wrappers_for("Kokkos_Core.hpp", WRAPPERS_BODY);
    assert!(!check_wrappers(
        &ParseCache::new(),
        &ParseCache::new(),
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}

#[test]
fn a_header_ending_mid_declaration_falls_back_to_a_full_check() {
    let mut vfs = figure3("#include <Kokkos_Core.hpp>\nint x;\n}\n");
    vfs.add_file("Kokkos_Core.hpp", "namespace Kokkos {\nint open;\n");
    let wrappers = wrappers_for("Kokkos_Core.hpp", "int w;\n}\n");
    assert!(!check_wrappers(
        &ParseCache::new(),
        &ParseCache::new(),
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}

#[test]
fn a_wrappers_syntax_error_fails_both_ways() {
    let vfs = figure3("#include \"functor.hpp\"\nint add_y::run() { return 0; }\n");
    let mut wrap_vfs = vfs.clone();
    wrap_vfs.add_file("w.cpp", wrappers_for("Kokkos_Core.hpp", "int broken( {{\n"));
    let includes = ParseCache::new()
        .parse(&vfs, &[], "kernel.cpp")
        .unwrap()
        .includes;
    assert!(!includes.is_empty());
    assert!(ParseCache::new()
        .check(&wrap_vfs, &[], "w.cpp", &includes)
        .is_err());
    assert!(ParseCache::new()
        .check(&wrap_vfs, &[], "w.cpp", &[])
        .is_err());
    assert!(Frontend::new(wrap_vfs)
        .parse_translation_unit("w.cpp")
        .is_err());
}

#[test]
fn a_header_edit_invalidates_the_snapshot_and_the_next_parse_records_a_new_one() {
    let mut vfs = figure3("#include \"functor.hpp\"\nint add_y::run() { return 0; }\n");
    let parses = ParseCache::new();
    let verify_cache = ParseCache::new();
    let stale = parses.parse(&vfs, &[], "kernel.cpp").unwrap().includes;
    vfs.apply_edit("Kokkos_Impl.hpp", format!("{KOKKOS_IMPL}// header edit\n"))
        .unwrap();
    let mut wrap_vfs = vfs.clone();
    let wrappers = wrappers_for("Kokkos_Core.hpp", WRAPPERS_BODY);
    wrap_vfs.add_file("w.cpp", wrappers.as_str());
    let old = ParseCache::new()
        .check(&wrap_vfs, &[], "w.cpp", &stale)
        .unwrap();
    assert!(!old.resumed, "a snapshot of the old header must not apply");
    assert_eq!(
        old.closure_hash,
        ParseCache::new()
            .check(&wrap_vfs, &[], "w.cpp", &[])
            .unwrap()
            .closure_hash
    );
    // The main TU's reparse snapshots the edited header.
    assert!(check_wrappers(
        &parses,
        &verify_cache,
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}

#[test]
fn a_resume_keeps_the_headers_pragma_once_marks() {
    // `once.hpp` is in the header's closure and must not be entered twice:
    // a second entry would hit its `#error`.
    let mut vfs = figure3("#include \"functor.hpp\"\nint add_y::run() { return 0; }\n");
    vfs.add_file(
        "once.hpp",
        "#pragma once\n#ifdef ONCE_SEEN\n#error entered twice\n#endif\n",
    );
    vfs.add_file("once_def.hpp", "#define ONCE_SEEN\n");
    vfs.add_file(
        "Kokkos_Impl.hpp",
        format!("{KOKKOS_IMPL}#include \"once.hpp\"\n#include \"once_def.hpp\"\n"),
    );
    let wrappers = wrappers_for(
        "Kokkos_Core.hpp",
        &format!("#include \"once.hpp\"\n{WRAPPERS_BODY}"),
    );
    assert!(check_wrappers(
        &ParseCache::new(),
        &ParseCache::new(),
        &vfs,
        "kernel.cpp",
        &wrappers
    ));
}
