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
