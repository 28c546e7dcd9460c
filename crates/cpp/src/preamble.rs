//! Preamble snapshots: a precompiled header for the tool itself.
//!
//! A translation unit's main file usually opens with a block of
//! directives — the `#include`s of the expensive header and friends —
//! followed by the user's own code. A *preamble snapshot* (the idea of
//! clangd's preamble, or a PCH) records the frontend's state at the end of
//! that block:
//!
//! * the preprocessor state: macro table, `#pragma once` set,
//!   [`crate::pp::PpStats`] so far and the main file's counted preamble lines;
//! * the parser state: the declarations parsed from the preamble's tokens
//!   (behind an [`Arc`], shared with every TU resumed from the snapshot,
//!   never deep-copied) and the lambda counter.
//!
//! A later parse of the same main file whose preamble bytes are unchanged,
//! and whose preamble closure (every file the preamble entered) still has
//! the same content hashes, *resumes* from the snapshot: only the suffix
//! of the main file is preprocessed and parsed. The result equals a full
//! [`crate::Frontend::parse_translation_unit`] — same declarations, same
//! preprocessing statistics, same lambda ids — which stays the reference oracle.
//!
//! The preamble's effect depends on the macro context at its include
//! points, which is why the snapshot is keyed on the preamble *bytes* (a
//! `#define` in the main file before an `#include` is part of them) on top
//! of the cache key's predefined macros. No snapshot is taken when the
//! main file has no leading directive, when an `#if` is still open at the
//! boundary, when the preamble re-enters the main file, or when the
//! preamble's tokens do not parse as whole top-level declarations that
//! never looked past the boundary (see `Parser::parse_split`); such TUs
//! are always parsed in full.
//!
//! The same recording parse also takes an [`IncludeSnapshot`] at the exit
//! of every header it entered in a *pristine* context — before any token
//! was output and before any `#define` or `#undef` ran, so the header saw
//! only the predefined macros. Another TU that includes the same header
//! in such a context (verify's wrappers TU opens with `#include <H>`) can
//! [`check`] only its own code after the include: what the header means
//! depends on nothing that differs between the two include points. The
//! snapshot holds no declarations, only what checking the rest of the TU
//! needs.

use std::sync::Arc;

use crate::ast::{DeclPrefix, Decls, TranslationUnit};
use crate::error::Result;
use crate::frontend::ParsedTu;
use crate::hash;
use crate::lex::{lex_file, Token};
use crate::loc::FileId;
use crate::parse::Parser;
use crate::pp::{preamble_end, PpLog, PpPoint, PpSnapshot, PpStats, Preprocessor};
use crate::vfs::Vfs;

/// The frontend state at the exit of a header a recording parse entered
/// in a pristine context, whose tokens end a top-level declaration
/// cleanly: the preprocessor's [`PpPoint`], the log it refers to (shared
/// by every snapshot of the parse) and the lambda counter.
#[derive(Debug)]
pub struct IncludeSnapshot {
    /// Hash of the predefined macros the header saw.
    defines_hash: u64,
    pp: PpPoint,
    log: Arc<PpLog>,
    lambda_counter: u32,
}

/// The include snapshots of one parse, in the order their headers exit.
pub type IncludeSnapshots = Arc<[IncludeSnapshot]>;

/// The frontend state at the end of a main file's preamble.
#[derive(Debug)]
pub(crate) struct Preamble {
    /// Content hash and length of the main file's preamble bytes.
    bytes_hash: u64,
    bytes_len: u32,
    pp: PpSnapshot,
    decls: Arc<DeclPrefix>,
    lambda_counter: u32,
    /// `(id, path, content hash)` of every file the preamble entered,
    /// except the main file (its preamble bytes are checked instead).
    deps: Vec<(FileId, String, u64)>,
    /// The include snapshots taken inside the preamble, valid wherever
    /// the preamble is.
    pub(crate) includes: IncludeSnapshots,
}

impl Preamble {
    /// True when the main file's current preamble is byte-identical to the
    /// snapshot's and every file the preamble entered is unchanged (same
    /// id, same content hash) in `vfs`.
    pub(crate) fn matches(&self, main: &MainPreamble, vfs: &Vfs) -> bool {
        self.bytes_hash == main.bytes_hash
            && self.bytes_len == main.bytes_len
            && self
                .deps
                .iter()
                .all(|(id, path, h)| vfs.lookup(path) == Some(*id) && vfs.file_hash(*id) == *h)
    }

    /// Lines of code the preamble delivered: the part of a TU's byte model
    /// that every TU resumed from this snapshot shares.
    pub(crate) fn lines(&self) -> usize {
        self.pp.stats.lines_compiled + self.pp.main_lines
    }

    /// Drops the value memoized on the snapshot's declarations.
    pub(crate) fn forget_memo(&self) {
        self.decls.forget_memo();
    }

    /// Paths of the files the preamble entered (excluding the main file).
    pub(crate) fn dep_paths(&self) -> impl Iterator<Item = &str> {
        self.deps.iter().map(|(_, p, _)| p.as_str())
    }
}

/// A main file's current preamble: its lexed tokens, the index of the
/// first token after the preamble, and the preamble bytes' address.
#[derive(Debug)]
pub(crate) struct MainPreamble {
    main: FileId,
    tokens: Vec<Token>,
    start: usize,
    bytes_hash: u64,
    bytes_len: u32,
}

impl MainPreamble {
    /// Lexes `path` in `vfs` and locates its preamble; `None` when the
    /// file is missing, does not lex, or has no clean preamble boundary.
    pub(crate) fn scan(vfs: &Vfs, path: &str) -> Option<MainPreamble> {
        let main = vfs.lookup(path)?;
        let text = vfs.text(main);
        let tokens = lex_file(main, text).ok()?;
        let start = preamble_end(&tokens)?;
        let offset = tokens[start].span.start;
        let bytes = text.get(..offset as usize)?;
        Some(MainPreamble {
            main,
            bytes_hash: hash::hash_str(bytes),
            bytes_len: offset,
            tokens,
            start,
        })
    }
}

/// Preprocesses and parses `path` in full — exactly what
/// [`crate::Frontend::parse_translation_unit`] does — and, when the main
/// file has a clean preamble, also returns its snapshot. The returned TU
/// then already shares the snapshot's declarations. Also returns the
/// parse's include snapshots: those inside the preamble when it has one,
/// else all of them.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures.
pub(crate) fn parse_recording(
    vfs: &Vfs,
    defines: &[(String, String)],
    path: &str,
) -> Result<(ParsedTu, Option<Arc<Preamble>>, IncludeSnapshots)> {
    let (out, snap, points, log) = {
        let _span = yalla_obs::span("frontend", "preprocess");
        let mut pp = Preprocessor::new(vfs);
        for (k, v) in defines {
            pp.define(k, v);
        }
        pp.run_capturing(path)?
    };
    let mut boundaries: Vec<usize> = points.iter().map(|p| p.tokens).collect();
    boundaries.extend(snap.as_ref().map(|s| s.tokens));
    let (mut decls, splits) = {
        let _span = yalla_obs::span("frontend", "parse");
        Parser::new(out.tokens).parse_split(&boundaries)?
    };
    yalla_obs::count(yalla_obs::metrics::names::AST_DECLS, decls.len() as i64);
    let split_at = |at: usize| splits.iter().find(|s| s.at == at).copied();
    let stats = out.stats;
    let main = stats.files_entered[0];
    // A preamble that re-enters the main file read all of it, not just
    // the preamble bytes the snapshot would be keyed on.
    let snap = snap.filter(|pp| pp.stats.include_edges.iter().all(|&(_, to)| to != main));
    let preamble = snap.and_then(|pp| Some((split_at(pp.tokens)?, pp)));
    let in_preamble = preamble.as_ref().map_or(points.len(), |(_, pp)| pp.points);
    let defines_hash = hash::hash_defines(defines);
    let log = Arc::new(log);
    let includes: IncludeSnapshots = points
        .into_iter()
        .take(in_preamble)
        .filter_map(|pp| {
            Some(IncludeSnapshot {
                defines_hash,
                lambda_counter: split_at(pp.tokens)?.lambda_counter,
                pp,
                log: Arc::clone(&log),
            })
        })
        .collect();
    let Some((split, pp)) = preamble else {
        let ast = TranslationUnit {
            decls: decls.into(),
        };
        return Ok((ParsedTu { ast, stats }, None, includes));
    };
    let own = decls.split_off(split.decls);
    let prefix = Arc::new(DeclPrefix::new(decls));
    let bytes = &vfs.text(main)[..pp.offset as usize];
    let deps = pp
        .stats
        .files_entered
        .iter()
        .filter(|&&f| f != main)
        .map(|&f| (f, vfs.path(f).to_string(), vfs.file_hash(f)))
        .collect();
    let preamble = Preamble {
        bytes_hash: hash::hash_str(bytes),
        bytes_len: pp.offset,
        pp,
        decls: Arc::clone(&prefix),
        lambda_counter: split.lambda_counter,
        deps,
        includes: Arc::clone(&includes),
    };
    let ast = TranslationUnit {
        decls: Decls::with_prefix(prefix, own),
    };
    Ok((ParsedTu { ast, stats }, Some(Arc::new(preamble)), includes))
}

/// Resumes a parse of `main`'s file from `pre`, which must
/// [`Preamble::matches`] it: preprocesses and parses only the suffix after
/// the preamble and shares the snapshot's declarations.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures of the suffix — the same
/// errors a full parse would report.
pub(crate) fn resume(vfs: &Vfs, pre: &Preamble, main: &MainPreamble) -> Result<ParsedTu> {
    let out = {
        let _span = yalla_obs::span("frontend", "preprocess");
        Preprocessor::resume(vfs, &pre.pp, main.main, &main.tokens, main.start)?
    };
    let (own, _) = {
        let _span = yalla_obs::span("frontend", "parse");
        Parser::resuming(out.tokens, pre.lambda_counter).parse_split(&[])?
    };
    yalla_obs::count(yalla_obs::metrics::names::AST_DECLS, own.len() as i64);
    Ok(ParsedTu {
        ast: TranslationUnit {
            decls: Decls::with_prefix(Arc::clone(&pre.decls), own),
        },
        stats: out.stats,
    })
}

/// Checks that `path` preprocesses and parses — the verdict of
/// [`crate::Frontend::parse_translation_unit`] — and returns the TU's
/// preprocessing statistics. When `path` includes the header of one of
/// `includes` in a pristine context with the same predefined macros, and
/// the snapshot still applies there (same closure contents, same include
/// resolution, no conflicting `#pragma once` mark, no deeper nesting),
/// the header is not preprocessed or parsed again: the run continues from
/// the snapshot and only the rest of the TU is checked. Also returns
/// whether that happened.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures — the same errors a full
/// parse would report.
pub(crate) fn check(
    vfs: &Vfs,
    defines: &[(String, String)],
    path: &str,
    includes: &[IncludeSnapshot],
) -> Result<(PpStats, bool)> {
    let defines_hash = hash::hash_defines(defines);
    let offered: Vec<&IncludeSnapshot> = includes
        .iter()
        .filter(|s| s.defines_hash == defines_hash)
        .collect();
    let (out, spliced) = {
        let _span = yalla_obs::span("frontend", "preprocess");
        let mut pp = Preprocessor::new(vfs);
        for (k, v) in defines {
            pp.define(k, v);
        }
        pp.run_offering(path, offered.iter().map(|s| (&s.pp, &*s.log)).collect())?
    };
    let lambda_counter = spliced.map_or(0, |i| offered[i].lambda_counter);
    let (decls, _) = {
        let _span = yalla_obs::span("frontend", "parse");
        Parser::resuming(out.tokens, lambda_counter).parse_split(&[])?
    };
    yalla_obs::count(yalla_obs::metrics::names::AST_DECLS, decls.len() as i64);
    Ok((out.stats, spliced.is_some()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::Frontend;

    fn vfs(files: &[(&str, &str)]) -> Vfs {
        let mut vfs = Vfs::new();
        for (path, text) in files {
            vfs.add_file(path, *text);
        }
        vfs
    }

    /// Checks `path` through the include snapshots of a recording parse of
    /// `main` and asserts the result equals the full frontend's, statistic
    /// for statistic. Returns whether a snapshot was spliced in.
    fn check_like_frontend(vfs: &Vfs, main: &str, path: &str) -> bool {
        let (_, _, includes) = parse_recording(vfs, &[], main).unwrap();
        let full = Frontend::new(vfs.clone()).parse_translation_unit(path);
        let checked = check(vfs, &[], path, &includes);
        let (stats, spliced) = match (checked, full) {
            (Ok(checked), Ok(full)) => {
                let (a, b) = (&checked.0, &full.stats);
                assert_eq!(a.files_entered, b.files_entered);
                assert_eq!(a.headers, b.headers);
                assert_eq!(a.lines_compiled, b.lines_compiled);
                assert_eq!(a.lines_per_file, b.lines_per_file);
                assert_eq!(a.include_edges, b.include_edges);
                assert_eq!(a.macro_expansions, b.macro_expansions);
                checked
            }
            (Err(_), Err(_)) => return false,
            (checked, full) => panic!("verdicts differ: {checked:?} vs {:?}", full.map(|_| ())),
        };
        let _ = stats;
        spliced
    }

    const CORE: &str = "#pragma once\n#include <impl.hpp>\n#define TWICE(x) ((x) + (x))\nnamespace k { inline int f() { auto l = [](int v) { return TWICE(v); }; return l(1); } }\n";
    const IMPL: &str = "#pragma once\nnamespace k { namespace impl { struct S { int a; }; } }\n";

    #[test]
    fn a_nested_header_is_spliced_into_a_tu_that_includes_it_first() {
        // kernel.cpp -> functor.hpp (#pragma once) -> core.hpp -> impl.hpp
        let v = vfs(&[
            ("core.hpp", CORE),
            ("impl.hpp", IMPL),
            ("functor.hpp", "#pragma once\n#include <core.hpp>\nstruct F { int g(); };\n"),
            ("kernel.cpp", "#include \"functor.hpp\"\nint F::g() { return k::f(); }\n"),
            ("w.cpp", "// generated\n#include <core.hpp>\n#include \"functor.hpp\"\nint w() { return TWICE(k::f()); }\n"),
        ]);
        assert!(check_like_frontend(&v, "kernel.cpp", "w.cpp"));
        // The innermost header is a pristine include point too.
        let inner = vfs(&[
            ("core.hpp", CORE),
            ("impl.hpp", IMPL),
            (
                "kernel.cpp",
                "#include <core.hpp>\nint g() { return k::f(); }\n",
            ),
            ("w.cpp", "#include <impl.hpp>\nint w() { return 0; }\n"),
        ]);
        assert!(check_like_frontend(&inner, "kernel.cpp", "w.cpp"));
    }

    #[test]
    fn a_changed_context_or_closure_falls_back_to_a_full_check() {
        let files = [
            ("core.hpp", CORE),
            ("impl.hpp", IMPL),
            (
                "kernel.cpp",
                "#include <core.hpp>\nint g() { return k::f(); }\n",
            ),
        ];
        // A define, or a token, before the header in the checked TU.
        for w in [
            "#define X 1\n#include <core.hpp>\n",
            "int before;\n#include <core.hpp>\n",
        ] {
            let mut v = vfs(&files);
            v.add_file("w.cpp", w);
            assert!(!check_like_frontend(&v, "kernel.cpp", "w.cpp"), "{w}");
        }
        // A file the header's closure includes is already `#pragma once`
        // where the checked TU includes the header.
        let v = vfs(&[
            ("empty.hpp", "#pragma once\n"),
            (
                "core.hpp",
                "#pragma once\n#define C 1\n#include <empty.hpp>\nint c;\n",
            ),
            ("kernel.cpp", "#include <core.hpp>\nint g;\n"),
            (
                "w.cpp",
                "#include <empty.hpp>\n#include <core.hpp>\nint w;\n",
            ),
        ]);
        assert!(!check_like_frontend(&v, "kernel.cpp", "w.cpp"));
        // An include in the header's closure that would now resolve to a
        // different file.
        let mut v = vfs(&[
            ("core.hpp", "#pragma once\n#include \"impl.hpp\"\n"),
            ("sys/impl.hpp", IMPL),
            ("kernel.cpp", "#include <core.hpp>\nint g();\n"),
        ]);
        v.add_search_path("sys");
        let (_, _, includes) = parse_recording(&v, &[], "kernel.cpp").unwrap();
        v.add_file("impl.hpp", "int shadow;\n");
        v.add_file("w.cpp", "#include <core.hpp>\n");
        assert!(!check(&v, &[], "w.cpp", &includes).unwrap().1);
        // Other predefined macros.
        let v = vfs(&[
            ("w.cpp", "#include <core.hpp>\n"),
            files[0],
            files[1],
            files[2],
        ]);
        let (_, _, includes) = parse_recording(&v, &[], "kernel.cpp").unwrap();
        let defines = [("X".to_string(), "1".to_string())];
        assert!(!check(&v, &defines, "w.cpp", &includes).unwrap().1);
        assert!(check(&v, &[], "w.cpp", &includes).unwrap().1);
    }

    #[test]
    fn no_snapshot_is_taken_where_the_context_is_not_pristine() {
        let recorded = |main: &str| {
            let v = vfs(&[("core.hpp", CORE), ("impl.hpp", IMPL), ("m.cpp", main)]);
            let (_, _, includes) = parse_recording(&v, &[], "m.cpp").unwrap();
            includes
                .iter()
                .map(|s| v.path(s.pp.file).to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            recorded("#include <core.hpp>\nint m;\n"),
            ["impl.hpp", "core.hpp"]
        );
        assert!(recorded("#define M 1\n#include <core.hpp>\nint m;\n").is_empty());
        assert!(recorded("int m;\n#include <core.hpp>\n").is_empty());
        // `impl.hpp` was marked before `core.hpp` tried to include it.
        assert_eq!(
            recorded("#include <impl.hpp>\n#include <core.hpp>\nint m;\n"),
            ["impl.hpp"]
        );
        // A header that ends mid-declaration is no clean boundary.
        let v = vfs(&[
            ("open.hpp", "namespace n {\n"),
            ("m.cpp", "#include \"open.hpp\"\n}\n"),
        ]);
        assert!(parse_recording(&v, &[], "m.cpp").unwrap().2.is_empty());
    }
}
