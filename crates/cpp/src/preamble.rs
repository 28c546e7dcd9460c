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

use std::sync::Arc;

use crate::ast::{DeclPrefix, Decls, TranslationUnit};
use crate::error::Result;
use crate::frontend::ParsedTu;
use crate::hash;
use crate::lex::{lex_file, Token};
use crate::loc::FileId;
use crate::parse::Parser;
use crate::pp::{preamble_end, PpSnapshot, Preprocessor};
use crate::vfs::Vfs;

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
/// then already shares the snapshot's declarations.
///
/// # Errors
///
/// Propagates preprocessing and parsing failures.
pub(crate) fn parse_recording(
    vfs: &Vfs,
    defines: &[(String, String)],
    path: &str,
) -> Result<(ParsedTu, Option<Arc<Preamble>>)> {
    let (out, snap) = {
        let _span = yalla_obs::span("frontend", "preprocess");
        let mut pp = Preprocessor::new(vfs);
        for (k, v) in defines {
            pp.define(k, v);
        }
        pp.run_capturing(path)?
    };
    let (mut decls, split) = {
        let _span = yalla_obs::span("frontend", "parse");
        Parser::new(out.tokens).parse_split(snap.as_ref().map(|s| s.tokens))?
    };
    yalla_obs::count(yalla_obs::metrics::names::AST_DECLS, decls.len() as i64);
    let stats = out.stats;
    let main = stats.files_entered[0];
    // A preamble that re-enters the main file read all of it, not just
    // the preamble bytes the snapshot would be keyed on.
    let snap = snap.filter(|pp| pp.stats.include_edges.iter().all(|&(_, to)| to != main));
    let (Some(pp), Some(split)) = (snap, split) else {
        let ast = TranslationUnit {
            decls: decls.into(),
        };
        return Ok((ParsedTu { ast, stats }, None));
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
    };
    let ast = TranslationUnit {
        decls: Decls::with_prefix(prefix, own),
    };
    Ok((ParsedTu { ast, stats }, Some(Arc::new(preamble))))
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
        Parser::resuming(out.tokens, pre.lambda_counter).parse_split(None)?
    };
    yalla_obs::count(yalla_obs::metrics::names::AST_DECLS, own.len() as i64);
    Ok(ParsedTu {
        ast: TranslationUnit {
            decls: Decls::with_prefix(Arc::clone(&pre.decls), own),
        },
        stats: out.stats,
    })
}
