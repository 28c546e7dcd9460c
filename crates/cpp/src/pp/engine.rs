//! The preprocessing engine: directives, include resolution, token output.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::error::{CppError, Result};
use crate::lex::{lex_file, Punct, Token, TokenKind};
use crate::loc::{FileId, Span};
use crate::pp::cond::eval_condition;
use crate::pp::macros::{MacroDef, MacroTable};
use crate::pp::stats::PpStats;
use crate::vfs::Vfs;

/// Maximum `#include` nesting depth before we assume a cycle.
const MAX_INCLUDE_DEPTH: usize = 200;

/// The result of preprocessing one translation unit.
#[derive(Debug)]
pub struct PpOutput {
    /// The macro-expanded, include-spliced token stream (ends with EOF).
    pub tokens: Vec<Token>,
    /// Statistics about what entered the TU.
    pub stats: PpStats,
}

/// Preprocesses `main_path` against `vfs` with an empty initial macro table.
///
/// # Errors
///
/// Fails when the main file is missing, an include cannot be resolved, a
/// directive is malformed, or nesting exceeds the cycle limit.
pub fn preprocess(vfs: &Vfs, main_path: &str) -> Result<PpOutput> {
    Preprocessor::new(vfs).run(main_path)
}

/// A configurable preprocessor (predefine macros before running).
#[derive(Debug)]
pub struct Preprocessor<'v> {
    vfs: &'v Vfs,
    macros: MacroTable,
    /// Files marked `#pragma once`, each with its rank in marking order.
    pragma_once: HashMap<FileId, usize>,
    stats: PpStats,
    out: Vec<Token>,
    depth: usize,
    /// Record a [`PpSnapshot`] at the main file's preamble boundary and a
    /// [`PpPoint`] at the exit of every file entered in a pristine context.
    capture: bool,
    snapshot: Option<PpSnapshot>,
    points: Vec<PpPoint>,
    /// With `capture`, what the points refer to.
    log: PpLog,
    /// Index of each name in `log.names`.
    name_ids: HashMap<String, u32>,
    /// True once a `#define` or `#undef` has run (predefined macros do
    /// not count): from then on no context is pristine.
    defined: bool,
    /// Include points this run may splice in instead of entering their
    /// file (see [`PpPoint::applies`]); emptied by the first splice.
    offered: Vec<(&'v PpPoint, &'v PpLog)>,
    /// Index into the offered points of the one spliced in, if any.
    spliced: Option<usize>,
    /// Work done by an earlier run whose state this one continues: files
    /// entered, lines, include edges and macro expansions, left out of
    /// this run's counters.
    reused: [usize; 4],
    /// Line of the last token before this run's first one.
    reused_last_line: Option<u32>,
}

/// The preprocessor's state at the end of the main file's preamble (its
/// leading block of directives and comments): everything needed to
/// continue preprocessing the main file from there as if the preamble had
/// just been processed. Taken only when no `#if` is open at the boundary.
#[derive(Debug, Clone)]
pub(crate) struct PpSnapshot {
    /// Byte offset in the main file where the preamble ends (the first
    /// token that is not part of a directive).
    pub offset: u32,
    /// Number of tokens the preamble produced (all from headers).
    pub tokens: usize,
    /// Line of the last token the preamble produced, if any.
    pub last_line: Option<u32>,
    pub macros: MacroTable,
    pub pragma_once: HashMap<FileId, usize>,
    /// Statistics so far; the main file's own lines are not in them yet.
    pub stats: PpStats,
    /// Distinct main-file lines the preamble delivered.
    pub main_lines: usize,
    /// Number of include points recorded before the boundary.
    pub points: usize,
}

/// A run's work for the counters: files entered, lines, include edges
/// and macro expansions.
fn work(s: &PpStats, expansions: usize) -> [usize; 4] {
    [
        s.files_entered.len(),
        s.lines_compiled,
        s.include_edges.len(),
        expansions,
    ]
}

/// What a recording run saw, in order. A [`PpPoint`] is a range of each
/// list, so the points of one run, nested or not, share a single log.
#[derive(Debug, Default)]
pub(crate) struct PpLog {
    /// Every file entry: the file, its content hash and the lines that
    /// entry delivered.
    entries: Vec<(FileId, u64, u32)>,
    /// Every `#include` resolved, including those `#pragma once` skipped.
    includes: Vec<Include>,
    /// The distinct include names, as written.
    names: Vec<Box<str>>,
    /// Files in the order `#pragma once` marked them.
    marks: Vec<FileId>,
}

/// One `#include` a run resolved: name `name` as written in `includer`,
/// quoted or angled, resolved to `target`.
#[derive(Debug, Clone, Copy)]
struct Include {
    includer: FileId,
    name: u32,
    quoted: bool,
    target: FileId,
}

/// The preprocessor's state at the exit of a header `file` that was
/// entered in a *pristine* context: no token output yet, no `#define` or
/// `#undef` run, so the macro table held only the predefined macros.
/// Another run that reaches an include of `file` in such a context can
/// splice this in instead of entering the file ([`PpPoint::applies`]).
/// What the subtree entered, included and marked are ranges of the
/// recording run's [`PpLog`].
#[derive(Debug, Clone)]
pub(crate) struct PpPoint {
    pub file: FileId,
    /// Files open when `file` was entered.
    depth: usize,
    /// Tokens the subtree output: the token index in the recording run
    /// where the subtree ends.
    pub tokens: usize,
    last_line: Option<u32>,
    /// The macro table at the exit.
    macros: MacroTable,
    /// Macro expansions the subtree performed.
    expansions: usize,
    entries: Range<usize>,
    includes: Range<usize>,
    marks: Range<usize>,
}

impl PpPoint {
    /// True when splicing this point in at an include of its file equals
    /// entering the file, for a run in a pristine context with the same
    /// predefined macros, `depth` files open and `pragma_once` marked:
    ///
    /// * every file the subtree entered has the same id and content;
    /// * every include still resolves to the same file in `vfs`;
    /// * no file the subtree tried to include is marked `#pragma once`
    ///   (the recording run had none marked either);
    /// * the subtree cannot hit the nesting limit it did not hit before.
    fn applies(
        &self,
        log: &PpLog,
        vfs: &Vfs,
        depth: usize,
        pragma_once: &HashMap<FileId, usize>,
    ) -> bool {
        depth <= self.depth
            && !pragma_once.contains_key(&self.file)
            && log.entries[self.entries.clone()]
                .iter()
                .all(|&(id, h, _)| (id.0 as usize) < vfs.len() && vfs.file_hash(id) == h)
            && log.includes[self.includes.clone()].iter().all(|inc| {
                !pragma_once.contains_key(&inc.target)
                    && vfs
                        .resolve_include(
                            &log.names[inc.name as usize],
                            Some(inc.includer),
                            inc.quoted,
                        )
                        .is_ok_and(|t| t == inc.target)
            })
    }
}

/// Where a recording run's counters stood when it entered a pristine
/// file.
struct PointEntry {
    depth: usize,
    expansions: usize,
    marks: usize,
    entries: usize,
    includes: usize,
}

/// Index of the first token of `tokens` (one lexed file) that is not part
/// of a preprocessor directive: the end of the file's preamble. `None`
/// when the file has no leading directive or nothing but directives.
pub(crate) fn preamble_end(tokens: &[Token]) -> Option<usize> {
    let mut i = 0;
    let mut prev_line = 0u32;
    while i < tokens.len() {
        let tok = &tokens[i];
        if matches!(tok.kind, TokenKind::Eof) {
            return None;
        }
        let at_line_start = tok.line != prev_line;
        if !(at_line_start && tok.kind.is_punct(Punct::Hash)) {
            return (i > 0).then_some(i);
        }
        // Skip the directive's tokens (same logical line).
        prev_line = tok.line;
        i += 1;
        while i < tokens.len() && tokens[i].line == prev_line {
            i += 1;
        }
    }
    None
}

#[derive(Debug, Clone, Copy)]
struct CondFrame {
    /// Whether any branch of this `#if` chain has been taken.
    taken: bool,
    /// Whether the current branch is active.
    active: bool,
    /// Whether the enclosing context was active.
    parent_active: bool,
}

impl<'v> Preprocessor<'v> {
    /// Creates a preprocessor over `vfs`.
    pub fn new(vfs: &'v Vfs) -> Self {
        Preprocessor {
            vfs,
            macros: MacroTable::new(),
            pragma_once: HashMap::new(),
            stats: PpStats::default(),
            out: Vec::new(),
            depth: 0,
            capture: false,
            snapshot: None,
            points: Vec::new(),
            log: PpLog::default(),
            name_ids: HashMap::new(),
            defined: false,
            offered: Vec::new(),
            spliced: None,
            reused: [0; 4],
            reused_last_line: None,
        }
    }

    /// Predefines an object-like macro (like `-DNAME=VALUE`).
    pub fn define(&mut self, name: &str, value: &str) {
        self.macros.define(name, MacroDef::object(value));
    }

    /// Runs the preprocessor on `main_path` and returns the TU tokens and
    /// stats.
    ///
    /// # Errors
    ///
    /// See [`preprocess`].
    pub fn run(self, main_path: &str) -> Result<PpOutput> {
        self.run_main(main_path).map(|(out, _)| out)
    }

    /// Like [`Preprocessor::run`], also returning the state at the end of
    /// the main file's preamble when there is a clean one, and a
    /// [`PpPoint`] for every file entered in a pristine context, in exit
    /// order, with the log they refer to.
    pub(crate) fn run_capturing(
        mut self,
        main_path: &str,
    ) -> Result<(PpOutput, Option<PpSnapshot>, Vec<PpPoint>, PpLog)> {
        self.capture = true;
        let (out, mut pp) = self.run_main(main_path)?;
        // The log lives as long as the parse's snapshots do.
        pp.log.entries.shrink_to_fit();
        pp.log.includes.shrink_to_fit();
        pp.log.names.shrink_to_fit();
        pp.log.marks.shrink_to_fit();
        Ok((out, pp.snapshot, pp.points, pp.log))
    }

    /// Like [`Preprocessor::run`], splicing in the first of `offered`
    /// that applies at an include of its file in a pristine context
    /// ([`PpPoint::applies`]). The points must have been recorded under
    /// this run's predefined macros. Returns the index of the point
    /// spliced in, if any; the output then holds only the tokens after
    /// it, and the statistics of the whole TU.
    pub(crate) fn run_offering(
        mut self,
        main_path: &str,
        offered: Vec<(&'v PpPoint, &'v PpLog)>,
    ) -> Result<(PpOutput, Option<usize>)> {
        self.offered = offered;
        let (out, pp) = self.run_main(main_path)?;
        Ok((out, pp.spliced))
    }

    /// Preprocesses `main_path`; returns the output and the spent
    /// preprocessor (for what the run recorded).
    fn run_main(mut self, main_path: &str) -> Result<(PpOutput, Self)> {
        let main = self
            .vfs
            .lookup(main_path)
            .ok_or_else(|| CppError::FileNotFound {
                path: main_path.into(),
            })?;
        self.process_file(main, true)?;
        let out = self.finish(main);
        Ok((out, self))
    }

    /// Continues preprocessing `main` from a snapshot of its preamble:
    /// `tokens` is the current lexed main file, whose tokens before
    /// `start` are byte-identical to the snapshot's preamble. Only the
    /// suffix is preprocessed; the output holds the suffix tokens and the
    /// statistics of the whole TU, equal to a full run's.
    pub(crate) fn resume(
        vfs: &'v Vfs,
        snap: &PpSnapshot,
        main: FileId,
        tokens: &[Token],
        start: usize,
    ) -> Result<PpOutput> {
        let mut pp = Preprocessor::new(vfs);
        pp.macros = snap.macros.clone();
        pp.pragma_once = snap.pragma_once.clone();
        pp.stats = snap.stats.clone();
        pp.depth = 1;
        pp.reused = work(&snap.stats, snap.macros.expansions);
        pp.reused_last_line = snap.last_line;
        let _file_span = yalla_obs::span("pp", vfs.path(main));
        let lines = pp.scan(main, &tokens[start..], false)?;
        pp.stats.add_lines(main, snap.main_lines + lines);
        Ok(pp.finish(main))
    }

    /// Counts the run's work (less the share [`Preprocessor::reused`]
    /// from an earlier run) and appends the EOF token.
    fn finish(&mut self, main: FileId) -> PpOutput {
        self.stats.macro_expansions = self.macros.expansions;
        let done = work(&self.stats, self.stats.macro_expansions);
        let before = self.reused;
        {
            use yalla_obs::metrics::names;
            let counters = [
                names::FILES_PREPROCESSED,
                names::LINES_PREPROCESSED,
                names::INCLUDES_RESOLVED,
                names::MACRO_EXPANSIONS,
            ];
            for (name, (done, before)) in counters.into_iter().zip(done.into_iter().zip(before)) {
                yalla_obs::count(name, (done - before) as i64);
            }
        }
        let last_line = self
            .out
            .last()
            .map(|t| t.line)
            .or(self.reused_last_line)
            .unwrap_or(1);
        self.out.push(Token {
            kind: TokenKind::Eof,
            span: Span::new(main, 0, 0),
            line: last_line,
        });
        PpOutput {
            tokens: std::mem::take(&mut self.out),
            stats: std::mem::take(&mut self.stats),
        }
    }

    /// True when nothing so far can change what a file entered now means,
    /// beyond the predefined macros and the `#pragma once` set.
    fn pristine(&self) -> bool {
        self.out.is_empty() && !self.defined && self.spliced.is_none()
    }

    fn process_file(&mut self, file: FileId, is_main: bool) -> Result<()> {
        if self.pragma_once.contains_key(&file) {
            return Ok(());
        }
        if self.depth >= MAX_INCLUDE_DEPTH {
            return Err(CppError::IncludeCycle {
                name: self.vfs.path(file).to_string(),
                span: Span::new(file, 0, 0),
            });
        }
        // A recording run logs every entry, and records the exit state of a
        // file entered in a pristine context (`record_point`).
        let entry = (self.capture && !is_main && self.pristine()).then_some(PointEntry {
            depth: self.depth,
            expansions: self.macros.expansions,
            marks: self.log.marks.len(),
            entries: self.log.entries.len(),
            includes: self.log.includes.len(),
        });
        let logged = self.log.entries.len();
        if self.capture {
            self.log.entries.push((file, self.vfs.file_hash(file), 0));
        }
        self.depth += 1;
        self.stats.enter_file(file, is_main);
        // One span per file entry; recursion through `handle_include` nests
        // these, so the trace mirrors the include tree.
        let _file_span = yalla_obs::span("pp", self.vfs.path(file));

        let tokens = {
            let _lex_span = yalla_obs::span("pp", "lex");
            lex_file(file, self.vfs.text(file))?
        };
        let capture = is_main && self.capture;
        let lines = self.scan(file, &tokens, capture)?;
        self.stats.add_lines(file, lines);
        self.depth -= 1;
        if self.capture {
            self.log.entries[logged].2 = lines as u32;
        }
        if let Some(entry) = entry {
            self.record_point(file, entry);
        }
        Ok(())
    }

    /// Records the [`PpPoint`] of pristine `file` at its exit — unless
    /// its subtree tried to include a file that was `#pragma once` at its
    /// entry: skipped here, that file would be entered by a run without
    /// the mark.
    fn record_point(&mut self, file: FileId, entry: PointEntry) {
        let includes = entry.includes..self.log.includes.len();
        let marked_before = |inc: &Include| {
            self.pragma_once
                .get(&inc.target)
                .is_some_and(|&rank| rank < entry.marks)
        };
        if self.log.includes[includes.clone()]
            .iter()
            .any(marked_before)
        {
            return;
        }
        self.points.push(PpPoint {
            file,
            depth: entry.depth,
            tokens: self.out.len(),
            last_line: self.out.last().map(|t| t.line),
            macros: self.macros.clone(),
            expansions: self.macros.expansions - entry.expansions,
            entries: entry.entries..self.log.entries.len(),
            includes,
            marks: entry.marks..self.log.marks.len(),
        });
    }

    /// Continues the run as if `point`'s file had just been entered and
    /// left: its macros, `#pragma once` marks and statistics, none of its
    /// tokens (the run is pristine, so they would come first).
    fn splice(&mut self, index: usize) {
        let (point, log) = self.offered[index];
        let edges_before = self.stats.include_edges.len();
        let (files_before, lines_before) =
            (self.stats.files_entered.len(), self.stats.lines_compiled);
        for &(file, _, lines) in &log.entries[point.entries.clone()] {
            self.stats.enter_file(file, false);
            self.stats.add_lines(file, lines as usize);
        }
        self.stats.include_edges.extend(
            log.includes[point.includes.clone()]
                .iter()
                .map(|inc| (inc.includer, inc.target)),
        );
        for &file in &log.marks[point.marks.clone()] {
            self.mark_once(file);
        }
        let expansions = self.macros.expansions + point.expansions;
        self.macros = point.macros.clone();
        self.macros.expansions = expansions;
        self.reused = [
            self.stats.files_entered.len() - files_before,
            self.stats.lines_compiled - lines_before,
            self.stats.include_edges.len() - edges_before,
            point.expansions,
        ];
        self.reused_last_line = point.last_line;
        self.spliced = Some(index);
        self.offered.clear();
    }

    /// Marks `file` `#pragma once`.
    fn mark_once(&mut self, file: FileId) {
        let rank = self.pragma_once.len();
        if let Entry::Vacant(slot) = self.pragma_once.entry(file) {
            slot.insert(rank);
            if self.capture {
                self.log.marks.push(file);
            }
        }
    }

    /// Preprocesses one file's `tokens` (from the file's start, or from a
    /// preamble boundary on resume) and returns how many distinct lines it
    /// delivered. With `capture`, records a [`PpSnapshot`] at the
    /// preamble boundary.
    fn scan(&mut self, file: FileId, tokens: &[Token], capture: bool) -> Result<usize> {
        let boundary = if capture { preamble_end(tokens) } else { None };
        let mut conds: Vec<CondFrame> = Vec::new();
        let mut pending: Vec<Token> = Vec::new();
        let mut counted_lines: HashSet<u32> = HashSet::new();

        let mut i = 0;
        let mut prev_line = 0u32;
        while i < tokens.len() {
            let tok = &tokens[i];
            if matches!(tok.kind, TokenKind::Eof) {
                break;
            }
            if boundary == Some(i) && conds.is_empty() {
                self.snapshot = Some(PpSnapshot {
                    offset: tok.span.start,
                    tokens: self.out.len(),
                    last_line: self.out.last().map(|t| t.line),
                    macros: self.macros.clone(),
                    pragma_once: self.pragma_once.clone(),
                    stats: self.stats.clone(),
                    main_lines: counted_lines.len(),
                    points: self.points.len(),
                });
            }
            let at_line_start = tok.line != prev_line;
            prev_line = tok.line;
            let active = conds.iter().all(|c| c.active);

            if at_line_start && tok.kind.is_punct(Punct::Hash) {
                // Collect the directive's tokens (same logical line).
                let dir_line = tok.line;
                let mut j = i + 1;
                while j < tokens.len()
                    && tokens[j].line == dir_line
                    && !matches!(tokens[j].kind, TokenKind::Eof)
                {
                    j += 1;
                }
                let dir = &tokens[i + 1..j];
                self.flush(&mut pending);
                if active {
                    counted_lines.insert(dir_line);
                }
                self.handle_directive(file, dir, tok.span, &mut conds, active)?;
                i = j;
                prev_line = dir_line;
                continue;
            }

            if active {
                counted_lines.insert(tok.line);
                pending.push(tok.clone());
            }
            i += 1;
        }
        self.flush(&mut pending);
        Ok(counted_lines.len())
    }

    fn flush(&mut self, pending: &mut Vec<Token>) {
        if pending.is_empty() {
            return;
        }
        self.macros.expand(pending, &mut self.out);
        pending.clear();
    }

    fn handle_directive(
        &mut self,
        file: FileId,
        dir: &[Token],
        hash_span: Span,
        conds: &mut Vec<CondFrame>,
        active: bool,
    ) -> Result<()> {
        let name = match dir.first().map(|t| &t.kind) {
            Some(TokenKind::Ident(n)) => n.as_str(),
            // A lone `#` is a null directive.
            None => return Ok(()),
            _ => {
                return Err(CppError::Directive {
                    message: "expected directive name after `#`".into(),
                    span: hash_span,
                })
            }
        };
        let rest = &dir[1..];
        match name {
            "include" => {
                if active {
                    self.handle_include(file, rest, hash_span)?;
                }
            }
            "define" => {
                if active {
                    self.defined = true;
                    self.handle_define(rest, hash_span)?;
                }
            }
            "undef" => {
                if active {
                    self.defined = true;
                    if let Some(TokenKind::Ident(n)) = rest.first().map(|t| &t.kind) {
                        self.macros.undef(n);
                    }
                }
            }
            "ifdef" | "ifndef" => {
                let defined = match rest.first().map(|t| &t.kind) {
                    Some(TokenKind::Ident(n)) => self.macros.is_defined(n),
                    _ => {
                        return Err(CppError::Directive {
                            message: format!("#{name} requires a macro name"),
                            span: hash_span,
                        })
                    }
                };
                let cond = if name == "ifdef" { defined } else { !defined };
                conds.push(CondFrame {
                    taken: active && cond,
                    active: active && cond,
                    parent_active: active,
                });
            }
            "if" => {
                let cond = if active {
                    eval_condition(rest, &mut self.macros, hash_span)?
                } else {
                    false
                };
                conds.push(CondFrame {
                    taken: active && cond,
                    active: active && cond,
                    parent_active: active,
                });
            }
            "elif" => {
                let frame = conds.last_mut().ok_or_else(|| CppError::Directive {
                    message: "#elif without #if".into(),
                    span: hash_span,
                })?;
                if frame.taken || !frame.parent_active {
                    frame.active = false;
                } else {
                    let parent = frame.parent_active;
                    // Evaluate in the parent context.
                    let cond = eval_condition(rest, &mut self.macros, hash_span)?;
                    let frame = conds.last_mut().expect("frame still present");
                    frame.active = parent && cond;
                    frame.taken |= frame.active;
                }
            }
            "else" => {
                let frame = conds.last_mut().ok_or_else(|| CppError::Directive {
                    message: "#else without #if".into(),
                    span: hash_span,
                })?;
                frame.active = frame.parent_active && !frame.taken;
                frame.taken = true;
            }
            "endif" => {
                conds.pop().ok_or_else(|| CppError::Directive {
                    message: "#endif without #if".into(),
                    span: hash_span,
                })?;
            }
            "pragma" => {
                if active && rest.first().is_some_and(|t| t.kind.is_ident("once")) {
                    self.mark_once(file);
                }
            }
            "error" => {
                if active {
                    let msg: Vec<String> = rest.iter().map(|t| t.kind.to_string()).collect();
                    return Err(CppError::Directive {
                        message: format!("#error: {}", msg.join(" ")),
                        span: hash_span,
                    });
                }
            }
            // Ignored directives.
            "warning" | "line" => {}
            other => {
                return Err(CppError::Directive {
                    message: format!("unknown directive #{other}"),
                    span: hash_span,
                })
            }
        }
        Ok(())
    }

    fn handle_include(&mut self, includer: FileId, rest: &[Token], span: Span) -> Result<()> {
        let (name, quoted) = match rest.first().map(|t| &t.kind) {
            Some(TokenKind::Str(s)) => (s.clone(), true),
            Some(TokenKind::Punct(Punct::Lt)) => {
                // Reconstruct the header name from the original text
                // between `<` and the final `>` of the directive.
                let lt = &rest[0];
                let gt = rest
                    .iter()
                    .rev()
                    .find(|t| t.kind.is_punct(Punct::Gt))
                    .ok_or_else(|| CppError::Directive {
                        message: "unterminated <...> include".into(),
                        span,
                    })?;
                let text = self.vfs.text(includer);
                let name = text
                    .get(lt.span.end as usize..gt.span.start as usize)
                    .unwrap_or("")
                    .trim()
                    .to_string();
                (name, false)
            }
            _ => {
                return Err(CppError::Directive {
                    message: "#include expects \"file\" or <file>".into(),
                    span,
                })
            }
        };
        let target = self
            .vfs
            .resolve_include(&name, Some(includer), quoted)
            .map_err(|_| CppError::IncludeNotFound {
                name: name.clone(),
                span,
            })?;
        self.stats.include_edges.push((includer, target));
        if self.capture {
            let name_id = match self.name_ids.get(&name) {
                Some(&id) => id,
                None => {
                    let id = self.log.names.len() as u32;
                    self.log.names.push(name.as_str().into());
                    self.name_ids.insert(name, id);
                    id
                }
            };
            self.log.includes.push(Include {
                includer,
                name: name_id,
                quoted,
                target,
            });
        }
        if self.pristine() {
            let (vfs, depth, once) = (self.vfs, self.depth, &self.pragma_once);
            if let Some(i) = self
                .offered
                .iter()
                .position(|(p, log)| p.file == target && p.applies(log, vfs, depth, once))
            {
                self.splice(i);
                return Ok(());
            }
        }
        self.process_file(target, false)
    }

    fn handle_define(&mut self, rest: &[Token], span: Span) -> Result<()> {
        let (name, name_tok) = match rest.first() {
            Some(t) => match &t.kind {
                TokenKind::Ident(n) => (n.clone(), t),
                _ => {
                    return Err(CppError::Directive {
                        message: "#define requires a name".into(),
                        span,
                    })
                }
            },
            None => {
                return Err(CppError::Directive {
                    message: "#define requires a name".into(),
                    span,
                })
            }
        };
        // Function-like only when `(` directly abuts the macro name.
        let is_function_like = rest
            .get(1)
            .is_some_and(|t| t.kind.is_punct(Punct::LParen) && t.span.start == name_tok.span.end);
        if !is_function_like {
            self.macros.define(
                name,
                MacroDef {
                    params: None,
                    variadic: false,
                    body: rest[1..].to_vec(),
                },
            );
            return Ok(());
        }
        let mut params = Vec::new();
        let mut variadic = false;
        let mut i = 2;
        loop {
            match rest.get(i).map(|t| &t.kind) {
                Some(TokenKind::Punct(Punct::RParen)) => {
                    i += 1;
                    break;
                }
                Some(TokenKind::Ident(p)) => {
                    params.push(p.clone());
                    i += 1;
                    if rest.get(i).is_some_and(|t| t.kind.is_punct(Punct::Comma)) {
                        i += 1;
                    }
                }
                Some(TokenKind::Punct(Punct::Ellipsis)) => {
                    variadic = true;
                    i += 1;
                }
                _ => {
                    return Err(CppError::Directive {
                        message: "malformed macro parameter list".into(),
                        span,
                    })
                }
            }
        }
        self.macros.define(
            name,
            MacroDef {
                params: Some(params),
                variadic,
                body: rest[i..].to_vec(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(out: &PpOutput) -> String {
        out.tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Eof))
            .map(|t| t.kind.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn pp(files: &[(&str, &str)], main: &str) -> PpOutput {
        let mut vfs = Vfs::new();
        for (p, t) in files {
            vfs.add_file(p, *t);
        }
        preprocess(&vfs, main).unwrap()
    }

    #[test]
    fn include_splices_tokens() {
        let out = pp(
            &[
                ("a.hpp", "int a;"),
                ("main.cpp", "#include \"a.hpp\"\nint b;"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int a ; int b ;");
        assert_eq!(out.stats.header_count(), 1);
        assert_eq!(out.stats.lines_compiled, 3); // a.hpp:1 + main:2
    }

    #[test]
    fn angled_include_with_path() {
        let mut vfs = Vfs::new();
        vfs.add_file("sys/deep/x.hpp", "int x;");
        vfs.add_file("main.cpp", "#include <deep/x.hpp>\n");
        vfs.add_search_path("sys");
        let out = preprocess(&vfs, "main.cpp").unwrap();
        assert_eq!(render(&out), "int x ;");
    }

    #[test]
    fn missing_include_is_error() {
        let mut vfs = Vfs::new();
        vfs.add_file("main.cpp", "#include \"nope.hpp\"\n");
        let err = preprocess(&vfs, "main.cpp").unwrap_err();
        assert!(matches!(err, CppError::IncludeNotFound { .. }));
    }

    #[test]
    fn include_guard_prevents_double_entry() {
        let out = pp(
            &[
                ("g.hpp", "#ifndef G_HPP\n#define G_HPP\nint g;\n#endif\n"),
                ("main.cpp", "#include \"g.hpp\"\n#include \"g.hpp\"\nint m;"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int g ; int m ;");
        // Both include edges recorded even though second entry emitted nothing.
        assert_eq!(out.stats.include_edges.len(), 2);
    }

    #[test]
    fn pragma_once_prevents_reentry() {
        let out = pp(
            &[
                ("p.hpp", "#pragma once\nint p;\n"),
                ("main.cpp", "#include \"p.hpp\"\n#include \"p.hpp\"\n"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int p ;");
    }

    #[test]
    fn transitive_includes_counted() {
        let out = pp(
            &[
                ("a.hpp", "#include \"b.hpp\"\nint a;"),
                ("b.hpp", "#include \"c.hpp\"\nint b;"),
                ("c.hpp", "int c;"),
                ("main.cpp", "#include \"a.hpp\"\nint m;"),
            ],
            "main.cpp",
        );
        assert_eq!(render(&out), "int c ; int b ; int a ; int m ;");
        assert_eq!(out.stats.header_count(), 3);
        assert_eq!(out.stats.files_entered.len(), 4);
    }

    #[test]
    fn include_cycle_is_detected() {
        let mut vfs = Vfs::new();
        vfs.add_file("a.hpp", "#include \"b.hpp\"\n");
        vfs.add_file("b.hpp", "#include \"a.hpp\"\n");
        vfs.add_file("main.cpp", "#include \"a.hpp\"\n");
        let err = preprocess(&vfs, "main.cpp").unwrap_err();
        assert!(matches!(err, CppError::IncludeCycle { .. }));
    }

    #[test]
    fn object_macro_definition_and_use() {
        let out = pp(&[("m.cpp", "#define N 4\nint x = N;")], "m.cpp");
        assert_eq!(render(&out), "int x = 4 ;");
    }

    #[test]
    fn function_macro_requires_adjacent_paren() {
        // `#define F (x)` is object-like with body `(x)`.
        let out = pp(&[("m.cpp", "#define F (x)\nF")], "m.cpp");
        assert_eq!(render(&out), "( x )");
        let out = pp(&[("m.cpp", "#define F(a) a+a\nF(2)")], "m.cpp");
        assert_eq!(render(&out), "2 + 2");
    }

    #[test]
    fn conditionals_select_branches() {
        let src = "#define A 1\n#if A\nint yes;\n#else\nint no;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int yes ;");
    }

    #[test]
    fn elif_chains() {
        let src = "#define V 2\n#if V == 1\nint one;\n#elif V == 2\nint two;\n#elif V == 3\nint three;\n#else\nint other;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int two ;");
    }

    #[test]
    fn nested_inactive_regions_stay_inactive() {
        let src = "#if 0\n#if 1\nint hidden;\n#endif\n#else\nint shown;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int shown ;");
    }

    #[test]
    fn inactive_includes_are_skipped() {
        let out = pp(
            &[("m.cpp", "#if 0\n#include \"missing.hpp\"\n#endif\nint x;")],
            "m.cpp",
        );
        assert_eq!(render(&out), "int x ;");
    }

    #[test]
    fn ifdef_and_ifndef() {
        let src = "#define X\n#ifdef X\nint a;\n#endif\n#ifndef X\nint b;\n#endif\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int a ;");
    }

    #[test]
    fn error_directive_fires_only_when_active() {
        let ok = pp(&[("m.cpp", "#if 0\n#error bad\n#endif\nint x;")], "m.cpp");
        assert_eq!(render(&ok), "int x ;");
        let mut vfs = Vfs::new();
        vfs.add_file("m.cpp", "#error boom\n");
        assert!(preprocess(&vfs, "m.cpp").is_err());
    }

    #[test]
    fn multiline_define_via_splice() {
        let src = "#define SUM(a, b) \\\n  ((a) + (b))\nint x = SUM(1, 2);";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        assert_eq!(render(&out), "int x = ( ( 1 ) + ( 2 ) ) ;");
    }

    #[test]
    fn lines_skipped_by_conditionals_are_not_counted() {
        let src = "#if 0\nint a;\nint b;\nint c;\n#endif\nint live;\n";
        let out = pp(&[("m.cpp", src)], "m.cpp");
        // Counted: the `#if` line (seen while active) and the live line.
        // Everything inside the inactive region, including its `#endif`,
        // is skipped.
        assert_eq!(out.stats.lines_compiled, 2);
    }

    #[test]
    fn predefined_macros_via_define_api() {
        let mut vfs = Vfs::new();
        vfs.add_file("m.cpp", "#ifdef FAST\nint fast;\n#endif\n");
        let mut pp = Preprocessor::new(&vfs);
        pp.define("FAST", "1");
        let out = pp.run("m.cpp").unwrap();
        assert_eq!(render(&out), "int fast ;");
    }

    #[test]
    fn macro_expansion_count_recorded() {
        let out = pp(&[("m.cpp", "#define A 1\nint x = A + A;")], "m.cpp");
        assert_eq!(out.stats.macro_expansions, 2);
    }
}
