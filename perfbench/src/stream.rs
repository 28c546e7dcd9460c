//! Seeded, replayable edit streams.
//!
//! A stream is a sequence of steps, each of one [`Kind`]. Kinds repeat in
//! rounds: every round holds the workload's kind mix once, in an order
//! shuffled by the seed. Edit kinds are defined by what they change in the
//! tree, never by how the tool reacts to them. Everything here is a pure
//! function of the seed and the step index; the time budget only decides
//! where a run stops.

use std::collections::BTreeSet;

/// Comment marker written by body and header edits.
pub const MARKER: &str = "// perfbench edit ";

/// splitmix64: a small seeded generator with a full-period state walk.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A child generator for an independent sub-stream.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// What one step of a stream does before its rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A changed literal or comment inside a function body of a source.
    Body,
    /// No edit at all.
    Noop,
    /// A change to one file in the substituted header's include closure.
    Header,
    /// A source starts calling a header function no source called before.
    Usage,
    /// A fresh session over the same store and the current tree.
    Restart,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Body => "body",
            Kind::Noop => "noop",
            Kind::Header => "header",
            Kind::Usage => "usage",
            Kind::Restart => "restart",
        }
    }
}

/// The kind sequence of a stream: rounds of `mix`, each shuffled.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    mix: Vec<Kind>,
    round: Vec<Kind>,
}

impl Schedule {
    pub fn new(rng: Rng, mix: &[Kind]) -> Self {
        Schedule {
            rng,
            mix: mix.to_vec(),
            round: Vec::new(),
        }
    }

    pub fn next_kind(&mut self) -> Kind {
        if self.round.is_empty() {
            self.round = self.mix.clone();
            // Fisher-Yates; popped from the back.
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
        }
        self.round.pop().expect("mix is not empty")
    }
}

/// Body edit by comment: sets `// perfbench edit <value>` as the first line
/// inside the first top-level function body of `text` (replacing the
/// marker an earlier edit put there). `None` when `text` has no top-level
/// function definition whose opening brace ends its signature line.
pub fn body_comment_edit(text: &str, value: u64) -> Option<String> {
    let mut lines: Vec<&str> = text.lines().collect();
    let marker = format!("  {MARKER}{value}");
    if let Some(i) = lines
        .iter()
        .position(|l| l.trim_start().starts_with(MARKER))
    {
        lines[i] = &marker;
    } else {
        let open = lines.iter().position(|l| is_function_head(l))?;
        lines.insert(open + 1, &marker);
    }
    Some(join_lines(&lines, text))
}

/// A top-level line that opens a function body: unindented, has a
/// parameter list, and ends with `{`.
fn is_function_head(line: &str) -> bool {
    let first = line.chars().next().unwrap_or(' ');
    let trimmed = line.trim_end();
    !first.is_whitespace()
        && trimmed.ends_with('{')
        && trimmed.contains('(')
        && trimmed.contains(')')
        && !["namespace", "class", "struct", "enum", "union", "#"]
            .iter()
            .any(|k| trimmed.starts_with(k))
}

/// Body edit by literal: replaces the line that starts with `prefix`
/// (e.g. `  int acc = a`) with `<prefix> + <value>;`. `None` when no line
/// starts with `prefix`.
pub fn literal_edit(text: &str, prefix: &str, value: u64) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let line = lines.iter_mut().find(|l| l.starts_with(prefix))?;
    *line = format!("{prefix} + {value};");
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    Some(join_lines(&refs, text))
}

/// Sets `// perfbench edit <value>` as the last line of `text` (replacing
/// the marker an earlier edit put there): the header edit, and how
/// serve-autosave makes distinct trees for its cold shards.
pub fn trailing_comment_edit(text: &str, value: u64) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let marker = format!("{MARKER}{value}");
    if lines.last().is_some_and(|l| l.starts_with(MARKER)) {
        lines.pop();
    }
    lines.push(&marker);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn join_lines(lines: &[&str], original: &str) -> String {
    let mut out = lines.join("\n");
    if original.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Names `h<L>_<I>` called as `<ns>::h<L>_<I>(` anywhere in `texts`.
pub fn called_functions<'a>(texts: impl Iterator<Item = &'a str>, ns: &str) -> BTreeSet<String> {
    let needle = format!("{ns}::h");
    let mut out = BTreeSet::new();
    for text in texts {
        let mut rest = text;
        while let Some(at) = rest.find(&needle) {
            let tail = &rest[at + ns.len() + 2..];
            let name_len = tail
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(tail.len());
            out.insert(tail[..name_len].to_string());
            rest = &tail[name_len..];
        }
    }
    out
}

/// Shared functions `h<L>_<I>` with `L >= min_layer` defined as
/// `inline int h<L>_<I>(` in `texts`.
pub fn defined_functions<'a>(
    texts: impl Iterator<Item = &'a str>,
    min_layer: usize,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for text in texts {
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("inline int h") else {
                continue;
            };
            let Some(paren) = rest.find('(') else {
                continue;
            };
            let name = &rest[..paren];
            let layer = name.split('_').next().and_then(|l| l.parse::<usize>().ok());
            if layer.is_some_and(|l| l >= min_layer) {
                out.insert(format!("h{name}"));
            }
        }
    }
    out
}

/// Usage edit: inserts `<indent>acc = acc + <ns>::<function>(acc % 7 + 1,
/// <k>);` before the first line starting with `anchor` (e.g.
/// `  return acc;`). `None` when no such line exists.
pub fn usage_edit(text: &str, anchor: &str, ns: &str, function: &str, k: u64) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = lines.iter().position(|l| l.starts_with(anchor))?;
    lines.insert(
        at,
        format!("  acc = acc + {ns}::{function}(acc % 7 + 1, {k});"),
    );
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    Some(join_lines(&refs, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "#include <lib.hpp>\nusing L::C;\nint f(int a) {\n  return a;\n}\n";

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let mix = [
            Kind::Body,
            Kind::Noop,
            Kind::Header,
            Kind::Usage,
            Kind::Restart,
        ];
        let take = |seed| {
            let mut s = Schedule::new(Rng::new(seed), &mix);
            (0..50).map(|_| s.next_kind()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        // Every round holds the mix exactly once.
        let seq = take(3);
        for round in seq.chunks(mix.len()) {
            let mut r = round.to_vec();
            r.sort();
            assert_eq!(r, mix.to_vec());
        }
    }

    #[test]
    fn edit_texts_are_deterministic_and_replace_their_marker() {
        let a = body_comment_edit(SRC, 11).unwrap();
        assert_eq!(a, body_comment_edit(SRC, 11).unwrap());
        assert!(a.contains("int f(int a) {\n  // perfbench edit 11\n  return a;"));
        let b = body_comment_edit(&a, 12).unwrap();
        assert_eq!(b.matches(MARKER).count(), 1);
        assert!(b.contains("edit 12") && b.ends_with('\n'));
        assert_eq!(body_comment_edit("namespace n {\n}\n", 1), None);

        let h = trailing_comment_edit("#pragma once\nint g();", 5);
        assert_eq!(h, "#pragma once\nint g();\n// perfbench edit 5\n");
        assert_eq!(
            trailing_comment_edit(&h, 6),
            "#pragma once\nint g();\n// perfbench edit 6\n"
        );

        let l = literal_edit("int f(int a) {\n  int acc = a;\n}\n", "  int acc = a", 9).unwrap();
        assert_eq!(l, "int f(int a) {\n  int acc = a + 9;\n}\n");
        assert_eq!(
            literal_edit(&l, "  int acc = a", 3)
                .unwrap()
                .matches("+ 3;")
                .count(),
            1
        );
    }

    #[test]
    fn usage_scan_finds_uncalled_functions() {
        let shared = [
            "namespace mg {\ninline int h0_1(int a, int b) { return a; }\n}\n",
            "namespace mg {\ninline int h1_0(int a, int b) { return a; }\n}\n",
            "namespace mg {\ninline int h2_3(int a, int b) { return a; }\n}\n",
        ];
        let tus = ["int tu0_fn(int a) {\n  int acc = a;\n  acc = acc + mg::h1_0(acc, 2);\n  return acc;\n}\n"];
        let defined = defined_functions(shared.iter().copied(), 1);
        assert_eq!(defined.into_iter().collect::<Vec<_>>(), ["h1_0", "h2_3"]);
        let called = called_functions(tus.iter().copied(), "mg");
        assert_eq!(called.into_iter().collect::<Vec<_>>(), ["h1_0"]);
        let edited = usage_edit(tus[0], "  return acc;", "mg", "h2_3", 4).unwrap();
        assert!(edited.contains("  acc = acc + mg::h2_3(acc % 7 + 1, 4);\n  return acc;"));
        assert!(called_functions(std::iter::once(edited.as_str()), "mg").contains("h2_3"));
    }
}
