//! Post-substitution verification.
//!
//! The paper claims Header Substitution "replaces include statements in
//! source files while guaranteeing that the code still compiles and runs
//! correctly". This module provides that guarantee for the reproduction:
//! after the engine rewrites everything, it
//!
//! 1. re-parses the rewritten sources against the generated lightweight
//!    header (the user-TU compile of Figure 6 step ④),
//! 2. checks the incomplete-type rules over the re-parsed TU (what a real
//!    compiler's semantic analysis would reject),
//! 3. parses the generated wrappers file against the *original* expensive
//!    header (the wrapper compile of Figure 6 step ③).
//!
//! Both TUs go through a [`ParseCache`]. A [`crate::Session`] owns one
//! for its whole life, so after a body edit the unchanged wrappers TU is
//! a whole-TU hit ([`ParseCache::check`] keeps only its closure, not its
//! AST) and the user TU resumes from its preamble snapshot; the user-TU
//! parse also yields the report's after-substitution statistics. On a
//! cold run or a header edit, the wrappers TU continues from the include
//! snapshot the session's own parse took after the expensive header, so
//! the header is preprocessed and parsed once per run, not twice.

use std::collections::{BTreeMap, HashSet};

use yalla_analysis::incomplete::check_incomplete_rules;
use yalla_analysis::symbols::{SymbolKind, SymbolTable};
use yalla_cpp::cache::ParseCache;
use yalla_cpp::preamble::IncludeSnapshot;
use yalla_cpp::vfs::Vfs;

use crate::report::{TuStats, Verification};

/// Runs the verification pass.
///
/// `original_vfs` is the pre-substitution file system; `rewritten` maps
/// source paths to their rewritten text; `lightweight` and `wrappers` are
/// the generated artifacts; `main_source` is the TU root.
pub fn verify(
    original_vfs: &Vfs,
    rewritten: &BTreeMap<String, String>,
    lightweight_name: &str,
    lightweight: &str,
    wrappers_name: &str,
    wrappers: &str,
    main_source: &str,
) -> Verification {
    let program = Substituted {
        rewritten,
        lightweight_name,
        lightweight,
        wrappers_name,
        wrappers,
        main_source,
    };
    verify_with(
        &ParseCache::with_budget(None, None),
        original_vfs,
        &program,
        true,
        &[],
    )
    .verification
}

/// The substituted program a verification pass checks.
pub(crate) struct Substituted<'a> {
    pub rewritten: &'a BTreeMap<String, String>,
    pub lightweight_name: &'a str,
    pub lightweight: &'a str,
    pub wrappers_name: &'a str,
    pub wrappers: &'a str,
    pub main_source: &'a str,
}

/// What [`verify_with`] found; a session memoizes it as the verify
/// stage's artifact.
#[derive(Debug, Clone)]
pub(crate) struct Verified {
    pub verification: Verification,
    /// Stats of the substituted user TU, when it parses.
    pub after: Option<TuStats>,
    /// True when the wrappers TU was checked from an include snapshot on.
    pub wrappers_resumed: bool,
}

/// Parses the substituted user TU through `cache` and returns its stats;
/// with `check`, also runs the full verification pass (incomplete-type
/// rules, wrappers TU) and returns its verdict, else a default one. The
/// wrappers TU is checked from the first of `includes` (snapshots of the
/// original TU's parse) that applies to it.
pub(crate) fn verify_with(
    cache: &ParseCache,
    original_vfs: &Vfs,
    program: &Substituted<'_>,
    check: bool,
    includes: &[IncludeSnapshot],
) -> Verified {
    let mut v = Verification::default();
    // The two TUs are independent: the wrappers TU (the expensive header)
    // is checked on a second thread while this one handles the user TU.
    std::thread::scope(|scope| {
        let wrappers = check.then(|| {
            scope.spawn(|| {
                // --- 3: the wrappers TU against the real header ----------
                let mut wrap_vfs = original_vfs.clone();
                wrap_vfs.add_file(program.lightweight_name, program.lightweight);
                wrap_vfs.add_file(program.wrappers_name, program.wrappers);
                let _span = yalla_obs::span("verify", "wrappers_tu");
                cache.check(&wrap_vfs, &[], program.wrappers_name, includes)
            })
        });

        // --- 1+2: the substituted user TU ------------------------------
        let mut user_vfs = original_vfs.clone();
        for (path, text) in program.rewritten {
            user_vfs.add_file(path, text.clone());
        }
        user_vfs.add_file(program.lightweight_name, program.lightweight);
        let user = {
            let _span = yalla_obs::span("verify", "user_tu");
            cache.parse(&user_vfs, &[], program.main_source)
        };
        let after = user.as_ref().ok().map(|p| TuStats {
            loc: p.tu.stats.lines_compiled,
            headers: p.tu.stats.header_count(),
        });
        let Some(wrappers) = wrappers else {
            return Verified {
                verification: v,
                after,
                wrappers_resumed: false,
            };
        };
        match user {
            Ok(parsed) => {
                let _span = yalla_obs::span("verify", "incomplete_rules");
                v.sources_parse = true;
                // Forward-declared-only classes are the incomplete set.
                let table = SymbolTable::build(&parsed.tu.ast);
                let incomplete: HashSet<String> = table
                    .iter()
                    .filter_map(|s| match &s.kind {
                        SymbolKind::Class(c) if !c.is_definition => Some(s.key.clone()),
                        _ => None,
                    })
                    .collect();
                v.violations = check_incomplete_rules(&parsed.tu.ast, &incomplete, &table);
            }
            Err(_) => {
                v.sources_parse = false;
            }
        }
        let wrappers = wrappers.join().expect("wrappers check thread");
        v.wrappers_parse = wrappers.is_ok();
        Verified {
            verification: v,
            after,
            wrappers_resumed: wrappers.is_ok_and(|w| w.resumed),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn verify_catches_bad_rewrites() {
        // A "rewrite" that leaves a by-value field of a forward-declared
        // class must fail the incomplete-type check.
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "#pragma once\nnamespace L { class Big { public: int id(); }; }\n",
        );
        vfs.add_file(
            "main.cpp",
            "#include <lib.hpp>\nstruct S { L::Big field; };\n",
        );
        let mut rewritten = BTreeMap::new();
        // Broken output: include swapped but the field not pointerized.
        rewritten.insert(
            "main.cpp".to_string(),
            "#include \"lw.hpp\"\nstruct S { L::Big field; };\n".to_string(),
        );
        let v = verify(
            &vfs,
            &rewritten,
            "lw.hpp",
            "namespace L { class Big; }\n",
            "w.cpp",
            "#include <lib.hpp>\n#include \"lw.hpp\"\n",
            "main.cpp",
        );
        assert!(v.sources_parse);
        assert!(v.wrappers_parse);
        assert!(!v.violations.is_empty(), "by-value field must be flagged");
        assert!(!v.passed());
    }

    #[test]
    fn verify_catches_syntax_errors_in_rewrites() {
        let mut vfs = Vfs::new();
        vfs.add_file("lib.hpp", "#pragma once\nnamespace L { class C; }\n");
        vfs.add_file("main.cpp", "#include <lib.hpp>\nint f();\n");
        let mut rewritten = BTreeMap::new();
        rewritten.insert("main.cpp".to_string(), "int f( {{{".to_string());
        let v = verify(
            &vfs,
            &rewritten,
            "lw.hpp",
            "namespace L { class C; }\n",
            "w.cpp",
            "#include <lib.hpp>\n",
            "main.cpp",
        );
        assert!(!v.sources_parse);
        assert!(!v.passed());
    }

    #[test]
    fn verify_accepts_a_correct_rewrite() {
        let mut vfs = Vfs::new();
        vfs.add_file(
            "lib.hpp",
            "#pragma once\nnamespace L { class Big { public: int id(); }; }\n",
        );
        vfs.add_file(
            "main.cpp",
            "#include <lib.hpp>\nstruct S { L::Big field; };\n",
        );
        let mut rewritten = BTreeMap::new();
        rewritten.insert(
            "main.cpp".to_string(),
            "#include \"lw.hpp\"\nstruct S { L::Big* field; };\n".to_string(),
        );
        let v = verify(
            &vfs,
            &rewritten,
            "lw.hpp",
            "#pragma once\nnamespace L { class Big; }\n",
            "w.cpp",
            "#include <lib.hpp>\n#include \"lw.hpp\"\n",
            "main.cpp",
        );
        assert!(v.passed(), "{v:?}");
    }
}
