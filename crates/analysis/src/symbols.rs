//! Symbol table construction.
//!
//! Walks a parsed translation unit and records every named declaration
//! with its fully qualified key (`Kokkos::View`), its kind, the file it
//! was declared in, and enough of its shape (template head, members,
//! signature) for the Header Substitution engine to generate forward
//! declarations and wrappers.

use std::collections::HashMap;
use std::sync::Arc;

use yalla_cpp::ast::{
    AliasDecl, ClassDecl, Decl, DeclKind, EnumDecl, FunctionDecl, TranslationUnit, Type,
};
use yalla_cpp::loc::FileId;

/// What a symbol is.
#[derive(Debug, Clone, PartialEq)]
pub enum SymbolKind {
    /// A class or struct; payload keeps the declaration (with members when
    /// this entry saw the definition).
    Class(Box<ClassDecl>),
    /// An enum.
    Enum(Box<EnumDecl>),
    /// A type alias; payload is the aliased type.
    Alias(Box<AliasDecl>),
    /// A free function (overload set collapses to the first seen
    /// declaration plus a count).
    Function(Box<FunctionDecl>),
    /// A namespace.
    Namespace,
    /// A global variable.
    Variable(Box<Type>),
}

impl SymbolKind {
    /// Short tag for diagnostics.
    pub fn tag(&self) -> &'static str {
        match self {
            SymbolKind::Class(_) => "class",
            SymbolKind::Enum(_) => "enum",
            SymbolKind::Alias(_) => "alias",
            SymbolKind::Function(_) => "function",
            SymbolKind::Namespace => "namespace",
            SymbolKind::Variable(_) => "variable",
        }
    }
}

/// A symbol table entry.
#[derive(Debug, Clone)]
pub struct SymbolInfo {
    /// Fully qualified key, e.g. `Kokkos::TeamPolicy`.
    pub key: String,
    /// Namespace path enclosing the symbol (empty for global scope).
    /// Enclosing *classes* also appear here for nested declarations; the
    /// `nested_in_class` flag distinguishes the two.
    pub scope: Vec<String>,
    /// True when the innermost enclosing scope is a class (the symbol is a
    /// nested type/member) — the case the paper cannot forward declare.
    pub nested_in_class: bool,
    /// What the symbol is.
    pub kind: SymbolKind,
    /// File of the (first) declaration.
    pub file: FileId,
    /// Number of declarations merged into this entry (overloads,
    /// redeclarations).
    pub decl_count: usize,
}

/// A queryable symbol table for one translation unit.
///
/// A table built over a TU that shares a preamble snapshot's declarations
/// is *layered*: the prefix's table is built once per snapshot (memoized
/// on the shared [`yalla_cpp::ast::DeclPrefix`]) and shared as `base`;
/// the TU's own declarations go into a copy-on-write overlay on top of
/// it. Every query answers exactly as a table built over all the
/// declarations in one pass would.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// The shared table of a preamble prefix (itself never layered).
    base: Option<Arc<SymbolTable>>,
    /// Symbols first declared above `base`, and `base` symbols whose entry
    /// a later declaration updated (copied up, then updated).
    by_key: HashMap<String, SymbolInfo>,
    /// Secondary index: unqualified name → keys (for unqualified lookup);
    /// over a base, only keys the base lacks, in declaration order.
    by_base: HashMap<String, Vec<String>>,
    /// Number of `by_key` entries that are not in `base`.
    added: usize,
}

impl SymbolTable {
    /// Builds the table from a translation unit.
    pub fn build(tu: &TranslationUnit) -> Self {
        let _span = yalla_obs::span("analysis", "symbol_table");
        let mut table = SymbolTable {
            base: tu
                .decls
                .prefix()
                .map(|prefix| prefix.memo(SymbolTable::flat)),
            ..SymbolTable::default()
        };
        table.add_top_level(tu.decls.own());
        yalla_obs::count(
            yalla_obs::metrics::names::SYMBOLS_RESOLVED,
            table.len() as i64,
        );
        table
    }

    /// A single-layer table over `decls`.
    fn flat(decls: &[Decl]) -> SymbolTable {
        let mut table = SymbolTable::default();
        table.add_top_level(decls);
        table
    }

    fn add_top_level(&mut self, decls: &[Decl]) {
        let mut scope = Vec::new();
        for d in decls {
            self.add_decl(d, &mut scope, false);
        }
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len()) + self.added
    }

    /// True when no symbols were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a symbol by fully qualified key (no template args).
    pub fn get(&self, key: &str) -> Option<&SymbolInfo> {
        self.by_key
            .get(key)
            .or_else(|| self.base.as_ref()?.by_key.get(key))
    }

    /// Keys sharing the unqualified name `base_name`, in declaration order.
    fn keys_named<'a>(&'a self, base_name: &str) -> impl Iterator<Item = &'a String> + 'a {
        let below = self.base.as_ref().and_then(|b| b.by_base.get(base_name));
        below
            .into_iter()
            .chain(self.by_base.get(base_name))
            .flatten()
    }

    /// Resolves a possibly-unqualified name against the table: tries the
    /// exact key first, then unique match on the base name.
    ///
    /// An unqualified name that matches several scopes resolves only if
    /// exactly one candidate exists (mirroring what name lookup would do
    /// with the using-directives the corpus uses).
    pub fn resolve(&self, key: &str) -> Option<&SymbolInfo> {
        if let Some(s) = self.get(key) {
            return Some(s);
        }
        let base = key.rsplit("::").next().unwrap_or(key);
        if !key.contains("::") {
            let mut found: Option<&SymbolInfo> = None;
            for k in self.keys_named(base) {
                if let Some(s) = self.get(k) {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some(s);
                }
            }
            return found;
        }
        // Qualified name with a suffix match (`View` looked up as
        // `Kokkos::View` when the qualifier is a namespace alias):
        self.keys_named(base)
            .filter_map(|k| self.get(k))
            .find(|s| s.key.ends_with(key))
    }

    /// Iterates over all symbols.
    pub fn iter(&self) -> impl Iterator<Item = &SymbolInfo> {
        let below = self.base.iter().flat_map(|b| b.by_key.values());
        self.by_key
            .values()
            .chain(below.filter(|s| !self.by_key.contains_key(&s.key)))
    }

    fn add_decl(&mut self, decl: &Decl, scope: &mut Vec<String>, in_class: bool) {
        match &decl.kind {
            DeclKind::Namespace(ns) => {
                if !ns.name.is_empty() {
                    self.insert(
                        scope,
                        &ns.name,
                        SymbolKind::Namespace,
                        decl.span.file,
                        in_class,
                    );
                    scope.push(ns.name.clone());
                    for d in &ns.decls {
                        self.add_decl(d, scope, false);
                    }
                    scope.pop();
                } else {
                    for d in &ns.decls {
                        self.add_decl(d, scope, false);
                    }
                }
            }
            DeclKind::Class(c) => {
                if c.is_explicit_instantiation {
                    return;
                }
                self.insert(
                    scope,
                    &c.name,
                    SymbolKind::Class(Box::new(c.clone())),
                    decl.span.file,
                    in_class,
                );
                // Recurse into members for nested types and methods.
                scope.push(c.name.clone());
                for m in &c.members {
                    self.add_decl(&m.decl, scope, true);
                }
                scope.pop();
            }
            DeclKind::Enum(e) => {
                if !e.name.is_empty() {
                    self.insert(
                        scope,
                        &e.name,
                        SymbolKind::Enum(Box::new(e.clone())),
                        decl.span.file,
                        in_class,
                    );
                }
            }
            DeclKind::Alias(a) => {
                self.insert(
                    scope,
                    &a.name,
                    SymbolKind::Alias(Box::new(a.clone())),
                    decl.span.file,
                    in_class,
                );
            }
            DeclKind::Function(f) => {
                // Methods are reachable through their class entry; free
                // functions get their own entries. Out-of-line method
                // definitions (`add_y::operator()`) are skipped: their
                // in-class declaration already created the entry.
                if in_class || f.qualifier.is_some() {
                    return;
                }
                let name = match f.name.as_ident() {
                    Some(n) => n.to_string(),
                    None => return, // free operator overloads: out of scope
                };
                self.insert(
                    scope,
                    &name,
                    SymbolKind::Function(Box::new(f.clone())),
                    decl.span.file,
                    in_class,
                );
            }
            DeclKind::Variable(v) => {
                if in_class {
                    return; // fields live in their ClassDecl
                }
                self.insert(
                    scope,
                    &v.name,
                    SymbolKind::Variable(Box::new(v.ty.clone())),
                    decl.span.file,
                    in_class,
                );
            }
            DeclKind::UsingDecl(_)
            | DeclKind::UsingNamespace(_)
            | DeclKind::StaticAssert
            | DeclKind::Access(_) => {}
        }
    }

    fn insert(
        &mut self,
        scope: &[String],
        name: &str,
        kind: SymbolKind,
        file: FileId,
        nested_in_class: bool,
    ) {
        let key = if scope.is_empty() {
            name.to_string()
        } else {
            format!("{}::{}", scope.join("::"), name)
        };
        if !self.by_key.contains_key(&key) {
            if let Some(below) = self.base.as_ref().and_then(|b| b.by_key.get(&key)) {
                // Copy the base entry up before this declaration updates it.
                self.by_key.insert(key.clone(), below.clone());
            }
        }
        if let Some(existing) = self.by_key.get_mut(&key) {
            existing.decl_count += 1;
            // A definition beats a forward declaration as the retained payload.
            let upgrade = matches!(
                (&existing.kind, &kind),
                (SymbolKind::Class(old), SymbolKind::Class(new))
                    if !old.is_definition && new.is_definition
            ) || matches!(
                (&existing.kind, &kind),
                (SymbolKind::Function(old), SymbolKind::Function(new))
                    if old.body.is_none() && new.body.is_some()
            );
            if upgrade {
                existing.kind = kind;
            }
            return;
        }
        self.by_base
            .entry(name.to_string())
            .or_default()
            .push(key.clone());
        self.added += 1;
        self.by_key.insert(
            key.clone(),
            SymbolInfo {
                key,
                scope: scope.to_vec(),
                nested_in_class,
                kind,
                file,
                decl_count: 1,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yalla_cpp::parse::parse_str;

    fn table(src: &str) -> SymbolTable {
        SymbolTable::build(&parse_str(src).unwrap())
    }

    #[test]
    fn namespaced_class() {
        let t = table("namespace Kokkos { class OpenMP; template<class T> class View { public: int extent(int d) const; }; }");
        let view = t.get("Kokkos::View").unwrap();
        assert_eq!(view.kind.tag(), "class");
        assert_eq!(view.scope, vec!["Kokkos"]);
        assert!(!view.nested_in_class);
        assert!(t.get("Kokkos::OpenMP").is_some());
        assert!(t.get("Kokkos").is_some());
    }

    #[test]
    fn nested_class_is_flagged() {
        let t = table("namespace K { class TeamPolicy { public: class member_type {}; }; }");
        let nested = t.get("K::TeamPolicy::member_type").unwrap();
        assert!(nested.nested_in_class);
        let parent = t.get("K::TeamPolicy").unwrap();
        assert!(!parent.nested_in_class);
    }

    #[test]
    fn functions_and_aliases() {
        let t = table(
            "namespace Kokkos { template<class F> void parallel_for(int n, F f); using DefaultSpace = OpenMP; }",
        );
        let f = t.get("Kokkos::parallel_for").unwrap();
        assert_eq!(f.kind.tag(), "function");
        assert_eq!(t.get("Kokkos::DefaultSpace").unwrap().kind.tag(), "alias");
    }

    #[test]
    fn definition_upgrades_forward_declaration() {
        let t = table("class V; class V { public: int x; };");
        match &t.get("V").unwrap().kind {
            SymbolKind::Class(c) => assert!(c.is_definition),
            other => panic!("bad kind: {other:?}"),
        }
        assert_eq!(t.get("V").unwrap().decl_count, 2);
    }

    #[test]
    fn unqualified_resolution() {
        let t = table("namespace Kokkos { class LayoutRight; }");
        assert_eq!(t.resolve("LayoutRight").unwrap().key, "Kokkos::LayoutRight");
        assert!(t.resolve("Kokkos::LayoutRight").is_some());
    }

    #[test]
    fn ambiguous_unqualified_resolution_fails() {
        let t = table("namespace A { class X; } namespace B { class X; }");
        assert!(t.resolve("X").is_none());
        assert!(t.resolve("A::X").is_some());
    }

    #[test]
    fn out_of_line_method_does_not_create_symbol() {
        let t = table("struct S { void run(); }; void S::run() { }");
        assert!(t.get("S").is_some());
        assert!(t.get("run").is_none());
        assert!(t.get("S::run").is_none()); // methods live in ClassDecl
    }

    #[test]
    fn file_origin_recorded() {
        // parse_str produces FileId::UNKNOWN spans; just assert the field
        // exists and is consistent.
        let t = table("class C;");
        assert_eq!(t.get("C").unwrap().file, yalla_cpp::loc::FileId::UNKNOWN);
    }

    #[test]
    fn overloads_merge() {
        let t = table("void f(int a); void f(double b);");
        assert_eq!(t.get("f").unwrap().decl_count, 2);
    }

    #[test]
    fn global_variables() {
        let t = table("int counter = 0;");
        assert_eq!(t.get("counter").unwrap().kind.tag(), "variable");
    }
}
