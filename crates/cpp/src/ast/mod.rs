//! Abstract syntax tree for the C++ subset.
//!
//! The AST mirrors the slice of C++ that the Header Substitution paper
//! manipulates: namespaces, class/struct definitions with templates,
//! nested types and member functions, enums, type aliases, free functions,
//! variables, and a complete expression grammar including lambdas,
//! qualified names with template arguments, `new` expressions, and
//! overloaded-operator calls.
//!
//! Every node carries a [`crate::loc::Span`] pointing into the original
//! file so the YALLA rewriter can splice edits back into user sources.

mod decl;
mod expr;
mod name;
mod stmt;
mod types;
pub mod visit;

pub use decl::{
    AccessSpecifier, AliasDecl, ClassDecl, ClassKey, Decl, DeclKind, DeclPrefix, Decls, EnumDecl,
    Enumerator, FunctionDecl, FunctionName, FunctionSpecs, Member, NamespaceDecl, Param,
    TemplateHeader, TemplateParam, TranslationUnit, VarDecl,
};
pub use expr::{BinaryOp, Expr, ExprKind, LambdaCapture, LambdaExpr, UnaryOp};
pub use name::{NameSeg, QualName, TemplateArg};
pub use stmt::{Block, ForInit, Stmt, StmtKind};
pub use types::{Builtin, Type, TypeKind};
