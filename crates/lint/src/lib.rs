//! `mcs-lint`: a zero-dependency source-level static-analysis pass that
//! enforces the repo's determinism, exactness, and hot-path invariants.
//!
//! Where `mcs-audit` checks *runtime* invariants of partitioning output,
//! `mcs-lint` checks *source* invariants that runtime checks cannot see
//! until they have already been violated in a published run:
//!
//! * [`rules::stdout::StdoutPurity`] — stdout belongs to the `mcs-exp`
//!   command layer only;
//! * [`rules::exactfloat::ExactFloat`] — exact-arithmetic modules stay
//!   float-free;
//! * [`rules::hotpath::HotPathAlloc`] — `// lint: no_alloc` regions stay
//!   allocation-free;
//! * [`rules::determinism::Determinism`] — no `HashMap`/wall-clock/
//!   thread-identity nondeterminism in record-producing code;
//! * [`rules::counters::CounterRegistry`] — `Counter::`/`Phase::`/
//!   `EventKind::` names match the `mcs-obs` registry, and registered
//!   names are used;
//! * [`rules::panics::PanicPolicy`] — library code fails via
//!   `.expect("why")`, not `.unwrap()`/`panic!`;
//! * [`rules::doc_anchor::DocAnchor`] — `DESIGN.md#…` anchors referenced
//!   from docs resolve to real `DESIGN.md` headings.
//!
//! The pipeline is [`lexer`] → [`scope`] → [`directives`] →
//! [`rules`] → [`runner`], with findings reported as `mcs-audit`
//! [`mcs_audit::Diagnostic`]s so text and JSON output render identically
//! across both tools. There are no external dependencies — the lexer is
//! hand-rolled (no `syn`), so the linter builds offline exactly like the
//! rest of the workspace.

pub mod baseline;
pub mod context;
pub mod directives;
pub mod lexer;
pub mod rules;
pub mod runner;
pub mod scope;
pub mod source;
pub mod workspace;

pub use baseline::Baseline;
pub use context::LintContext;
pub use runner::{run, Outcome, DIRECTIVE_RULE};
pub use source::SourceFile;
pub use workspace::Workspace;
