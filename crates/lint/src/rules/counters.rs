//! `counter-registry`: telemetry names stay in sync with the registry.
//!
//! Every `Counter::…` / `Phase::…` / `EventKind::…` reference in
//! instrumented code is cross-checked against the event table and phase
//! list parsed from `crates/obs/src/registry.rs` (see [`crate::context`]):
//! a reference to an unregistered variant is an error (it would not
//! compile, but the lint also runs on fixtures and diffs that never reach
//! rustc), and a registered name that no instrumented code references is
//! dead telemetry — reported as a warning at its definition line so the
//! registry cannot silently accrete abandoned entries. A recorded kind
//! declared on a counter's row is emitted through that counter
//! (`mcs_obs::event!`), so it is live whenever its counter is
//! (`DESIGN.md#flight-recorder`).

use std::collections::BTreeSet;

use mcs_audit::{Diagnostic, Subject};

use crate::context::{LintContext, REGISTRY_PATH};
use crate::rules::LintRule;
use crate::source::SourceFile;

/// Associated items of the generated enums — not variants.
const ASSOC_ITEMS: &[&str] = &["ALL", "COUNT", "name", "from_name"];

/// See the module docs.
#[derive(Default)]
pub struct CounterRegistry {
    /// Referenced `(enum, variant)` pairs.
    used: BTreeSet<(&'static str, String)>,
}

impl CounterRegistry {
    fn is_used(&self, enum_name: &'static str, variant: &str) -> bool {
        self.used.contains(&(enum_name, variant.to_string()))
    }
}

impl LintRule for CounterRegistry {
    fn id(&self) -> &'static str {
        "counter-registry"
    }

    fn description(&self) -> &'static str {
        "every Counter::/Phase::/EventKind:: reference exists in the mcs-obs registry; \
         registered names no code references are reported"
    }

    fn check(&mut self, file: &SourceFile, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        if !ctx.has_registry || file.rel_path.starts_with("crates/obs/") {
            // The registry defines the names; the obs crate's own plumbing
            // (sinks iterating `Counter::ALL`, the Chrome exporter matching
            // on kinds) neither uses nor misuses any particular name.
            return;
        }
        for (i, line, name) in file.idents() {
            let (enum_name, registry) = match name {
                "Counter" => ("Counter", &ctx.counters),
                "Phase" => ("Phase", &ctx.phases),
                "EventKind" => ("EventKind", &ctx.event_kinds),
                _ => continue,
            };
            if !file.is_path_sep(i + 1) {
                continue;
            }
            let Some(variant) = file.ident_at(i + 3) else { continue };
            if ASSOC_ITEMS.contains(&variant) {
                continue;
            }
            if registry.contains_key(variant) {
                self.used.insert((enum_name, variant.to_string()));
            } else if is_variant_shaped(variant) {
                out.push(Diagnostic::error(
                    self.id(),
                    Subject::source(&file.rel_path, line),
                    format!(
                        "`{name}::{variant}` is not in the mcs-obs registry; register it in \
                         {REGISTRY_PATH} or fix the name"
                    ),
                ));
            }
        }
    }

    fn finish(&mut self, ctx: &LintContext, out: &mut Vec<Diagnostic>) {
        if !ctx.has_registry {
            return;
        }
        for (kind, enum_name, registry) in [
            ("counter", "Counter", &ctx.counters),
            ("phase", "Phase", &ctx.phases),
            ("event kind", "EventKind", &ctx.event_kinds),
        ] {
            for (variant, line) in registry {
                let via_counter =
                    ctx.kind_counters.get(variant).is_some_and(|c| self.is_used("Counter", c));
                if !self.is_used(enum_name, variant) && !via_counter {
                    out.push(Diagnostic::warning(
                        self.id(),
                        Subject::source(REGISTRY_PATH, *line),
                        format!(
                            "registered {kind} `{variant}` is never referenced by instrumented \
                             code — dead telemetry; wire it up or remove it"
                        ),
                    ));
                }
            }
        }
    }
}

/// CamelCase-with-lowercase shape — a variant, not an associated const or
/// a method.
fn is_variant_shaped(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase())
        && name.chars().any(|c| c.is_ascii_lowercase())
}
