//! Workspace-level facts the rules cross-check against — today, the
//! `mcs-obs` static telemetry registry.
//!
//! The counter-registry rule needs to know which `Counter::…` /
//! `Phase::…` / `EventKind::…` variants exist. Rather than depending on
//! `mcs-obs` (which would make the linter's view drift from the source the
//! moment the registry is edited without rebuilding), the names are read
//! from the registry *source*: the event table
//! `events! { Counter => "name", record Kind => "name"; … }` and the
//! `phases! { Variant => "name", … }` list in
//! `crates/obs/src/registry.rs`.
//!
//! The doc-anchor rule additionally needs the set of heading anchors the
//! root `DESIGN.md` defines, so `DESIGN.md#…` references in rustdoc stay
//! live; [`anchors_from_markdown`] derives them GitHub-style from the
//! headings.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{TokKind, Token};

/// Path of the telemetry registry inside the workspace.
pub const REGISTRY_PATH: &str = "crates/obs/src/registry.rs";

/// Workspace facts shared by every rule.
#[derive(Clone, Debug, Default)]
pub struct LintContext {
    /// Registered `Counter` variants → definition line in the registry.
    pub counters: BTreeMap<String, u32>,
    /// Registered `Phase` variants → definition line in the registry.
    pub phases: BTreeMap<String, u32>,
    /// Registered `EventKind` variants → definition line in the registry.
    pub event_kinds: BTreeMap<String, u32>,
    /// `EventKind` variant → the `Counter` declared on the same event-table
    /// row (events that are both counted and recorded).
    pub kind_counters: BTreeMap<String, String>,
    /// Whether a registry file was found (rules that need it no-op
    /// otherwise, so partial source sets — fixtures — stay usable).
    pub has_registry: bool,
    /// Heading anchors the root `DESIGN.md` defines (GitHub slugs).
    pub design_anchors: BTreeSet<String>,
    /// Whether a `DESIGN.md` was found (the doc-anchor rule no-ops
    /// otherwise).
    pub has_design: bool,
}

impl LintContext {
    /// Build the context from the registry file's token stream (empty
    /// context when `registry_tokens` is `None`).
    #[must_use]
    pub fn from_registry(registry_tokens: Option<&[Token]>) -> Self {
        let Some(tokens) = registry_tokens else { return Self::default() };
        let mut ctx = Self { has_registry: true, ..Self::default() };
        let phases = macro_body(tokens, "phases");
        ctx.phases =
            declarations(&phases).map(|(_, name, line)| (name.to_string(), line)).collect();
        // One event-table row per `;`: a `record`-prefixed declaration is
        // an event kind, any other a counter; a row with both attaches the
        // kind to its counter.
        let events = macro_body(tokens, "events");
        for row in events.split(|t| t.kind == TokKind::Punct(';')) {
            let mut counter = None;
            for (i, name, line) in declarations(row) {
                let recorded =
                    i > 0 && matches!(&row[i - 1].kind, TokKind::Ident(k) if k == "record");
                if recorded {
                    ctx.event_kinds.insert(name.to_string(), line);
                    if let Some(c) = counter {
                        ctx.kind_counters.insert(name.to_string(), String::from(c));
                    }
                } else {
                    ctx.counters.insert(name.to_string(), line);
                    counter = Some(name);
                }
            }
        }
        ctx
    }

    /// Attach the anchor set parsed from a `DESIGN.md` document (builder
    /// style; also the test entry point).
    #[must_use]
    pub fn with_design(mut self, markdown: &str) -> Self {
        self.design_anchors = anchors_from_markdown(markdown);
        self.has_design = true;
        self
    }
}

/// GitHub-style anchor slugs of every ATX heading (`#`–`######`) in a
/// markdown document: lowercase, spaces and tabs become `-`, every other
/// character outside `[a-z0-9_-]` is dropped.
#[must_use]
pub fn anchors_from_markdown(markdown: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_fence = false;
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !line.starts_with('#') {
            continue;
        }
        let text = line.trim_start_matches('#');
        if !text.starts_with(' ') && !text.is_empty() {
            continue;
        }
        let mut slug = String::new();
        for c in text.trim().chars() {
            match c {
                ' ' | '\t' => slug.push('-'),
                c if c.is_ascii_uppercase() => slug.push(c.to_ascii_lowercase()),
                c if c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_' => {
                    slug.push(c);
                }
                _ => {}
            }
        }
        if !slug.is_empty() {
            out.insert(slug);
        }
    }
    out
}

/// The depth-1 tokens of every `name! { … }` invocation body, in order
/// (tokens inside nested braces are skipped).
fn macro_body<'t>(tokens: &'t [Token], macro_name: &str) -> Vec<&'t Token> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        let is_open = matches!(&tokens[i].kind, TokKind::Ident(n) if n == macro_name)
            && tokens[i + 1].kind == TokKind::Punct('!')
            && tokens[i + 2].kind == TokKind::OpenBrace;
        if !is_open {
            i += 1;
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 3;
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                TokKind::OpenBrace => depth += 1,
                TokKind::CloseBrace => depth -= 1,
                _ if depth == 1 => out.push(&tokens[j]),
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
    out
}

/// The `Variant => "name"` declarations among `body`: each left-hand
/// ident directly followed by `=>`, with its index in `body` and its line.
fn declarations<'t>(body: &'t [&'t Token]) -> impl Iterator<Item = (usize, &'t str, u32)> + 't {
    body.windows(3).enumerate().filter_map(|(i, w)| match (&w[0].kind, &w[1].kind, &w[2].kind) {
        (TokKind::Ident(name), TokKind::Punct('='), TokKind::Punct('>')) => {
            Some((i, name.as_str(), w[0].line))
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn extracts_variants_from_macro_blocks() {
        let src = "\
events! {
    /// Doc line.
    EngineProbesIssued => \"engine_probes_issued\";
    AdmissionAdmits => \"admission_admits\", record AdmissionAdmit => \"admission_admit\";
    record TrialBegin => \"trial_begin\";
    EngineCommits => \"engine_commits\";
}
phases! {
    ProbeBatch => \"probe_batch\",
}
";
        let lexed = lex(src);
        let ctx = LintContext::from_registry(Some(&lexed.tokens));
        assert_eq!(
            ctx.counters.keys().cloned().collect::<Vec<_>>(),
            vec!["AdmissionAdmits", "EngineCommits", "EngineProbesIssued"]
        );
        assert_eq!(ctx.phases.keys().cloned().collect::<Vec<_>>(), vec!["ProbeBatch"]);
        assert_eq!(
            ctx.event_kinds.keys().cloned().collect::<Vec<_>>(),
            vec!["AdmissionAdmit", "TrialBegin"]
        );
        assert_eq!(
            ctx.kind_counters.iter().collect::<Vec<_>>(),
            vec![(&"AdmissionAdmit".to_string(), &"AdmissionAdmits".to_string())]
        );
        assert_eq!(ctx.counters["EngineProbesIssued"], 3);
        assert_eq!(ctx.event_kinds["TrialBegin"], 5);
    }

    #[test]
    fn anchors_slugify_headings_github_style() {
        let md = "\
# Top Title
Some prose with # not a heading? No: must start the line.
## Simulation layer
### Tick-oracle differential contract
#### Eq. (9) & friends!
```text
# inside a fence — ignored
```
##missing-space is not a heading
";
        let anchors = anchors_from_markdown(md);
        assert!(anchors.contains("top-title"));
        assert!(anchors.contains("simulation-layer"));
        assert!(anchors.contains("tick-oracle-differential-contract"));
        assert!(anchors.contains("eq-9--friends"));
        assert!(!anchors.iter().any(|a| a.contains("fence")));
        assert!(!anchors.iter().any(|a| a.contains("missing")));
    }

    #[test]
    fn with_design_populates_the_anchor_set() {
        let ctx = LintContext::default().with_design("## Probe engine\n");
        assert!(ctx.has_design);
        assert!(ctx.design_anchors.contains("probe-engine"));
    }

    #[test]
    fn missing_registry_yields_inert_context() {
        let ctx = LintContext::from_registry(None);
        assert!(!ctx.has_registry);
        assert!(ctx.counters.is_empty());
    }
}
