//! `// lint: …` directive parsing and suppression-span resolution.
//!
//! The full directive grammar (one directive per comment, anywhere a
//! comment can go):
//!
//! * `// lint: allow(rule-id, reason…)` — suppress `rule-id` findings. A
//!   *trailing* comment covers its own line; an *own-line* comment covers
//!   the item that starts on the next code line (the whole function /
//!   impl / module, via the brace-tracked item spans), or just the next
//!   line when no item starts there. The reason is mandatory — an allow
//!   without one is itself a lint error.
//! * `// lint: allow-file(rule-id, reason…)` — suppress `rule-id` for the
//!   whole file.
//! * `// lint: exact` — tag the file as an exact-arithmetic module (the
//!   `exact-float` rule then forbids float types and literals in it).
//! * `// lint: no_alloc` — own-line tag; the next brace scope (the tagged
//!   function's body) becomes an allocation-free region for the
//!   `hot-path-alloc` rule.
//!
//! Anything else after `lint:` is reported as a malformed directive — a
//! typo in a suppression must never silently keep a rule armed or
//! disarmed.

use std::collections::BTreeSet;

use crate::lexer::{Comment, Token};
use crate::scope::ItemSpan;

/// An unresolved `allow` (line-attachment not yet computed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawAllow {
    /// Rule being suppressed.
    pub rule: String,
    /// Justification text (non-empty by construction).
    pub reason: String,
    /// Line of the directive comment.
    pub line: u32,
    /// Whether the comment trails code on its line.
    pub trailing: bool,
}

/// A resolved suppression: `rule` findings on lines `from..=to` are
/// suppressed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Rule being suppressed.
    pub rule: String,
    /// Justification text.
    pub reason: String,
    /// Line of the directive comment (for unused-allow reporting).
    pub line: u32,
    /// First suppressed line.
    pub from: u32,
    /// Last suppressed line.
    pub to: u32,
}

/// A file-wide suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileAllow {
    /// Rule being suppressed.
    pub rule: String,
    /// Justification text.
    pub reason: String,
    /// Line of the directive comment.
    pub line: u32,
}

/// Everything the directive pass extracted from one file's comments.
#[derive(Clone, Debug, Default)]
pub struct Directives {
    /// File is tagged `// lint: exact`.
    pub exact: bool,
    /// Lines of own-line `// lint: no_alloc` tags.
    pub no_alloc_lines: BTreeSet<u32>,
    /// Unresolved allows (resolve with [`resolve_allows`]).
    pub raw_allows: Vec<RawAllow>,
    /// File-wide allows.
    pub file_allows: Vec<FileAllow>,
    /// Malformed directives: `(line, problem)`.
    pub malformed: Vec<(u32, String)>,
}

/// Parse every `lint:` comment. `known_rules` validates the rule-id
/// argument of `allow`/`allow-file`.
#[must_use]
pub fn parse(comments: &[Comment], known_rules: &BTreeSet<&'static str>) -> Directives {
    let mut out = Directives::default();
    for c in comments {
        let Some(rest) = c.text.strip_prefix("lint:") else { continue };
        let rest = rest.trim();
        if rest == "exact" {
            out.exact = true;
        } else if rest == "no_alloc" {
            if c.trailing {
                out.malformed.push((
                    c.line,
                    "`lint: no_alloc` must be on its own line, before the item it tags".to_string(),
                ));
            } else {
                out.no_alloc_lines.insert(c.line);
            }
        } else if let Some(args) = strip_call(rest, "allow-file") {
            match parse_allow_args(args, known_rules) {
                Ok((rule, reason)) => {
                    out.file_allows.push(FileAllow { rule, reason, line: c.line });
                }
                Err(e) => out.malformed.push((c.line, e)),
            }
        } else if let Some(args) = strip_call(rest, "allow") {
            match parse_allow_args(args, known_rules) {
                Ok((rule, reason)) => out.raw_allows.push(RawAllow {
                    rule,
                    reason,
                    line: c.line,
                    trailing: c.trailing,
                }),
                Err(e) => out.malformed.push((c.line, e)),
            }
        } else {
            out.malformed.push((
                c.line,
                format!(
                    "unknown lint directive `{rest}` (expected allow(rule, reason), \
                     allow-file(rule, reason), exact, or no_alloc)"
                ),
            ));
        }
    }
    out
}

/// `"allow(a, b)"` with `name = "allow"` → `Some("a, b")`.
fn strip_call<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let body = text.strip_prefix(name)?.trim_start();
    let body = body.strip_prefix('(')?;
    let close = body.rfind(')')?;
    Some(&body[..close])
}

fn parse_allow_args(
    args: &str,
    known_rules: &BTreeSet<&'static str>,
) -> Result<(String, String), String> {
    let (rule, reason) = match args.split_once(',') {
        Some((r, why)) => (r.trim(), why.trim()),
        None => (args.trim(), ""),
    };
    if rule.is_empty() {
        return Err("allow() needs a rule id".to_string());
    }
    if !known_rules.contains(rule) {
        return Err(format!(
            "allow() names unknown rule `{rule}` (known: {})",
            known_rules.iter().copied().collect::<Vec<_>>().join(", ")
        ));
    }
    if reason.is_empty() {
        return Err(format!(
            "allow({rule}) needs a reason — suppressions must say why: \
             `lint: allow({rule}, <why this is sound>)`"
        ));
    }
    Ok((rule.to_string(), reason.to_string()))
}

/// Attach each raw allow to its line range: trailing → its own line;
/// own-line → the item starting on the next code line (widest recorded
/// span starting there), else just that line.
#[must_use]
pub fn resolve_allows(raw: &[RawAllow], tokens: &[Token], items: &[ItemSpan]) -> Vec<Allow> {
    raw.iter()
        .map(|a| {
            if a.trailing {
                return Allow {
                    rule: a.rule.clone(),
                    reason: a.reason.clone(),
                    line: a.line,
                    from: a.line,
                    to: a.line,
                };
            }
            let next_line = tokens.iter().map(|t| t.line).find(|&l| l > a.line);
            let (from, to) = match next_line {
                None => (a.line, a.line),
                Some(l) => {
                    let widest =
                        items.iter().filter(|s| s.start_line == l).map(|s| s.close_line).max();
                    (l, widest.unwrap_or(l).max(l))
                }
            };
            Allow { rule: a.rule.clone(), reason: a.reason.clone(), line: a.line, from, to }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    fn rules() -> BTreeSet<&'static str> {
        ["determinism", "panic-policy"].into_iter().collect()
    }

    #[test]
    fn parses_the_four_directive_kinds() {
        let src = "\
// lint: exact
// lint: no_alloc
fn f() {}
// lint: allow(determinism, keyed lookups only, never iterated)
// lint: allow-file(panic-policy, worker threads abort on checkpoint IO errors)
";
        let lexed = lex(src);
        let d = parse(&lexed.comments, &rules());
        assert!(d.exact);
        assert_eq!(d.no_alloc_lines.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(d.raw_allows.len(), 1);
        assert_eq!(d.raw_allows[0].rule, "determinism");
        assert_eq!(d.file_allows.len(), 1);
        assert!(d.malformed.is_empty(), "{:?}", d.malformed);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let lexed = lex("// lint: allow(determinism)\n");
        let d = parse(&lexed.comments, &rules());
        assert!(d.raw_allows.is_empty());
        assert_eq!(d.malformed.len(), 1);
        assert!(d.malformed[0].1.contains("needs a reason"), "{:?}", d.malformed);
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let lexed = lex("// lint: allow(no-such-rule, because)\n");
        let d = parse(&lexed.comments, &rules());
        assert_eq!(d.malformed.len(), 1);
        assert!(d.malformed[0].1.contains("unknown rule"));
    }

    #[test]
    fn typoed_directive_is_malformed() {
        let lexed = lex("// lint: alow(determinism, oops)\n");
        let d = parse(&lexed.comments, &rules());
        assert_eq!(d.malformed.len(), 1);
    }

    #[test]
    fn non_directive_comments_ignored() {
        let lexed = lex("// plain comment\n/// doc about lint: things? no — needs prefix\n");
        let d = parse(&lexed.comments, &rules());
        assert!(d.malformed.is_empty());
        assert!(d.raw_allows.is_empty());
    }

    #[test]
    fn trailing_allow_covers_its_line_only() {
        let src = "fn f() {\n    thing(); // lint: allow(determinism, reason here)\n}\n";
        let lexed = lex(src);
        let d = parse(&lexed.comments, &rules());
        let map = scope::scan(&lexed.tokens, &d.no_alloc_lines);
        let allows = resolve_allows(&d.raw_allows, &lexed.tokens, &map.items);
        assert_eq!(allows.len(), 1);
        assert_eq!((allows[0].from, allows[0].to), (2, 2));
    }

    #[test]
    fn own_line_allow_covers_the_next_item() {
        let src = "\
// lint: allow(panic-policy, provably in range)
pub fn f(
    x: u32,
) -> u32 {
    inner(x)
}
fn g() {}
";
        let lexed = lex(src);
        let d = parse(&lexed.comments, &rules());
        let map = scope::scan(&lexed.tokens, &d.no_alloc_lines);
        let allows = resolve_allows(&d.raw_allows, &lexed.tokens, &map.items);
        assert_eq!((allows[0].from, allows[0].to), (2, 6), "{:?}", map.items);
    }

    #[test]
    fn own_line_allow_before_plain_statement_covers_one_line() {
        let src =
            "fn f() {\n    // lint: allow(determinism, once)\n    thing();\n    other();\n}\n";
        let lexed = lex(src);
        let d = parse(&lexed.comments, &rules());
        let map = scope::scan(&lexed.tokens, &d.no_alloc_lines);
        let allows = resolve_allows(&d.raw_allows, &lexed.tokens, &map.items);
        assert_eq!((allows[0].from, allows[0].to), (3, 3));
    }
}
