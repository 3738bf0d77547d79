//! Workspace discovery: which files get linted, and loading them.
//!
//! The lint surface is every `crates/*/src/**/*.rs` plus the root
//! package's `src/`. Test directories (`tests/`, `benches/`,
//! `examples/`) are deliberately outside the surface — integration tests
//! print, allocate, and unwrap at will, and the lint fixtures under
//! `crates/lint/tests/fixtures/` are *supposed* to violate rules. Files
//! are visited in sorted path order so reports and baselines are
//! byte-stable.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::context::{LintContext, REGISTRY_PATH};
use crate::source::SourceFile;

/// The loaded lint surface: parsed files plus the cross-file context.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Parsed files in sorted `rel_path` order.
    pub files: Vec<SourceFile>,
    /// Cross-file facts (telemetry registry).
    pub ctx: LintContext,
}

impl Workspace {
    /// Load the lint surface from a workspace root directory.
    pub fn load(root: &Path, known_rules: &BTreeSet<&'static str>) -> io::Result<Self> {
        let mut paths: Vec<PathBuf> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut krates: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            krates.sort();
            for krate in krates {
                collect_rs(&krate.join("src"), &mut paths)?;
            }
        }
        collect_rs(&root.join("src"), &mut paths)?;

        let mut sources: Vec<(String, String)> = Vec::with_capacity(paths.len());
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            sources.push((rel, std::fs::read_to_string(&p)?));
        }
        sources.sort();
        let borrowed: Vec<(&str, &str)> =
            sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        let mut ws = Self::from_sources(&borrowed, known_rules);
        // The doc-anchor rule validates `DESIGN.md#…` references against
        // the root design document's actual headings.
        if let Ok(md) = std::fs::read_to_string(root.join("DESIGN.md")) {
            ws.ctx = std::mem::take(&mut ws.ctx).with_design(&md);
        }
        Ok(ws)
    }

    /// Build the surface from in-memory `(rel_path, source)` pairs — the
    /// fixture-test entry point. The context comes from whichever source
    /// is at [`REGISTRY_PATH`], if any.
    #[must_use]
    pub fn from_sources(sources: &[(&str, &str)], known_rules: &BTreeSet<&'static str>) -> Self {
        let files: Vec<SourceFile> =
            sources.iter().map(|(p, s)| SourceFile::parse(p, s, known_rules)).collect();
        let ctx = LintContext::from_registry(
            files.iter().find(|f| f.rel_path == REGISTRY_PATH).map(|f| f.lexed.tokens.as_slice()),
        );
        Self { files, ctx }
    }
}

/// Recursively collect `.rs` files under `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Find the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::standard_ids;

    #[test]
    fn from_sources_picks_up_the_registry() {
        let ws = Workspace::from_sources(
            &[
                ("crates/obs/src/registry.rs", "events! { A => \"a\"; }"),
                ("crates/sim/src/lib.rs", "pub fn f() {}"),
            ],
            &standard_ids(),
        );
        assert!(ws.ctx.has_registry);
        assert_eq!(ws.ctx.counters.len(), 1);
        assert_eq!(ws.files.len(), 2);
    }

    #[test]
    fn real_workspace_root_is_discoverable() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("the lint crate lives inside the workspace");
        assert!(root.join("crates").is_dir(), "{}", root.display());
    }
}
