//! `dfsim-lint` — determinism & panic-safety static analysis for the
//! dfsim workspace.
//!
//! Every bit-identity claim in this repo (reports identical across queue
//! backends, partition counts, trace replay, cache replay) rests on
//! source-level conventions: wall-clock reads live in designated timing
//! modules, env reads in the resolution layers, sim state never iterates
//! hash-ordered containers, randomness flows from seeded streams, stdout
//! carries only report data, and `unsafe` is audited. v2 adds
//! *failure-behavior* rules: hot-path modules cannot panic without a
//! written invariant, mutex guards are never held across blocking calls,
//! and codec casts cannot silently wrap. This crate makes those
//! conventions machine-checked on every change:
//!
//! ```text
//! cargo run --release -p dfsim-lint        # lint the workspace, exit 2 on findings
//! ```
//!
//! The pass is deliberately `--fix`-free: every violation is either a real
//! bug to fix by hand or a justified exception to annotate with
//! `// lint: allow(<rule>) — <reason>` (see [`rules`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use rules::{FileClass, Finding, SourceFile};
use std::path::{Path, PathBuf};

/// Result of a lint pass over a file tree.
#[derive(Debug)]
pub struct LintReport {
    /// Findings sorted by `(file, line, rule)`; empty means clean.
    pub findings: Vec<Finding>,
    /// `.rs` files scanned.
    pub files_scanned: usize,
}

/// Directories never linted: build output, offline third-party stubs,
/// VCS metadata, and rule fixtures (which violate on purpose).
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

/// Lint every `.rs` file under `root` (the workspace checkout).
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut paths = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for rel in paths {
        let text = std::fs::read_to_string(root.join(&rel))?;
        files.push(load_source(&rel, &text));
    }
    Ok(lint_sources(files))
}

/// Lint an already-loaded set of sources (fixture tests drive this).
pub fn lint_sources(files: Vec<SourceFile>) -> LintReport {
    let mut findings = Vec::new();
    for f in &files {
        findings.extend(rules::lint_file(f));
    }
    rules::check_crate_roots(&files, &mut findings);
    findings.sort();
    LintReport { findings, files_scanned: files.len() }
}

/// Lex and classify one source file given its workspace-relative path.
pub fn load_source(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        krate: crate_of(rel),
        class: classify(rel),
        lexed: lexer::lex(text),
        lines: text.lines().map(|l| l.to_string()).collect(),
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort(); // deterministic scan order, independent of the OS
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Which crate a workspace-relative path belongs to (`root` for the
/// facade package's `src/`, `tests/`, `examples/`).
fn crate_of(rel: &str) -> String {
    match rel.strip_prefix("crates/").and_then(|r| r.split('/').next()) {
        Some(c) => c.to_string(),
        None => "root".to_string(),
    }
}

/// Scope class from the path shape: bins/examples own stdout, tests and
/// benches may time and print, everything else is library source.
fn classify(rel: &str) -> FileClass {
    let in_dir = |d: &str| rel.contains(&format!("/{d}/")) || rel.starts_with(&format!("{d}/"));
    if in_dir("tests") {
        FileClass::Test
    } else if in_dir("benches") {
        FileClass::Bench
    } else if in_dir("bin") || in_dir("examples") || rel.ends_with("/main.rs") {
        FileClass::Bin
    } else {
        FileClass::Lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path_shape() {
        assert_eq!(classify("crates/core/src/world.rs"), FileClass::Lib);
        assert_eq!(classify("crates/core/src/bin/tool.rs"), FileClass::Bin);
        assert_eq!(classify("src/bin/dfsim.rs"), FileClass::Bin);
        assert_eq!(classify("examples/quickstart.rs"), FileClass::Bin);
        assert_eq!(classify("tests/golden_regression.rs"), FileClass::Test);
        assert_eq!(classify("crates/des/tests/proptest_queue.rs"), FileClass::Test);
        assert_eq!(classify("crates/bench/benches/event_queue.rs"), FileClass::Bench);
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Bin);
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(crate_of("crates/des/src/rng.rs"), "des");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/end_to_end.rs"), "root");
    }
}
