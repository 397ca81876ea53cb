//! Every rule is proven live: one minimal violating fixture per rule must
//! fire, the clean fixture must pass, unjustified/stale allows are
//! themselves errors, and the whole workspace must lint clean (the same
//! invariant CI enforces by running the binary).
//!
//! Fixtures live in `tests/fixtures/` — a directory name the workspace
//! walker skips, so intentionally-violating snippets never fail the real
//! pass.

use dfsim_lint::rules::Finding;
use dfsim_lint::{lint_sources, load_source};
use std::path::Path;

/// Lint one fixture as if it sat at `rel` in the workspace.
fn lint_at(rel: &str, text: &str) -> Vec<Finding> {
    lint_sources(vec![load_source(rel, text)]).findings
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------------
// One firing fixture per rule
// ---------------------------------------------------------------------------

#[test]
fn no_wallclock_fires_outside_timing_modules() {
    let src = include_str!("fixtures/wallclock_violation.rs");
    let f = lint_at("crates/network/src/helper.rs", src);
    assert_eq!(rules_of(&f), vec!["no-wallclock"], "{f:#?}");
    assert_eq!(f[0].line, 4);
    assert!(f[0].excerpt.contains("Instant"), "{:?}", f[0]);
}

#[test]
fn no_wallclock_is_silent_in_designated_timing_modules() {
    let src = include_str!("fixtures/wallclock_violation.rs");
    for rel in [
        "crates/core/src/sweep.rs",
        "crates/core/src/partition.rs",
        "crates/core/src/cache.rs",
        "crates/bench/src/bin/fig99.rs",
    ] {
        let f = lint_at(rel, src);
        assert!(
            !rules_of(&f).contains(&"no-wallclock"),
            "no-wallclock must not fire in {rel}: {f:#?}"
        );
    }
    // The runner only assembles reports: it is not a timing module.
    let f = lint_at("crates/core/src/runner.rs", src);
    assert_eq!(rules_of(&f), vec!["no-wallclock"], "{f:#?}");
}

#[test]
fn no_ambient_env_fires_outside_resolution_layers() {
    let src = include_str!("fixtures/ambient_env_violation.rs");
    let f = lint_at("crates/core/src/simulation.rs", src);
    assert_eq!(rules_of(&f), vec!["no-ambient-env"], "{f:#?}");
    // …including in binaries and tests: there is no class exemption.
    let f = lint_at("src/bin/dfsim.rs", src);
    assert_eq!(rules_of(&f), vec!["no-ambient-env"], "{f:#?}");
}

#[test]
fn no_ambient_env_is_silent_in_spec_and_cache() {
    let src = include_str!("fixtures/ambient_env_violation.rs");
    for rel in ["crates/core/src/spec.rs", "crates/core/src/cache.rs"] {
        assert!(lint_at(rel, src).is_empty(), "env reads are the {rel} layer's job");
    }
}

#[test]
fn no_unordered_iteration_fires_in_sim_state_crates() {
    let src = include_str!("fixtures/unordered_violation.rs");
    for rel in [
        "crates/des/src/helper.rs",
        "crates/network/src/helper.rs",
        "crates/topology/src/helper.rs",
        "crates/mpi/src/helper.rs",
        "crates/metrics/src/helper.rs",
        "crates/core/src/world.rs",
    ] {
        let f = lint_at(rel, src);
        assert!(
            !f.is_empty() && rules_of(&f).iter().all(|r| *r == "no-unordered-iteration"),
            "{rel}: {f:#?}"
        );
    }
}

#[test]
fn no_unordered_iteration_is_silent_off_the_sim_path() {
    let src = include_str!("fixtures/unordered_violation.rs");
    // Orchestration/presentation code may hash; determinism of reports
    // never observes it.
    for rel in ["crates/core/src/spec.rs", "crates/bench/src/helper.rs", "tests/some_suite.rs"] {
        assert!(lint_at(rel, src).is_empty(), "{rel} is out of scope");
    }
}

#[test]
fn no_ad_hoc_rng_fires_everywhere_but_des_rng() {
    let src = include_str!("fixtures/rng_violation.rs");
    let f = lint_at("crates/apps/src/ur.rs", src);
    assert_eq!(rules_of(&f), vec!["no-ad-hoc-rng"], "{f:#?}");
    // Tests are NOT exempt: OS entropy breaks reproducibility anywhere.
    let f = lint_at("tests/some_suite.rs", src);
    assert_eq!(rules_of(&f), vec!["no-ad-hoc-rng"], "{f:#?}");
    assert!(lint_at("crates/des/src/rng.rs", src).is_empty(), "des::rng owns randomness");
}

#[test]
fn stdout_discipline_fires_in_library_code_only() {
    let src = include_str!("fixtures/stdout_violation.rs");
    let f = lint_at("crates/metrics/src/summary.rs", src);
    assert_eq!(rules_of(&f), vec!["stdout-discipline"], "{f:#?}");
    // Binaries, examples, tests and the designated emitter own stdout.
    for rel in [
        "src/bin/dfsim.rs",
        "crates/bench/src/bin/fig8.rs",
        "examples/quickstart.rs",
        "tests/some_suite.rs",
        "crates/bench/src/lib.rs",
    ] {
        // (crate-root placements still owe `#![deny(unsafe_code)]`, so
        // filter to this rule rather than asserting emptiness.)
        let f = lint_at(rel, src);
        assert!(!rules_of(&f).contains(&"stdout-discipline"), "{rel} may print: {f:#?}");
    }
}

#[test]
fn unsafe_audit_fires_without_safety_comment() {
    let src = include_str!("fixtures/unsafe_violation.rs");
    let f = lint_at("crates/core/src/helper.rs", src);
    assert_eq!(rules_of(&f), vec!["unsafe-audit"], "{f:#?}");
    assert!(f[0].message.contains("SAFETY"), "{:?}", f[0]);
}

#[test]
fn unsafe_audit_accepts_documented_blocks() {
    let src = include_str!("fixtures/unsafe_documented.rs");
    assert!(lint_at("crates/core/src/helper.rs", src).is_empty());
}

#[test]
fn unsafe_audit_requires_deny_attribute_in_unsafe_free_crate_roots() {
    let bare = "//! A crate root.\npub fn f() {}\n";
    let f = lint_at("crates/des/src/lib.rs", bare);
    assert_eq!(rules_of(&f), vec!["unsafe-audit"], "{f:#?}");
    assert!(f[0].message.contains("deny(unsafe_code)"), "{:?}", f[0]);
    let denied = "//! A crate root.\n#![deny(unsafe_code)]\npub fn f() {}\n";
    assert!(lint_at("crates/des/src/lib.rs", denied).is_empty());
}

// ---------------------------------------------------------------------------
// v2: failure-behavior rules
// ---------------------------------------------------------------------------

#[test]
fn no_panic_paths_fires_in_hot_path_modules() {
    let src = include_str!("fixtures/panic_violation.rs");
    for rel in [
        "crates/des/src/helper.rs",
        "crates/network/src/helper.rs",
        "crates/mpi/src/helper.rs",
        "crates/metrics/src/helper.rs",
        "crates/core/src/world.rs",
        "crates/core/src/partition.rs",
    ] {
        let f = lint_at(rel, src);
        assert_eq!(rules_of(&f), vec!["no-panic-paths"; 3], "{rel}: {f:#?}");
    }
    let lines: Vec<usize> =
        lint_at("crates/des/src/helper.rs", src).iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![4, 8, 14], "unwrap, expect, unreachable!");
}

#[test]
fn no_panic_paths_is_silent_off_the_hot_path() {
    let src = include_str!("fixtures/panic_violation.rs");
    // Orchestration, one-shot binaries and tests may still panic freely.
    for rel in [
        "crates/core/src/sweep.rs",
        "crates/bench/src/helper.rs",
        "src/bin/dfsim.rs",
        "crates/des/tests/some_suite.rs",
    ] {
        let f = lint_at(rel, src);
        assert!(!rules_of(&f).contains(&"no-panic-paths"), "{rel} may panic: {f:#?}");
    }
}

#[test]
fn no_panic_paths_clean_rewrite_passes() {
    let src = include_str!("fixtures/panic_clean.rs");
    let f = lint_at("crates/des/src/helper.rs", src);
    assert!(f.is_empty(), "error-enum rewrites and unwrap_or must not fire: {f:#?}");
}

#[test]
fn no_panic_paths_justified_allow_suppresses() {
    let src = include_str!("fixtures/panic_allow.rs");
    let f = lint_at("crates/des/src/helper.rs", src);
    assert!(f.is_empty(), "a written invariant suppresses and counts as used: {f:#?}");
}

#[test]
fn no_panic_paths_audits_indexing_and_division_in_codec_files_only() {
    let src = include_str!("fixtures/codec_panic_violation.rs");
    let f = lint_at("crates/core/src/trace.rs", src);
    assert_eq!(rules_of(&f), vec!["no-panic-paths"; 2], "{f:#?}");
    assert!(f[0].message.contains("indexing"), "{:?}", f[0]);
    assert!(f[1].message.contains("division"), "{:?}", f[1]);
    // The same source in a non-codec hot-path module is fine: indexing
    // there works on internal state, not decoded input.
    let f = lint_at("crates/des/src/helper.rs", src);
    assert!(f.is_empty(), "index/division audit is codec-scoped: {f:#?}");
}

#[test]
fn codec_cast_audit_fires_on_narrowing_casts() {
    let src = include_str!("fixtures/cast_violation.rs");
    for rel in
        ["crates/core/src/trace.rs", "crates/core/src/cache.rs", "crates/metrics/src/trace.rs"]
    {
        let f = lint_at(rel, src);
        assert_eq!(rules_of(&f), vec!["codec-cast-audit"], "{rel}: {f:#?}");
        assert_eq!(f[0].line, 5);
    }
    // Outside codec files the cast is unaudited.
    let f = lint_at("crates/core/src/world.rs", src);
    assert!(f.is_empty(), "cast audit is codec-scoped: {f:#?}");
}

#[test]
fn codec_cast_audit_accepts_try_from_and_widening() {
    let src = include_str!("fixtures/cast_clean.rs");
    let f = lint_at("crates/core/src/trace.rs", src);
    assert!(f.is_empty(), "try_from and `as u64` widening must not fire: {f:#?}");
}

#[test]
fn codec_cast_audit_justified_allow_suppresses() {
    let src = include_str!("fixtures/cast_allow.rs");
    let f = lint_at("crates/core/src/trace.rs", src);
    assert!(f.is_empty(), "a named bound suppresses the cast finding: {f:#?}");
}

#[test]
fn lock_discipline_fires_on_guard_held_across_send() {
    let src = include_str!("fixtures/lock_violation.rs");
    let f = lint_at("crates/core/src/helper.rs", src);
    assert_eq!(rules_of(&f), vec!["lock-discipline"], "{f:#?}");
    assert_eq!(f[0].line, 10);
    assert!(f[0].message.contains("`.send()` can block"), "{:?}", f[0]);
    assert!(f[0].message.contains("`state`"), "must name the lock: {:?}", f[0]);
}

#[test]
fn lock_discipline_clean_when_guard_dropped_before_send() {
    let src = include_str!("fixtures/lock_clean.rs");
    let f = lint_at("crates/core/src/helper.rs", src);
    assert!(f.is_empty(), "drop(guard) before send must pass: {f:#?}");
}

#[test]
fn lock_discipline_justified_allow_suppresses() {
    let src = include_str!("fixtures/lock_allow.rs");
    let f = lint_at("crates/core/src/helper.rs", src);
    assert!(f.is_empty(), "a written no-deadlock argument suppresses: {f:#?}");
}

#[test]
fn lock_discipline_requires_a_declared_order_for_nested_locks() {
    let nested = "use std::sync::Mutex;\n\
                  pub fn f(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {\n\
                  let ga = a.lock().unwrap_or_else(|e| e.into_inner());\n\
                  let gb = b.lock().unwrap_or_else(|e| e.into_inner());\n\
                  *ga + *gb\n\
                  }\n";
    let f = lint_at("crates/core/src/helper.rs", nested);
    assert_eq!(rules_of(&f), vec!["lock-discipline"], "{f:#?}");
    assert!(f[0].message.contains("LOCK_ORDER"), "{:?}", f[0]);

    // Declaring the order in acquisition order makes the same code clean.
    let declared = format!("pub const LOCK_ORDER: [&str; 2] = [\"a\", \"b\"];\n{nested}");
    let f = lint_at("crates/core/src/helper.rs", &declared);
    assert!(f.is_empty(), "declared order must pass: {f:#?}");

    // A declaration that contradicts the acquisitions fires.
    let contradicted = format!("pub const LOCK_ORDER: [&str; 2] = [\"b\", \"a\"];\n{nested}");
    let f = lint_at("crates/core/src/helper.rs", &contradicted);
    assert_eq!(rules_of(&f), vec!["lock-discipline"], "{f:#?}");
    assert!(f[0].message.contains("violates the declared `LOCK_ORDER`"), "{:?}", f[0]);
}

// ---------------------------------------------------------------------------
// The allow mechanism
// ---------------------------------------------------------------------------

#[test]
fn justified_allow_suppresses_and_counts_as_used() {
    let src = include_str!("fixtures/allow_justified.rs");
    assert!(lint_at("crates/metrics/src/helper.rs", src).is_empty());
}

#[test]
fn unjustified_allow_is_an_error_and_suppresses_nothing() {
    let src = include_str!("fixtures/allow_unjustified.rs");
    let findings = lint_at("crates/metrics/src/helper.rs", src);
    let mut rules = rules_of(&findings);
    rules.sort();
    assert_eq!(rules, vec!["allow-audit", "no-wallclock"]);
}

#[test]
fn stale_allow_is_an_error() {
    let src = include_str!("fixtures/allow_stale.rs");
    let f = lint_at("crates/metrics/src/helper.rs", src);
    assert_eq!(rules_of(&f), vec!["allow-audit"], "{f:#?}");
    assert!(f[0].message.contains("stale"), "{:?}", f[0]);
}

#[test]
fn allow_naming_an_unknown_rule_is_an_error() {
    let src = "pub fn f() {}\n// lint: allow(no-such-rule) — whatever\npub fn g() {}\n";
    let f = lint_at("crates/metrics/src/helper.rs", src);
    assert_eq!(rules_of(&f), vec!["allow-audit"], "{f:#?}");
    assert!(f[0].message.contains("no-such-rule"));
}

// ---------------------------------------------------------------------------
// Clean snippet + whole-workspace pass
// ---------------------------------------------------------------------------

#[test]
fn clean_snippet_passes_in_the_most_restrictive_scope() {
    let src = include_str!("fixtures/clean.rs");
    let f = lint_at("crates/des/src/helper.rs", src);
    assert!(f.is_empty(), "banned names in literals/comments must not fire: {f:#?}");
}

/// The invariant CI enforces: the real workspace lints clean, with the
/// real spec-key registry cross-checked against the real classification.
#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dfsim_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean:\n{}",
        report.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(report.files_scanned > 100, "walker lost the tree? {}", report.files_scanned);
    // v2 pin: the failure-behavior rules are in the pass that just ran
    // clean, so the whole workspace is panic-audited, lock-ordered and
    // cast-audited — not merely deterministic.
    for rule in ["no-panic-paths", "lock-discipline", "codec-cast-audit"] {
        assert!(dfsim_lint::rules::RULES.contains(&rule), "v2 rule {rule} missing from the pass");
    }
}

/// The CLI contract CI scripts rely on: exit 0 + summary on a clean tree,
/// exit 2 with `file:line: rule:` findings on stdout otherwise.
#[test]
fn binary_exits_2_on_violations_and_0_when_clean() {
    let dir = std::env::temp_dir().join(format!("dfsim_lint_e2e_{}", std::process::id()));
    let src_dir = dir.join("crates/network/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(src_dir.join("helper.rs"), include_str!("fixtures/wallclock_violation.rs"))
        .expect("write fixture");

    let bin = env!("CARGO_BIN_EXE_dfsim-lint");
    let out = std::process::Command::new(bin)
        .args(["--root", dir.to_str().unwrap()])
        .output()
        .expect("run dfsim-lint");
    assert_eq!(out.status.code(), Some(2), "violations must exit 2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/network/src/helper.rs:4: no-wallclock:"),
        "machine-readable finding expected, got:\n{stdout}"
    );

    std::fs::write(src_dir.join("helper.rs"), "pub fn f() {}\n").expect("write clean");
    let out = std::process::Command::new(bin)
        .args(["--root", dir.to_str().unwrap()])
        .output()
        .expect("run dfsim-lint");
    assert_eq!(out.status.code(), Some(0), "clean tree must exit 0");

    std::fs::remove_dir_all(&dir).ok();
}
