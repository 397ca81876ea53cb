//! The determinism & panic-safety rules, and the allow-directive engine.
//!
//! Every rule protects a bit-identity or safety contract the test suites
//! pin dynamically; the lint makes the *source-level* convention behind
//! each contract machine-checked (see README "Static analysis &
//! determinism invariants" for the reasoning per rule).
//!
//! A violation on line `L` can be waived by a justified directive on the
//! preceding line (or a trailing comment on `L` itself):
//!
//! ```text
//! // lint: allow(no-ambient-env) — bench-harness smoke knob, not an experiment input
//! ```
//!
//! Unjustified directives — malformed, naming an unknown rule, missing a
//! reason, or suppressing nothing — are themselves `allow-audit` errors,
//! so waivers can never rot silently.

use crate::lexer::{Comment, Lexed, TokenKind};
use std::collections::BTreeMap;

/// Every rule the pass knows, in reporting order.
pub const RULES: [&str; 10] = [
    "no-wallclock",
    "no-ambient-env",
    "no-unordered-iteration",
    "no-ad-hoc-rng",
    "stdout-discipline",
    "unsafe-audit",
    "no-panic-paths",
    "lock-discipline",
    "codec-cast-audit",
    "allow-audit",
];

/// One lint violation, machine-readable: `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// What is wrong and what the fix direction is.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)?;
        if !self.excerpt.is_empty() {
            write!(f, "\n    | {}", self.excerpt)?;
        }
        Ok(())
    }
}

/// How a file participates in rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/*/src/**`, root `src/lib.rs`).
    Lib,
    /// Binary / example entry point: owns stdout.
    Bin,
    /// Integration-test code (`tests/` trees).
    Test,
    /// Criterion benches (`benches/` trees).
    Bench,
}

/// One lexed source file plus the context rules scope on.
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Crate the file belongs to (`core`, `des`, …; `root` for the facade
    /// package's `src/`, `tests/`, `examples/`).
    pub krate: String,
    /// Scope class (library / bin / test / bench).
    pub class: FileClass,
    /// Token stream, comments, and `#[cfg(test)]` spans.
    pub lexed: Lexed,
    /// Raw source lines (for excerpts).
    pub lines: Vec<String>,
}

impl SourceFile {
    fn excerpt(&self, line: usize) -> String {
        let s = self.lines.get(line.saturating_sub(1)).map(|l| l.trim()).unwrap_or("");
        let mut e: String = s.chars().take(96).collect();
        if e.len() < s.len() {
            e.push('…');
        }
        e
    }
}

// ---------------------------------------------------------------------------
// Rule scoping tables
// ---------------------------------------------------------------------------

/// Designated timing modules: the only library files allowed to read the
/// wall clock (run-cost accounting and cache GC ages — never simulation
/// state).
const WALLCLOCK_FILES: [&str; 3] =
    ["crates/core/src/sweep.rs", "crates/core/src/partition.rs", "crates/core/src/cache.rs"];

/// The resolution layers: the only files allowed to read ambient
/// environment variables (PR 5's `defaults < file < env < CLI` contract).
const ENV_FILES: [&str; 2] = ["crates/core/src/spec.rs", "crates/core/src/cache.rs"];

/// Sim-state crates where unordered iteration could leak host hash-seed
/// nondeterminism into reports.
const UNORDERED_CRATES: [&str; 5] = ["des", "network", "topology", "mpi", "metrics"];

/// Core files on the simulation path (the rest of `core` — spec parsing,
/// report emission, sweep orchestration — never iterates sim state).
const UNORDERED_CORE_FILES: [&str; 6] = [
    "crates/core/src/world.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/scenario.rs",
    "crates/core/src/runner.rs",
    "crates/core/src/placement.rs",
    "crates/core/src/simulation.rs",
];

/// Designated report/CSV emitters: library files whose `println!` IS the
/// product (presentation helpers shared by the reproduction binaries).
const STDOUT_EMITTER_FILES: [&str; 1] = ["crates/bench/src/lib.rs"];

/// The one module allowed to construct randomness sources.
const RNG_FILE: &str = "crates/des/src/rng.rs";

const WALLCLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "UNIX_EPOCH"];
const ENV_READS: [&str; 4] = ["var", "var_os", "vars", "vars_os"];
const UNORDERED_IDENTS: [&str; 2] = ["HashMap", "HashSet"];
const RNG_IDENTS: [&str; 4] = ["thread_rng", "OsRng", "from_entropy", "getrandom"];

/// Hot-path modules where a panic is an outage, not a failed CLI run
/// (ROADMAP: long-running `dfsim serve`, MPI communicator): every
/// panicking construct must be rewritten onto the crate's error enum or
/// carry a written invariant.
const PANIC_FREE_PREFIXES: [&str; 4] =
    ["crates/des/src/", "crates/network/src/", "crates/mpi/src/", "crates/metrics/src/"];
const PANIC_FREE_CORE_FILES: [&str; 5] = [
    "crates/core/src/world.rs",
    "crates/core/src/partition.rs",
    "crates/core/src/simulation.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/trace.rs",
];

/// Codec files decode *external* input (trace files on disk, cache
/// blobs): here no-panic-paths additionally audits direct indexing and
/// bare division, and codec-cast-audit audits narrowing `as` casts — a
/// short or corrupt file must surface as `Truncated`/`Malformed`, never
/// as a panic or a silent wrap.
const CODEC_FILES: [&str; 3] =
    ["crates/metrics/src/trace.rs", "crates/core/src/trace.rs", "crates/core/src/cache.rs"];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Cast targets that can lose bits (`usize`/`isize`: on 32-bit hosts;
/// `i64`: from the sign domain of `u64`; `f32`: precision). `u64`,
/// `u128` and `f64` targets are widening from every integer the codecs
/// carry and pass un-flagged — the overflow-checks CI lane backstops the
/// arithmetic feeding them.
const NARROWING_TARGETS: [&str; 10] =
    ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize", "i64", "f32"];

/// Method names that can block the calling thread (channel ends, windowed
/// `SimCommunicator` exchanges) — never while a mutex guard is live, or
/// the pool-poster + windowed-exchange pair deadlocks.
const BLOCKING_METHODS: [&str; 5] = ["send", "recv", "recv_timeout", "exchange", "broadcast"];

/// Condvar waits: blocking too, but *correct* with a guard — when the
/// guard is what they consume (`cv.wait(guard)` releases and reacquires
/// atomically). Flagged only when no live guard is passed in.
const CONDVAR_WAITS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

/// Keywords that can sit directly before `[` without the bracket being an
/// index expression (slice patterns, array literals, `for _ in [..]`).
const NON_INDEX_KEYWORDS: [&str; 12] = [
    "let", "mut", "ref", "in", "return", "break", "match", "box", "yield", "static", "const",
    "else",
];

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

struct Directive {
    rule: String,
    reason: String,
    /// Last line of the directive comment (a finding on `end_line + 1` or
    /// `end_line` itself is covered).
    end_line: usize,
    line: usize,
    used: bool,
    problem: Option<String>,
}

fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        // A directive may start on any line of a comment block; its reason
        // runs to the end of the block (multi-line justifications merge in
        // the lexer), so the block's `end_line` sits directly above the
        // code the waiver covers.
        let Some(rest) = directive_text(&c.text) else { continue };
        let rest = rest.trim();
        let mut d = Directive {
            rule: String::new(),
            reason: String::new(),
            end_line: c.end_line,
            line: c.line,
            used: false,
            problem: None,
        };
        match parse_allow(rest) {
            Ok((rule, reason)) => {
                if !RULES.contains(&rule.as_str()) {
                    d.problem = Some(format!("unknown rule `{rule}` in lint directive"));
                } else if rule == "allow-audit" {
                    d.problem = Some("`allow-audit` cannot be waived".to_string());
                } else if reason.is_empty() {
                    d.problem = Some(format!(
                        "unjustified allow: `allow({rule})` needs a reason after `—`"
                    ));
                }
                d.rule = rule;
                d.reason = reason;
            }
            Err(msg) => d.problem = Some(msg),
        }
        out.push(d);
    }
    out
}

/// Extract the directive body from a comment block: everything from the
/// first line starting with `lint:` to the end of the block, joined with
/// spaces.
fn directive_text(text: &str) -> Option<String> {
    let mut lines = text.lines().map(str::trim);
    let first = lines.find_map(|l| l.strip_prefix("lint:"))?;
    let mut body = first.trim().to_string();
    for l in lines {
        body.push(' ');
        body.push_str(l);
    }
    Some(body)
}

/// Parse `allow(<rule>) — <reason>`; the separator may be `—`, `–`, `-`,
/// or `--`. Returns `(rule, reason)`.
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let err = || "malformed lint directive: expected `lint: allow(<rule>) — <reason>`".to_string();
    let s = s.strip_prefix("allow").ok_or_else(err)?.trim_start();
    let s = s.strip_prefix('(').ok_or_else(err)?;
    let (rule, rest) = s.split_once(')').ok_or_else(err)?;
    let rest = rest.trim_start();
    let reason = rest
        .strip_prefix('—')
        .or_else(|| rest.strip_prefix('–'))
        .or_else(|| rest.strip_prefix("--"))
        .or_else(|| rest.strip_prefix('-'))
        .unwrap_or("");
    Ok((rule.trim().to_string(), reason.trim().to_string()))
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

/// Run every per-file rule on `f`, applying and auditing allow
/// directives. Returns the surviving findings.
pub fn lint_file(f: &SourceFile) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    check_wallclock(f, &mut raw);
    check_env(f, &mut raw);
    check_unordered(f, &mut raw);
    check_rng(f, &mut raw);
    check_stdout(f, &mut raw);
    check_unsafe(f, &mut raw);
    check_panic_paths(f, &mut raw);
    check_lock_discipline(f, &mut raw);
    check_codec_casts(f, &mut raw);

    let mut directives = parse_directives(&f.lexed.comments);
    let mut out = Vec::new();
    for finding in raw {
        let suppressed = directives.iter_mut().any(|d| {
            let covers = d.problem.is_none()
                && d.rule == finding.rule
                && (d.end_line + 1 == finding.line || d.end_line == finding.line);
            if covers {
                d.used = true;
            }
            covers
        });
        if !suppressed {
            out.push(finding);
        }
    }
    for d in &directives {
        if let Some(problem) = &d.problem {
            out.push(Finding {
                file: f.rel.clone(),
                line: d.line,
                rule: "allow-audit",
                message: problem.clone(),
                excerpt: f.excerpt(d.line),
            });
        } else if !d.used {
            out.push(Finding {
                file: f.rel.clone(),
                line: d.line,
                rule: "allow-audit",
                message: format!(
                    "stale allow: no `{}` finding on the covered line — remove the directive",
                    d.rule
                ),
                excerpt: f.excerpt(d.line),
            });
        }
    }
    out
}

fn push(f: &SourceFile, out: &mut Vec<Finding>, line: usize, rule: &'static str, message: String) {
    out.push(Finding { file: f.rel.clone(), line, rule, message, excerpt: f.excerpt(line) });
}

/// no-wallclock: `Instant`/`SystemTime` only in designated timing modules
/// and bench code. Simulated time must come from the event clock;
/// wall-clock reads anywhere else can leak host timing into results.
fn check_wallclock(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.krate == "bench"
        || matches!(f.class, FileClass::Test | FileClass::Bench)
        || WALLCLOCK_FILES.contains(&f.rel.as_str())
    {
        return;
    }
    for t in idents(f) {
        if WALLCLOCK_IDENTS.contains(&t.text.as_str()) && !f.lexed.in_test_region(t.line) {
            push(
                f,
                out,
                t.line,
                "no-wallclock",
                format!(
                    "wall-clock type `{}` outside the designated timing modules \
                     (sweep/partition/cache, bench code); simulation code must \
                     use the event clock",
                    t.text
                ),
            );
        }
    }
}

/// no-ambient-env: `env::var` only in the spec/cache resolution layers —
/// keeps PR 5's "defaults < file < env < CLI, resolved once" permanent.
fn check_env(f: &SourceFile, out: &mut Vec<Finding>) {
    if ENV_FILES.contains(&f.rel.as_str()) {
        return;
    }
    let toks = &f.lexed.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "env"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].kind == TokenKind::Ident
            && ENV_READS.contains(&toks[i + 3].text.as_str())
        {
            push(
                f,
                out,
                toks[i].line,
                "no-ambient-env",
                format!(
                    "ambient environment read `env::{}` outside the spec/cache \
                     resolution layers; thread it through `ExperimentSpec::resolve`",
                    toks[i + 3].text
                ),
            );
        }
    }
}

/// no-unordered-iteration: `HashMap`/`HashSet` forbidden in sim-state
/// crates and core sim-path files — unordered iteration can leak the
/// host's hash seed into event order and break bit-identity.
fn check_unordered(f: &SourceFile, out: &mut Vec<Finding>) {
    let in_scope = (UNORDERED_CRATES.contains(&f.krate.as_str()) && f.class == FileClass::Lib)
        || UNORDERED_CORE_FILES.contains(&f.rel.as_str());
    if !in_scope {
        return;
    }
    for t in idents(f) {
        if UNORDERED_IDENTS.contains(&t.text.as_str()) && !f.lexed.in_test_region(t.line) {
            push(
                f,
                out,
                t.line,
                "no-unordered-iteration",
                format!(
                    "`{}` in sim-state code: iteration order depends on the hash \
                     seed; use `BTreeMap`/`BTreeSet` (or justify why order can \
                     never be observed)",
                    t.text
                ),
            );
        }
    }
}

/// no-ad-hoc-rng: all randomness flows from `des::rng`'s seeded streams;
/// OS entropy anywhere (tests included) breaks reproducibility.
fn check_rng(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.rel == RNG_FILE {
        return;
    }
    for t in idents(f) {
        if RNG_IDENTS.contains(&t.text.as_str()) {
            push(
                f,
                out,
                t.line,
                "no-ad-hoc-rng",
                format!(
                    "`{}` is OS-entropy randomness; derive a seeded stream from \
                     `des::rng` instead",
                    t.text
                ),
            );
        }
    }
}

/// stdout-discipline: in library crates stdout belongs to report/CSV
/// emitters; diagnostics go to stderr so `dfsim … --csv > out.csv` stays
/// clean.
fn check_stdout(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.class != FileClass::Lib || STDOUT_EMITTER_FILES.contains(&f.rel.as_str()) {
        return;
    }
    let toks = &f.lexed.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].kind == TokenKind::Ident
            && (toks[i].text == "println" || toks[i].text == "print")
            && toks[i + 1].text == "!"
            && !f.lexed.in_test_region(toks[i].line)
        {
            push(
                f,
                out,
                toks[i].line,
                "stdout-discipline",
                format!(
                    "`{}!` in a library crate: stdout is reserved for the \
                     designated report/CSV emitters; use `eprintln!` for \
                     diagnostics",
                    toks[i].text
                ),
            );
        }
    }
}

/// unsafe-audit (per-file half): every `unsafe` needs a `// SAFETY:`
/// comment in the contiguous comment block above it (or on its line).
fn check_unsafe(f: &SourceFile, out: &mut Vec<Finding>) {
    for t in idents(f) {
        if t.text != "unsafe" {
            continue;
        }
        if !has_safety_comment(&f.lexed, t.line) {
            push(
                f,
                out,
                t.line,
                "unsafe-audit",
                "`unsafe` without a `// SAFETY:` comment in the preceding comment \
                 block explaining why the invariants hold"
                    .to_string(),
            );
        }
    }
}

/// Does any `unsafe` (documented or not) appear in the file?
pub fn has_unsafe(f: &SourceFile) -> bool {
    idents(f).any(|t| t.text == "unsafe")
}

fn has_safety_comment(lexed: &Lexed, unsafe_line: usize) -> bool {
    // Same-line trailing comment counts.
    if lexed.comments.iter().any(|c| c.line == unsafe_line && c.text.contains("SAFETY:")) {
        return true;
    }
    // Walk up through the contiguous comment block directly above.
    let mut l = unsafe_line.saturating_sub(1);
    loop {
        let Some(c) =
            lexed.comments.iter().find(|c| c.end_line == l || (c.line <= l && l <= c.end_line))
        else {
            return false;
        };
        if c.text.contains("SAFETY:") {
            return true;
        }
        if c.line == 0 || c.line == 1 {
            return false;
        }
        l = c.line - 1;
    }
}

fn idents(f: &SourceFile) -> impl Iterator<Item = &crate::lexer::Token> {
    f.lexed.tokens.iter().filter(|t| t.kind == TokenKind::Ident)
}

// ---------------------------------------------------------------------------
// v2: panic paths, lock discipline, codec casts
// ---------------------------------------------------------------------------

/// Is this file library code in a designated hot-path module?
fn is_hot_path(f: &SourceFile) -> bool {
    f.class == FileClass::Lib
        && (PANIC_FREE_PREFIXES.iter().any(|p| f.rel.starts_with(p))
            || PANIC_FREE_CORE_FILES.contains(&f.rel.as_str()))
}

/// no-panic-paths: `.unwrap()`/`.expect()`/panic macros in hot-path
/// modules must be rewritten onto the crate's error enum or carry a
/// justified allow; in codec files, direct indexing and bare division on
/// decoded input are audited too.
fn check_panic_paths(f: &SourceFile, out: &mut Vec<Finding>) {
    if !is_hot_path(f) {
        return;
    }
    let codec = CODEC_FILES.contains(&f.rel.as_str());
    let toks = &f.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if f.lexed.in_test_region(t.line) {
            continue;
        }
        let next_is = |s: &str| toks.get(i + 1).is_some_and(|n| n.text == s);
        let prev_is = |s: &str| i > 0 && toks[i - 1].text == s;
        match t.kind {
            TokenKind::Ident
                if (t.text == "unwrap" || t.text == "expect") && prev_is(".") && next_is("(") =>
            {
                push(
                    f,
                    out,
                    t.line,
                    "no-panic-paths",
                    format!(
                        "`.{}()` on a hot path: rewrite onto the crate's error enum, or \
                         justify the invariant with `// lint: allow(no-panic-paths) — <why \
                         it cannot fail>`",
                        t.text
                    ),
                );
            }
            TokenKind::Ident
                if PANIC_MACROS.contains(&t.text.as_str()) && next_is("!") && !prev_is(".") =>
            {
                push(
                    f,
                    out,
                    t.line,
                    "no-panic-paths",
                    format!(
                        "`{}!` on a hot path: return the crate's error enum instead, or \
                         justify why this state is unreachable",
                        t.text
                    ),
                );
            }
            TokenKind::Punct if codec && t.text == "[" && i > 0 && is_index_base(&toks[i - 1]) => {
                push(
                    f,
                    out,
                    t.line,
                    "no-panic-paths",
                    "direct indexing in codec code: a short or corrupt input must surface \
                     as `Truncated`/`Malformed`, not a panic — use `get(..)` (or justify \
                     the bound)"
                        .to_string(),
                );
            }
            TokenKind::Punct if codec && t.text == "/" && is_unchecked_division(toks, i) => {
                push(
                    f,
                    out,
                    t.line,
                    "no-panic-paths",
                    "bare division in codec code: a zero divisor derived from the input \
                     panics — use `checked_div` (or justify why the divisor is non-zero)"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}

/// Does the token before `[` make the bracket an index expression?
fn is_index_base(prev: &crate::lexer::Token) -> bool {
    match prev.kind {
        TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokenKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    }
}

/// Is `/` at `i` a binary division whose divisor is not a literal?
/// (Literal divisors can't be zero at runtime; float-typed numerators —
/// recognizable from a preceding `as f64` cast — never panic.)
fn is_unchecked_division(toks: &[crate::lexer::Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else { return false };
    let dividend_ok = match prev.kind {
        TokenKind::Ident => {
            !NON_INDEX_KEYWORDS.contains(&prev.text.as_str())
                && prev.text != "f32"
                && prev.text != "f64"
        }
        TokenKind::Num => true,
        TokenKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    };
    if !dividend_ok {
        return false;
    }
    // `x /= y` is still a division; the divisor sits past the `=`.
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.text == "=") {
        j += 1;
    }
    match toks.get(j) {
        Some(d) => d.kind != TokenKind::Num,
        None => false,
    }
}

/// codec-cast-audit: narrowing `as` casts in codec files must become
/// `try_from` (mapped onto the codec's named error) or carry a justified
/// allow, so frame lengths can never silently wrap.
fn check_codec_casts(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.class != FileClass::Lib || !CODEC_FILES.contains(&f.rel.as_str()) {
        return;
    }
    let toks = &f.lexed.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "as"
            && toks[i + 1].kind == TokenKind::Ident
            && NARROWING_TARGETS.contains(&toks[i + 1].text.as_str())
            && !f.lexed.in_test_region(toks[i].line)
        {
            let ty = &toks[i + 1].text;
            push(
                f,
                out,
                toks[i].line,
                "codec-cast-audit",
                format!(
                    "narrowing `as {ty}` in codec code can silently wrap: use \
                     `{ty}::try_from(..)` mapped onto the codec's `Truncated`/`Malformed` \
                     error (`::from` when lossless), or justify the value range"
                ),
            );
        }
    }
}

/// One live mutex guard during the [`check_lock_discipline`] scan.
struct LiveGuard {
    /// The `let` binding name; empty for a guard temporary that dies at
    /// the end of its statement.
    binding: String,
    /// The lock's receiver name (`state` in `self.state.lock()`).
    lock: String,
    /// Line the guard was taken on.
    line: usize,
    /// Brace depth the binding lives at (dies when the block closes).
    depth: usize,
    /// Statement temporary (no `let`): dies at the next `;`.
    temp: bool,
}

/// The string literals of `const <name>: … = [ … ];` in one file, if the
/// file defines it. Only a definition matches (the identifier must follow
/// `const`), so a reference like `LOCK_ORDER.iter()` is ignored.
fn const_str_list_in(f: &SourceFile, name: &str) -> Option<Vec<String>> {
    let toks = &f.lexed.tokens;
    let i = (1..toks.len()).find(|&i| {
        toks[i].text == name && toks[i].kind == TokenKind::Ident && toks[i - 1].text == "const"
    })?;
    // Skip the type annotation (its `[&str; N]` contains a `;`): string
    // literals only count after the `=`.
    let mut items = Vec::new();
    let mut past_eq = false;
    for t in &toks[i + 1..] {
        match t.kind {
            TokenKind::Punct if t.text == "=" => past_eq = true,
            TokenKind::Str if past_eq => items.push(t.text.clone()),
            TokenKind::Punct if t.text == ";" && past_eq => break,
            _ => {}
        }
    }
    Some(items)
}

/// lock-discipline: a mutex guard must never be held across a blocking
/// call (`send`/`recv`/`join`/`exchange`/`broadcast`, or a condvar wait
/// that doesn't consume it), and nested acquisitions must follow the
/// file's declared `LOCK_ORDER` table.
fn check_lock_discipline(f: &SourceFile, out: &mut Vec<Finding>) {
    if f.class != FileClass::Lib {
        return;
    }
    let toks = &f.lexed.tokens;
    let order = const_str_list_in(f, "LOCK_ORDER");
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        let in_test = f.lexed.in_test_region(t.line);
        match t.text.as_str() {
            "{" if t.kind == TokenKind::Punct => depth += 1,
            "}" if t.kind == TokenKind::Punct => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            ";" if t.kind == TokenKind::Punct => guards.retain(|g| !g.temp),
            "drop"
                if t.kind == TokenKind::Ident
                    && toks.get(i + 1).is_some_and(|n| n.text == "(")
                    && toks.get(i + 3).is_some_and(|n| n.text == ")") =>
            {
                if let Some(name) = toks.get(i + 2) {
                    guards.retain(|g| g.binding != name.text);
                }
            }
            _ => {}
        }
        let is_method = |s: &str| {
            t.kind == TokenKind::Ident
                && t.text == s
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
        };
        // A new acquisition: `<recv>.lock(`.
        if is_method("lock") {
            let (lock_name, _) = receiver_name(toks, i - 1);
            if !in_test {
                if let Some(order) = &order {
                    if !order.iter().any(|o| o == &lock_name) {
                        push(
                            f,
                            out,
                            t.line,
                            "lock-discipline",
                            format!(
                                "lock `{lock_name}` is not declared in this file's \
                                 `LOCK_ORDER` table — declare every lock so acquisition \
                                 order stays auditable"
                            ),
                        );
                    } else if let Some(g) = guards.iter().find(|g| {
                        let held = order.iter().position(|o| o == &g.lock);
                        let new = order.iter().position(|o| o == &lock_name);
                        matches!((held, new), (Some(h), Some(n)) if h > n)
                    }) {
                        push(
                            f,
                            out,
                            t.line,
                            "lock-discipline",
                            format!(
                                "lock `{lock_name}` acquired while `{}` (line {}) is held \
                                 — violates the declared `LOCK_ORDER`; swap the \
                                 acquisitions or update the table",
                                g.lock, g.line
                            ),
                        );
                    }
                } else if let Some(g) = guards.first() {
                    push(
                        f,
                        out,
                        t.line,
                        "lock-discipline",
                        format!(
                            "nested lock acquisition (`{lock_name}` while `{}` from line \
                             {} is held) without a `LOCK_ORDER` declaration in this file \
                             — declare `const LOCK_ORDER: [&str; N]` listing every lock \
                             in acquisition order",
                            g.lock, g.line
                        ),
                    );
                }
            }
            // Guard binding: the expression is a guard iff nothing but
            // Result-unwrapping chains between `lock()` and the `;`.
            let mut j = skip_balanced(toks, i + 1);
            while toks.get(j).is_some_and(|x| x.text == ".")
                && toks.get(j + 1).is_some_and(|x| {
                    matches!(x.text.as_str(), "unwrap" | "expect" | "unwrap_or_else")
                })
                && toks.get(j + 2).is_some_and(|x| x.text == "(")
            {
                j = skip_balanced(toks, j + 2);
            }
            let guard_stmt = toks.get(j).is_some_and(|x| x.text == ";");
            let binding = if guard_stmt { let_binding_before(toks, i) } else { None };
            match binding {
                Some(name) => guards.push(LiveGuard {
                    binding: name,
                    lock: lock_name,
                    line: t.line,
                    depth,
                    temp: false,
                }),
                None => guards.push(LiveGuard {
                    binding: String::new(),
                    lock: lock_name,
                    line: t.line,
                    depth,
                    temp: true,
                }),
            }
            continue;
        }
        if guards.is_empty() || in_test {
            continue;
        }
        // Blocking calls while a guard is live.
        let blocking = BLOCKING_METHODS.iter().any(|m| is_method(m))
            || (is_method("join") && toks.get(i + 2).is_some_and(|n| n.text == ")"));
        if blocking {
            let g = guards.last().expect("guards checked non-empty");
            push(
                f,
                out,
                t.line,
                "lock-discipline",
                format!(
                    "`.{}()` can block while the guard of `{}` (line {}) is held — drop \
                     the guard first, or the pool-poster/windowed-exchange pair deadlocks",
                    t.text, g.lock, g.line
                ),
            );
            continue;
        }
        if CONDVAR_WAITS.iter().any(|m| is_method(m)) {
            // `cv.wait(guard)` consumes and reacquires the guard: correct.
            let end = skip_balanced(toks, i + 1);
            let consumes_guard = toks[i + 2..end.min(toks.len())].iter().any(|a| {
                a.kind == TokenKind::Ident && guards.iter().any(|g| !g.temp && g.binding == a.text)
            });
            if !consumes_guard {
                let g = guards.last().expect("guards checked non-empty");
                push(
                    f,
                    out,
                    t.line,
                    "lock-discipline",
                    format!(
                        "`.{}()` blocks while the guard of `{}` (line {}) is held but \
                         does not consume it — condvar waits must take the guard \
                         (`cv.{}(guard)`)",
                        t.text, g.lock, g.line, t.text
                    ),
                );
            }
        }
    }
}

/// Name of the receiver of a method call whose `.` sits at `dot_idx`:
/// `self.state.lock()` → `state`; `work[i].lock()` → `work`. Returns the
/// name plus the token index where the receiver expression starts.
fn receiver_name(toks: &[crate::lexer::Token], dot_idx: usize) -> (String, usize) {
    let mut k = match dot_idx.checked_sub(1) {
        Some(k) => k,
        None => return ("?".to_string(), dot_idx),
    };
    // Skip a trailing index/call back to its opener: `work [ i ]` → `work`.
    while toks[k].text == "]" || toks[k].text == ")" {
        let close = &toks[k].text;
        let open = if close == "]" { "[" } else { "(" };
        let mut bal = 1usize;
        while bal > 0 && k > 0 {
            k -= 1;
            if toks[k].text == *close {
                bal += 1;
            } else if toks[k].text == open {
                bal -= 1;
            }
        }
        match k.checked_sub(1) {
            Some(p) => k = p,
            None => return ("?".to_string(), 0),
        }
    }
    if toks[k].kind == TokenKind::Ident {
        (toks[k].text.clone(), k)
    } else {
        ("?".to_string(), k)
    }
}

/// Token index just past the `)` matching the `(` at `open_idx`.
fn skip_balanced(toks: &[crate::lexer::Token], open_idx: usize) -> usize {
    let mut bal = 0usize;
    let mut j = open_idx;
    while j < toks.len() {
        if toks[j].text == "(" {
            bal += 1;
        } else if toks[j].text == ")" {
            bal -= 1;
            if bal == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// The `let [mut] NAME =` binding of the statement containing token
/// `idx`, if any (scans back to the nearest statement boundary).
fn let_binding_before(toks: &[crate::lexer::Token], idx: usize) -> Option<String> {
    let mut k = idx;
    while k > 0 {
        k -= 1;
        match toks[k].text.as_str() {
            ";" | "{" | "}" => return None,
            "let" if toks[k].kind == TokenKind::Ident => {
                let mut n = k + 1;
                if toks.get(n).is_some_and(|t| t.text == "mut") {
                    n += 1;
                }
                let name = toks.get(n).filter(|t| t.kind == TokenKind::Ident)?;
                if toks.get(n + 1).is_some_and(|t| t.text == "=") {
                    return Some(name.text.clone());
                }
                return None;
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Workspace-level rules
// ---------------------------------------------------------------------------

/// unsafe-audit (workspace half): a crate with no `unsafe` at all must pin
/// that fact with `#![deny(unsafe_code)]` (or `forbid`) in its root, so
/// new unsafe can only enter a crate by removing the attribute — which
/// this rule then flags until the block is SAFETY-documented.
pub fn check_crate_roots(files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut unsafe_by_crate: BTreeMap<&str, bool> = BTreeMap::new();
    for f in files {
        *unsafe_by_crate.entry(f.krate.as_str()).or_default() |= has_unsafe(f);
    }
    for f in files {
        let is_root = f.rel == "src/lib.rs"
            || (f.rel.starts_with("crates/") && f.rel.ends_with("/src/lib.rs"));
        if !is_root || unsafe_by_crate.get(f.krate.as_str()).copied().unwrap_or(false) {
            continue;
        }
        if !has_deny_unsafe(f) {
            push(
                f,
                out,
                1,
                "unsafe-audit",
                format!(
                    "crate `{}` uses no unsafe but its root is missing \
                     `#![deny(unsafe_code)]`",
                    f.krate
                ),
            );
        }
    }
}

fn has_deny_unsafe(f: &SourceFile) -> bool {
    let toks = &f.lexed.tokens;
    (0..toks.len().saturating_sub(3)).any(|i| {
        (toks[i].text == "deny" || toks[i].text == "forbid")
            && toks[i + 1].text == "("
            && toks[i + 2].text == "unsafe_code"
            && toks[i + 3].text == ")"
    })
}
