//! Fixture: knobs read only by the resolver's generic rule — a flag whose
//! name minus `--` is a spec key, an env var whose lower-case name is one —
//! next to a flag and an env var that nothing reads at all.

/// Keys of the spec format.
pub const SPEC_KEYS: [&str; 2] = ["seed", "scale"];

/// Cache classification of every key (cache-key-coverage demands it).
pub const KEY_CLASSIFICATION: [(&str, KeyClass); 2] =
    [("seed", KeyClass::Relevant), ("scale", KeyClass::Relevant)];

/// Env vars every front-end consults.
pub const CORE_ENV: [&str; 2] = ["SCALE", "GHOST"];

/// Flags the binaries accept.
pub const CLI_FLAGS: [&str; 2] = ["--ghost", "--seed"];

/// The one parse path: every key has its arm.
pub fn apply_key(key: &str) -> bool {
    matches!(key, "seed" | "scale")
}
