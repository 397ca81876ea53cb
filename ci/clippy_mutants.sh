#!/usr/bin/env bash
# Mutation check of the static gate: for each determinism / panic-safety
# rule, inject one violation, require `cargo clippy -p CRATE --all-targets
# -- -D warnings` to fail naming the expected lint, then restore the file.
# Edits sources in place: run it from the root of a disposable checkout.
set -u
missed=0

# mutant CRATE FILE LINT CODE: append CODE to FILE and expect LINT to fire.
mutant() {
    local crate=$1 file=$2 lint=$3 code=$4 out status
    cp "$file" "$file.orig"
    printf '\n%s\n' "$code" >>"$file"
    out=$(cargo clippy -q -p "$crate" --all-targets -- -D warnings 2>&1)
    status=$?
    mv "$file.orig" "$file"
    if [ "$status" -ne 0 ] && grep -Eq "$lint" <<<"$out"; then
        echo "fired: $lint ($file)"
    else
        echo "MISSED: $lint ($file), clippy exit $status"
        missed=1
    fi
}

mutant dfsim-network crates/network/src/sim.rs disallowed_types \
    'fn _mutant() { let _ = std::time::Instant::now(); }'
mutant dfsim-des crates/des/src/lib.rs disallowed_methods \
    'fn _mutant() -> bool { std::env::var("SEED").is_ok() }'
mutant dfsim-network crates/network/src/lib.rs disallowed_types \
    'fn _mutant() -> std::collections::HashMap<u32, u32> { Default::default() }'
mutant dfsim-metrics crates/metrics/src/lib.rs print_stdout \
    'fn _mutant() { println!("report"); }'
mutant dfsim-topology crates/topology/src/lib.rs 'unsafe[-_]code' \
    'fn _mutant() { unsafe {} }'
mutant dfsim-des crates/des/src/queue.rs unwrap_used \
    'fn _mutant(x: Option<u8>) -> u8 { x.unwrap() }'
mutant dfsim-metrics crates/metrics/src/trace.rs cast_possible_truncation \
    'fn _mutant(x: u64) -> u32 { x as u32 }'
mutant dfsim-apps crates/apps/src/lib.rs allow_attributes_without_reason \
    '#[allow(dead_code)] fn _mutant() {}'
mutant dfsim-apps crates/apps/src/lib.rs unfulfilled_lint_expectations \
    '#[expect(clippy::unwrap_used, reason = "stale")] fn _mutant() {}'

exit "$missed"
