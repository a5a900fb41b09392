#!/bin/sh
# Panic sites in non-test library code: lines holding `.unwrap()`,
# `.expect(`, `panic!(` or `unreachable!(` before a source file's first
# `#[cfg(test)]`, comment lines excluded (the recipe of EXPERIMENTS.md
# "Server by contract"). Prints each site, then the count. With a
# ceiling, exits 1 when the count is above it.
#
#   scripts/panic_sites.sh        # list and count
#   scripts/panic_sites.sh 24     # ... and fail above 24
set -eu
cd "$(dirname "$0")/.."
sites=$(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'src/**/*.rs' |
    while read -r f; do
        awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f"
    done |
    grep -v '^[^:]*:[0-9]*: *//' |
    grep -E '\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(' || true)
count=$(printf '%s' "$sites" | grep -c . || true)
[ -n "$sites" ] && printf '%s\n' "$sites"
echo "panic sites: $count"
if [ $# -gt 0 ] && [ "$count" -gt "$1" ]; then
    echo "above the ceiling of $1" >&2
    exit 1
fi
