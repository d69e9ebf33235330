#!/usr/bin/env bash
# The first-party Rust line count every simplicity PR reports against
# (tracked files only; vendored stubs and the benchmark crate excluded).
# Run from the repository root.
#
#   scripts/loc.sh                 all lines, one number
#   scripts/loc.sh --src [file…]   lines before the first `#[cfg(test)]`,
#                                  per tracked first-party file (or per
#                                  file given) and in total
set -euo pipefail

tracked() {
    git ls-files 'crates/**/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs'
}

if [[ "${1:-}" != "--src" ]]; then
    tracked | xargs cat | wc -l
    exit
fi
shift
if (($# == 0)); then
    mapfile -t files < <(tracked)
    set -- "${files[@]}"
fi
total=0
for file in "$@"; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%7d %s\n' "$n" "$file"
    total=$((total + n))
done
printf '%7d total\n' "$total"
