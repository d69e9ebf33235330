#!/usr/bin/env bash
# The first-party Rust line count every simplicity PR reports against
# (tracked files only; vendored stubs and the benchmark crate excluded).
# Run from the repository root.
set -euo pipefail

git ls-files 'crates/**/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' | xargs cat | wc -l
