#!/usr/bin/env bash
# The first-party Rust line count every simplicity PR reports against
# (tracked files only; vendored stubs and the benchmark crate excluded).
# Run from the repository root.
#
#   scripts/loc.sh                 all lines, one number
#   scripts/loc.sh --src [file…]   source lines: per tracked first-party
#                                  file (or per file given) and in total,
#                                  then the integration tests and benches
#                                  as a figure of their own
#
# Source lines are the lines of a file outside its `#[cfg(test)]` items.
# An item runs from the attribute to the `}` closing its first `{`, or to
# the first `;` outside brackets when it opens none (`mod testutil;`); a
# file such an item declares as a module is test code as a whole. Braces
# and semicolons inside strings, characters and comments do not count.
# Files under `tests/`, `crates/*/tests/` and `benches/` are all test
# code: they are summed on the `tests` line, not listed.
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
TRACKED="$(tracked)" exec python3 - "$@" <<'PY'
import os
import re
import sys

ATTR = re.compile(r"#\s*\[\s*cfg\s*\(\s*test\s*\)\s*\]")
MOD_DECL = re.compile(r"mod\s+(\w+)\s*;")
# Where a comment, string or character may start; group 1 is a raw
# string's hashes.
OPENER = re.compile(r"//|/\*|(?<!\w)b?r(#*)\"|\"|'")
STRUCTURE = re.compile(r"[()\[\]{};]")


def code_mask(text):
    """Per character: 1 where it is code, 0 inside strings, characters
    and comments."""
    n = len(text)
    mask = bytearray(b"\x01") * n
    i = 0
    while m := OPENER.search(text, i):
        start, token = m.start(), m.group(0)
        if token == "//":
            end = text.find("\n", start)
            end = n if end < 0 else end
        elif token == "/*":
            depth, end = 1, start + 2
            while depth:
                close = text.find("*/", end)
                if close < 0:
                    end = n
                    break
                nested = text.find("/*", end, close)
                depth, end = (depth + 1, nested + 2) if nested >= 0 else (depth - 1, close + 2)
        elif m.group(1) is not None:
            close = '"' + m.group(1)
            end = text.find(close, m.end())
            end = n if end < 0 else end + len(close)
        elif token == '"':
            end = start + 1
            while end < n and text[end] != '"':
                end += 2 if text[end] == "\\" else 1
            end += 1
        elif start + 2 < n and (text[start + 1] == "\\" or text[start + 2] == "'"):
            # A character literal; a lone quote is a lifetime.
            end = text.find("'", start + 2) + 1 or n
        else:
            i = start + 1
            continue
        mask[start:end] = bytes(min(end, n) - start)
        i = end
    return mask


def test_items(text):
    """Character spans of the `#[cfg(test)]` items, and the modules that
    `mod name;` items among them declare."""
    mask = code_mask(text)
    spans, modules = [], []
    for m in ATTR.finditer(text):
        if not mask[m.start()] or any(s <= m.start() < e for s, e in spans):
            continue
        nest, braces, end = 0, 0, len(text)
        for c in STRUCTURE.finditer(text, m.end()):
            k, c = c.start(), c.group(0)
            if not mask[k]:
                continue
            if c in "([":
                nest += 1
            elif c in ")]":
                nest -= 1
            elif c == "{":
                braces += 1
            elif c == "}":
                braces -= 1
                if braces == 0:
                    end = k + 1
                    break
            elif nest == 0 and braces == 0:
                end = k + 1
                decl = MOD_DECL.search(text, m.end(), end)
                if decl:
                    modules.append(decl.group(1))
                break
        spans.append((m.start(), end))
    return spans, modules


def module_file(declared_in, name):
    base = os.path.basename(declared_in)
    directory = os.path.dirname(declared_in)
    if base not in ("lib.rs", "main.rs", "mod.rs"):
        directory = os.path.join(directory, base[:-3])
    for candidate in (name + ".rs", os.path.join(name, "mod.rs")):
        path = os.path.normpath(os.path.join(directory, candidate))
        if os.path.exists(path):
            return path
    return None


def is_test_file(path):
    parts = os.path.normpath(path).split(os.sep)
    return parts[0] == "tests" or "benches" in parts or (
        parts[0] == "crates" and len(parts) > 2 and parts[2] == "tests"
    )


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


# Every tracked file is scanned for test-only module declarations, so a
# file named alone is still known to be one.
test_only = set()
for path in os.environ["TRACKED"].split():
    if not is_test_file(path):
        for name in test_items(read(path))[1]:
            declared = module_file(path, name)
            if declared:
                test_only.add(declared)

total, tests = 0, 0
for path in sys.argv[1:]:
    text = read(path)
    if is_test_file(path):
        tests += text.count("\n")
        continue
    if os.path.normpath(path) in test_only:
        source = 0
    else:
        skipped = set()
        for start, end in test_items(text)[0]:
            first = text.count("\n", 0, start)
            skipped.update(range(first, first + text.count("\n", start, end) + 1))
        source = sum(1 for i in range(text.count("\n")) if i not in skipped)
    print(f"{source:7d} {path}")
    total += source
print(f"{total:7d} total")
print(f"{tests:7d} tests (tests/, crates/*/tests, benches)")
PY
