//! The lock discipline of the wire path, kept by a source scan so it
//! cannot regress silently: threads talk over channels and a hang-up is a
//! 4xx; a lock guards only data whose every update is one store, and is
//! taken through a poison-tolerant `held`. So first-party `src/` code
//! outside `#[cfg(test)]` never `unwrap`s or `expect`s a lock or a condvar
//! wait — one panic would become one per caller — and the four files real
//! bytes pass through hold no condvar, no hand-written queue and exactly
//! the two `catch_unwind`s (session, inner sink).
//!
//! The last scan keeps a neighbouring promise: what std does, std does. No
//! first-party source names one of the `vendored/` stand-ins that have no
//! caller left, so deleting them is a change to manifests only.

use std::fs;
use std::path::{Path, PathBuf};

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The file's code as `scripts/loc.sh --src` counts it — everything
/// before the first `#[cfg(test)]` — without comments and without
/// whitespace, so a call chain rustfmt broke over lines is still one
/// string.
fn production_code(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .take_while(|line| line.trim_start() != "#[cfg(test)]")
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| line.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

/// Whether `code` unwraps the result of a `.name(…)` call directly.
fn unwraps_call(code: &str, name: &str) -> bool {
    code.match_indices(name).any(|(at, _)| {
        let mut depth = 0usize;
        for (i, c) in code[at + name.len() - 1..].char_indices() {
            match c {
                '(' => depth += 1,
                ')' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                let rest = &code[at + name.len() + i..];
                return rest.starts_with(".unwrap()") || rest.starts_with(".expect(");
            }
        }
        false
    })
}

#[test]
fn no_lock_or_condvar_wait_is_unwrapped_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    assert!(
        files.len() > 80,
        "only {} files found: scan broken",
        files.len()
    );
    let offenders: Vec<_> = files
        .iter()
        .filter(|path| {
            let code = production_code(path);
            [".lock(", ".wait(", ".wait_timeout(", ".wait_while("]
                .iter()
                .any(|call| unwraps_call(&code, call))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "take locks through a poison-tolerant `held`: {offenders:?}"
    );
}

#[test]
fn the_scan_sees_what_it_is_looking_for() {
    assert!(unwraps_call("letg=self.m.lock().unwrap();", ".lock("));
    assert!(unwraps_call("s=cv.wait(s).expect(\"poisoned\");", ".wait("));
    assert!(unwraps_call(
        "cv.wait_timeout(guard(a,b),t).unwrap()",
        ".wait_timeout("
    ));
    assert!(!unwraps_call("held(self.m.lock()).len()", ".lock("));
    assert!(!unwraps_call(
        "self.m.lock().unwrap_or_else(E::into_inner)",
        ".lock("
    ));
}

#[test]
fn the_wire_path_hands_off_over_channels() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut catches = 0;
    for file in [
        "crates/smtp/src/threaded.rs",
        "crates/core/src/backpressure.rs",
        "crates/core/src/bridge.rs",
        "crates/load/src/runner.rs",
    ] {
        let code = production_code(&root.join(file));
        for banned in ["Condvar", "VecDeque"] {
            assert!(!code.contains(banned), "{file}: {banned}");
        }
        catches += code.matches("catch_unwind(").count();
    }
    assert_eq!(catches, 2, "one per session, one per inner-sink delivery");
}

#[test]
fn no_first_party_source_names_a_caller_free_stand_in() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "crates", "tests", "examples", "benchmark"] {
        rust_files(&root.join(dir), &mut files);
    }
    assert!(
        files.len() > 150,
        "only {} files found: scan broken",
        files.len()
    );
    let this_file = root.join(file!());
    let offenders: Vec<_> = files
        .iter()
        .filter(|path| **path != this_file)
        .filter(|path| {
            let text = fs::read_to_string(path).unwrap();
            ["crossbeam", "parking_lot", "bytes::", "serde"]
                .iter()
                .any(|name| text.contains(name))
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "std does this (vendored/README.md): {offenders:?}"
    );
}
