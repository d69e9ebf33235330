//! The documentation names things that exist. Every relative Markdown
//! link and every back-ticked repository path in the top-level documents
//! and the crate READMEs must resolve, every experiment binary must have
//! its EXPERIMENTS.md row and its recorded result, and the sections other
//! documents point readers at must still be there — so a renamed file or
//! a dropped heading fails `cargo test`, not a reader.

use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(relative: &str) -> String {
    fs::read_to_string(root().join(relative)).unwrap_or_else(|e| panic!("{relative}: {e}"))
}

fn file_names(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// README.md, EXPERIMENTS.md, DESIGN.md and every `crates/*/README.md`.
fn documents() -> Vec<String> {
    let mut documents: Vec<String> = ["README.md", "EXPERIMENTS.md", "DESIGN.md"]
        .map(String::from)
        .into();
    for krate in file_names("crates") {
        documents.push(format!("crates/{krate}/README.md"));
    }
    documents
}

/// The text between each `open` and the next `close` after it.
fn between<'a>(text: &'a str, open: &'a str, close: char) -> impl Iterator<Item = &'a str> {
    text.split(open)
        .skip(1)
        .filter_map(move |rest| rest.split_once(close).map(|(inside, _)| inside))
}

#[test]
fn links_and_backticked_paths_name_files_that_exist() {
    let mut stale = Vec::new();
    let mut checked = 0;
    for document in documents() {
        let text = read(&document);
        let here = root().join(&document).parent().unwrap().to_path_buf();
        // `[text](target)`: relative to the document; URLs and bare
        // anchors are not ours to check.
        for target in between(&text, "](", ')') {
            let file = target.split('#').next().unwrap();
            if file.is_empty() || file.contains(':') {
                continue;
            }
            checked += 1;
            if !here.join(file).exists() {
                stale.push(format!("{document}: link to {target}"));
            }
        }
        // `crates/…`, `results/…`, `scripts/…`, `tests/…` in backticks:
        // relative to the repository or — a crate README naming its own
        // tests — to the document. Globs and placeholders are skipped; a
        // `:line` suffix is not part of the path.
        for span in text.split('`').skip(1).step_by(2) {
            let is_path = ["crates/", "results/", "scripts/", "tests/"]
                .iter()
                .any(|prefix| span.starts_with(prefix));
            if !is_path || span.contains(|c: char| c.is_whitespace() || "*…<>{}".contains(c)) {
                continue;
            }
            let file = span.split(':').next().unwrap();
            checked += 1;
            if !root().join(file).exists() && !here.join(file).exists() {
                stale.push(format!("{document}: `{span}`"));
            }
        }
    }
    assert!(stale.is_empty(), "stale references:\n{}", stale.join("\n"));
    assert!(checked > 50, "only {checked} references found: scan broken");
}

#[test]
fn every_experiment_binary_has_its_row_and_its_recorded_result() {
    let experiments = read("EXPERIMENTS.md");
    let results = file_names("results");
    let mut bins = 0;
    for bin in file_names("crates/bench/src/bin") {
        // `e15_bank_recovery.rs` is experiment E15; `speclint.rs` and
        // `zmail_trace.rs` are tools.
        let Some((number, _)) = bin.strip_prefix('e').and_then(|b| b.split_once('_')) else {
            continue;
        };
        if number.parse::<u32>().is_err() {
            continue;
        }
        bins += 1;
        let row = format!("| E{number} ");
        assert!(
            experiments.lines().any(|line| line.starts_with(&row)),
            "{bin}: no `{row}` row in EXPERIMENTS.md"
        );
        let recorded = format!("e{number}_");
        assert!(
            results
                .iter()
                .any(|r| r.starts_with(&recorded) && r.ends_with(".txt")),
            "{bin}: no results/{recorded}*.txt"
        );
    }
    assert!(bins >= 21, "only {bins} experiment binaries found");
}

#[test]
fn the_sections_other_documents_point_at_are_still_there() {
    let has_line = |document: &str, line: &str| read(document).lines().any(|l| l == line);
    assert!(has_line("README.md", "## Adversarial model"));
    assert!(has_line("README.md", "## Load testing & overload behavior"));
    for (document, term) in [
        ("crates/fault/README.md", "AttackClass"),
        ("crates/load/README.md", "coordinated-omission"),
        ("crates/obs/README.md", "adversary."),
        ("crates/obs/README.md", "load."),
        ("crates/obs/README.md", "server.accept."),
    ] {
        assert!(read(document).contains(term), "{document}: no {term}");
    }
}
