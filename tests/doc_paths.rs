//! The prose documents name only source files and hints that exist:
//! every backticked `*.rs` path in README.md, DESIGN.md and
//! EXPERIMENTS.md must be the tail of a file in the tree (`coll.rs`,
//! `tests/perturbation.rs` and `crates/romio/src/hints.rs` all resolve),
//! every backticked hint-shaped name must be a `HINTS` key, and every
//! `--bin NAME` must name a bench binary. Paths into the standard
//! library (`std/`, `alloc/`, `core/`) are exempt.

use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, as `/`-separated paths relative to
/// `root`, skipping build output and hidden directories.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
}

/// The documents whose spans are checked.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The single-line code spans of `text` that satisfy `keep`.
fn spans(text: &str, keep: impl Fn(&str) -> bool) -> Vec<&str> {
    let mut spans = Vec::new();
    for line in text.lines() {
        let parts: Vec<&str> = line.split('`').collect();
        // Odd parts are inside a span; the last part of a line with an
        // odd number of backticks is an unclosed one.
        for (i, part) in parts.iter().enumerate() {
            let closed = i % 2 == 1 && i + 1 < parts.len();
            if closed && keep(part) {
                spans.push(*part);
            }
        }
    }
    spans
}

/// A span that looks like a Rust source path: no whitespace, ending in
/// `.rs`.
fn is_rs_path(span: &str) -> bool {
    span.ends_with(".rs") && !span.contains(char::is_whitespace)
}

/// A span shaped like a hint key:
/// `^(e10|romio|cb|striping|ind_wr)_[a-z_]+$`.
fn is_hint_name(span: &str) -> bool {
    ["e10_", "romio_", "cb_", "striping_", "ind_wr_"]
        .iter()
        .any(|p| {
            span.strip_prefix(p).is_some_and(|rest| {
                !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_lowercase() || b == b'_')
            })
        })
}

#[test]
fn backticked_rust_paths_in_the_docs_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root, &root, &mut files);
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for span in spans(&text, is_rs_path) {
            if ["std/", "alloc/", "core/"]
                .iter()
                .any(|p| span.starts_with(p))
            {
                continue;
            }
            checked += 1;
            let tail = format!("/{span}");
            if !files.iter().any(|f| f == span || f.ends_with(&tail)) {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(checked > 0, "no backticked .rs paths found");
    assert!(missing.is_empty(), "docs name missing files: {missing:#?}");
}

#[test]
fn backticked_hint_names_in_the_docs_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut unknown = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for span in spans(&text, is_hint_name) {
            checked += 1;
            if !e10_repro::romio::HINTS.iter().any(|h| h.key == span) {
                unknown.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(checked > 0, "no backticked hint names found");
    assert!(unknown.is_empty(), "docs name unknown hints: {unknown:#?}");
}

/// Every `--bin NAME` in the docs, in code spans and console blocks
/// alike, and wrapped across a line break too, names a file in
/// `crates/bench/src/bin/`.
#[test]
fn bench_binaries_named_in_the_docs_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let bins = root.join("crates/bench/src/bin");
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            if word.trim_start_matches('`') != "--bin" {
                continue;
            }
            let name = words
                .next()
                .unwrap_or_default()
                .trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            checked += 1;
            if !bins.join(format!("{name}.rs")).is_file() {
                missing.push(format!("{doc}: --bin {name}"));
            }
        }
    }
    assert!(checked > 0, "no --bin names found");
    assert!(
        missing.is_empty(),
        "docs name missing binaries: {missing:#?}"
    );
}

/// Every committed `results/*.txt` has a producer, as
/// `scripts/results.sh` maps it: a file its `figure_of` names is a
/// table of `figures <kernel>` for a kernel in `e10_bench::KERNELS`,
/// any other is the output of the bench binary of the same name.
#[test]
fn every_committed_result_names_its_producer() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let script = std::fs::read_to_string(root.join("scripts/results.sh")).unwrap();
    let body = script
        .split_once("figure_of() {")
        .and_then(|(_, rest)| rest.split_once("esac"))
        .expect("results.sh defines figure_of")
        .0;
    // `    fig4_collperf_bw) echo "collperf 1" ;;`
    let figures: Vec<(&str, &str)> = body
        .lines()
        .filter_map(|line| {
            let (name, rest) = line.trim().split_once(") echo \"")?;
            Some((name, rest.split_whitespace().next()?))
        })
        .collect();
    assert!(!figures.is_empty(), "figure_of maps no file");
    let mut orphans = Vec::new();
    let mut checked = 0;
    for entry in std::fs::read_dir(root.join("results")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        checked += 1;
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let produced = match figures.iter().find(|(file, _)| *file == name) {
            Some((_, kernel)) => e10_bench::KERNELS.iter().any(|k| k.name == *kernel),
            None => root
                .join(format!("crates/bench/src/bin/{name}.rs"))
                .is_file(),
        };
        if !produced {
            orphans.push(format!("results/{name}.txt"));
        }
    }
    assert!(checked > 0, "no results/*.txt found");
    assert!(
        orphans.is_empty(),
        "results without a producer: {orphans:#?}"
    );
}
