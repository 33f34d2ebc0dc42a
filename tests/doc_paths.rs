//! The prose documents name only source files and hints that exist:
//! every backticked `*.rs` path in README.md, DESIGN.md and
//! EXPERIMENTS.md must be the tail of a file in the tree (`coll.rs`,
//! `tests/perturbation.rs` and `crates/romio/src/hints.rs` all resolve),
//! every backticked hint-shaped name must be a `HINTS` key, every
//! experiment a command line names must be a row of
//! `e10_bench::GATES`, every `--example NAME` a file in `examples/`,
//! and every backticked item name (`CacheLayer`, `Executed::verified`)
//! an item declared in the tree. Paths into the standard library
//! (`std/`, `alloc/`, `core/`) are exempt.

use std::collections::{BTreeMap, BTreeSet};
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

/// A span shaped like a CamelCase name: `^[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*$`.
fn is_camel_case(span: &str) -> bool {
    let mut chars = span.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let rest = chars.as_str();
    let hump = rest
        .find(|c: char| !c.is_ascii_lowercase() && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    first.is_ascii_uppercase()
        && hump > 0
        && rest[hump..].starts_with(|c: char| c.is_ascii_uppercase())
        && rest.chars().all(|c| c.is_ascii_alphanumeric())
}

/// The identifier `s` starts with (empty if none).
fn leading_ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(s.len());
    &s[..end]
}

fn is_ident(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A span shaped like `Type::member`: a capitalised type name, `::`
/// and one identifier.
fn type_member(span: &str) -> Option<(&str, &str)> {
    let (ty, member) = span.split_once("::")?;
    (ty.starts_with(|c: char| c.is_ascii_uppercase()) && is_ident(ty) && is_ident(member))
        .then_some((ty, member))
}

/// Names of the standard library and of ROMIO that the docs mention
/// but the tree does not declare.
const FOREIGN: [&str; 11] = [
    "BTreeMap",
    "BinaryHeap",
    "HashMap",
    "RefCell",
    "VecDeque",
    "AtomicBool",
    "OnceCell",
    "RandomState",
    "RawWaker",
    "Waker",
    "WriteStrided",
];

/// What the tree's Rust files declare, read line by line: which crate
/// directories (the path above `src/`, `tests/`, `examples/` or
/// `benches/`) declare each type (`struct`, `enum`, `trait` or
/// `type`), and each crate's members (`fn`, `const`, a field's
/// `name:` or a variant's `Name,` / `Name {` / `Name(`).
#[derive(Default)]
struct Items {
    types: BTreeMap<String, BTreeSet<String>>,
    members: BTreeSet<(String, String)>,
}

impl Items {
    fn scan() -> Items {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        rust_files(&root, &root, &mut files);
        let mut items = Items::default();
        for file in files {
            let parts: Vec<&str> = file.split('/').collect();
            let at = parts
                .iter()
                .position(|p| ["src", "tests", "examples", "benches"].contains(p))
                .unwrap_or(0);
            let krate = parts[..at].join("/");
            let text = std::fs::read_to_string(root.join(&file)).unwrap();
            for line in text.lines() {
                items.declare(&krate, line.trim_start());
            }
        }
        items
    }

    fn declare(&mut self, krate: &str, mut line: &str) {
        if let Some(rest) = line.strip_prefix("pub(") {
            line = rest.split_once(") ").map_or("", |(_, l)| l);
        }
        line = line.strip_prefix("pub ").unwrap_or(line);
        for kw in ["struct ", "enum ", "trait ", "type "] {
            if let Some(rest) = line.strip_prefix(kw) {
                let name = leading_ident(rest).to_string();
                self.types.entry(name).or_default().insert(krate.into());
                return;
            }
        }
        // `const X: T` reads as a field, `const fn f` as a fn.
        for qualifier in ["const ", "async ", "unsafe "] {
            line = line.strip_prefix(qualifier).unwrap_or(line);
        }
        let function = line.starts_with("fn ");
        line = line.strip_prefix("fn ").unwrap_or(line);
        let name = leading_ident(line);
        let after = &line[name.len()..];
        let field = after.starts_with(':') && !after.starts_with("::");
        let variant = [",", " {", "("].iter().any(|p| after.starts_with(p)) || after.is_empty();
        if is_ident(name) && (function || field || variant) {
            self.members.insert((krate.into(), name.into()));
        }
    }

    /// Whether `name` is a declared type or a variant.
    fn has_name(&self, name: &str) -> bool {
        self.types.contains_key(name) || self.members.iter().any(|(_, m)| m == name)
    }

    /// Whether `ty` is a declared type with a `member` in its crate.
    fn has_member(&self, ty: &str, member: &str) -> bool {
        self.types.get(ty).is_some_and(|crates| {
            crates
                .iter()
                .any(|k| self.members.contains(&(k.clone(), member.to_string())))
        })
    }
}

/// Every backticked CamelCase name in the docs is a type or variant
/// the tree declares, and every `Type::member` a declared type with a
/// `fn`, field, variant or `const` of that name in the type's crate.
#[test]
fn backticked_item_names_in_the_docs_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let items = Items::scan();
    let (mut names, mut paths, mut missing) = (0, 0, Vec::new());
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for span in spans(&text, is_camel_case) {
            names += 1;
            if !FOREIGN.contains(&span) && !items.has_name(span) {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
        for span in spans(&text, |s| type_member(s).is_some()) {
            paths += 1;
            let (ty, member) = type_member(span).unwrap();
            if !FOREIGN.contains(&ty) && !items.has_member(ty, member) {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(names > 0 && paths > 0, "no backticked item names found");
    assert!(missing.is_empty(), "docs name missing items: {missing:#?}");
}

/// The words of the docs that follow a place where `marker` holds of
/// the words before it, in code spans and console blocks alike and
/// wrapped across a line break too, trimmed of punctuation: how many
/// there are, and those that `exists` rejects.
fn unresolved(marker: fn(&[&str]) -> bool, exists: impl Fn(&str) -> bool) -> (usize, Vec<String>) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (mut found, mut missing) = (0, Vec::new());
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        let words: Vec<&str> = text
            .split_whitespace()
            .map(|w| w.trim_matches('`'))
            .collect();
        for i in (1..words.len()).filter(|&i| marker(&words[..i])) {
            found += 1;
            let word = words[i].trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            if !exists(word) {
                missing.push(format!("{doc}: {} {word}", words[i - 1]));
            }
        }
    }
    (found, missing)
}

/// Whether `name` is a row of `e10_bench::GATES`.
fn is_row(name: &str) -> bool {
    e10_bench::GATES.iter().any(|g| g.name == name)
}

/// Every experiment the docs run — the word after `e10-bench --` (a
/// `cargo run`) or after a path ending in `/e10-bench` (the built
/// binary) — is a row of `e10_bench::GATES`, and every `--bin NAME`
/// names the one bench binary.
#[test]
fn experiments_named_in_the_docs_exist() {
    let (runs, mut missing) = unresolved(
        |w| {
            w.ends_with(&["e10-bench", "--"]) || w.last().is_some_and(|l| l.ends_with("/e10-bench"))
        },
        is_row,
    );
    missing.extend(unresolved(|w| w.last() == Some(&"--bin"), |name| name == "e10-bench").1);
    assert!(runs > 0, "no experiment names found");
    assert!(
        missing.is_empty(),
        "docs name missing experiments: {missing:#?}"
    );
}

/// Every `--example NAME` in the docs names a file in `examples/`.
#[test]
fn examples_named_in_the_docs_exist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (found, missing) = unresolved(
        |w| w.last() == Some(&"--example"),
        |name| root.join(format!("examples/{name}.rs")).is_file(),
    );
    assert!(found > 0, "no --example names found");
    assert!(
        missing.is_empty(),
        "docs name missing examples: {missing:#?}"
    );
}

/// Every committed `results/*.txt` has a producer, as
/// `scripts/results.sh` maps it: a file its `figure_of` names is a
/// table of a figure row, any other is the output of the row of the
/// same name; either row is in `e10_bench::GATES`.
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
        let row = figures
            .iter()
            .find(|(file, _)| *file == name)
            .map_or(name.as_str(), |&(_, row)| row);
        if !is_row(row) {
            orphans.push(format!("results/{name}.txt"));
        }
    }
    assert!(checked > 0, "no results/*.txt found");
    assert!(
        orphans.is_empty(),
        "results without a producer: {orphans:#?}"
    );
}
