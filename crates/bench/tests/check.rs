//! `--check` accepts only a baseline that the run reproduces whole:
//! every cell, at the same scale. Both cases drive the `bench_perf`
//! binary at smoke scale against a baseline it just wrote, edited.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use e10_bench::Json;

fn bench_perf(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_perf"))
        .args(["--smoke"])
        .args(args)
        .current_dir(dir)
        .output()
        .expect("bench_perf runs")
}

/// A scratch directory holding `base.json`, a smoke-scale baseline
/// written once for both tests.
fn baseline() -> &'static (PathBuf, Json) {
    static BASE: OnceLock<(PathBuf, Json)> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-check");
        std::fs::create_dir_all(&dir).unwrap();
        let out = bench_perf(&dir, &["--out", "base.json"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(dir.join("base.json")).unwrap();
        (dir, Json::parse(&text).unwrap())
    })
}

/// Check against `base` edited by `edit`; returns the exit success and
/// stderr.
fn check_edited(name: &str, edit: impl FnOnce(&mut Vec<(String, Json)>)) -> (bool, String) {
    let (dir, base) = baseline();
    let Json::Obj(mut pairs) = base.clone() else {
        panic!("a baseline is an object")
    };
    edit(&mut pairs);
    std::fs::write(dir.join(name), Json::Obj(pairs).pretty()).unwrap();
    let out = bench_perf(dir, &["--check", name]);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn member<'a>(pairs: &'a mut [(String, Json)], key: &str) -> &'a mut Json {
    &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1
}

#[test]
fn check_rejects_a_baseline_with_fewer_cells() {
    let (ok, stderr) = check_edited("cut.json", |pairs| {
        let Json::Arr(cells) = member(pairs, "cells") else {
            panic!("cells is an array")
        };
        cells.truncate(1);
    });
    assert!(!ok, "a one-cell baseline passed --check:\n{stderr}");
    assert!(
        stderr.contains(".cells: 1 elements in the baseline"),
        "{stderr}"
    );
}

#[test]
fn check_rejects_a_baseline_at_another_scale() {
    let (ok, stderr) = check_edited("quick.json", |pairs| {
        *member(pairs, "scale") = Json::str("quick");
    });
    assert!(
        !ok,
        "a quick-scale baseline passed a test-scale --check:\n{stderr}"
    );
    assert!(stderr.contains("\"quick\" in the baseline"), "{stderr}");
}
