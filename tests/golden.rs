//! Golden-figure regression tests: the committed `results/` artifacts
//! must match what the current code regenerates.
//!
//! Two kinds of comparison, deliberately different:
//!
//! * `results/tables.txt` is pure hint resolution — no simulation, no
//!   floats — so it is pinned byte-for-byte against the shared
//!   renderer in [`e10_bench::tables`].
//! * `results/fig4_test.json` is a Test-scale run of the Fig. 4 sweep,
//!   and `results/ext_cache_read_test.json` one of the cache-read
//!   extension (the collective read, from the global file system and
//!   from the aggregators' caches). Their numbers are `f64`s produced
//!   by the simulation; the comparison goes through [`Json::parse`] and
//!   [`Json::approx_eq`] with a relative tolerance, *not* float string
//!   equality, so a future change that merely reassociates an addition
//!   fails loudly only if it moves a figure beyond 1e-9.
//!
//! When a change intentionally shifts these outputs, regenerate them:
//!
//! ```text
//! cargo run -p e10-bench -- tables > results/tables.txt
//! cargo run -p e10-bench -- collperf --smoke --json \
//!     2>/dev/null > results/fig4_test.json
//! cargo run -p e10-bench -- ext_cache_read --smoke --json \
//!     2>/dev/null > results/ext_cache_read_test.json
//! ```

use e10_bench::{Case, Cli, Json, Scale, GATES};

const TABLES_TXT: &str = include_str!("../results/tables.txt");
const FIG4_TEST_JSON: &str = include_str!("../results/fig4_test.json");
const EXT_CACHE_READ_TEST_JSON: &str = include_str!("../results/ext_cache_read_test.json");

/// The document of the `GATES` row `name` at test scale on one worker.
fn test_scale_doc(name: &str) -> Json {
    let gate = GATES.iter().find(|g| g.name == name).unwrap();
    (gate.run)(Scale::Test, 1, &Cli::default()).doc
}

#[test]
fn tables_txt_matches_committed_golden() {
    assert_eq!(
        e10_bench::tables::tables_text(),
        TABLES_TXT,
        "results/tables.txt is stale — regenerate with \
         `cargo run -p e10-bench -- tables > results/tables.txt`"
    );
}

#[test]
fn fig4_test_artifact_has_the_full_combo_grid() {
    let doc = Json::parse(FIG4_TEST_JSON).expect("committed artifact must parse");
    let Some(Json::Arr(points)) = doc.get("points") else {
        panic!("fig4 artifact must carry a points array");
    };
    let scale = Scale::Test;
    let expect = Case::ALL.len() * scale.aggregators().len() * scale.cb_sizes().len();
    assert_eq!(points.len(), expect, "combo grid incomplete");
    // Every (case, combo) cell of the Fig. 4 table appears exactly
    // once, with a positive finite bandwidth.
    for case in Case::ALL {
        for aggs in scale.aggregators() {
            for cb in scale.cb_sizes() {
                let combo = e10_bench::combo_label(aggs, cb);
                let cell: Vec<&Json> = points
                    .iter()
                    .filter(|p| {
                        p.get("case") == Some(&Json::str(case.label()))
                            && p.get("combo") == Some(&Json::str(&combo))
                    })
                    .collect();
                assert_eq!(
                    cell.len(),
                    1,
                    "combo {combo} / {} duplicated or missing",
                    case.label()
                );
                let gb = cell[0].get("gb_s").and_then(Json::as_f64).unwrap();
                assert!(
                    gb.is_finite() && gb > 0.0,
                    "{combo} {} gb_s = {gb}",
                    case.label()
                );
            }
        }
    }
}

#[test]
fn fig4_test_scale_sweep_matches_committed_artifact() {
    let committed = Json::parse(FIG4_TEST_JSON).expect("committed artifact must parse");
    // Rerun the exact Test-scale sweep the artifact was generated
    // from. Worker count 1 keeps this off the env-dependent pool; the
    // figures are job-count-independent anyway.
    let fresh = test_scale_doc("collperf");
    assert!(
        fresh.approx_eq(&committed, 1e-9),
        "Fig. 4 Test-scale figures drifted from results/fig4_test.json \
         beyond 1e-9 relative tolerance:\n fresh: {}\n golden: {}",
        fresh.render(),
        committed.render()
    );
}

#[test]
fn ext_cache_read_test_scale_matches_committed_artifact() {
    let committed = Json::parse(EXT_CACHE_READ_TEST_JSON).expect("committed artifact must parse");
    let fresh = test_scale_doc("ext_cache_read");
    assert!(
        fresh.approx_eq(&committed, 1e-9),
        "cache-read Test-scale figures drifted from results/ext_cache_read_test.json \
         beyond 1e-9 relative tolerance:\n fresh: {}\n golden: {}",
        fresh.render(),
        committed.render()
    );
}
