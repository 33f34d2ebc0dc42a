//! Tables I and II (the ROMIO collective-I/O hints and the proposed
//! E10 MPI-IO hint extensions) as resolved by this implementation.
//!
//! The content lives in the library so the `tables` row of
//! [`crate::GATES`] and the golden-figure regression test render the
//! same bytes: the row prints what [`tables_text`] / [`tables_json`]
//! produce, and the test pins that output against the committed
//! `results/tables.txt`.

use crate::Json;
use e10_mpisim::Info;
use e10_romio::{HintDoc, RomioHints, HINTS};
use std::fmt::Write as _;

/// The three hint listings, read off the hint table of
/// `e10_romio::hints`: TABLE I (the standard ROMIO collective hints)
/// and TABLE II (the paper's proposed E10 extensions) in the paper's
/// row order, then the hints this implementation adds beyond them, in
/// table order. Each row is `(key, description)`.
fn listings() -> [Vec<(&'static str, &'static str)>; 3] {
    let mut out = [Vec::new(), Vec::new(), Vec::new()];
    for spec in HINTS {
        let (listing, row, text) = match spec.doc {
            HintDoc::Table1(row, text) => (0, row, text),
            HintDoc::Table2(row, text) => (1, row, text),
            HintDoc::Extension(text) => (2, 0, text),
            HintDoc::Standard => continue,
        };
        out[listing].push((row, spec.key, text));
    }
    out.map(|mut rows| {
        rows.sort_by_key(|&(row, ..)| row); // stable: extensions keep table order
        rows.into_iter().map(|(_, key, text)| (key, text)).collect()
    })
}

/// The paper's experiment configuration (§IV) as an Info object.
fn paper_info() -> Info {
    Info::from_pairs([
        ("romio_cb_write", "enable"),
        ("cb_nodes", "64"),
        ("cb_buffer_size", "4M"),
        ("striping_unit", "4M"),
        ("striping_factor", "4"),
        ("ind_wr_buffer_size", "512K"),
        ("e10_cache", "enable"),
        ("e10_cache_path", "/scratch"),
        ("e10_cache_flush_flag", "flush_immediate"),
        ("e10_cache_discard_flag", "enable"),
    ])
}

fn resolve() -> (RomioHints, RomioHints) {
    let defaults = RomioHints::parse(&Info::new()).expect("defaults must parse");
    let paper = RomioHints::parse(&paper_info()).expect("paper hints must parse");
    (defaults, paper)
}

/// The complete text rendition — exactly the bytes committed as
/// `results/tables.txt`.
pub fn tables_text() -> String {
    let (defaults, paper) = resolve();
    let mut out = String::new();
    let listed = [
        (
            "TABLE I: Collective I/O hints in ROMIO",
            Some("Description"),
        ),
        (
            "\nTABLE II: Proposed MPI-IO hints extensions",
            Some("Value"),
        ),
        (
            "\nImplementation extensions beyond the paper's tables:",
            None,
        ),
    ];
    for ((title, column), rows) in listed.into_iter().zip(listings()) {
        let _ = writeln!(out, "{title}");
        if let Some(column) = column {
            let _ = writeln!(out, "{:<24} {column}", "Hint");
        }
        for (hint, text) in rows {
            let _ = writeln!(out, "{hint:<24} {text}");
        }
    }
    let resolved = [
        (
            "\nResolved defaults (MPI_File_get_info on an empty Info):",
            defaults,
        ),
        ("\nPaper configuration resolved:", paper),
    ];
    for (title, hints) in resolved {
        let _ = writeln!(out, "{title}");
        for (k, v) in hints.to_pairs() {
            let _ = writeln!(out, "  {k:<24} = {v}");
        }
    }
    out
}

/// The `--json` document.
pub fn tables_json() -> Json {
    let (defaults, paper) = resolve();
    let [table1, table2, extensions] = listings();
    let hint_table = |rows: &[(&str, &str)]| {
        Json::arr(rows.iter().map(|&(hint, desc)| {
            Json::obj([("hint", Json::str(hint)), ("description", Json::str(desc))])
        }))
    };
    let resolved = |h: &RomioHints| {
        Json::obj(
            h.to_pairs()
                .into_iter()
                .map(|(k, v)| (k, Json::Str(v)))
                .collect::<Vec<_>>(),
        )
    };
    Json::obj([
        ("figure", Json::str("tables")),
        ("table1_romio_hints", hint_table(&table1)),
        ("table2_e10_hints", hint_table(&table2)),
        ("implementation_extensions", hint_table(&extensions)),
        ("resolved_defaults", resolved(&defaults)),
        ("resolved_paper_config", resolved(&paper)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The listings are the hint table and nothing else: every hint
    /// the parser reads is listed exactly once, bar the two standard
    /// MPI-IO striping hints, and the paper's tables keep their rows.
    #[test]
    fn every_parsed_hint_is_listed_once() {
        let [table1, table2, extensions] = listings();
        let keys = |rows: &[(&'static str, &str)]| rows.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(
            keys(&table1),
            [
                "romio_cb_write",
                "romio_cb_read",
                "cb_buffer_size",
                "cb_nodes"
            ]
        );
        assert_eq!(keys(&table2).last(), Some(&"ind_wr_buffer_size"));
        assert_eq!((table2.len(), extensions.len()), (5, 20));
        for spec in HINTS {
            let listed = [&table1, &table2, &extensions]
                .iter()
                .flat_map(|rows| rows.iter())
                .filter(|row| row.0 == spec.key)
                .count();
            let standard = ["striping_factor", "striping_unit"].contains(&spec.key);
            assert_eq!(listed, usize::from(!standard), "{}", spec.key);
        }
    }

    #[test]
    fn text_and_json_agree_on_resolved_hints() {
        let text = tables_text();
        let doc = tables_json();
        let Some(Json::Obj(pairs)) = doc.get("resolved_defaults").cloned() else {
            panic!("resolved_defaults must be an object");
        };
        for (k, v) in pairs {
            let Json::Str(v) = v else {
                panic!("hint values are strings")
            };
            assert!(
                text.contains(&format!("{k:<24} = {v}")),
                "default {k} = {v} missing from the text table"
            );
        }
    }
}
