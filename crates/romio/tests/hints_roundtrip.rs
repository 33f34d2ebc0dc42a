//! Exhaustive hints round-trip property: for every typed hint — the
//! Table I/II set plus all `e10_*` extensions including
//! `e10_cache_class`/`e10_nvm_capacity`/`e10_nvm_threshold` —
//! `from_info → to_info → from_info` is the identity, and invalid
//! values accumulate into [`HintErrors`] instead of aborting at the
//! first violation.

use std::collections::BTreeMap;

use proptest::prelude::*;

use e10_mpisim::Info;
use e10_romio::RomioHints;

/// A random valid string value for one hint key.
fn sel(options: &[&'static str]) -> prop::sample::Select<&'static str> {
    prop::sample::select(options.to_vec())
}

fn onoff() -> prop::sample::Select<&'static str> {
    sel(&["enable", "disable"])
}

/// A byte count with a random size suffix (the value `parse_size`
/// resolves it to is `n << shift`).
fn size_str(n: u64, suffix: &str) -> String {
    format!("{n}{suffix}")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// `from_info(to_info(h))` reproduces `h` for hint sets covering
    /// every typed field, each drawn at random (and each key randomly
    /// present or defaulted).
    #[test]
    fn from_info_to_info_is_identity(
        cb_write in prop::option::of(sel(&["enable", "disable", "automatic"])),
        cb_read in prop::option::of(sel(&["enable", "disable", "automatic"])),
        ds_write in prop::option::of(sel(&["enable", "disable", "automatic"])),
        cb_buffer_size in prop::option::of(1u64..(1 << 26)),
        cb_nodes in prop::option::of(1u64..129),
        striping_factor in prop::option::of(1u64..65),
        striping_unit in prop::option::of(1u64..(1 << 22)),
        ind_wr in prop::option::of(1u64..(1 << 22)),
        cache in prop::option::of(sel(&["enable", "disable", "coherent"])),
        cache_path in prop::option::of(sel(&["/scratch", "/nvm", "/tmp/stage"])),
        flush in prop::option::of(sel(&["flush_immediate", "flush_onclose", "flush_none"])),
        discard in prop::option::of(onoff()),
        fd in prop::option::of(sel(&["even", "aligned"])),
        cache_read in prop::option::of(onoff()),
        cb_config in prop::option::of(1u64..9),
        no_indep in prop::option::of(sel(&["true", "false", "enable", "disable"])),
        evict in prop::option::of(onoff()),
        journal in prop::option::of(onoff()),
        journal_path in prop::option::of(sel(&["/scratch/j.jnl", "/nvm/j.jnl"])),
        integrity in prop::option::of(onoff()),
        scrub_ms in prop::option::of(0u64..5000),
        watermarks in prop::option::of((0u64..101, 0u64..101)),
        two_phase in prop::option::of(sel(&["stock", "extended", "node_agg"])),
        coll_timeout in prop::option::of(0u64..10_000),
        cache_class in prop::option::of(sel(&["ssd", "nvm", "hybrid"])),
        nvm_capacity in prop::option::of((0u64..(1 << 12), sel(&["", "k", "K", "m", "M", "g"]))),
        nvm_threshold in prop::option::of((0u64..(1 << 12), sel(&["", "k", "K", "m", "M"]))),
        trace in prop::option::of(sel(&["off", "ring", "jsonl"])),
        trace_path in prop::option::of(sel(&["results/traces", "/tmp/tr"])),
    ) {
        let info = Info::new();
        let set = |k: &str, v: Option<String>| {
            if let Some(v) = v {
                info.set(k, &v);
            }
        };
        set("romio_cb_write", cb_write.map(String::from));
        set("romio_cb_read", cb_read.map(String::from));
        set("romio_ds_write", ds_write.map(String::from));
        set("cb_buffer_size", cb_buffer_size.map(|n| n.to_string()));
        set("cb_nodes", cb_nodes.map(|n| n.to_string()));
        set("striping_factor", striping_factor.map(|n| n.to_string()));
        set("striping_unit", striping_unit.map(|n| n.to_string()));
        set("ind_wr_buffer_size", ind_wr.map(|n| n.to_string()));
        set("e10_cache", cache.map(String::from));
        set("e10_cache_path", cache_path.map(String::from));
        set("e10_cache_flush_flag", flush.map(String::from));
        set("e10_cache_discard_flag", discard.map(String::from));
        set("e10_fd_partition", fd.map(String::from));
        set("e10_cache_read", cache_read.map(String::from));
        set("cb_config_list", cb_config.map(|n| format!("*:{n}")));
        set("romio_no_indep_rw", no_indep.map(String::from));
        set("e10_cache_evict", evict.map(String::from));
        set("e10_cache_journal", journal.map(String::from));
        set("e10_cache_journal_path", journal_path.map(String::from));
        set("e10_integrity", integrity.map(String::from));
        set("e10_integrity_scrub_ms", scrub_ms.map(|n| n.to_string()));
        // The builder's cross-field check requires lowater <= hiwater.
        let (hi, lo) = match watermarks {
            Some((a, b)) => (a.max(b), a.min(b)),
            None => (0, 0),
        };
        set("e10_cache_hiwater", watermarks.map(|_| hi.to_string()));
        set("e10_cache_lowater", watermarks.map(|_| lo.to_string()));
        set("e10_two_phase", two_phase.map(String::from));
        set("e10_coll_timeout", coll_timeout.map(|n| n.to_string()));
        set("e10_cache_class", cache_class.map(String::from));
        set("e10_nvm_capacity", nvm_capacity.map(|(n, s)| size_str(n, s)));
        set("e10_nvm_threshold", nvm_threshold.map(|(n, s)| size_str(n, s)));
        set("e10_trace", trace.map(String::from));
        set("e10_trace_path", trace_path.map(String::from));

        let h1 = match RomioHints::from_info(&info) {
            Ok(h) => h,
            Err(e) => {
                return Err(TestCaseError::fail(format!("valid hint set rejected: {}", e.first())));
            }
        };
        let h2 = RomioHints::from_info(&h1.to_info())
            .map_err(|e| TestCaseError::fail(format!("round-trip rejected: {}", e.first())))?;
        prop_assert_eq!(&h2, &h1);
        prop_assert_eq!(h2.to_pairs(), h1.to_pairs());
        // A second trip is a fixed point too.
        let h3 = RomioHints::from_info(&h2.to_info()).unwrap();
        prop_assert_eq!(h3, h2);
    }

    /// Every invalid value in the info set is reported — the builder
    /// accumulates violations rather than stopping at the first.
    #[test]
    fn bad_values_accumulate_into_hint_errors(
        bad in prop::collection::vec(
            prop::sample::select(vec![
                ("cb_buffer_size", "zero"),
                ("cb_nodes", "-4"),
                ("striping_unit", "64q"),
                ("e10_cache", "maybe"),
                ("e10_cache_flush_flag", "flush_later"),
                ("e10_cache_hiwater", "120"),
                ("e10_two_phase", "threephase"),
                ("e10_cache_class", "optane"),
                ("e10_nvm_capacity", "big"),
                ("e10_nvm_threshold", "-1"),
                ("e10_trace", "loud"),
                ("e10_coll_timeout", "soon"),
            ]),
            1..7,
        ),
        good_class in sel(&["ssd", "nvm", "hybrid"]),
    ) {
        // Info is a map: duplicate keys collapse, so dedupe up front.
        let bad: BTreeMap<&str, &str> = bad.into_iter().collect();
        let info = Info::new();
        info.set("romio_cb_write", "enable"); // one valid pair alongside
        info.set("e10_cache_class", good_class);
        for (k, v) in &bad {
            info.set(k, v); // overwrites good_class when selected
        }
        let err = match RomioHints::from_info(&info) {
            Err(e) => e,
            Ok(_) => return Err(TestCaseError::fail("bad values accepted")),
        };
        let mut reported: Vec<&str> = err.iter().map(|e| e.key.as_str()).collect();
        reported.sort_unstable();
        let expected: Vec<&str> = bad.keys().copied().collect();
        prop_assert_eq!(reported, expected);
        prop_assert!(err.len() == bad.len());
    }
}
