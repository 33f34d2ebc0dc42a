//! `FairShare` pinned from the outside: three stream mixes run through
//! the public API, and what they report — the order streams complete
//! in, the instant each completes at, the work done to the last bit and
//! the jobs done — is held to constants. How the resource keeps its
//! state may change; none of these may.

use std::cell::RefCell;
use std::rc::Rc;

use e10_simcore::{now, run_perturbed, sleep, spawn, FairShare, SimDuration, SimRng};

/// The switch core's capacity in the 64-node testbed model, bytes/s
/// (`NetConfig::ib_qdr(64)`: 3.2 GB/s per port, 32 port pairs).
const RATE: f64 = 1.024e11;

/// A stream: when it joins (ns) and how much work it brings.
type Stream = (u64, f64);

struct Outcome {
    /// `(stream, completion ns)` in the order streams completed.
    log: Vec<(usize, u64)>,
    work_done_bits: u64,
    jobs_done: u64,
}

impl Outcome {
    fn order(&self) -> Vec<usize> {
        self.log.iter().map(|&(i, _)| i).collect()
    }

    fn instants(&self) -> Vec<u64> {
        self.log.iter().map(|&(_, ns)| ns).collect()
    }
}

/// Serve every stream on one link; `seed` picks the same-instant
/// schedule (`None` is FIFO).
fn serve_all(streams: &[Stream], seed: Option<u64>) -> Outcome {
    let streams = streams.to_vec();
    run_perturbed(seed, async move {
        let link = FairShare::new(RATE);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut handles = Vec::new();
        for (i, (start, work)) in streams.into_iter().enumerate() {
            let (link, log) = (link.clone(), Rc::clone(&log));
            handles.push(spawn(async move {
                if start > 0 {
                    sleep(SimDuration::from_nanos(start)).await;
                }
                link.serve(work).await;
                log.borrow_mut().push((i, now().as_nanos()));
            }));
        }
        for h in handles {
            h.await;
        }
        let log = log.take();
        Outcome {
            log,
            work_done_bits: link.work_done().to_bits(),
            jobs_done: link.jobs_done(),
        }
    })
    .0
}

/// 512 streams joining at one instant — a collective round's shuffle
/// through the core — with seeded sizes from 4 KiB to 4 MiB (ties
/// included).
fn burst() -> Vec<Stream> {
    let mut rng = SimRng::new(0xFA1);
    (0..512)
        .map(|_| (0, 4096.0 * (1 + rng.below(1024)) as f64))
        .collect()
}

/// 48 streams arriving about 1 µs apart, each long enough to overlap
/// the next few.
fn staggered() -> Vec<Stream> {
    let mut rng = SimRng::new(0x57A6);
    (0..48)
        .map(|i| (i * 1000 + rng.below(64), rng.uniform_range(1e4, 1e6)))
        .collect()
}

/// A burst of large streams, with every third stream bringing 1e-7
/// units — below the completion threshold — either in the burst or,
/// for a few, joining alone while the large ones are in flight.
fn mixed() -> Vec<Stream> {
    let mut rng = SimRng::new(0x3E7);
    (0..40)
        .map(|i| match i % 3 {
            0 if i % 2 == 0 => (0, 1e-7),
            0 => (i * 100_000, 1e-7),
            _ => (0, rng.uniform_range(1e5, 1e8)),
        })
        .collect()
}

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a scenario must report, taken from the model as it stood when
/// this file was written.
struct Pin {
    order: &'static [usize],
    instants: &'static [u64],
    work_done_bits: u64,
    jobs_done: u64,
}

fn check(streams: &[Stream], pin: &Pin) {
    let o = serve_all(streams, None);
    assert_eq!(o.order(), pin.order, "completion order");
    assert_eq!(o.instants(), pin.instants, "completion instants (ns)");
    assert_eq!(o.work_done_bits, pin.work_done_bits, "work_done bits");
    assert_eq!(o.jobs_done, pin.jobs_done, "jobs_done");
}

#[test]
fn a_512_stream_burst_completes_as_pinned() {
    // 512 orders and instants are pinned by digest; the ends, the
    // number of distinct instants and the counters in full.
    let o = serve_all(&burst(), None);
    let mut distinct = o.instants();
    distinct.dedup();
    assert_eq!(
        digest(o.order().iter().map(|&i| i as u64)),
        0x4128_f81e_ba7a_6fab,
        "completion order"
    );
    assert_eq!(
        digest(o.instants()),
        0x178f_88f8_4bc0_96e5,
        "completion instants"
    );
    assert_eq!(distinct.len(), 404);
    assert_eq!(o.instants()[0], 81_920);
    assert_eq!(o.instants()[511], 10_162_000);
    assert_eq!(o.work_done_bits, 0x41cf_0310_0000_0000);
    assert_eq!(o.jobs_done, 512);
}

#[test]
fn staggered_arrivals_complete_as_pinned() {
    check(
        &staggered(),
        &Pin {
            order: &[
                6, 1, 0, 23, 36, 26, 25, 9, 12, 21, 8, 27, 7, 39, 41, 44, 5, 31, 37, 4, 32, 35, 3,
                30, 43, 28, 11, 15, 40, 13, 42, 17, 20, 18, 33, 10, 2, 38, 16, 24, 34, 14, 22, 29,
                45, 19, 47, 46,
            ],
            instants: &[
                7874, 25832, 26705, 28008, 53305, 56831, 57001, 69033, 79028, 84068, 85602, 87126,
                94822, 99743, 114808, 120557, 123527, 138511, 141326, 146611, 146978, 149024,
                150408, 160215, 161993, 172565, 176988, 177164, 181454, 191543, 192501, 193590,
                195418, 197670, 204474, 208935, 210964, 213638, 219435, 224954, 227021, 227375,
                229135, 230405, 230966, 231064, 232064, 232321,
            ],
            work_done_bits: 0x4176_ae90_62f5_154c,
            jobs_done: 48,
        },
    );
}

#[test]
fn tiny_works_among_large_complete_as_pinned() {
    // A tiny job in the burst completes at the next join's settle, the
    // burst's last one at the 1 ns timer; one joining mid-flight is due
    // 1 ns after it joins.
    check(
        &mixed(),
        &Pin {
            order: &[
                0, 6, 12, 18, 24, 30, 36, 3, 1, 9, 7, 15, 21, 2, 27, 14, 33, 39, 34, 19, 23, 13,
                17, 28, 32, 16, 8, 37, 26, 10, 20, 22, 29, 38, 31, 5, 4, 11, 35, 25,
            ],
            instants: &[
                0, 0, 0, 0, 0, 0, 0, 300001, 542447, 900001, 1403535, 1500001, 2100001, 2630380,
                2700001, 2940865, 3300001, 3900001, 4207196, 4286413, 4415188, 4485523, 5206480,
                6262417, 6661076, 6677457, 7573433, 7768082, 8419586, 9008985, 9044453, 9201541,
                9692429, 9900613, 9906280, 10577880, 10693769, 10834086, 11033939, 11041155,
            ],
            work_done_bits: 0x41d0_d8f3_4c28_5c25,
            jobs_done: 40,
        },
    );
}

/// Which of the streams that join at one instant joins first is an
/// input the model must not read: under eight seeded same-instant
/// schedules, every stream of the burst completes at the instant it
/// does under FIFO.
#[test]
fn join_order_at_one_instant_does_not_move_completion_instants() {
    let streams = burst();
    let pairs = |o: &Outcome| {
        let mut pairs: Vec<(u64, u64)> = o
            .log
            .iter()
            .map(|&(i, ns)| (streams[i].1.to_bits(), ns))
            .collect();
        pairs.sort_unstable();
        pairs
    };
    let fifo = serve_all(&streams, None);
    for seed in 1..=8 {
        let perturbed = serve_all(&streams, Some(seed));
        assert_eq!(pairs(&perturbed), pairs(&fifo), "seed {seed}");
        assert_eq!(perturbed.jobs_done, fifo.jobs_done, "seed {seed}");
    }
}
