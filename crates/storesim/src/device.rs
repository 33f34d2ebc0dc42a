//! Node-local storage device model: the SATA SSD holding `/scratch`
//! and the byte-addressable persistent memory (Optane-class NVM on the
//! node's memory bus) are one service model with different parameters.
//!
//! A command pays a per-command latency, then its bytes on a fair-share
//! bandwidth server, both stretched by one draw of the device's small
//! jitter. No mechanical state: service variance is an order of
//! magnitude below the disk model's, which is exactly the property the
//! paper exploits (stable response times → cheap global sync).
//!
//! The media is organised as N independent channels, each a `(read,
//! write)` pair of fair-share servers of `bw / N`. A single stream sees
//! one channel's bandwidth; N concurrent streams see the full device.
//! Commands pick channels round-robin in issue order per direction,
//! which is deterministic under the simulator's run-to-completion
//! scheduling. The SSD is the one-channel case
//! ([`NvmParams::matching_ssd`]); the NVM adds latency asymmetry
//! (hundreds of nanoseconds to read, about a microsecond to persist a
//! write), byte granularity and four channels (Liu et al.,
//! arXiv:1705.03598).
//!
//! Fault injection keys the stall hook (`e10_faultsim::ssd_stall`) by
//! hosting node, so an installed schedule back-pressures both device
//! classes identically.

use std::cell::RefCell;
use std::future::Future;
use std::ops::Deref;
use std::rc::Rc;

use e10_faultsim::DeviceClass;
use e10_simcore::rng::Jitter;
use e10_simcore::trace::{self, Event, EventKind, Layer};
use e10_simcore::{FairShare, SimDuration, SimRng, Tally};

/// SSD performance parameters.
#[derive(Debug, Clone)]
pub struct SsdParams {
    /// Sustained read bandwidth, bytes/s.
    pub read_bw: f64,
    /// Sustained write bandwidth, bytes/s.
    pub write_bw: f64,
    /// Per-command read latency.
    pub read_latency: SimDuration,
    /// Per-command write latency. SATA-era flash is close to symmetric
    /// at the command level (the asymmetry lives in bandwidth), so the
    /// presets keep both equal; the split exists because byte-
    /// addressable devices ([`Nvm`]) are strongly asymmetric.
    pub write_latency: SimDuration,
    /// Coefficient of variation of per-command jitter (small for SSDs).
    pub jitter_cv: f64,
}

impl SsdParams {
    /// An 80 GB consumer SATA SSD of the DEEP-ER era (Intel 320-ish):
    /// ~270 MB/s read, ~220 MB/s sustained write. The paper's ~20 GB/s
    /// burst across 64 nodes also rides the page cache (see
    /// [`crate::pagecache`]), not the bare device.
    pub fn sata_scratch() -> Self {
        SsdParams {
            read_bw: 270e6,
            write_bw: 220e6,
            read_latency: SimDuration::from_micros(80),
            write_latency: SimDuration::from_micros(80),
            jitter_cv: 0.03,
        }
    }
}

/// NVM performance parameters.
#[derive(Debug, Clone)]
pub struct NvmParams {
    /// Aggregate sustained read bandwidth across all channels, bytes/s.
    pub read_bw: f64,
    /// Aggregate sustained write bandwidth across all channels, bytes/s.
    pub write_bw: f64,
    /// Per-command read latency (media access, no persist).
    pub read_latency: SimDuration,
    /// Per-command write latency (persist to media).
    pub write_latency: SimDuration,
    /// Independent internal channels; each serves `bw / channels`.
    pub channels: usize,
    /// Coefficient of variation of per-command jitter.
    pub jitter_cv: f64,
}

impl NvmParams {
    /// An Optane-class DC persistent-memory module: ~6.6 GB/s read,
    /// ~2.3 GB/s write, ~300 ns read / ~1 µs write command latency,
    /// four interleaved channels (Liu et al., arXiv:1705.03598 report
    /// this latency asymmetry and concurrency shape for byte-
    /// addressable NVM under HPC I/O loads).
    pub fn optane_scratch() -> Self {
        NvmParams {
            read_bw: 6.6e9,
            write_bw: 2.3e9,
            read_latency: SimDuration::from_nanos(300),
            write_latency: SimDuration::from_micros(1),
            channels: 4,
            jitter_cv: 0.03,
        }
    }

    /// The SSD `ssd` as device parameters: same latencies, same
    /// bandwidth, a single channel. [`Ssd::new`] builds its device from
    /// these, so an NVM mount given them times bit-identically.
    pub fn matching_ssd(ssd: &SsdParams) -> Self {
        NvmParams {
            read_bw: ssd.read_bw,
            write_bw: ssd.write_bw,
            read_latency: ssd.read_latency,
            write_latency: ssd.write_latency,
            channels: 1,
            jitter_cv: ssd.jitter_cv,
        }
    }
}

/// Index of the read direction in a channel pair and the per-direction
/// state.
const READ: usize = 0;
/// Index of the write direction.
const WRITE: usize = 1;

/// A simulated node-local device. Clones share the hardware: channels,
/// cursors, jitter stream and tallies.
#[derive(Clone)]
pub struct Device {
    class: DeviceClass,
    /// Per-command latency, by direction.
    latency: [SimDuration; 2],
    /// `(read, write)` fair-share servers, one pair per channel.
    chans: Rc<[[FairShare; 2]]>,
    state: Rc<RefCell<DeviceState>>,
}

struct DeviceState {
    /// Next channel to serve, by direction.
    cursor: [usize; 2],
    jitter: Jitter,
    /// Service-time statistics, by direction.
    lat: [Tally; 2],
    /// Compute node hosting this device (fault-injection identity).
    node: usize,
}

impl Device {
    fn new(class: DeviceClass, params: NvmParams, rng: SimRng) -> Self {
        let n = params.channels.max(1);
        let chan = |bw: f64| FairShare::new(bw / n as f64);
        Device {
            class,
            latency: [params.read_latency, params.write_latency],
            chans: (0..n)
                .map(|_| [chan(params.read_bw), chan(params.write_bw)])
                .collect(),
            state: Rc::new(RefCell::new(DeviceState {
                cursor: [0; 2],
                jitter: Jitter::new(rng, params.jitter_cv),
                lat: [Tally::new(), Tally::new()],
                node: 0,
            })),
        }
    }

    /// Bind the device to its hosting compute node, so an installed
    /// fault schedule can target it (`e10_faultsim::ssd_stall`).
    pub fn set_node(&self, node: usize) {
        self.state.borrow_mut().node = node;
    }

    /// Hosting compute node (0 until [`Device::set_node`] is called).
    pub fn node(&self) -> usize {
        self.state.borrow().node
    }

    /// Fault-injection hook: if the installed schedule stalls this
    /// device right now, sleep out the stall. [`Device::read`] and
    /// [`Device::write`] call it; device-backed paths that bypass them
    /// (e.g. a page cache whose writeback is modelled as drain
    /// bandwidth) call it so a planned `ssd_stall` still back-pressures
    /// them. With no schedule installed this awaits nothing and
    /// perturbs nothing.
    pub async fn stall_point(&self) {
        let node = self.state.borrow().node;
        if let Some(stall) = e10_faultsim::ssd_stall(node) {
            e10_simcore::sleep(stall).await;
        }
    }

    /// Write `len` bytes at byte granularity (offset-independent
    /// service, no block rounding).
    pub fn write(&self, len: u64) -> impl Future<Output = ()> + '_ {
        self.command(WRITE, len)
    }

    /// Read `len` bytes.
    pub fn read(&self, len: u64) -> impl Future<Output = ()> + '_ {
        self.command(READ, len)
    }

    /// One command in direction `dir`. [`Device::read`] and
    /// [`Device::write`] return this future itself rather than wrap it
    /// in an `async fn`, which would hold a second `self` and `len`.
    async fn command(&self, dir: usize, len: u64) {
        let t0 = e10_simcore::now();
        self.stall_point().await;
        let (chan, j) = {
            let mut st = self.state.borrow_mut();
            let chan = st.cursor[dir];
            st.cursor[dir] = if chan + 1 == self.chans.len() {
                0
            } else {
                chan + 1
            };
            (chan, st.jitter.sample())
        };
        e10_simcore::sleep(self.latency[dir].mul_f64(j)).await;
        self.chans[chan][dir].serve(len as f64 * j).await;
        let lat = e10_simcore::now().since(t0).as_secs_f64();
        self.state.borrow_mut().lat[dir].push(lat);
        let [span, bytes, sample] = self.names(dir);
        trace::emit(|| {
            Event::new(Layer::Storesim, span, EventKind::Point)
                .field("bytes", len)
                .field("latency_s", lat)
        });
        trace::counter(bytes, len);
        trace::sample(sample, lat);
    }

    /// Trace span, byte counter and latency sample of one direction.
    fn names(&self, dir: usize) -> [&'static str; 3] {
        const SSD: [[&str; 3]; 2] = [
            ["ssd.read", "ssd.read_bytes", "ssd.read_latency_s"],
            ["ssd.write", "ssd.write_bytes", "ssd.write_latency_s"],
        ];
        const NVM: [[&str; 3]; 2] = [
            ["nvm.read", "nvm.read_bytes", "nvm.read_latency_s"],
            ["nvm.write", "nvm.write_bytes", "nvm.write_latency_s"],
        ];
        match self.class {
            DeviceClass::Ssd => SSD[dir],
            DeviceClass::Nvm => NVM[dir],
        }
    }

    /// Service-time statistics for writes.
    pub fn write_latency(&self) -> Tally {
        self.state.borrow().lat[WRITE].clone()
    }

    /// Service-time statistics for reads.
    pub fn read_latency(&self) -> Tally {
        self.state.borrow().lat[READ].clone()
    }

    /// Whether commands are served at byte granularity (no block
    /// rounding, no page-cache staging required for efficiency).
    pub fn byte_granular(&self) -> bool {
        self.class == DeviceClass::Nvm
    }

    /// The fault-surface class of this device (what a
    /// [`e10_faultsim::FaultSpec::DeviceFail`] spec matches on).
    pub fn fault_class(&self) -> DeviceClass {
        self.class
    }

    /// True if a planned permanent failure of this device has fired:
    /// every subsequent command must be refused with a typed error by
    /// the layer above (the local file system).
    pub fn failed(&self) -> bool {
        e10_faultsim::device_failed(self.node(), self.class)
    }
}

/// A simulated block SSD: the one-channel [`Device`].
#[derive(Clone)]
pub struct Ssd(Device);

impl Ssd {
    /// Create an SSD; `rng` drives its (small) jitter stream.
    pub fn new(params: SsdParams, rng: SimRng) -> Self {
        Ssd(Device::new(
            DeviceClass::Ssd,
            NvmParams::matching_ssd(&params),
            rng,
        ))
    }
}

impl Deref for Ssd {
    type Target = Device;
    fn deref(&self) -> &Device {
        &self.0
    }
}

/// A simulated byte-addressable NVM device.
#[derive(Clone)]
pub struct Nvm(Device);

impl Nvm {
    /// Create an NVM device; `rng` drives its jitter stream.
    pub fn new(params: NvmParams, rng: SimRng) -> Self {
        Nvm(Device::new(DeviceClass::Nvm, params, rng))
    }
}

impl Deref for Nvm {
    type Target = Device;
    fn deref(&self) -> &Device {
        &self.0
    }
}

/// The device a node-local file system mounts, chosen at testbed-
/// construction time.
#[derive(Clone)]
pub enum DeviceModel {
    /// Block SSD.
    Ssd(Ssd),
    /// Byte-addressable NVM.
    Nvm(Nvm),
}

impl Deref for DeviceModel {
    type Target = Device;
    fn deref(&self) -> &Device {
        match self {
            DeviceModel::Ssd(d) => d,
            DeviceModel::Nvm(d) => d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::{join_all, now, run, spawn};

    fn quiet() -> SsdParams {
        SsdParams {
            jitter_cv: 0.0,
            read_latency: SimDuration::ZERO,
            write_latency: SimDuration::ZERO,
            read_bw: 1000.0,
            write_bw: 500.0,
        }
    }

    fn quiet_nvm(channels: usize) -> NvmParams {
        NvmParams {
            read_bw: 1000.0,
            write_bw: 1000.0,
            read_latency: SimDuration::ZERO,
            write_latency: SimDuration::ZERO,
            channels,
            jitter_cv: 0.0,
        }
    }

    #[test]
    fn write_throughput_matches_channel() {
        let t = run(async {
            let s = Ssd::new(quiet(), SimRng::new(1));
            s.write(1000).await;
            now().as_secs_f64()
        });
        assert!((t - 2.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn reads_and_writes_use_separate_channels() {
        let t = run(async {
            let s = Ssd::new(quiet(), SimRng::new(1));
            let s1 = s.clone();
            let h1 = spawn(async move { s1.write(500).await });
            let s2 = s.clone();
            let h2 = spawn(async move { s2.read(1000).await });
            join_all(vec![h1, h2]).await;
            now().as_secs_f64()
        });
        // Both take 1 s in parallel, not 2 s serialised.
        assert!((t - 1.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn concurrent_writes_share_bandwidth() {
        let t = run(async {
            let s = Ssd::new(quiet(), SimRng::new(1));
            let mut hs = Vec::new();
            for _ in 0..2 {
                let s = s.clone();
                hs.push(spawn(async move { s.write(500).await }));
            }
            join_all(hs).await;
            now().as_secs_f64()
        });
        assert!((t - 2.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn ssd_variance_well_below_disk_variance() {
        let (ssd_cv, disk_cv) = run(async {
            let s = Ssd::new(SsdParams::sata_scratch(), SimRng::new(5));
            for _ in 0..60 {
                s.write(4_194_304).await;
            }
            let d = crate::disk::Disk::new(crate::disk::DiskParams::nearline_sas(), SimRng::new(6));
            let mut tally = Tally::new();
            for i in 0..60u64 {
                let t0 = now();
                d.write((i * 7919 % 101) * 50_000_000, 4_194_304).await;
                tally.push(now().since(t0).as_secs_f64());
            }
            (s.write_latency().cv(), tally.cv())
        });
        assert!(ssd_cv < disk_cv / 2.0, "ssd cv={ssd_cv}, disk cv={disk_cv}");
    }

    #[test]
    fn injected_stall_slows_the_targeted_node_only() {
        for class in [DeviceClass::Ssd, DeviceClass::Nvm] {
            let t_for = |target: usize| {
                run(async move {
                    let _g = e10_faultsim::FaultSchedule::install(
                        e10_faultsim::FaultPlan::new(5).ssd_stall(
                            target,
                            e10_faultsim::always(),
                            1.0,
                            SimDuration::from_secs(3),
                        ),
                    );
                    let d = Device::new(class, quiet_nvm(1), SimRng::new(1));
                    d.set_node(7);
                    d.write(500).await;
                    now().as_secs_f64()
                })
            };
            let stalled = t_for(7);
            let clean = t_for(8);
            assert!(
                (stalled - clean - 3.0).abs() < 1e-6,
                "{class:?}: stalled={stalled} clean={clean}"
            );
        }
    }

    #[test]
    fn latency_statistics_recorded() {
        run(async {
            for class in [DeviceClass::Ssd, DeviceClass::Nvm] {
                let d = Device::new(class, quiet_nvm(2), SimRng::new(1));
                d.write(100).await;
                d.read(100).await;
                assert_eq!(d.write_latency().count(), 1);
                assert_eq!(d.read_latency().count(), 1);
            }
        });
    }

    #[test]
    fn single_stream_sees_one_channel() {
        let t = run(async {
            let d = Nvm::new(quiet_nvm(4), SimRng::new(1));
            d.write(1000).await;
            now().as_secs_f64()
        });
        // One channel serves 1000/4 = 250 B/s → 4 s for 1000 B.
        assert!((t - 4.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn concurrent_streams_fill_all_channels() {
        let t = run(async {
            let d = Nvm::new(quiet_nvm(4), SimRng::new(1));
            let mut hs = Vec::new();
            for _ in 0..4 {
                let d = d.clone();
                hs.push(spawn(async move { d.write(1000).await }));
            }
            join_all(hs).await;
            now().as_secs_f64()
        });
        // Round-robin puts each write on its own channel: all four run
        // in parallel at 250 B/s each.
        assert!((t - 4.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn oversubscribed_streams_queue_per_channel() {
        let t = run(async {
            let d = Nvm::new(quiet_nvm(2), SimRng::new(1));
            let mut hs = Vec::new();
            for _ in 0..4 {
                let d = d.clone();
                hs.push(spawn(async move { d.write(1000).await }));
            }
            join_all(hs).await;
            now().as_secs_f64()
        });
        // 4 writes on 2 channels: each channel fair-shares two 1000-B
        // commands at 500 B/s → 4 s.
        assert!((t - 4.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn read_write_latency_asymmetry() {
        let (r, w) = run(async {
            let mut p = quiet_nvm(1);
            p.read_latency = SimDuration::from_nanos(300);
            p.write_latency = SimDuration::from_micros(1);
            p.read_bw = 1e12;
            p.write_bw = 1e12;
            let d = Nvm::new(p, SimRng::new(1));
            let t0 = now();
            d.read(8).await;
            let r = now().since(t0).as_secs_f64();
            let t0 = now();
            d.write(8).await;
            (r, now().since(t0).as_secs_f64())
        });
        // Tolerance: the clock ticks in nanoseconds, and the bandwidth
        // serve adds a sub-nanosecond term that may round up.
        assert!((r - 300e-9).abs() < 2e-9, "read lat={r}");
        assert!((w - 1e-6).abs() < 2e-9, "write lat={w}");
    }

    /// Every local-file-system request holds a command future across
    /// the device's service, so its size is paid by every task waiting
    /// on a device. `read` and `write` hand out the command future
    /// itself: an `async` wrapper around it keeps its own `self` and
    /// `len` beside it and grew it from 136 to 160 bytes (rustc
    /// 1.95.0). The bound allows a word of drift.
    #[test]
    fn command_futures_stay_their_size() {
        const COMMAND: usize = 136;
        const MARGIN: usize = 8;
        let ssd = Ssd::new(quiet(), SimRng::new(1));
        let nvm = Nvm::new(quiet_nvm(4), SimRng::new(1));
        for (what, bytes) in [
            ("ssd read", std::mem::size_of_val(&ssd.read(8))),
            ("ssd write", std::mem::size_of_val(&ssd.write(8))),
            ("nvm read", std::mem::size_of_val(&nvm.read(8))),
            ("nvm write", std::mem::size_of_val(&nvm.write(8))),
        ] {
            assert!(bytes <= COMMAND + MARGIN, "{what} future: {bytes} bytes");
        }
    }

    #[test]
    fn matching_ssd_params_time_identically() {
        let ssd_p = SsdParams::sata_scratch();
        let t_ssd = run(async {
            let s = Ssd::new(SsdParams::sata_scratch(), SimRng::new(9));
            for _ in 0..20 {
                s.write(65536).await;
                s.read(4096).await;
            }
            now().as_secs_f64()
        });
        let t_nvm = run(async move {
            let d = Nvm::new(NvmParams::matching_ssd(&ssd_p), SimRng::new(9));
            for _ in 0..20 {
                d.write(65536).await;
                d.read(4096).await;
            }
            now().as_secs_f64()
        });
        assert_eq!(t_ssd.to_bits(), t_nvm.to_bits(), "must be bit-identical");
    }
}
