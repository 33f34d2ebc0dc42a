//! Benchmark-side spans: recorded around the benchmark's own calls
//! into the layers, held in memory, written as JSON lines at exit.
//!
//! Nothing here touches the program under test — spans inside the
//! layers are a later change. A span carries both clocks: host
//! nanoseconds since the process started and, when a simulation is
//! running, the virtual nanosecond at which it began and ended.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use e10_bench::Json;

/// One closed span.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// `None` outside a simulation.
    pub sim_start_ns: Option<u64>,
    pub sim_end_ns: Option<u64>,
    pub rep: u32,
}

impl Span {
    fn to_json(&self) -> Json {
        let sim = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        Json::obj([
            ("name", Json::str(self.name)),
            ("parent", Json::str(self.parent)),
            ("host_start_ns", Json::U64(self.host_start_ns)),
            ("host_end_ns", Json::U64(self.host_end_ns)),
            ("sim_start_ns", sim(self.sim_start_ns)),
            ("sim_end_ns", sim(self.sim_end_ns)),
            ("rep", Json::U64(self.rep as u64)),
        ])
    }
}

struct Log {
    epoch: Instant,
    recording: bool,
    rep: u32,
    spans: Vec<Span>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log {
        epoch: Instant::now(),
        recording: false,
        rep: 0,
        spans: Vec::new(),
    });
}

fn sim_now_ns() -> Option<u64> {
    e10_simcore::executor::try_now().map(|t| t.as_nanos())
}

/// Start recording (the traced repetition and the layer drivers).
/// Untraced repetitions never record, so spans cost them nothing but
/// one thread-local flag test per call site.
pub fn set_recording(on: bool, rep: u32) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.recording = on;
        l.rep = rep;
    });
}

/// An open span; closes on drop.
pub struct Guard {
    open: Option<(&'static str, &'static str, u64, Option<u64>)>,
}

/// Open a span named `name` under `parent` ("" for a root).
pub fn enter(name: &'static str, parent: &'static str) -> Guard {
    let open = LOG.with(|l| {
        let l = l.borrow();
        l.recording.then(|| {
            (
                name,
                parent,
                l.epoch.elapsed().as_nanos() as u64,
                sim_now_ns(),
            )
        })
    });
    Guard { open }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((name, parent, host_start_ns, sim_start_ns)) = self.open.take() else {
            return;
        };
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            let host_end_ns = l.epoch.elapsed().as_nanos() as u64;
            let rep = l.rep;
            l.spans.push(Span {
                name,
                parent,
                host_start_ns,
                host_end_ns,
                sim_start_ns,
                sim_end_ns: sim_now_ns(),
                rep,
            });
        });
    }
}

/// Render every span recorded so far as JSON lines.
pub fn to_jsonl() -> String {
    LOG.with(|l| {
        let mut out = String::new();
        for s in &l.borrow().spans {
            let _ = writeln!(out, "{}", s.to_json().render());
        }
        out
    })
}
