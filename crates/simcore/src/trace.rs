//! Structured tracing and metrics for the whole simulator.
//!
//! The paper's evaluation is an exercise in *instrumentation*: MPE
//! phase logging is what produces the Fig. 5/6/8/10 breakdowns. This
//! module generalises that idea from one profiler in `e10-romio` to a
//! sim-wide event stream: the executor, netsim, pfs and the cache-sync
//! machinery all emit [`Event`] records onto one ambient [`TraceSink`],
//! stamped with the same virtual clock the figures are computed from.
//!
//! ## Determinism and overhead
//!
//! The sink is ambient (a thread-local, like the executor kernel) and
//! **disabled by default**. Instrumentation sites go through
//! [`emit`]/[`span`], which check a single thread-local flag and build
//! the event lazily, so a disabled trace costs one predictable branch —
//! no allocation, no formatting, no I/O. Nothing in the simulation ever
//! *reads* the trace, so enabling it cannot perturb virtual time:
//! timings are bit-identical with tracing on or off (asserted by
//! `tests/tracing.rs`).
//!
//! ## Event schema
//!
//! An [`Event`] is `{sim_time, layer, span, kind, rank?, node?, fields}`
//! where `fields` is a small list of typed key/values. [`JsonlSink`]
//! serialises one event per line as JSON:
//!
//! ```json
//! {"t_ns":1523000,"layer":"pfs","span":"write_chunk","kind":"end","rank":3,"bytes":65536}
//! ```
//!
//! ## Metrics
//!
//! A [`MetricsRegistry`] of named counters and [`Tally`] instruments
//! has its own flag: [`counter`]/[`sample`] record whenever a registry
//! is installed ([`install_metrics`]), with or without a sink, so a
//! reader of counters pays for no event stream. [`emit`]/[`span`] run
//! only while a sink is installed. [`MetricsRegistry::snapshot`]
//! exports the result for the bench binaries.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::executor::try_now;
use crate::stats::Tally;
use crate::time::SimTime;

/// Which subsystem emitted an event. One enum (rather than free-form
/// strings) so traces stay greppable and the taxonomy is documented in
/// one place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Task lifecycle in the DES executor (spawn/wake/block/finish).
    Executor,
    /// Fabric transfers and link occupancy.
    Netsim,
    /// Device models: SSD, page cache.
    Storesim,
    /// Parallel file system servers (chunk I/O, queue depth).
    Pfs,
    /// MPI machinery (collectives, generalized requests).
    Mpi,
    /// ROMIO ADIO layer: collective phases and the NVM cache.
    Romio,
    /// Workload driver (per-phase workflow progress).
    Workload,
    /// Fault injection: injected faults, retries, recovery.
    Faultsim,
}

impl Layer {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Executor => "executor",
            Layer::Netsim => "netsim",
            Layer::Storesim => "storesim",
            Layer::Pfs => "pfs",
            Layer::Mpi => "mpi",
            Layer::Romio => "romio",
            Layer::Workload => "workload",
            Layer::Faultsim => "faultsim",
        }
    }
}

/// Point events mark an instant; Begin/End bracket a span on the
/// virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An instantaneous occurrence.
    Point,
    /// Span start.
    Begin,
    /// Span end.
    End,
}

impl EventKind {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Point => "point",
            EventKind::Begin => "begin",
            EventKind::End => "end",
        }
    }
}

/// A typed field value. Conversions exist for the common primitives so
/// call sites can write `("bytes", len.into())`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (serialised with enough digits to round-trip).
    F64(f64),
    /// Static string (no allocation on the hot path).
    Str(&'static str),
    /// Owned string.
    String(String),
    /// Boolean.
    Bool(bool),
}

macro_rules! value_from {
    ($($t:ty => $v:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(x: $t) -> Value { Value::$v(x as $conv) }
        })*
    };
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<&'static str> for Value {
    fn from(x: &'static str) -> Value {
        Value::Str(x)
    }
}
impl From<String> for Value {
    fn from(x: String) -> Value {
        Value::String(x)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Value {
        Value::Bool(x)
    }
}

/// One trace record.
#[derive(Clone, Debug)]
pub struct Event {
    /// Virtual time of the event.
    pub sim_time: SimTime,
    /// Emitting subsystem.
    pub layer: Layer,
    /// Span/event name within the layer (stable, lowercase, dotted).
    pub span: &'static str,
    /// Point, begin or end.
    pub kind: EventKind,
    /// MPI rank, when the event is attributable to one.
    pub rank: Option<u32>,
    /// Node id (compute or server), when attributable.
    pub node: Option<u32>,
    /// Additional typed key/values.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Build an event stamped with the current virtual time (zero when
    /// called outside a running simulation, e.g. during teardown).
    pub fn new(layer: Layer, span: &'static str, kind: EventKind) -> Event {
        Event {
            sim_time: try_now().unwrap_or(SimTime::ZERO),
            layer,
            span,
            kind,
            rank: None,
            node: None,
            fields: Vec::new(),
        }
    }

    /// Attach a rank.
    pub fn rank(mut self, rank: usize) -> Event {
        self.rank = Some(rank as u32);
        self
    }

    /// Attach a node id.
    pub fn node(mut self, node: usize) -> Event {
        self.node = Some(node as u32);
        self
    }

    /// Attach a field.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Serialise as one JSON object (the JSONL schema).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push('{');
        let _ = write!(
            s,
            "\"t_ns\":{},\"layer\":\"{}\",\"span\":\"{}\",\"kind\":\"{}\"",
            self.sim_time.as_nanos(),
            self.layer.name(),
            self.span,
            self.kind.name()
        );
        if let Some(r) = self.rank {
            let _ = write!(s, ",\"rank\":{r}");
        }
        if let Some(n) = self.node {
            let _ = write!(s, ",\"node\":{n}");
        }
        for (k, v) in &self.fields {
            s.push(',');
            json_escape_into(&mut s, k);
            s.push(':');
            match v {
                Value::U64(x) => {
                    let _ = write!(s, "{x}");
                }
                Value::I64(x) => {
                    let _ = write!(s, "{x}");
                }
                Value::F64(x) => {
                    if x.is_finite() {
                        let _ = write!(s, "{x:?}");
                    } else {
                        s.push_str("null");
                    }
                }
                Value::Str(x) => json_escape_into(&mut s, x),
                Value::String(x) => json_escape_into(&mut s, x),
                Value::Bool(x) => {
                    let _ = write!(s, "{x}");
                }
            }
        }
        s.push('}');
        s
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Destination for trace events.
pub trait TraceSink {
    /// Record one event.
    fn record(&self, event: Event);
    /// Flush buffered output (no-op for in-memory sinks).
    fn flush(&self) {}
}

/// Bounded in-memory sink: keeps the most recent `capacity` events,
/// counts the rest as dropped. The default for tests and for the
/// determinism assertions (its presence must not change timings).
pub struct RingSink {
    capacity: usize,
    buf: RefCell<VecDeque<Event>>,
    recorded: Cell<u64>,
    dropped: Cell<u64>,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buf: RefCell::new(VecDeque::with_capacity(capacity.min(4096))),
            recorded: Cell::new(0),
            dropped: Cell::new(0),
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.borrow().iter().cloned().collect()
    }

    /// Total events offered to the sink.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: Event) {
        self.recorded.set(self.recorded.get() + 1);
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        buf.push_back(event);
    }
}

/// Newline-delimited JSON file sink (one [`Event::to_json`] per line).
pub struct JsonlSink {
    out: RefCell<BufWriter<File>>,
    path: PathBuf,
    recorded: Cell<u64>,
}

impl JsonlSink {
    /// Create (truncate) `path`, creating parent directories as needed.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(&path)?;
        Ok(JsonlSink {
            out: RefCell::new(BufWriter::new(file)),
            path,
            recorded: Cell::new(0),
        })
    }

    /// Where the trace is being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Events written so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: Event) {
        self.recorded.set(self.recorded.get() + 1);
        let mut out = self.out.borrow_mut();
        let _ = out.write_all(event.to_json().as_bytes());
        let _ = out.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.out.borrow_mut().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.borrow_mut().flush();
    }
}

// ---------------------------------------------------------------------------
// Ambient installation
// ---------------------------------------------------------------------------

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Rc<dyn TraceSink>>> = const { RefCell::new(None) };
    static METRICS: RefCell<Option<Rc<MetricsRegistry>>> = const { RefCell::new(None) };
}

/// Is a sink installed? Event sites branch on this and do no other
/// work when it is false.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Install `sink` as the ambient trace destination for this thread;
/// the installed registry, if any, stays. Returns a guard that restores
/// whatever was installed before on drop — so tests and bench runs can
/// nest cleanly.
pub fn install(sink: Rc<dyn TraceSink>) -> TraceGuard {
    let metrics = METRICS.with(|m| m.borrow().clone());
    TraceGuard(swap((Some(sink), metrics)))
}

/// Install `metrics` as the ambient registry for this thread, leaving
/// the sink as it is: counters and tallies record into it, and no event
/// is built unless a sink is installed too.
pub fn install_metrics(metrics: Rc<MetricsRegistry>) -> TraceGuard {
    let sink = SINK.with(|s| s.borrow().clone());
    TraceGuard(swap((sink, Some(metrics))))
}

/// Run `f` with a fresh registry installed; returns what it counted.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let metrics = Rc::new(MetricsRegistry::new());
    let guard = install_metrics(Rc::clone(&metrics));
    let out = f();
    drop(guard);
    (out, metrics.snapshot())
}

/// [`install`] and [`install_metrics`] in one guard.
pub fn install_with_metrics(sink: Rc<dyn TraceSink>, metrics: Rc<MetricsRegistry>) -> TraceGuard {
    TraceGuard(swap((Some(sink), Some(metrics))))
}

/// The ambient sink and registry.
type Ambient = (Option<Rc<dyn TraceSink>>, Option<Rc<MetricsRegistry>>);

/// Make `(sink, metrics)` ambient and return the pair it replaced.
fn swap((sink, metrics): Ambient) -> Ambient {
    ENABLED.with(|e| e.set(sink.is_some()));
    COUNTING.with(|c| c.set(metrics.is_some()));
    (
        SINK.with(|s| s.replace(sink)),
        METRICS.with(|m| m.replace(metrics)),
    )
}

/// Restores, when dropped, the sink and registry an install replaced.
pub struct TraceGuard(Ambient);

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.0);
        if let (Some(sink), _) = swap(prev) {
            sink.flush();
        }
    }
}

/// Record an event built by `build`, iff tracing is enabled. The
/// closure is not called otherwise, so call sites pay one branch.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    let event = build();
    SINK.with(|s| {
        if let Some(sink) = s.borrow().as_ref() {
            sink.record(event);
        }
    });
}

/// Emit a `Begin` event and return a guard that emits the matching
/// `End` (same layer and span) when dropped. When tracing is disabled
/// this is a no-op carrying no allocation.
pub fn span(layer: Layer, name: &'static str) -> SpanGuard {
    let active = enabled();
    if active {
        emit(|| Event::new(layer, name, EventKind::Begin));
    }
    SpanGuard {
        active,
        layer,
        name,
    }
}

/// RAII span: emits `End` on drop.
pub struct SpanGuard {
    active: bool,
    layer: Layer,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            let (layer, name) = (self.layer, self.name);
            emit(|| Event::new(layer, name, EventKind::End));
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Named counters and [`Tally`] instruments, snapshot-exportable.
///
/// Uses `BTreeMap` so snapshots iterate in a stable order — metric
/// output is diffable across runs.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RefCell<BTreeMap<&'static str, u64>>,
    tallies: RefCell<BTreeMap<&'static str, Tally>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `by` to the named counter.
    pub fn incr(&self, name: &'static str, by: u64) {
        *self.counters.borrow_mut().entry(name).or_insert(0) += by;
    }

    /// Push one observation onto the named tally.
    pub fn observe(&self, name: &'static str, x: f64) {
        self.tallies.borrow_mut().entry(name).or_default().push(x);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .borrow()
                .iter()
                .map(|(k, v)| (*k, *v))
                .collect(),
            tallies: self
                .tallies
                .borrow()
                .iter()
                .map(|(k, t)| (*k, t.clone()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Tally name → statistics, sorted by name.
    pub tallies: Vec<(&'static str, Tally)>,
}

impl MetricsSnapshot {
    /// The counter `name`, or 0 if the run never bumped it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Render as aligned text (for bench binaries' stdout reports).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(s, "{k:<44} {v}");
        }
        for (k, t) in &self.tallies {
            let _ = writeln!(
                s,
                "{k:<44} n={} mean={:.6} min={:.6} max={:.6}",
                t.count(),
                t.mean(),
                t.min(),
                t.max()
            );
        }
        s
    }
}

/// Ambient counter increment (no-op unless a registry is installed).
#[inline]
pub fn counter(name: &'static str, by: u64) {
    if !COUNTING.with(|c| c.get()) {
        return;
    }
    METRICS.with(|m| {
        if let Some(reg) = m.borrow().as_ref() {
            reg.incr(name, by);
        }
    });
}

/// Ambient tally observation (no-op unless a registry is installed).
#[inline]
pub fn sample(name: &'static str, x: f64) {
    if !COUNTING.with(|c| c.get()) {
        return;
    }
    METRICS.with(|m| {
        if let Some(reg) = m.borrow().as_ref() {
            reg.observe(name, x);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::{run, sleep};

    #[test]
    fn guards_nest_either_way_and_restore_what_they_replaced() {
        let reg = Rc::new(MetricsRegistry::new());
        let (a, b) = (Rc::new(RingSink::new(8)), Rc::new(RingSink::new(8)));
        let tick = |name: &'static str| {
            emit(|| Event::new(Layer::Pfs, name, EventKind::Point));
            counter(name, 1);
        };
        let spans = |ring: &RingSink| ring.events().iter().map(|e| e.span).collect::<Vec<_>>();
        let outer = install_metrics(reg.clone());
        let inner = install(a.clone());
        tick("both");
        drop(inner);
        tick("counted");
        drop(outer);
        let outer = install(a.clone());
        let inner = install_metrics(reg.clone());
        tick("both");
        drop(inner);
        let inner = install(b.clone());
        tick("inner");
        drop(inner);
        tick("traced");
        drop(outer);
        emit(|| panic!("nothing installed: the closure must not run"));
        tick("neither");
        assert_eq!(spans(&a), ["both", "both", "traced"]);
        assert_eq!(spans(&b), ["inner"]);
        assert_eq!(reg.snapshot().counters, vec![("both", 2), ("counted", 1)]);
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let ring = Rc::new(RingSink::new(3));
        let _g = install(ring.clone());
        for i in 0..5u64 {
            emit(|| Event::new(Layer::Executor, "tick", EventKind::Point).field("i", i));
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 2);
        let evs = ring.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].fields[0], ("i", Value::U64(2)));
        assert_eq!(evs[2].fields[0], ("i", Value::U64(4)));
    }

    #[test]
    fn span_guard_brackets_virtual_time() {
        let ring = Rc::new(RingSink::new(16));
        let _g = install(ring.clone());
        run(async {
            let _s = span(Layer::Romio, "phase");
            sleep(SimDuration::from_secs(2)).await;
        });
        // The executor's own task events land on the sink too; look at
        // the romio span only.
        let evs: Vec<Event> = ring
            .events()
            .into_iter()
            .filter(|e| e.layer == Layer::Romio)
            .collect();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[1].kind, EventKind::End);
        assert_eq!(
            evs[1].sim_time.since(evs[0].sim_time),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn event_json_schema_is_stable() {
        let e = Event {
            sim_time: SimTime::from_nanos(1_523_000),
            layer: Layer::Pfs,
            span: "write_chunk",
            kind: EventKind::End,
            rank: Some(3),
            node: None,
            fields: vec![
                ("bytes", Value::U64(65536)),
                ("load", Value::F64(0.25)),
                ("policy", Value::Str("urgent")),
                ("ok", Value::Bool(true)),
            ],
        };
        assert_eq!(
            e.to_json(),
            "{\"t_ns\":1523000,\"layer\":\"pfs\",\"span\":\"write_chunk\",\
             \"kind\":\"end\",\"rank\":3,\"bytes\":65536,\"load\":0.25,\
             \"policy\":\"urgent\",\"ok\":true}"
        );
    }

    #[test]
    fn event_json_escapes_strings() {
        let e = Event {
            sim_time: SimTime::ZERO,
            layer: Layer::Romio,
            span: "open",
            kind: EventKind::Point,
            rank: None,
            node: None,
            fields: vec![("path", Value::String("/a\"b\\c\nd".into()))],
        };
        assert_eq!(
            e.to_json(),
            "{\"t_ns\":0,\"layer\":\"romio\",\"span\":\"open\",\"kind\":\"point\",\
             \"path\":\"/a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("e10-trace-test");
        let path = dir.join("t.jsonl");
        let sink = Rc::new(JsonlSink::create(&path).unwrap());
        {
            let _g = install(sink.clone());
            emit(|| Event::new(Layer::Netsim, "transfer", EventKind::Begin).field("bytes", 10u64));
            emit(|| Event::new(Layer::Netsim, "transfer", EventKind::End).field("bytes", 10u64));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"layer\":\"netsim\""));
            assert!(line.contains("\"span\":\"transfer\""));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_registry_alone_counts_in_stable_order_and_builds_no_event() {
        let reg = Rc::new(MetricsRegistry::new());
        let _g = install_metrics(reg.clone());
        assert!(!enabled());
        emit(|| panic!("no sink: the closure must not run"));
        let _s = span(Layer::Romio, "phase");
        counter("z.last", 1);
        counter("a.first", 2);
        counter("a.first", 3);
        sample("lat", 1.0);
        sample("lat", 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a.first", 5), ("z.last", 1)]);
        assert_eq!(snap.tallies.len(), 1);
        assert_eq!(snap.tallies[0].1.count(), 2);
        assert_eq!(snap.tallies[0].1.mean(), 2.0);
        let text = snap.render();
        assert!(text.contains("a.first"));
        assert!(text.contains("n=2"));
    }
}
