//! # e10-localfs
//!
//! The node-local file system holding the E10 cache files — the
//! simulated equivalent of the 30 GB ext4 `/scratch` partition on each
//! DEEP-ER compute node's SATA SSD.
//!
//! Behavioural points that matter to the paper:
//!
//! * **`fallocate` support.** `ADIOI_Cache_alloc()` reserves cache
//!   space with `fallocate(2)`; file systems without it fall back to
//!   physically writing zeroes "at the cost of time efficiency"
//!   (paper, §III-A footnote). Both paths are modelled.
//! * **Page-cache interaction.** Writes land in the node page cache
//!   (memory speed until the dirty limit), and the flush thread's
//!   read-back is a cache hit for recently written data — this is what
//!   makes the cache-enabled runs burst far above raw SATA bandwidth.
//! * **Capacity.** The partition is small (30 GB); cache allocation
//!   fails with `NoSpace` when it fills, which ROMIO must handle by
//!   falling back to the non-cached path.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::rc::Rc;

use e10_simcore::alloc_gauge::FixedState;
use e10_simcore::SimDuration;
use e10_storesim::{DeviceModel, ExtentMap, PageCache, Payload, Source, Ssd};

/// Errors from local file-system operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The partition is full.
    NoSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// No such file.
    NotFound(String),
    /// File already exists (exclusive create).
    Exists(String),
    /// The backing device has permanently failed (a planned
    /// `DeviceFail` fault): every data command is refused.
    DeviceFailed {
        /// Hosting compute node.
        node: usize,
        /// Device class that died.
        class: e10_faultsim::DeviceClass,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NoSpace {
                requested,
                available,
            } => {
                write!(
                    f,
                    "no space: requested {requested} B, {available} B available"
                )
            }
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::Exists(p) => write!(f, "already exists: {p}"),
            FsError::DeviceFailed { node, class } => {
                write!(
                    f,
                    "device failed: {class:?} device on node {node} is offline"
                )
            }
        }
    }
}

impl std::error::Error for FsError {}

/// Mount-time parameters.
#[derive(Debug, Clone)]
pub struct LocalFsParams {
    /// Partition capacity in bytes.
    pub capacity: u64,
    /// Whether `fallocate(2)` is supported (ext4: yes). When false,
    /// preallocation physically writes zeroes.
    pub supports_fallocate: bool,
    /// Cost of a metadata operation (create/unlink/fallocate syscall).
    pub meta_op: SimDuration,
}

impl LocalFsParams {
    /// The DEEP-ER `/scratch` partition: 30 GB ext4 with fallocate.
    pub fn scratch_30g() -> Self {
        LocalFsParams {
            capacity: 30 * (1 << 30),
            supports_fallocate: true,
            meta_op: SimDuration::from_micros(30),
        }
    }
}

struct FileState {
    data: ExtentMap,
    /// Write-ordering log: `(file offset, position in the node's write
    /// stream)`, sorted by offset with one entry per offset, used to
    /// decide page-cache residency on read-back. A flat vector: cache
    /// writes mostly arrive in rising offset order, so an insert is an
    /// append into one reused buffer, where a tree allocates nodes.
    stream_log: Vec<(u64, u64)>,
    unlinked: bool,
    /// Raw append-only byte log (the substrate for small manifest /
    /// journal files, whose *contents* matter across a crash, unlike
    /// the generator-backed extent data).
    append_log: Vec<u8>,
}

impl FileState {
    fn size(&self) -> u64 {
        self.data.high_water().max(self.append_log.len() as u64)
    }

    /// Bytes charged against the partition (sparse files only pay for
    /// covered ranges, as on ext4; append-log bytes pay in full).
    fn used(&self) -> u64 {
        self.data.covered_bytes() + self.append_log.len() as u64
    }

    /// The stream position of `offset`: the floor entry's position plus
    /// the distance from it; 0 below the first entry.
    fn stream_pos(&self, offset: u64) -> u64 {
        match self.stream_log.partition_point(|&(o, _)| o <= offset) {
            0 => 0,
            i => {
                let (o, pos) = self.stream_log[i - 1];
                pos + (offset - o)
            }
        }
    }

    /// Log that `offset` starts at stream position `pos`, replacing an
    /// entry at the same offset.
    fn log_stream(&mut self, offset: u64, pos: u64) {
        let i = self.stream_log.partition_point(|&(o, _)| o < offset);
        match self.stream_log.get_mut(i) {
            Some(entry) if entry.0 == offset => entry.1 = pos,
            _ => self.stream_log.insert(i, (offset, pos)),
        }
    }

    /// Drop the stream-log entries whose offsets lie in `range`.
    fn unlog_stream(&mut self, range: Range<u64>) {
        let lo = self.stream_log.partition_point(|&(o, _)| o < range.start);
        let hi = self.stream_log.partition_point(|&(o, _)| o < range.end);
        self.stream_log.drain(lo..hi);
    }
}

/// A write that has been issued but whose completion the caller has not
/// yet observed — the bytes at risk when the node loses power.
enum InFlight {
    Write {
        state: Rc<RefCell<FileState>>,
        offset: u64,
        payload: Payload,
    },
    Append {
        state: Rc<RefCell<FileState>>,
        bytes: Vec<u8>,
    },
}

struct VolumeState {
    /// Keyed by the path every [`LocalFile`] on it shares.
    files: HashMap<Rc<str>, Rc<RefCell<FileState>>, FixedState>,
    used: u64,
    stream: u64,
    /// Outstanding writes, keyed by issue ticket (BTreeMap: power-loss
    /// tearing must visit them in deterministic issue order).
    in_flight: BTreeMap<u64, InFlight>,
    next_ticket: u64,
}

/// How much of a write or append in flight at a power cut survives:
/// none of it, its first tear unit (all of it, if shorter), or all of it
/// (the bytes landed, but their caller is never told).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tear {
    Nothing,
    Unit,
    All,
}

/// A write or append in flight at a power cut, as the tear rule of
/// [`LocalFs::power_loss`] sees it: its length, the device's tear unit
/// (a 64 B cache line on byte-addressable NVM, else a 4 KiB block) and
/// whether it is a journal record ([`LocalFile::append_bytes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pending {
    pub len: u64,
    pub unit: u64,
    pub append: bool,
}

/// Deregisters an in-flight write when its future completes — or when a
/// killed task's future is dropped.
struct InFlightGuard {
    vol: Rc<RefCell<VolumeState>>,
    ticket: u64,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.vol.borrow_mut().in_flight.remove(&self.ticket);
    }
}

/// One node's local file system.
#[derive(Clone)]
pub struct LocalFs {
    params: LocalFsParams,
    dev: DeviceModel,
    cache: PageCache,
    vol: Rc<RefCell<VolumeState>>,
    /// Volume-wide attachment slot (see [`LocalFs::attachment`]);
    /// `None` on a [`detached`](LocalFs::detached) handle.
    attachment: Option<Rc<Slot>>,
}

/// What a volume has attached, if anything.
type Slot = RefCell<Option<Rc<dyn Any>>>;

/// An open file on a [`LocalFs`].
#[derive(Clone)]
pub struct LocalFile {
    fs: LocalFs,
    path: Rc<str>,
    state: Rc<RefCell<FileState>>,
}

impl LocalFs {
    /// Mount a volume over the given SSD and page cache.
    pub fn new(params: LocalFsParams, ssd: Ssd, cache: PageCache) -> Self {
        Self::with_device(params, DeviceModel::Ssd(ssd), cache)
    }

    /// Mount a volume over any backing device (SSD or byte-addressable
    /// NVM) and page cache.
    pub fn with_device(params: LocalFsParams, dev: DeviceModel, cache: PageCache) -> Self {
        LocalFs {
            params,
            dev,
            cache,
            vol: Rc::new(RefCell::new(VolumeState {
                files: HashMap::default(),
                used: 0,
                stream: 0,
                in_flight: BTreeMap::new(),
                next_ticket: 0,
            })),
            attachment: Some(Rc::default()),
        }
    }

    /// The backing device of this volume.
    pub fn device(&self) -> &DeviceModel {
        &self.dev
    }

    /// Get-or-create the volume-wide attachment of type `T`, shared by
    /// every clone of this `LocalFs`. Higher layers use this to keep
    /// exactly one piece of per-volume state (e.g. a cache arbiter)
    /// without the volume knowing its type; the slot holds one value,
    /// and asking for a different type replaces it.
    ///
    /// The slot owns the attachment, and every plain clone of the
    /// handle owns the slot: a handle kept *inside* the attachment
    /// must be a [`detached`](LocalFs::detached) one, or the volume
    /// and everything on it outlives its last user.
    pub fn attachment<T: Any>(&self, make: impl FnOnce() -> T) -> Rc<T> {
        let slot = self.attachment.as_ref();
        let slot = slot.expect("a detached LocalFs handle has no attachment slot");
        if let Some(existing) = slot.borrow().as_ref() {
            if let Ok(t) = Rc::clone(existing).downcast::<T>() {
                return t;
            }
        }
        let made = Rc::new(make());
        *slot.borrow_mut() = Some(Rc::clone(&made) as Rc<dyn Any>);
        made
    }

    /// A handle on the same volume without a share of its attachment
    /// slot — the only kind the attachment itself may hold.
    pub fn detached(&self) -> LocalFs {
        LocalFs {
            attachment: None,
            ..self.clone()
        }
    }

    /// Create (or truncate-open) a file.
    pub async fn create(&self, path: &str) -> Result<LocalFile, FsError> {
        e10_simcore::sleep(self.params.meta_op).await;
        let state = Rc::new(RefCell::new(FileState {
            data: ExtentMap::new(),
            stream_log: Vec::new(),
            unlinked: false,
            append_log: Vec::new(),
        }));
        let path: Rc<str> = Rc::from(path);
        let mut vol = self.vol.borrow_mut();
        if let Some(old) = vol.files.insert(Rc::clone(&path), Rc::clone(&state)) {
            // Truncation releases the old allocation.
            let old_used = old.borrow().used();
            vol.used = vol.used.saturating_sub(old_used);
            self.cache.evict(old_used);
        }
        Ok(LocalFile {
            fs: self.clone(),
            path,
            state,
        })
    }

    /// Open an existing file.
    pub async fn open(&self, path: &str) -> Result<LocalFile, FsError> {
        e10_simcore::sleep(self.params.meta_op).await;
        let vol = self.vol.borrow();
        let (path, state) = vol
            .files
            .get_key_value(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        Ok(LocalFile {
            fs: self.clone(),
            path: Rc::clone(path),
            state: Rc::clone(state),
        })
    }

    /// Remove a file, releasing its space.
    pub async fn unlink(&self, path: &str) -> Result<(), FsError> {
        e10_simcore::sleep(self.params.meta_op).await;
        let mut vol = self.vol.borrow_mut();
        let state = vol
            .files
            .remove(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let used = state.borrow().used();
        state.borrow_mut().unlinked = true;
        vol.used = vol.used.saturating_sub(used);
        self.cache.evict(used);
        Ok(())
    }

    /// `(capacity, used)` in bytes.
    pub fn statfs(&self) -> (u64, u64) {
        (self.params.capacity, self.vol.borrow().used)
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.vol.borrow().files.contains_key(path)
    }

    /// The page cache backing this volume.
    pub fn page_cache(&self) -> &PageCache {
        &self.cache
    }

    /// Refuse the command if the backing device has permanently failed.
    /// Injected at the top of every *data* command (writes, reads,
    /// preallocation, journal appends); metadata ops (create/open/
    /// unlink/punch) stay available so the layer above can tear down a
    /// retired volume's bookkeeping.
    fn check_device(&self) -> Result<(), FsError> {
        if self.dev.failed() {
            return Err(FsError::DeviceFailed {
                node: self.dev.node(),
                class: self.dev.fault_class(),
            });
        }
        Ok(())
    }

    fn reserve(&self, bytes: u64) -> Result<(), FsError> {
        let mut vol = self.vol.borrow_mut();
        let available = self.params.capacity.saturating_sub(vol.used);
        if bytes > available {
            return Err(FsError::NoSpace {
                requested: bytes,
                available,
            });
        }
        vol.used += bytes;
        Ok(())
    }

    fn register_in_flight(&self, entry: InFlight) -> InFlightGuard {
        let mut vol = self.vol.borrow_mut();
        let ticket = vol.next_ticket;
        vol.next_ticket += 1;
        vol.in_flight.insert(ticket, entry);
        InFlightGuard {
            vol: Rc::clone(&self.vol),
            ticket,
        }
    }

    /// Cut power to the node *right now*.
    ///
    /// Durability model (the NVM premise of the paper, see DESIGN.md §8):
    /// a write whose call has completed is durable on the device; each
    /// write or append still in flight, in issue order, keeps what
    /// `tear` says of it: nothing, its first tear unit, or all of it.
    /// The page cache comes back cold (reads pay device time), and so
    /// does the volume's [attachment](LocalFs::attachment). Metadata
    /// survives (journalled ext4).
    ///
    /// Call this *before* killing the node's crash group: killing first
    /// would run the in-flight drop guards and silently discard the
    /// torn prefixes.
    pub fn power_loss(&self, mut tear: impl FnMut(Pending) -> Tear) {
        let unit = if self.dev.byte_granular() { 64 } else { 4096 };
        let mut keep = |len: u64, append| match tear(Pending { len, unit, append }) {
            Tear::Nothing => 0,
            Tear::Unit => unit.min(len),
            Tear::All => len,
        };
        let in_flight = std::mem::take(&mut self.vol.borrow_mut().in_flight);
        for entry in in_flight.into_values() {
            match entry {
                InFlight::Write {
                    state,
                    offset,
                    payload,
                } => {
                    let keep = keep(payload.len, false);
                    if keep > 0 {
                        let torn = payload.slice(0, keep);
                        state.borrow_mut().data.insert(offset, keep, torn.src);
                    }
                }
                InFlight::Append { state, bytes } => {
                    let keep = keep(bytes.len() as u64, true) as usize;
                    state
                        .borrow_mut()
                        .append_log
                        .extend_from_slice(&bytes[..keep]);
                }
            }
        }
        // Reconcile the partition accounting: reservations were made
        // for full in-flight lengths, but only torn prefixes landed.
        let mut vol = self.vol.borrow_mut();
        vol.used = vol.files.values().map(|f| f.borrow().used()).sum();
        self.cache.power_cycle();
        if let Some(slot) = &self.attachment {
            drop(slot.take());
        }
    }
}

impl LocalFile {
    /// File path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// This file through a [`LocalFs::detached`] volume handle.
    pub fn detached(&self) -> LocalFile {
        LocalFile {
            fs: self.fs.detached(),
            ..self.clone()
        }
    }

    /// Current size (max of written high-water and preallocation).
    pub fn size(&self) -> u64 {
        self.state.borrow().size()
    }

    /// Preallocate the byte range `[offset, offset + len)` (the shape
    /// of `fallocate(2)` used by `ADIOI_Cache_alloc`). Only the
    /// currently-uncovered holes of the range are charged. With
    /// `fallocate` support this is metadata-only; otherwise it
    /// physically writes zeroes (the paper's fallback, "at the cost of
    /// time efficiency").
    pub async fn fallocate(&self, offset: u64, len: u64) -> Result<(), FsError> {
        self.fs.check_device()?;
        let grow = self.reserve_holes(offset, len)?;
        e10_simcore::sleep(self.fs.params.meta_op).await;
        if grow == 0 {
            return Ok(());
        }
        if !self.fs.params.supports_fallocate {
            // Zero-fill fallback: real writes through the page cache.
            self.fs.cache.write(grow).await;
        }
        // Fill the holes one at a time (each fill is covered afterwards,
        // so the scan resumes past it) — no scratch list on this path.
        let end = offset + len;
        let mut pos = offset;
        while let Some(h) = {
            let st = self.state.borrow();
            st.data.next_hole(pos, end)
        } {
            self.write_extent_bookkeeping(h.start, h.end - h.start);
            self.state
                .borrow_mut()
                .data
                .insert(h.start, h.end - h.start, Source::Zero);
            pos = h.end;
        }
        Ok(())
    }

    fn write_extent_bookkeeping(&self, offset: u64, len: u64) {
        let mut vol = self.fs.vol.borrow_mut();
        let pos = vol.stream;
        vol.stream += len;
        self.state.borrow_mut().log_stream(offset, pos);
    }

    /// Reserve the bytes of `[offset, offset + len)` the file does not
    /// hold yet; returns how many that was.
    fn reserve_holes(&self, offset: u64, len: u64) -> Result<u64, FsError> {
        let grow = len - self.state.borrow().data.covered_bytes_in(offset, len);
        if grow > 0 {
            self.fs.reserve(grow)?;
        }
        Ok(grow)
    }

    /// What both extent writes do before their device charge: refuse on
    /// a dead device, reserve the bytes the write newly covers, and
    /// register it as in flight (torn by a power loss) until the
    /// returned guard drops. `None` for an empty write.
    fn begin_write(
        &self,
        offset: u64,
        payload: &Payload,
    ) -> Result<Option<InFlightGuard>, FsError> {
        self.fs.check_device()?;
        if payload.len == 0 {
            return Ok(None);
        }
        self.reserve_holes(offset, payload.len)?;
        Ok(Some(self.fs.register_in_flight(InFlight::Write {
            state: Rc::clone(&self.state),
            offset,
            payload: payload.clone(),
        })))
    }

    /// What both extent writes do once the device has acked: the payload
    /// lands in the extent map, then any injected silent corruption
    /// lands on it (the device acked, but the medium holds a flipped bit
    /// or a torn sector).
    fn land(&self, offset: u64, payload: Payload) {
        let len = payload.len;
        let mut st = self.state.borrow_mut();
        st.data.insert(offset, len, payload.src);
        for c in e10_faultsim::ssd_corruption(self.fs.dev.node(), len) {
            st.data.corrupt(offset, len, &c);
        }
    }

    /// Write `payload` at `offset`. Charges page-cache time and updates
    /// the extent map; grows the allocation (and fails with `NoSpace`)
    /// as needed.
    pub async fn write(&self, offset: u64, payload: Payload) -> Result<(), FsError> {
        let Some(_in_flight) = self.begin_write(offset, &payload)? else {
            return Ok(());
        };
        // A stalled device back-pressures the page cache it drains into.
        self.fs.dev.stall_point().await;
        self.fs.cache.write(payload.len).await;
        self.write_extent_bookkeeping(offset, payload.len);
        self.land(offset, payload);
        Ok(())
    }

    /// Byte-granular direct write: the payload goes straight to the
    /// backing device at its exact length — no page-cache staging, no
    /// prior `fallocate` required (allocation grows here, charged at
    /// byte granularity). This is the write shape of a byte-addressable
    /// NVM front-end; on a block SSD it would be `O_DIRECT` and slow,
    /// so callers gate it on [`e10_storesim::Device::byte_granular`].
    /// Durability and corruption semantics match [`write`](Self::write):
    /// completed calls survive power loss, in-flight calls are torn,
    /// injected device corruption lands in the extent map.
    pub async fn write_direct(&self, offset: u64, payload: Payload) -> Result<(), FsError> {
        let Some(_in_flight) = self.begin_write(offset, &payload)? else {
            return Ok(());
        };
        // The device's command path samples the stall hook itself.
        self.fs.dev.write(payload.len).await;
        self.land(offset, payload);
        Ok(())
    }

    /// Byte-granular direct read of `[offset, offset+len)`: always
    /// charges the backing device (direct writes never populate the
    /// page cache, so classifying them through the write-stream
    /// residency model would be wrong). Appends the covered pieces to
    /// `out` like [`read_into`](Self::read_into), so the cache's sync
    /// thread reads its front without allocating.
    pub async fn read_direct_into(
        &self,
        offset: u64,
        len: u64,
        out: &mut Vec<(Range<u64>, Option<Source>)>,
    ) -> Result<(), FsError> {
        self.fs.check_device()?;
        if len == 0 {
            return Ok(());
        }
        self.fs.dev.read(len).await;
        self.state.borrow().data.lookup_into(offset, len, out);
        Ok(())
    }

    /// Append raw bytes to the file's byte log (journal substrate).
    /// Charges the same page-cache/partition costs as [`write`](Self::write);
    /// the log offset of the appended record is returned. Unlike extent
    /// writes, these bytes keep their literal contents across a
    /// [`LocalFs::power_loss`] (modulo tearing of the in-flight tail).
    pub async fn append_bytes(&self, bytes: &[u8]) -> Result<u64, FsError> {
        self.fs.check_device()?;
        let len = bytes.len() as u64;
        if len == 0 {
            return Ok(self.state.borrow().append_log.len() as u64);
        }
        self.fs.reserve(len)?;
        let _in_flight = self.fs.register_in_flight(InFlight::Append {
            state: Rc::clone(&self.state),
            bytes: bytes.to_vec(),
        });
        let at = self.state.borrow().append_log.len() as u64;
        self.write_extent_bookkeeping(at, len);
        self.fs.dev.stall_point().await;
        self.fs.cache.write(len).await;
        self.state.borrow_mut().append_log.extend_from_slice(bytes);
        Ok(at)
    }

    /// Read the whole byte log, charging page-cache or device time.
    pub async fn read_log(&self) -> Vec<u8> {
        let len = self.state.borrow().append_log.len() as u64;
        if len > 0 {
            let stream_pos = self.state.borrow().stream_pos(0);
            let hit = self.fs.cache.read_at(stream_pos, len).await;
            if !hit {
                self.fs.dev.read(len).await;
            }
        }
        self.state.borrow().append_log.clone()
    }

    /// Current length of the byte log.
    pub fn log_len(&self) -> u64 {
        self.state.borrow().append_log.len() as u64
    }

    /// Read `[offset, offset+len)`: charges page-cache or device time
    /// and returns the covered pieces (holes as `None`).
    pub async fn read(
        &self,
        offset: u64,
        len: u64,
    ) -> Result<Vec<(Range<u64>, Option<Source>)>, FsError> {
        let mut out = Vec::new();
        self.read_into(offset, len, &mut out).await?;
        Ok(out)
    }

    /// [`read`](Self::read) appending into a caller-provided buffer, so
    /// steady-state readers (the cache sync path) can reuse one
    /// allocation across calls.
    pub async fn read_into(
        &self,
        offset: u64,
        len: u64,
        out: &mut Vec<(Range<u64>, Option<Source>)>,
    ) -> Result<(), FsError> {
        self.fs.check_device()?;
        if len == 0 {
            return Ok(());
        }
        let stream_pos = self.state.borrow().stream_pos(offset);
        let hit = self.fs.cache.read_at(stream_pos, len).await;
        if !hit {
            self.fs.dev.read(len).await;
        }
        self.state.borrow().data.lookup_into(offset, len, out);
        Ok(())
    }

    /// fsync: wait for writeback of all dirty node data.
    pub async fn sync(&self) {
        // Writeback drains through the device; a planned stall delays it.
        self.fs.dev.stall_point().await;
        self.fs.cache.flush().await;
    }

    /// Punch a hole (`fallocate(FALLOC_FL_PUNCH_HOLE)`): drop
    /// `[offset, offset+len)` from the file, releasing its blocks back
    /// to the partition. Metadata-only cost.
    pub async fn punch(&self, offset: u64, len: u64) {
        e10_simcore::sleep(self.fs.params.meta_op).await;
        let freed = {
            let st = self.state.borrow();
            st.data.covered_bytes_in(offset, len)
        };
        if freed == 0 {
            return;
        }
        {
            let mut st = self.state.borrow_mut();
            st.data.remove(offset, len);
            // Drop stream-position records for the punched range so the
            // log stays bounded under streaming eviction (punch → write
            // → punch forever must not grow any index).
            st.unlog_stream(offset..offset + len);
        }
        let mut vol = self.fs.vol.borrow_mut();
        vol.used = vol.used.saturating_sub(freed);
        self.fs.cache.evict(freed);
    }

    /// Direct access to the extent map (verification in tests).
    pub fn extents(&self) -> ExtentMap {
        self.state.borrow().data.clone()
    }

    /// How many bytes of `[offset, offset+len)` the file holds — what
    /// `extents().covered_bytes_in(..)` says, without copying the map.
    pub fn covered_bytes_in(&self, offset: u64, len: u64) -> u64 {
        self.state.borrow().data.covered_bytes_in(offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e10_simcore::{now, run, SimRng};
    use e10_storesim::{PageCacheParams, SsdParams};

    fn fast_node() -> (Ssd, PageCache) {
        let ssd = Ssd::new(
            SsdParams {
                read_bw: 1000.0,
                write_bw: 500.0,
                read_latency: SimDuration::ZERO,
                write_latency: SimDuration::ZERO,
                jitter_cv: 0.0,
            },
            SimRng::new(1),
        );
        let pc = PageCache::new(PageCacheParams {
            mem_bw: 10_000.0,
            dirty_limit: 2000,
            capacity: 4000,
            drain_bw: 500.0,
        });
        (ssd, pc)
    }

    fn small_fs() -> LocalFs {
        let (ssd, pc) = fast_node();
        LocalFs::new(
            LocalFsParams {
                capacity: 10_000,
                supports_fallocate: true,
                meta_op: SimDuration::ZERO,
            },
            ssd,
            pc,
        )
    }

    #[test]
    fn create_write_read_roundtrip() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/scratch/cache.0").await.unwrap();
            f.write(100, Payload::gen(7, 100, 50)).await.unwrap();
            let pieces = f.read(90, 70).await.unwrap();
            assert_eq!(pieces.len(), 3);
            assert!(pieces[0].1.is_none());
            assert!(pieces[1].1.is_some());
            assert!(pieces[2].1.is_none());
            assert!(f.extents().verify_gen(7, 100, 50).is_ok());
            assert_eq!(f.size(), 150);
        });
    }

    #[test]
    fn capacity_enforced() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::zero(9000)).await.unwrap();
            let err = f.write(9000, Payload::zero(2000)).await.unwrap_err();
            assert!(matches!(err, FsError::NoSpace { .. }));
            let (cap, used) = fs.statfs();
            assert_eq!(cap, 10_000);
            assert_eq!(used, 9000);
        });
    }

    #[test]
    fn unlink_releases_space() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::zero(5000)).await.unwrap();
            fs.unlink("/a").await.unwrap();
            assert_eq!(fs.statfs().1, 0);
            assert!(!fs.exists("/a"));
            let err = match fs.open("/a").await {
                Err(e) => e,
                Ok(_) => panic!("open of unlinked file must fail"),
            };
            assert!(matches!(err, FsError::NotFound(_)));
        });
    }

    #[test]
    fn fallocate_is_cheap_with_support() {
        let t = run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.fallocate(0, 8000).await.unwrap();
            assert_eq!(f.size(), 8000);
            assert_eq!(fs.statfs().1, 8000);
            now().as_secs_f64()
        });
        assert!(t < 0.001, "fallocate must be metadata-only, took {t}s");
    }

    #[test]
    fn fallocate_zero_fill_fallback_costs_io_time() {
        let t = run(async {
            let (ssd, pc) = fast_node();
            let fs = LocalFs::new(
                LocalFsParams {
                    capacity: 10_000,
                    supports_fallocate: false,
                    meta_op: SimDuration::ZERO,
                },
                ssd,
                pc,
            );
            let f = fs.create("/a").await.unwrap();
            f.fallocate(0, 4000).await.unwrap();
            // Zero content must actually be readable.
            assert!(f.extents().covered(0, 4000));
            now().as_secs_f64()
        });
        assert!(t > 0.5, "zero-fill must cost real time, took {t}s");
    }

    #[test]
    fn fallocate_nospace() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            let err = f.fallocate(0, 20_000).await.unwrap_err();
            assert!(matches!(err, FsError::NoSpace { .. }));
        });
    }

    #[test]
    fn recreate_truncates_and_releases() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::zero(6000)).await.unwrap();
            let f2 = fs.create("/a").await.unwrap();
            assert_eq!(fs.statfs().1, 0);
            assert_eq!(f2.size(), 0);
        });
    }

    #[test]
    fn read_back_of_recent_write_is_fast_cache_hit() {
        let (t_hit, t_cold) = run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::zero(1000)).await.unwrap();
            let t0 = now();
            f.read(0, 1000).await.unwrap();
            let t_hit = now().since(t0).as_secs_f64();

            // Push enough data through to evict the early bytes
            // (page-cache capacity is 4000).
            f.write(1000, Payload::zero(8000)).await.unwrap();
            let t1 = now();
            f.read(0, 1000).await.unwrap();
            (t_hit, now().since(t1).as_secs_f64())
        });
        assert!(t_hit < t_cold, "hit={t_hit} cold={t_cold}");
    }

    #[test]
    fn sync_waits_for_writeback() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::zero(1500)).await.unwrap();
            f.sync().await;
            assert_eq!(fs.page_cache().dirty(), 0);
        });
    }

    #[test]
    fn append_log_roundtrips_and_charges_capacity() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/scratch/x.jnl").await.unwrap();
            assert_eq!(f.append_bytes(b"rec-one.").await.unwrap(), 0);
            assert_eq!(f.append_bytes(b"rec-two.").await.unwrap(), 8);
            assert_eq!(f.log_len(), 16);
            assert_eq!(f.read_log().await, b"rec-one.rec-two.");
            assert_eq!(fs.statfs().1, 16);
            fs.unlink("/scratch/x.jnl").await.unwrap();
            assert_eq!(fs.statfs().1, 0, "unlink must release log bytes");
        });
    }

    #[test]
    fn completed_writes_survive_power_loss_and_cache_goes_cold() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::gen(3, 0, 1000)).await.unwrap();
            f.append_bytes(b"0123456789abcdef").await.unwrap();
            let t0 = now();
            f.read(0, 1000).await.unwrap();
            let warm = now().since(t0).as_secs_f64();

            fs.power_loss(|p| panic!("nothing is in flight: {p:?}"));
            assert!(
                f.extents().verify_gen(3, 0, 1000).is_ok(),
                "acked data is durable"
            );
            assert_eq!(f.read_log().await, b"0123456789abcdef");
            assert_eq!(fs.statfs().1, 1016, "accounting must be intact");

            let t1 = now();
            f.read(0, 1000).await.unwrap();
            let cold = now().since(t1).as_secs_f64();
            assert!(cold > warm, "post-restart read must be a device read");
        });
    }

    #[test]
    fn an_in_flight_write_keeps_one_block_on_an_ssd_volume() {
        run(async {
            let fs = small_fs();
            let f = fs.create("/a").await.unwrap();
            let f2 = f.clone();
            // 5000 B at 10 000 B/s memory speed: 0.5 s in flight.
            let write = async move {
                f2.write(0, Payload::gen(9, 0, 5000)).await.unwrap();
                unreachable!("the node dies before the write completes");
            };
            let met = cut_during(&fs, write, SimDuration::from_millis(250), Tear::Unit).await;
            let pending = Pending {
                len: 5000,
                unit: 4096,
                append: false,
            };
            assert_eq!(met, [pending]);
            assert_eq!(f.extents().covered_bytes(), 4096);
            assert!(
                f.extents().verify_gen(9, 0, 4096).is_ok(),
                "the block is real data"
            );
            assert_eq!(
                fs.statfs().1,
                4096,
                "reservation must shrink to the kept block"
            );
            // A second power loss with nothing in flight changes nothing.
            fs.power_loss(|p| panic!("nothing is in flight: {p:?}"));
            assert_eq!(f.extents().covered_bytes(), 4096);
        });
    }

    #[test]
    fn an_in_flight_append_lands_whole_or_not_at_all() {
        for tear in [Tear::All, Tear::Nothing] {
            let (met, log, used) = run(async move {
                let fs = small_fs();
                let f = fs.create("/a.jnl").await.unwrap();
                let f2 = f.clone();
                // One 32 B journal record at 10 000 B/s: 3.2 ms in flight.
                let append = async move {
                    f2.append_bytes(&[7; 32]).await.unwrap();
                    unreachable!("the node dies before the append completes");
                };
                let met = cut_during(&fs, append, SimDuration::from_millis(1), tear).await;
                (met, f.read_log().await, fs.statfs().1)
            });
            let pending = Pending {
                len: 32,
                unit: 4096,
                append: true,
            };
            assert_eq!(met, [pending]);
            let kept = if tear == Tear::All { 32 } else { 0 };
            assert_eq!(log, vec![7; kept], "{tear:?}");
            assert_eq!(used, kept as u64, "{tear:?}");
        }
    }

    /// Run `op` in a crash group, cut `fs`'s power `after` into it with
    /// every in-flight write torn by `tear`, then kill the group;
    /// returns what the tear rule was shown.
    async fn cut_during(
        fs: &LocalFs,
        op: impl std::future::Future<Output = ()> + 'static,
        after: SimDuration,
        tear: Tear,
    ) -> Vec<Pending> {
        let gid = e10_simcore::new_group();
        e10_simcore::spawn_in_group(gid, op);
        e10_simcore::sleep(after).await;
        let mut met = Vec::new();
        fs.power_loss(|p| {
            met.push(p);
            tear
        });
        e10_simcore::kill_group(gid);
        met
    }

    #[test]
    fn dead_device_refuses_data_commands_with_a_typed_error() {
        run(async {
            let fs = small_fs();
            fs.device().set_node(3);
            let f = fs.create("/a").await.unwrap();
            f.write(0, Payload::gen(1, 0, 100)).await.unwrap();
            let _g =
                e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(1).device_fail(
                    3,
                    e10_faultsim::DeviceClass::Ssd,
                    e10_simcore::SimTime::ZERO,
                ));
            let err = f.write(100, Payload::zero(100)).await.unwrap_err();
            assert!(matches!(
                err,
                FsError::DeviceFailed {
                    node: 3,
                    class: e10_faultsim::DeviceClass::Ssd
                }
            ));
            assert!(err.to_string().contains("node 3"));
            // Every data command is refused...
            assert!(f.read(0, 100).await.is_err());
            assert!(f.fallocate(0, 200).await.is_err());
            assert!(f.append_bytes(b"x").await.is_err());
            assert!(f.read_direct_into(0, 100, &mut Vec::new()).await.is_err());
            // ...while metadata stays available for teardown, and data
            // written before the failure is still accounted.
            assert!(fs.exists("/a"));
            assert_eq!(fs.statfs().1, 100);
            fs.unlink("/a").await.unwrap();
        });
    }

    #[test]
    fn nvm_device_fail_spares_the_ssd_class() {
        run(async {
            let fs = small_fs(); // SSD-backed
            let f = fs.create("/a").await.unwrap();
            let _g =
                e10_faultsim::FaultSchedule::install(e10_faultsim::FaultPlan::new(1).device_fail(
                    0,
                    e10_faultsim::DeviceClass::Nvm,
                    e10_simcore::SimTime::ZERO,
                ));
            // The SSD partition on the same node is unaffected.
            f.write(0, Payload::gen(1, 0, 100)).await.unwrap();
            let nfs = small_nvm_fs();
            let nf = nfs.create("/nvm/a").await.unwrap();
            let err = nf.write_direct(0, Payload::zero(10)).await.unwrap_err();
            assert!(matches!(err, FsError::DeviceFailed { .. }));
        });
    }

    fn small_nvm_fs() -> LocalFs {
        let dev = e10_storesim::Nvm::new(
            e10_storesim::NvmParams {
                read_bw: 1000.0,
                write_bw: 500.0,
                read_latency: SimDuration::ZERO,
                write_latency: SimDuration::ZERO,
                channels: 2,
                jitter_cv: 0.0,
            },
            SimRng::new(2),
        );
        let (_, pc) = fast_node();
        LocalFs::with_device(
            LocalFsParams {
                capacity: 10_000,
                supports_fallocate: true,
                meta_op: SimDuration::ZERO,
            },
            DeviceModel::Nvm(dev),
            pc,
        )
    }

    #[test]
    fn direct_write_charges_the_device_not_the_page_cache() {
        run(async {
            let fs = small_nvm_fs();
            assert!(fs.device().byte_granular());
            let f = fs.create("/nvm/cache.0").await.unwrap();
            f.write_direct(100, Payload::gen(7, 100, 50)).await.unwrap();
            assert_eq!(fs.page_cache().dirty(), 0, "direct writes skip the cache");
            assert_eq!(fs.statfs().1, 50, "allocation is byte-granular");
            assert!(f.extents().verify_gen(7, 100, 50).is_ok());
            let mut pieces = Vec::new();
            f.read_direct_into(100, 50, &mut pieces).await.unwrap();
            assert_eq!(pieces.len(), 1);
            assert!(pieces[0].1.is_some());
        });
    }

    #[test]
    fn a_stalled_direct_write_pays_one_stall() {
        let elapsed = |stall: bool| {
            run(async move {
                let mut plan = e10_faultsim::FaultPlan::new(5);
                if stall {
                    let three = SimDuration::from_secs(3);
                    plan = plan.ssd_stall(0, e10_faultsim::always(), 1.0, three);
                }
                let _g = e10_faultsim::FaultSchedule::install(plan);
                let f = small_nvm_fs().create("/nvm/a").await.unwrap();
                let t0 = now();
                f.write_direct(0, Payload::zero(4096)).await.unwrap();
                now().since(t0).as_secs_f64()
            })
        };
        let extra = elapsed(true) - elapsed(false);
        assert!((extra - 3.0).abs() < 1e-9, "extra={extra}");
    }

    #[test]
    fn direct_write_enforces_capacity() {
        run(async {
            let fs = small_nvm_fs();
            let f = fs.create("/nvm/cache.0").await.unwrap();
            f.write_direct(0, Payload::zero(9000)).await.unwrap();
            let err = f.write_direct(9000, Payload::zero(2000)).await.unwrap_err();
            assert!(matches!(err, FsError::NoSpace { .. }));
        });
    }

    #[test]
    fn completed_direct_writes_survive_power_loss() {
        run(async {
            let fs = small_nvm_fs();
            let f = fs.create("/nvm/cache.0").await.unwrap();
            f.write_direct(0, Payload::gen(3, 0, 1000)).await.unwrap();
            fs.power_loss(|p| panic!("nothing is in flight: {p:?}"));
            assert!(f.extents().verify_gen(3, 0, 1000).is_ok());
            assert_eq!(fs.statfs().1, 1000);
        });
    }

    #[test]
    fn an_in_flight_direct_write_keeps_one_cache_line_on_an_nvm_volume() {
        run(async {
            let fs = small_nvm_fs();
            let f = fs.create("/a").await.unwrap();
            let f2 = f.clone();
            // 5000 B at 500 B/s aggregate (250 B/s per channel, single
            // stream): 20 s in flight.
            let write = async move {
                f2.write_direct(0, Payload::gen(9, 0, 5000)).await.unwrap();
                unreachable!("the node dies before the write completes");
            };
            let met = cut_during(&fs, write, SimDuration::from_millis(250), Tear::Unit).await;
            let pending = Pending {
                len: 5000,
                unit: 64,
                append: false,
            };
            assert_eq!(met, [pending]);
            assert_eq!(f.extents().covered_bytes(), 64);
            assert!(f.extents().verify_gen(9, 0, 64).is_ok());
            assert_eq!(fs.statfs().1, 64);
        });
    }

    /// `FileState::stream_log` against the `BTreeMap` it replaced.
    mod stream_log {
        use super::*;
        use proptest::prelude::*;

        /// What the stream-log property does to its file.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum Op {
            Write(u64, u64),
            Fallocate(u64, u64),
            Append(u64),
            Punch(u64, u64),
        }

        /// Offsets the property's extent operations start below.
        const SPAN: u64 = 1024;

        fn op() -> impl Strategy<Value = Op> {
            (0u8..4, 0..SPAN, 0u64..160).prop_map(|(kind, offset, len)| match kind {
                0 => Op::Write(offset, len),
                1 => Op::Fallocate(offset, len),
                2 => Op::Append(len),
                _ => Op::Punch(offset, len),
            })
        }

        /// The stream log as a `BTreeMap` from offset to stream position,
        /// beside a byte map of what the file covers, so that it finds
        /// `fallocate`'s holes and `punch`'s no-ops on its own.
        struct StreamModel {
            log: BTreeMap<u64, u64>,
            covered: Vec<bool>,
            stream: u64,
            append_len: u64,
        }

        impl StreamModel {
            fn new() -> Self {
                StreamModel {
                    log: BTreeMap::new(),
                    covered: vec![false; 2 * SPAN as usize],
                    stream: 0,
                    append_len: 0,
                }
            }

            fn log(&mut self, offset: u64, len: u64) {
                self.log.insert(offset, self.stream);
                self.stream += len;
            }

            fn cover(&mut self, range: Range<u64>, on: bool) {
                self.covered[range.start as usize..range.end as usize].fill(on);
            }

            fn apply(&mut self, op: Op) {
                match op {
                    Op::Write(o, len) if len > 0 => {
                        self.log(o, len);
                        self.cover(o..o + len, true);
                    }
                    Op::Fallocate(o, len) => {
                        let mut at = o;
                        while at < o + len {
                            let start = at;
                            while at < o + len && !self.covered[at as usize] {
                                at += 1;
                            }
                            if at > start {
                                self.log(start, at - start);
                                self.cover(start..at, true);
                            } else {
                                at += 1;
                            }
                        }
                    }
                    Op::Append(len) if len > 0 => {
                        self.log(self.append_len, len);
                        self.append_len += len;
                    }
                    Op::Punch(o, len) => {
                        let range = o as usize..(o + len) as usize;
                        if self.covered[range.clone()].contains(&true) {
                            self.covered[range].fill(false);
                            self.log.retain(|&k, _| !(o..o + len).contains(&k));
                        }
                    }
                    Op::Write(..) | Op::Append(_) => {}
                }
            }

            fn pos(&self, offset: u64) -> u64 {
                match self.log.range(..=offset).next_back() {
                    Some((&o, &pos)) => pos + (offset - o),
                    None => 0,
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// The flat stream log answers `stream_pos` as the `BTreeMap`
            /// it replaced did, at every offset, after every write,
            /// fallocate, append and punch — drawn in any order, with their
            /// extent offsets also sorted descending (every log entry then
            /// lands before the others) and ascending.
            #[test]
            fn the_stream_log_answers_as_a_btreemap_does(
                ops in prop::collection::vec(op(), 1..48),
                order in 0u8..3,
            ) {
                let mut ops = ops;
                let at = |op: &Op| match *op {
                    Op::Write(o, _) | Op::Fallocate(o, _) | Op::Punch(o, _) => o,
                    Op::Append(_) => 0,
                };
                match order {
                    1 => ops.sort_by_key(|op| std::cmp::Reverse(at(op))),
                    2 => ops.sort_by_key(at),
                    _ => {}
                }
                let mismatch = run(async move {
                    let (ssd, pc) = fast_node();
                    let params = LocalFsParams {
                        capacity: u64::MAX,
                        supports_fallocate: true,
                        meta_op: SimDuration::ZERO,
                    };
                    let f = LocalFs::new(params, ssd, pc).create("/log").await.unwrap();
                    let mut model = StreamModel::new();
                    for (i, &op) in ops.iter().enumerate() {
                        match op {
                            Op::Write(o, len) => f.write(o, Payload::gen(1, o, len)).await.unwrap(),
                            Op::Fallocate(o, len) => f.fallocate(o, len).await.unwrap(),
                            Op::Append(len) => drop(f.append_bytes(&vec![7; len as usize]).await),
                            Op::Punch(o, len) => f.punch(o, len).await,
                        }
                        model.apply(op);
                        let st = f.state.borrow();
                        let bad = (0..2 * SPAN).find(|&o| st.stream_pos(o) != model.pos(o));
                        if let Some(o) = bad {
                            return Some((i, op, o, st.stream_pos(o), model.pos(o)));
                        }
                    }
                    None
                });
                prop_assert_eq!(mismatch, None, "(op index, op, offset, flat, model)");
            }
        }
    }
}
