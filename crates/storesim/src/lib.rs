//! # e10-storesim
//!
//! Storage device models and the synthetic-data machinery for the E10
//! reproduction:
//!
//! * [`pattern`] / [`extent`] — size-only payloads with verifiable
//!   content descriptors and the extent maps that represent file
//!   contents at any scale.
//! * [`disk`] — rotational drives with seek state and log-normal jitter
//!   (the BeeGFS data-target media and the source of the response-time
//!   variance that drives collective I/O's global-sync cost).
//! * [`raid`] — chunked RAID with parity and partial-stripe RMW.
//! * [`device`] — the node-local device: one low-variance service
//!   model of N round-robin fair-share channels. The SATA SSD is its
//!   one-channel case; byte-addressable persistent memory adds
//!   asymmetric read/write latency, byte-granular commands and four
//!   channels. Both share the faultsim stall hook.
//! * [`pagecache`] — dirty-limit write absorption and writeback, which
//!   gives the cache-enabled runs their memory-speed burst behaviour.

pub mod bytes;
pub mod device;
pub mod disk;
pub mod extent;
pub mod pagecache;
pub mod pattern;
pub mod raid;

pub use bytes::Bytes;
pub use device::{Device, DeviceModel, Nvm, NvmParams, Ssd, SsdParams};
pub use disk::{Disk, DiskParams};
pub use extent::{pieces_digest, ExtentMap, VerifyError};
pub use pagecache::{PageCache, PageCacheParams};
pub use pattern::{gen_byte, Payload, Source};
pub use raid::{Raid, RaidParams};
