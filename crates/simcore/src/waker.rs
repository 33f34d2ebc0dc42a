//! The task waker: a [`RawWaker`] that is one word and nothing else.
//!
//! The data word is the task's id XORed with its kernel's salt
//! (`executor::Kernel::salt`). Nothing is allocated, shared or
//! reference-counted: cloning copies the word, dropping does nothing,
//! and a wake hands the word to [`executor::wake_task`], which looks
//! the task up in the waking thread's own kernel. `Waker` is `Send +
//! Sync` by type, and this one is too in the only sense that matters —
//! moving or sharing an integer is sound — but a wake that lands
//! anywhere other than the run that minted it finds no matching
//! `(slot, generation)` and does nothing (DESIGN §14). This module
//! holds every `unsafe` of the executor.

use std::ptr;
use std::task::{RawWaker, RawWakerVTable, Waker};

use crate::executor;

// The data word is a pointer-sized integer, never dereferenced.
const _: () = assert!(size_of::<usize>() == size_of::<u64>());

/// A `static`, so its address identifies this module's wakers
/// ([`word_of`]).
static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, wake, wake, release);

fn raw(data: *const ()) -> RawWaker {
    RawWaker::new(data, &VTABLE)
}

unsafe fn clone(data: *const ()) -> RawWaker {
    raw(data)
}

unsafe fn wake(data: *const ()) {
    executor::wake_task(data.addr() as u64);
}

unsafe fn release(_: *const ()) {}

/// The waker whose data word is `word`.
pub(crate) fn from_word(word: u64) -> Waker {
    // SAFETY: the vtable functions never dereference the data word and
    // own no resource behind it, so the `RawWaker` contract (clone and
    // drop manage a resource, wake is thread-safe) holds vacuously:
    // `wake` only reads the calling thread's own thread-local kernel.
    unsafe { Waker::from_raw(raw(ptr::without_provenance(word as usize))) }
}

/// `waker`'s data word, if it is one of this module's.
pub(crate) fn word_of(waker: &Waker) -> Option<u64> {
    ptr::eq(waker.vtable(), &VTABLE).then(|| waker.data().addr() as u64)
}
