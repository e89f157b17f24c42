//! Recycled buffers for the steady-state I/O paths.
//!
//! Every batched disk operation needs a request vector, a result vector and
//! per-sector buffers. Allocating them per call dominated the wall-clock
//! profile (see `docs/PERFORMANCE.md`), so the hot paths draw them from
//! small thread-local free lists instead: a vector is taken with
//! [`batch_vec`]/[`results_vec`], used, and handed back with
//! the matching `recycle_*` call once its contents have been consumed. In
//! the steady state every list has a warm vector with grown capacity, so a
//! read or write costs zero heap allocations.
//!
//! Pooling is a *host-side* optimization: it never touches the simulated
//! clock, the trace contents, or §3.3 semantics — recycled vectors are
//! always cleared before reuse. [`FreeList`] is the one mechanism; the fs,
//! streams and net pools keep their own lists of it.

use std::cell::RefCell;

use crate::errors::DiskError;
use crate::geometry::DiskAddress;
use crate::sched::BatchRequest;

/// A bounded free list of empty vectors, meant to live in a
/// `thread_local!`: [`FreeList::take`] pops a warm vector (or starts a
/// fresh one) and [`FreeList::recycle`] clears one and keeps it unless the
/// list already holds `cap`, in which case it is simply dropped.
#[derive(Debug)]
pub struct FreeList<T> {
    vecs: RefCell<Vec<Vec<T>>>,
    cap: usize,
}

impl<T> FreeList<T> {
    /// An empty list that retains at most `cap` vectors.
    pub const fn new(cap: usize) -> Self {
        FreeList {
            vecs: RefCell::new(Vec::new()),
            cap,
        }
    }

    /// An empty vector, recycled when one is available.
    pub fn take(&self) -> Vec<T> {
        self.vecs.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a vector to the list (contents are dropped).
    pub fn recycle(&self, mut v: Vec<T>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut vecs = self.vecs.borrow_mut();
        if vecs.len() < self.cap {
            vecs.push(v);
        }
    }
}

/// How many vectors each free list retains per thread. Four covers the
/// deepest current nesting (a drive-array batch inside an fs batch, with a
/// write-behind flush in flight); anything beyond the cap is simply dropped.
const PER_LIST: usize = 4;

thread_local! {
    static BATCHES: FreeList<BatchRequest> = const { FreeList::new(PER_LIST) };
    static RESULTS: FreeList<Result<(), DiskError>> = const { FreeList::new(PER_LIST) };
    static DAS: FreeList<DiskAddress> = const { FreeList::new(PER_LIST) };
}

/// An empty request vector, recycled when possible.
pub fn batch_vec() -> Vec<BatchRequest> {
    BATCHES.with(FreeList::take)
}

/// Returns a request vector to the free list (contents are dropped).
pub fn recycle_batch(v: Vec<BatchRequest>) {
    BATCHES.with(|l| l.recycle(v));
}

/// An empty per-request result vector, recycled when possible.
pub fn results_vec() -> Vec<Result<(), DiskError>> {
    RESULTS.with(FreeList::take)
}

/// Returns a result vector to the free list.
pub fn recycle_results(v: Vec<Result<(), DiskError>>) {
    RESULTS.with(|l| l.recycle(v));
}

/// An empty disk-address vector, recycled when possible — the zero-copy
/// batch paths take their address lists from here.
pub fn da_vec() -> Vec<DiskAddress> {
    DAS.with(FreeList::take)
}

/// Returns a disk-address vector to the free list.
pub fn recycle_das(v: Vec<DiskAddress>) {
    DAS.with(|l| l.recycle(v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sector::{SectorBuf, SectorOp};

    #[test]
    fn round_trip_reuses_capacity() {
        let mut v = batch_vec();
        for i in 0..8u16 {
            v.push(BatchRequest::new(
                DiskAddress(i),
                SectorOp::READ_ALL,
                SectorBuf::zeroed(),
            ));
        }
        let cap = v.capacity();
        recycle_batch(v);
        let v2 = batch_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap.min(8));
    }

    #[test]
    fn free_list_is_bounded() {
        let list = FreeList::new(PER_LIST);
        for _ in 0..2 * PER_LIST {
            list.recycle(Vec::<u16>::with_capacity(4));
        }
        assert_eq!(list.vecs.borrow().len(), PER_LIST);
        // Vectors that never allocated are not worth keeping.
        list.take();
        list.recycle(Vec::new());
        assert_eq!(list.vecs.borrow().len(), PER_LIST - 1);
    }
}
