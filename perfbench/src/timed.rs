//! Forwarding wrappers that time the `Disk` and `PageStore` trait
//! boundaries for the traced run (the pattern of
//! `alto_disk::ablation::UnscheduledDisk`, minus the behaviour change).
//!
//! [`TimedDisk`] forwards every `Disk` method to the wrapped disk —
//! the defaulted ones too, so the wrapper never substitutes a trait default
//! for the inner disk's override. Calls that move sectors (`do_op`,
//! `do_batch`, `do_batch_read`, `do_batch_write`) get a span; the
//! `note_write_behind` and `note_retry` counts the per-layer metrics report
//! are tallied on the way through; everything else is forwarded bare.
//! [`TimedStore`] does the same for `PageStore`.

use alto_disk::{
    BatchRequest, Disk, DiskAddress, DiskDrive, DiskError, DiskGeometry, DriveArray, DriveStats,
    SectorBuf, SectorOp, SectorView, UnparkOutcome, WriteSource,
};
use alto_net::{OpenInfo, PageRequest, PageStore};
use alto_sim::{SimClock, SimTime, Trace};

use crate::span::{span, Layer};

/// Tallies of the statistical `note_*` calls that crossed the wrapper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Notes {
    /// Dirty pages write-behind buffers drained (`note_write_behind`).
    pub write_behind_pages: u64,
    /// Re-issues the retry layer reported (`note_retry`).
    pub retries: u64,
}

/// A `Disk` that times and forwards every call to `inner`.
#[derive(Debug)]
pub struct TimedDisk<D: Disk> {
    inner: D,
    pub notes: Notes,
}

impl<D: Disk> TimedDisk<D> {
    pub fn new(inner: D) -> TimedDisk<D> {
        TimedDisk {
            inner,
            notes: Notes::default(),
        }
    }
}

impl<D: Disk> Disk for TimedDisk<D> {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        self.inner.geometry()
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        self.inner.pack_number()
    }

    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        span(Layer::Disk, "disk.do_op", || self.inner.do_op(da, op, buf))
    }

    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        span(Layer::Disk, "disk.do_batch", || self.inner.do_batch(batch))
    }

    fn do_batch_read<F>(&mut self, das: &[DiskAddress], visit: F) -> Vec<Result<(), DiskError>>
    where
        Self: Sized,
        F: FnMut(usize, SectorView<'_>),
    {
        span(Layer::Disk, "disk.do_batch_read", || {
            self.inner.do_batch_read(das, visit)
        })
    }

    fn do_batch_write<'a, S, V>(
        &mut self,
        das: &[DiskAddress],
        source: S,
        visit: V,
    ) -> Vec<Result<(), DiskError>>
    where
        Self: Sized,
        S: FnMut(usize) -> WriteSource<'a>,
        V: FnMut(usize, SectorView<'_>),
    {
        span(Layer::Disk, "disk.do_batch_write", || {
            self.inner.do_batch_write(das, source, visit)
        })
    }

    fn note_readahead(&mut self, hits: u64, prefetched: u64) {
        self.inner.note_readahead(hits, prefetched);
    }

    fn write_epoch(&self) -> u64 {
        self.inner.write_epoch()
    }

    fn io_stats(&self) -> DriveStats {
        self.inner.io_stats()
    }

    fn note_write_behind(&mut self, pages: u64) {
        self.notes.write_behind_pages += pages;
        self.inner.note_write_behind(pages);
    }

    fn retry_limit(&self) -> u32 {
        self.inner.retry_limit()
    }

    fn retry_backoff(&self) -> SimTime {
        self.inner.retry_backoff()
    }

    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.notes.retries += retries;
        self.inner.note_retry(retries, recovered);
    }

    fn note_park(&mut self, da: DiskAddress, page: u16) {
        self.inner.note_park(da, page);
    }

    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: UnparkOutcome) {
        self.inner.note_unpark(da, page, outcome);
    }

    fn set_audit_enabled(&mut self, enabled: bool) {
        self.inner.set_audit_enabled(enabled);
    }

    fn audit_violations(&self) -> u64 {
        self.inner.audit_violations()
    }

    fn arm_count(&self) -> usize {
        self.inner.arm_count()
    }

    fn arm_of(&self, da: DiskAddress) -> usize {
        self.inner.arm_of(da)
    }

    fn arm_origin(&self, arm: usize) -> Option<DiskAddress> {
        self.inner.arm_origin(arm)
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }
}

/// Per-arm statistics and wrapper tallies, read the same way whether or not
/// the disk is wrapped.
pub trait Probe: Disk {
    /// Each arm's cumulative counters (one entry for a single drive).
    fn arm_stats(&self) -> Vec<DriveStats>;
    /// Spanning batches that ran on host threads.
    fn threaded_batches(&self) -> u64;
    /// The wrapper's `note_*` tallies, when wrapped.
    fn notes(&self) -> Option<Notes>;
}

impl Probe for DiskDrive {
    fn arm_stats(&self) -> Vec<DriveStats> {
        vec![self.io_stats()]
    }
    fn threaded_batches(&self) -> u64 {
        0
    }
    fn notes(&self) -> Option<Notes> {
        None
    }
}

impl Probe for DriveArray {
    fn arm_stats(&self) -> Vec<DriveStats> {
        (0..self.arm_count())
            .map(|i| self.arm(i).io_stats())
            .collect()
    }
    fn threaded_batches(&self) -> u64 {
        DriveArray::threaded_batches(self)
    }
    fn notes(&self) -> Option<Notes> {
        None
    }
}

impl<D: Probe> Probe for TimedDisk<D> {
    fn arm_stats(&self) -> Vec<DriveStats> {
        self.inner.arm_stats()
    }
    fn threaded_batches(&self) -> u64 {
        self.inner.threaded_batches()
    }
    fn notes(&self) -> Option<Notes> {
        Some(self.notes)
    }
}

/// A `PageStore` that times and forwards every call to `inner`. Replies the
/// store hands back through `deliver` are the server's own work (encode and
/// send), so they get a `net` span of their own inside the store's span.
#[derive(Debug)]
pub struct TimedStore<'a, S: PageStore> {
    inner: &'a mut S,
}

impl<'a, S: PageStore> TimedStore<'a, S> {
    pub fn new(inner: &'a mut S) -> TimedStore<'a, S> {
        TimedStore { inner }
    }
}

impl<S: PageStore> PageStore for TimedStore<'_, S> {
    fn open(&mut self, name: &str) -> Result<OpenInfo, u16> {
        span(Layer::Core, "core.pagesvc.open", || self.inner.open(name))
    }

    fn serve<F>(&mut self, reqs: &[PageRequest], failed: &mut Vec<(u32, u16)>, mut deliver: F)
    where
        F: FnMut(u32, &[u16; alto_disk::DATA_WORDS]),
    {
        span(Layer::Core, "core.pagesvc.serve", || {
            self.inner.serve(reqs, failed, |tag, data| {
                span(Layer::Net, "net.server.reply", || deliver(tag, data));
            });
        });
    }
}
