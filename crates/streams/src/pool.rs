//! Recycled stream-side page buffers.
//!
//! A [`crate::DiskByteStream`] carries five working vectors: the readahead
//! buffer, the write-behind park list, its drain double-buffer, and the two
//! output vectors for combined drain-and-refill batches. Opening a stream
//! per transfer — the common shape for short-lived clients — used to grow
//! all five from empty every time, which was the last steady allocation
//! source in the streaming wall-clock workloads. The vectors now come from
//! small thread-local free lists, taken at `open` and recycled when the
//! stream is dropped, so a steady open/transfer/close cycle touches the
//! heap zero times. The page-result vector comes from the file system's
//! list ([`alto_fs::pool::reads_vec`]), which its guessed chain reads share.
//!
//! Like the disk pools ([`alto_disk::pool`], whose [`FreeList`] these
//! lists are), this is a host-side optimization only: it never touches the
//! simulated clock or the §3.3 semantics, and recycled vectors are always
//! cleared before reuse.

use alto_disk::pool::FreeList;
use alto_disk::{DiskAddress, Label, DATA_WORDS};
use alto_fs::{FsError, PageName};

/// A prefetched page parked in the readahead buffer.
pub type ReadaheadPage = (PageName, Label, [u16; DATA_WORDS]);

/// A dirty page parked for a delayed write.
pub type ParkedPage = (u16, DiskAddress, [u16; DATA_WORDS]);

/// How many vectors each free list retains per thread. A stream holds two
/// parked-page vectors (the park list and its drain double-buffer) and one
/// of each other kind, so four covers two live streams per thread; anything
/// beyond the cap is simply dropped.
const PER_LIST: usize = 4;

thread_local! {
    static READAHEAD: FreeList<ReadaheadPage> = const { FreeList::new(PER_LIST) };
    static PARKED: FreeList<ParkedPage> = const { FreeList::new(PER_LIST) };
    static LABELS: FreeList<Result<Label, FsError>> = const { FreeList::new(PER_LIST) };
}

/// An empty readahead buffer, recycled when possible.
pub fn readahead_vec() -> Vec<ReadaheadPage> {
    READAHEAD.with(FreeList::take)
}

/// Returns a readahead buffer to the free list (contents are dropped).
pub fn recycle_readahead(v: Vec<ReadaheadPage>) {
    READAHEAD.with(|l| l.recycle(v));
}

/// An empty parked-page vector, recycled when possible.
pub fn parked_vec() -> Vec<ParkedPage> {
    PARKED.with(FreeList::take)
}

/// Returns a parked-page vector to the free list.
pub fn recycle_parked(v: Vec<ParkedPage>) {
    PARKED.with(|l| l.recycle(v));
}

/// An empty write-result vector, recycled when possible.
pub fn labels_vec() -> Vec<Result<Label, FsError>> {
    LABELS.with(FreeList::take)
}

/// Returns a write-result vector to the free list.
pub fn recycle_labels(v: Vec<Result<Label, FsError>>) {
    LABELS.with(|l| l.recycle(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_capacity() {
        let mut v = parked_vec();
        for i in 0..4u16 {
            v.push((i, DiskAddress(i), [0; DATA_WORDS]));
        }
        let cap = v.capacity();
        recycle_parked(v);
        let v2 = parked_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap.min(4));
    }
}
