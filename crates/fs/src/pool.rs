//! Recycled fs-side working vectors.
//!
//! [`crate::FileSystem::write_file`] rewrites a file in guessed-consecutive
//! batches: each batch stages its page images in a chunk vector and collects
//! a per-page result vector from [`crate::page::write_pages_guessed`]. Under
//! a steady rewrite workload (the fault-campaign bench, a §4.1 world swap)
//! those two vectors used to be the last per-call heap traffic on the write
//! path. They now come from small thread-local [`FreeList`]s, the mechanism
//! of [`alto_disk::pool`], so a warm rewrite touches the heap zero times.
//! The runs of label rewrites that allocate, free and relink pages
//! ([`crate::page::RunPage`]) and the batches of a guessed chain read
//! ([`crate::chain::read_guessed`]) are staged the same way.
//!
//! This is a host-side optimization only: it never touches the simulated
//! clock or the §3.3 semantics, and recycled vectors are always cleared
//! before reuse.

use alto_disk::pool::FreeList;
use alto_disk::{Label, DATA_WORDS};

use crate::errors::FsError;
use crate::page::{PageResult, RunPage};

/// How many vectors each free list retains per thread. `write_file` holds
/// one chunk vector and one result vector at a time; a little headroom
/// covers nested filesystems (e.g. a disk descriptor rewrite inside a user
/// write). Anything beyond the cap is simply dropped.
const PER_LIST: usize = 4;

thread_local! {
    static CHUNKS: FreeList<[u16; DATA_WORDS]> = const { FreeList::new(PER_LIST) };
    static LABELS: FreeList<Result<Label, FsError>> = const { FreeList::new(PER_LIST) };
    static RUNS: FreeList<RunPage> = const { FreeList::new(PER_LIST) };
    static READS: FreeList<PageResult> = const { FreeList::new(PER_LIST) };
}

/// An empty page-image vector, recycled when possible.
pub fn chunks_vec() -> Vec<[u16; DATA_WORDS]> {
    CHUNKS.with(FreeList::take)
}

/// Returns a page-image vector to the free list (contents are dropped).
pub fn recycle_chunks(v: Vec<[u16; DATA_WORDS]>) {
    CHUNKS.with(|l| l.recycle(v));
}

/// An empty guessed-write result vector, recycled when possible.
pub fn labels_vec() -> Vec<Result<Label, FsError>> {
    LABELS.with(FreeList::take)
}

/// Returns a guessed-write result vector to the free list.
pub fn recycle_labels(v: Vec<Result<Label, FsError>>) {
    LABELS.with(|l| l.recycle(v));
}

/// An empty run of label rewrites, recycled when possible.
pub fn run_vec() -> Vec<RunPage> {
    RUNS.with(FreeList::take)
}

/// Returns a run vector to the free list.
pub fn recycle_run(v: Vec<RunPage>) {
    RUNS.with(|l| l.recycle(v));
}

/// An empty guessed-read result vector, recycled when possible.
pub fn reads_vec() -> Vec<PageResult> {
    READS.with(FreeList::take)
}

/// Returns a guessed-read result vector to the free list.
pub fn recycle_reads(v: Vec<PageResult>) {
    READS.with(|l| l.recycle(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_capacity() {
        let mut v = chunks_vec();
        v.push([0; DATA_WORDS]);
        let cap = v.capacity();
        recycle_chunks(v);
        let v2 = chunks_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap.min(1));
    }
}
