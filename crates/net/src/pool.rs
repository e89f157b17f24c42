//! Recycled packet buffers.
//!
//! A packet's life touches the heap in two places: the payload vector the
//! sender builds, and the wire vector the ether encodes it into. On the
//! page-server hot path — thousands of clients, a request and a page-sized
//! reply per page — that used to mean two allocations per packet each way.
//! Word vectors now come from a thread-local [`FreeList`] (the mechanism of
//! [`alto_disk::pool`]), taken when a payload or wire image is staged and
//! recycled when its packet has been consumed, so the steady state touches
//! the heap zero times.
//!
//! Like the disk pools this is a host-side optimization only: it never
//! touches the simulated clock, and recycled vectors are always cleared
//! before reuse.
//!
//! The cap is much larger than the disk pools': with a 5k-client fleet a
//! whole tick's worth of replies (clients × window, each holding a payload
//! vector) can sit in inboxes before the clients drain and recycle them,
//! and the free list must hold that wave to keep the next tick
//! allocation-free. Page-sized vectors are ~0.5 KiB, so even the full cap
//! is a few tens of megabytes — host memory, not simulated state.

use alto_disk::pool::FreeList;

/// Free-list cap per thread: sized to hold one full reply wave from the
/// largest supported client fleet (see module docs).
const PER_LIST: usize = 64 * 1024;

thread_local! {
    static WORDS: FreeList<u16> = const { FreeList::new(PER_LIST) };
}

/// An empty word vector (payload or wire staging), recycled when possible.
pub fn words_vec() -> Vec<u16> {
    WORDS.with(FreeList::take)
}

/// Returns a word vector to the free list (contents are dropped).
pub fn recycle_words(v: Vec<u16>) {
    WORDS.with(|l| l.recycle(v));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_capacity() {
        let mut v = words_vec();
        v.extend_from_slice(&[1, 2, 3]);
        let cap = v.capacity();
        recycle_words(v);
        let v2 = words_vec();
        assert!(v2.is_empty());
        assert!(v2.capacity() >= cap.min(3));
    }
}
