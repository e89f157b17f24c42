//! The write-behind pipeline, end to end (PR 3).
//!
//! Three properties, matching the three halves of the pipeline:
//!
//! 1. **Speed** — a long sequential overwrite through a stream runs at
//!    least 5x faster with the delayed-write buffer than with the
//!    flush-per-crossing ablation, and a batch spanning both drives of a
//!    two-arm range [`DriveArray`] finishes in at most 0.6x the serialized
//!    time.
//! 2. **Safety** — a crash with dirty pages still parked loses only those
//!    pages: everything the stream *drained* survives the Scavenger, the
//!    parked pages simply show their old contents (delayed-write
//!    semantics), and the rebuilt file system stays fully consistent.
//! 3. **Coherence** — no reader, through the file system or a second
//!    stream, ever observes stale data once a drain has happened.

use alto::disk::{BatchRequest, DriveArray, Placement, SectorBuf, SectorOp};
use alto::prelude::*;
use alto_bench::{consecutive_file, fresh_fs};

const PAGE: usize = 512;

/// Overwrites a 100-page consecutive file byte by byte through a stream
/// and returns the simulated time it took, plus the file system.
fn seq_overwrite(write_behind: bool) -> (f64, FileSystem<DiskDrive>) {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "seq.dat", 100);
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    s.set_write_behind(&mut fs, write_behind).unwrap();
    let t0 = clock.now();
    for _ in 0..100 * PAGE {
        s.put_byte(&mut fs, 0x5A).unwrap();
    }
    s.flush(&mut fs).unwrap();
    let dt = (clock.now() - t0).as_secs_f64();
    s.close(&mut fs).unwrap();
    (dt, fs)
}

#[test]
fn sequential_write_behind_is_at_least_5x_faster() {
    let (fast, mut fs) = seq_overwrite(true);
    let (slow, _) = seq_overwrite(false);
    let ratio = slow / fast;
    assert!(ratio >= 5.0, "write-behind speedup only {ratio:.2}x");
    // The data actually landed, and the drains were coalesced batches.
    let root = fs.root_dir();
    let f = dir::lookup(&mut fs, root, "seq.dat").unwrap().unwrap();
    assert_eq!(fs.read_file(f).unwrap(), vec![0x5A; 100 * PAGE]);
    let stats = fs.disk().io_stats();
    assert!(stats.wb_drains > 0, "no coalesced drains recorded");
    assert!(
        stats.wb_coalesced >= 90,
        "only {} pages went through the write-behind buffer",
        stats.wb_coalesced
    );
}

#[test]
fn dual_drive_overlap_is_at_most_0_6x_serial() {
    // The same spanning workload, serialized and overlapped: 24 sectors
    // alternating between the two units, with seeks between them.
    let elapsed = |overlap: bool| {
        let clock = SimClock::new();
        let mut dual = DriveArray::with_arms(
            2,
            Placement::Range,
            clock.clone(),
            Trace::new(),
            DiskModel::Diablo31,
        );
        dual.set_overlap_enabled(overlap);
        let per_drive = (dual.geometry().unwrap().sector_count() / 2) as u16;
        let mut batch: Vec<BatchRequest> = (0..24u16)
            .map(|i| {
                let local = 200 + 37 * (i / 2);
                let unit = i % 2;
                let da = DiskAddress(unit * per_drive + local);
                BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        let t0 = clock.now();
        let results = dual.do_batch(&mut batch);
        assert!(results.iter().all(std::result::Result::is_ok));
        clock.now() - t0
    };
    let serial = elapsed(false);
    let overlapped = elapsed(true);
    assert!(
        overlapped.as_nanos() * 10 <= serial.as_nanos() * 6,
        "overlapped {overlapped} vs serial {serial}: worse than 0.6x"
    );
}

#[test]
fn crash_with_parked_pages_recovers_clean() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    // A bystander file, fully on the medium.
    let safe = dir::create_named_file(&mut fs, root, "safe.dat").unwrap();
    fs.write_file(safe, &vec![0x11u8; 3000]).unwrap();
    // Overwrite an 8-page file through a stream and crash with pages
    // parked: after 4.02 pages, page 1 has been drained (first refill
    // batch), pages 2..4 sit in the write-behind buffer, page 5 is dirty
    // in the stream buffer — none of those four are on the medium.
    let f = consecutive_file(&mut fs, "victim.dat", 8);
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    for _ in 0..(4 * PAGE + 10) {
        s.put_byte(&mut fs, 0x77).unwrap();
    }
    let disk = fs.crash();
    let (mut fs, _report) = Scavenger::rebuild(disk).unwrap();

    let root = fs.root_dir();
    let safe = dir::lookup(&mut fs, root, "safe.dat").unwrap().unwrap();
    assert_eq!(fs.read_file(safe).unwrap(), vec![0x11u8; 3000]);
    let f = dir::lookup(&mut fs, root, "victim.dat").unwrap().unwrap();
    let bytes = fs.read_file(f).unwrap();
    // The file's structure is intact: all 8 pages, correctly linked.
    assert_eq!(bytes.len(), 8 * PAGE);
    // Everything drained survives; everything parked shows its old
    // contents — delayed-write loses recent data, never consistency.
    assert_eq!(&bytes[..PAGE], &[0x77u8; PAGE][..], "drained page lost");
    assert_eq!(
        &bytes[PAGE..2 * PAGE],
        &[0xA5u8; PAGE][..],
        "parked page should hold its pre-crash contents"
    );
    // And the rebuilt system still allocates and works (§3.5).
    let f2 = dir::create_named_file(&mut fs, root, "after.dat").unwrap();
    fs.write_file(f2, b"still alive").unwrap();
    assert_eq!(fs.read_file(f2).unwrap(), b"still alive");
}

#[test]
fn a_second_reader_never_sees_stale_data_after_a_drain() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let f = consecutive_file(&mut fs, "mix.dat", 8);
    // A reader warms its readahead buffer on the old contents.
    let mut r = DiskByteStream::open(&mut fs, f).unwrap();
    let mut first = vec![0u8; 2 * PAGE];
    assert_eq!(r.read_bytes(&mut fs, &mut first).unwrap(), 2 * PAGE);
    // A writer overwrites the first five pages, draining in batches.
    let mut w = DiskByteStream::open(&mut fs, f).unwrap();
    w.write_bytes(&mut fs, &vec![0x99u8; 5 * PAGE]).unwrap();
    w.flush(&mut fs).unwrap();
    w.close(&mut fs).unwrap();
    // The reader's remaining pages must all be fresh: the drain bumped
    // the write epoch, which voids the reader's prefetched copies.
    let mut rest = vec![0u8; 6 * PAGE];
    assert_eq!(r.read_bytes(&mut fs, &mut rest).unwrap(), 6 * PAGE);
    assert_eq!(&rest[..3 * PAGE], &vec![0x99u8; 3 * PAGE][..]);
    assert_eq!(&rest[3 * PAGE..], &vec![0xA5u8; 3 * PAGE][..]);
    r.close(&mut fs).unwrap();

    // And a check that the read was not somehow served stale: the file
    // system's own view of those pages agrees byte for byte.
    let want = fs.read_file(f).unwrap();
    assert_eq!(rest, &want[2 * PAGE..]);
}
