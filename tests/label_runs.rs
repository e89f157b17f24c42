//! Allocation and free in runs (§3.3): a run's check pass labels-checks
//! every sector before its write pass writes any, so a stale map or a wrong
//! name costs failed checks and never a written sector; a sector that fails
//! in the write pass leaves a pack the Scavenger rebuilds, and a growth's
//! relink waits for its new pages, so a failure there never cuts the live
//! chain; and a run costs two chained batches where one page at a time
//! cost two commands a page.

use std::collections::BTreeSet;

use alto::disk::{
    BatchRequest, CheckFailure, DiskError, DiskGeometry, DriveStats, FaultKind, SectorBuf,
    SectorOp, SectorPart,
};
use alto::fs::descriptor::BOOT_PAGE_DA;
use alto::fs::names::{Fv, SerialNumber};
use alto::fs::page::{self, RunPage};
use alto::fs::{chain, FileFullName, PageName};
use alto::prelude::*;
use alto::streams::StreamError;
use alto_bench::fresh_fs;

type Fs = FileSystem<DiskDrive>;

/// File contents in which every page reads differently.
fn contents(bytes: usize, salt: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| (i / 512 * 7 + i % 251 + salt) as u8)
        .collect()
}

fn file_of<D: Disk>(fs: &mut FileSystem<D>, name: &str, bytes: &[u8]) -> FileFullName {
    let root = fs.root_dir();
    let f = dir::create_named_file(fs, root, name).unwrap();
    fs.write_file(f, bytes).unwrap();
    f
}

/// The whole chain of `f`, leader first.
fn chain_of<D: Disk>(fs: &mut FileSystem<D>, f: FileFullName) -> Vec<PageName> {
    let mut pages = vec![];
    chain::to_end(fs.disk_mut(), f.leader_page(), |pn, _, _| pages.push(pn)).unwrap();
    pages
}

/// The raw label and data of every sector in `das`.
fn raw(fs: &mut Fs, das: &[DiskAddress]) -> Vec<(Label, Vec<u16>)> {
    page::read_raw_batch(fs.disk_mut(), das)
        .into_iter()
        .map(|res| {
            let (label, data) = res.unwrap();
            (label, data.to_vec())
        })
        .collect()
}

// ----------------------------------------------------------------------
// The check pass.
// ----------------------------------------------------------------------

#[test]
fn a_free_run_with_one_wrong_name_writes_nothing() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let f = file_of(&mut fs, "doomed.dat", &contents(8 * 512 - 40, 1));
    let pages = chain_of(&mut fs, f);
    let das: Vec<DiskAddress> = pages.iter().map(|pn| pn.da).collect();
    // Page 5 is named as page 6: its label check fails on the page number.
    let mut run: Vec<RunPage> = pages.iter().map(|&pn| RunPage::free(pn)).collect();
    run[5] = RunPage::free(PageName::new(f.fv, 6, das[5]));
    let sectors = raw(&mut fs, &das);
    let map = fs.descriptor().bitmap.clone();
    let freed = fs.stats().pages_freed;

    let err = fs.free_run(&run).unwrap_err();
    assert_eq!(
        err,
        FsError::Disk(DiskError::Check(CheckFailure {
            da: das[5],
            part: SectorPart::Label,
            word_index: 3,
            expected: 6,
            found: 5,
        }))
    );
    assert_eq!(raw(&mut fs, &das), sectors, "a sector of the run changed");
    assert_eq!(fs.descriptor().bitmap, map);
    assert_eq!(fs.stats().pages_freed, freed);
    assert_eq!(fs.read_file(f).unwrap(), contents(8 * 512 - 40, 1));
}

#[test]
fn a_stale_map_entry_inside_the_placement_run_is_skipped() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let f = file_of(&mut fs, "grows.dat", &contents(300, 2));
    let page1 = chain_of(&mut fs, f)[1].da;
    // The growth will be placed in the free run after page 1. One sector
    // inside it carries another file's page while the map calls it free.
    let squatter = DiskAddress(page1.0 + 3);
    assert!(!fs.descriptor().bitmap.is_busy(squatter));
    let other = Fv::new(SerialNumber::new(0x3FF0, false), 1);
    let label = Label {
        fid: other.serial.words(),
        version: 1,
        page_number: 1,
        length: 512,
        next: DiskAddress::NIL,
        prev: DiskAddress::NIL,
    };
    page::allocate_at(fs.disk_mut(), squatter, label, &[0x77; 256]).unwrap();
    let retries = fs.stats().alloc_retries;

    let bytes = contents(10 * 512 + 99, 3);
    fs.write_file(f, &bytes).unwrap();
    assert_eq!(fs.stats().alloc_retries, retries + 1);
    assert!(fs.descriptor().bitmap.is_busy(squatter));
    assert_eq!(fs.read_file(f).unwrap(), bytes);
    let das: Vec<u16> = chain_of(&mut fs, f)[1..].iter().map(|pn| pn.da.0).collect();
    let want: Vec<u16> = (page1.0..page1.0 + 3)
        .chain(page1.0 + 4..page1.0 + 12)
        .collect();
    assert_eq!(das, want, "the pages skip only the squatter");
    let (got, data) = page::read_page(fs.disk_mut(), PageName::new(other, 1, squatter)).unwrap();
    assert_eq!((got, data), (label, [0x77; 256]));
}

#[test]
fn a_stale_map_then_a_full_disk_hands_every_placed_bit_back() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    // The map offers exactly eight free sectors, and the third carries
    // another file's page.
    let base = DiskAddress(2000);
    let count = fs.disk().geometry().unwrap().sector_count();
    for i in 0..count {
        let da = DiskAddress(i as u16);
        if !(base.0..base.0 + 8).contains(&da.0) {
            fs.descriptor_mut().bitmap.set_busy(da);
        }
    }
    let squatter = DiskAddress(base.0 + 2);
    let other = Fv::new(SerialNumber::new(0x3FF1, false), 1);
    let label = |fv: Fv, page_number| Label {
        fid: fv.serial.words(),
        version: 1,
        page_number,
        length: 512,
        next: DiskAddress::NIL,
        prev: DiskAddress::NIL,
    };
    page::allocate_at(fs.disk_mut(), squatter, label(other, 1), &[0x55; 256]).unwrap();
    let window: Vec<DiskAddress> = (base.0..base.0 + 8).map(DiskAddress).collect();
    let sectors = raw(&mut fs, &window);
    let mut map = fs.descriptor().bitmap.clone();
    let (allocated, retries) = (fs.stats().pages_allocated, fs.stats().alloc_retries);

    // Eight new pages: the first round places all eight and finds the
    // squatter; the second has five sectors for the last six pages.
    let fv = Fv::new(SerialNumber::new(0x3FF2, false), 1);
    let mut run: Vec<RunPage> = (1..=8)
        .map(|n| RunPage::alloc(label(fv, n), [n; 256]))
        .collect();
    assert_eq!(
        fs.allocate_run(Some(base), &mut run),
        Err(FsError::DiskFull)
    );
    // Only the squatter's bit changed: the map learned it is busy.
    map.set_busy(squatter);
    assert_eq!(fs.descriptor().bitmap, map);
    assert_eq!(raw(&mut fs, &window), sectors, "a sector was written");
    assert_eq!(fs.stats().pages_allocated, allocated);
    assert_eq!(fs.stats().alloc_retries, retries + 1);
}

// ----------------------------------------------------------------------
// The write pass failing hard, sector by sector.
// ----------------------------------------------------------------------

/// A drive that fails one label write hard: it counts the `WRITE_LABEL`
/// requests it is asked to issue and, just before the `fail`-th, arms the
/// drive's injector at that sector for more attempts than the retry layer
/// makes. A check pass or a data write to the same sector beforehand is
/// untouched. `written` lists every label write's sector in issue order.
#[derive(Debug)]
struct FailLabelWrite {
    drive: DiskDrive,
    fail: Option<usize>,
    written: Vec<DiskAddress>,
}

impl FailLabelWrite {
    fn note(&mut self, da: DiskAddress, op: SectorOp) {
        if op != SectorOp::WRITE_LABEL {
            return;
        }
        if self.fail == Some(self.written.len()) {
            let attempts = self.drive.retry_limit() + 1;
            self.drive
                .injector_mut()
                .arm(da, FaultKind::NotReady { attempts });
        }
        self.written.push(da);
    }
}

impl Disk for FailLabelWrite {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        self.drive.geometry()
    }
    fn pack_number(&self) -> Result<u16, DiskError> {
        self.drive.pack_number()
    }
    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        self.note(da, op);
        self.drive.do_op(da, op, buf)
    }
    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        for req in batch.iter() {
            self.note(req.da, req.op);
        }
        self.drive.do_batch(batch)
    }
    fn write_epoch(&self) -> u64 {
        self.drive.write_epoch()
    }
    fn io_stats(&self) -> DriveStats {
        self.drive.io_stats()
    }
    fn retry_limit(&self) -> u32 {
        self.drive.retry_limit()
    }
    fn retry_backoff(&self) -> SimTime {
        self.drive.retry_backoff()
    }
    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.drive.note_retry(retries, recovered);
    }
    fn note_park(&mut self, da: DiskAddress, page: u16) {
        self.drive.note_park(da, page);
    }
    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: alto::disk::UnparkOutcome) {
        self.drive.note_unpark(da, page, outcome);
    }
    fn clock(&self) -> &SimClock {
        self.drive.clock()
    }
    fn trace(&self) -> &Trace {
        self.drive.trace()
    }
}

type Faulty = FileSystem<FailLabelWrite>;

/// A pack of three closed files around the in-flight one, `in_flight.dat`
/// holding `old`, remounted on a drive that fails label write `fail`.
fn fixture(old: &[u8], fail: Option<usize>) -> Faulty {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    file_of(&mut fs, "before.dat", &contents(3 * 512 + 7, 10));
    file_of(&mut fs, "in_flight.dat", old);
    file_of(&mut fs, "after.dat", &contents(5 * 512, 11));
    let f = file_of(&mut fs, "scratch.dat", &contents(4 * 512, 12));
    file_of(&mut fs, "last.dat", &contents(700, 13));
    // A hole in front of the last file, so growth has to find its room.
    fs.delete_file(f).unwrap();
    let root = fs.root_dir();
    dir::remove(&mut fs, root, "scratch.dat").unwrap();
    let drive = fs.unmount().unwrap();
    FileSystem::mount(FailLabelWrite {
        drive,
        fail,
        written: vec![],
    })
    .unwrap()
}

/// Every file's contents by name, the well-known files aside.
fn closed_files<D: Disk>(fs: &mut FileSystem<D>) -> Vec<(String, Vec<u8>)> {
    let root = fs.root_dir();
    dir::list(fs, root)
        .unwrap()
        .into_iter()
        .filter(|e| e.name.ends_with(".dat") && e.name != "in_flight.dat")
        .map(|e| (e.name, fs.read_file(e.file).unwrap()))
        .collect()
}

/// True when `got` is `old`, `new`, or a page-granular mix of the two:
/// each of its pages is the start of the same page of one of them, it has
/// at least as many pages as the shorter, and each page is as long as that
/// page of one of them (only a last page can be short).
fn page_mix(got: &[u8], old: &[u8], new: &[u8]) -> bool {
    fn page(c: &[u8], i: usize) -> Option<&[u8]> {
        (i < c.len().div_ceil(512)).then(|| &c[i * 512..c.len().min(i * 512 + 512)])
    }
    let pages = |c: &[u8]| c.len().div_ceil(512);
    pages(got) >= pages(old).min(pages(new))
        && (0..pages(got)).all(|i| {
            let g = page(got, i).unwrap();
            let theirs = [page(old, i), page(new, i)];
            theirs.iter().flatten().any(|p| p.starts_with(g))
                && theirs.iter().flatten().any(|p| p.len() == g.len())
        })
}

/// Every live page belongs to exactly one file the root directory reaches,
/// and the map marks busy exactly the live pages and the boot page.
fn each_page_owned_once<D: Disk>(fs: &mut FileSystem<D>) {
    let root = fs.root_dir();
    let mut owned = BTreeSet::new();
    for entry in dir::list(fs, root).unwrap() {
        chain::to_end(fs.disk_mut(), entry.file.leader_page(), |pn, _, _| {
            assert!(owned.insert(pn.da), "{pn:?} is owned twice");
        })
        .unwrap();
    }
    let count = fs.disk().geometry().unwrap().sector_count();
    let all: Vec<DiskAddress> = (0..count).map(|i| DiskAddress(i as u16)).collect();
    for das in all.chunks(256) {
        for (&da, res) in das.iter().zip(page::read_raw_batch(fs.disk_mut(), das)) {
            let live = res.unwrap().0.is_in_use();
            assert_eq!(live, owned.contains(&da), "{da} leaked");
            let busy = fs.descriptor().bitmap.is_busy(da);
            assert_eq!(busy, live || da == BOOT_PAGE_DA, "{da} in the map");
        }
    }
}

/// Runs `act` on the in-flight file of a fresh fixture once per sector of
/// its write pass (its only `writes` label writes), failing that sector
/// hard. After each, a rebuild must give back every closed file byte-exact,
/// the in-flight file as `recovered` allows, every page owned once, and a
/// second scavenge that repairs nothing.
fn fail_each_write(
    old: &[u8],
    writes: usize,
    act: impl Fn(&mut Faulty, FileFullName) -> Result<(), FsError>,
    recovered: impl Fn(Option<&[u8]>) -> bool,
) {
    let in_flight = |fs: &mut Faulty| {
        let root = fs.root_dir();
        dir::lookup(fs, root, "in_flight.dat").unwrap()
    };
    let mut fs = fixture(old, None);
    let want = closed_files(&mut fs);
    let f = in_flight(&mut fs).unwrap();
    act(&mut fs, f).unwrap();
    let pass = fs.disk().written.clone();
    assert_eq!(pass.len(), writes, "{pass:?}");
    assert_eq!(pass.iter().collect::<BTreeSet<_>>().len(), writes);

    for (k, &da) in pass.iter().enumerate() {
        let mut fs = fixture(old, Some(k));
        let f = in_flight(&mut fs).unwrap();
        let err = act(&mut fs, f).unwrap_err();
        assert!(
            matches!(err, FsError::Disk(DiskError::HardError { da: at, .. }) if at == da),
            "write {k} at {da}: {err:?}"
        );
        let (mut fs, _) = Scavenger::rebuild(fs.crash()).unwrap();
        assert_eq!(closed_files(&mut fs), want, "write {k} at {da}");
        let got = in_flight(&mut fs).map(|f| fs.read_file(f).unwrap());
        assert!(recovered(got.as_deref()), "write {k} at {da}: {got:?}");
        each_page_owned_once(&mut fs);
        let (_, second) = Scavenger::rebuild(fs.unmount().unwrap()).unwrap();
        let repairs = [
            second.duplicate_pages_freed,
            second.headless_pages_freed,
            second.truncated_pages_freed,
            second.links_repaired,
            second.lengths_normalized,
            second.entries_fixed,
            second.entries_dropped,
            second.orphans_adopted,
            second.bad_pages,
        ];
        assert_eq!(repairs, [0; 9], "write {k} at {da}: {second:?}");
    }
}

/// Runs `act` on the in-flight file of a fresh fixture once per sector of
/// its `writes` label writes — the new pages', then the relink's — failing
/// that sector hard. The relink is written only once every new page has
/// landed, so the live chain never names a failed sector: each time the
/// file still reads back as `old` without a scavenge.
fn fail_each_write_keeps_the_old_file(
    old: &[u8],
    writes: usize,
    act: impl Fn(&mut Faulty, FileFullName) -> Result<(), FsError>,
) {
    let in_flight = |fs: &mut Faulty| {
        let root = fs.root_dir();
        dir::lookup(fs, root, "in_flight.dat").unwrap().unwrap()
    };
    let mut fs = fixture(old, None);
    let f = in_flight(&mut fs);
    act(&mut fs, f).unwrap();
    assert_eq!(fs.disk().written.len(), writes);
    for k in 0..writes {
        let mut fs = fixture(old, Some(k));
        let f = in_flight(&mut fs);
        let err = act(&mut fs, f).unwrap_err();
        assert!(
            matches!(err, FsError::Disk(DiskError::HardError { .. })),
            "write {k}: {err:?}"
        );
        assert_eq!(fs.read_file(f).unwrap(), old, "write {k}");
    }
}

#[test]
fn a_failed_free_in_a_delete_leaves_a_rebuildable_pack() {
    let old = contents(12 * 512 - 100, 20);
    // The leader and twelve data pages.
    fail_each_write(&old, 13, FileSystem::delete_file, |got| {
        got.is_none_or(|got| page_mix(got, &old, &[]))
    });
}

#[test]
fn a_failed_write_in_a_growth_leaves_a_rebuildable_pack() {
    let old = contents(5 * 512 + 200, 30);
    let new = contents(12 * 512 + 37, 31);
    // Seven new pages, then the old last page's relink.
    fail_each_write(
        &old,
        8,
        |fs, f| fs.write_file(f, &new),
        |got| got.is_some_and(|got| page_mix(got, &old, &new)),
    );
}

#[test]
fn a_failed_write_in_a_stream_extend_leaves_a_rebuildable_pack() {
    let old = contents(3 * 512, 40);
    let more = contents(502 + 300, 41);
    // On the medium after the extend: page 3 rewritten in place from byte
    // 10, then an empty page 4 (the stream still holds its 300 bytes).
    let mut new = old[..2 * 512 + 10].to_vec();
    new.extend_from_slice(&more[..502]);
    // Page 4, then page 3's relink.
    fail_each_write(
        &old,
        2,
        |fs, f| {
            let mut s = DiskByteStream::open(fs, f).map_err(fs_error)?;
            s.set_position(fs, 2 * 512 + 10).map_err(fs_error)?;
            s.write_bytes(fs, &more).map_err(fs_error)
        },
        |got| got.is_some_and(|got| page_mix(got, &old, &new)),
    );
}

#[test]
fn a_failed_new_page_write_never_cuts_a_growing_file() {
    let old = contents(5 * 512 + 200, 32);
    let mut new = old.clone();
    new.extend(contents(6 * 512 + 37, 33));
    // Six new pages, then the old last page's relink.
    fail_each_write_keeps_the_old_file(&old, 7, |fs, f| fs.write_file(f, &new));
}

#[test]
fn a_failed_new_page_write_never_cuts_a_stream() {
    let old = contents(3 * 512, 42);
    // The new page 4, then page 3's relink.
    fail_each_write_keeps_the_old_file(&old, 2, |fs, f| {
        let mut s = DiskByteStream::open(fs, f).map_err(fs_error)?;
        s.set_position(fs, 3 * 512).map_err(fs_error)?;
        s.write_bytes(fs, &[9; 300]).map_err(fs_error)
    });
}

fn fs_error(e: StreamError) -> FsError {
    match e {
        StreamError::Fs(e) => e,
        other => panic!("not a file-system error: {other:?}"),
    }
}

// ----------------------------------------------------------------------
// What a run costs: exact drive ops and batches.
// ----------------------------------------------------------------------

/// Drive ops and batches issued by `f`.
fn cost(fs: &mut Fs, f: impl FnOnce(&mut Fs)) -> (u64, u64) {
    let before = fs.disk().stats();
    f(fs);
    let after = fs.disk().stats();
    (after.ops - before.ops, after.batches - before.batches)
}

#[test]
fn a_single_page_allocate_or_free_is_two_commands() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let fv = Fv::new(SerialNumber::new(0x2FFF, false), 1);
    let label = Label {
        fid: fv.serial.words(),
        version: 1,
        page_number: 1,
        length: 512,
        next: DiskAddress::NIL,
        prev: DiskAddress::NIL,
    };
    let mut da = DiskAddress::NIL;
    let alloc = cost(&mut fs, |fs| {
        da = fs.allocate_page(None, label, &[0; 256]).unwrap();
    });
    let free = cost(&mut fs, |fs| {
        fs.free_page(PageName::new(fv, 1, da)).unwrap();
    });
    assert_eq!((alloc, free), ((2, 0), (2, 0)));
}

#[test]
fn deleting_a_consecutive_40_page_file_is_four_batches() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let f = file_of(&mut fs, "forty.dat", &contents(40 * 512, 50));
    // The leader comes from the cache; the chain is read in guessed
    // batches of 32 and 8; then one check pass and one write pass over
    // the leader and the 40 data pages.
    assert_eq!(cost(&mut fs, |fs| fs.delete_file(f).unwrap()), (122, 4));
    assert_eq!(fs.stats().pages_freed, 41);
}

#[test]
fn a_40_page_append_through_write_file_is_three_batches() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let mut bytes = contents(8 * 512, 60);
    let f = file_of(&mut fs, "append.dat", &bytes);
    bytes.extend(contents(40 * 512, 61));
    // The eight old pages in one guessed batch, one check pass and one
    // write pass over page 8's relink and the 40 new pages, and the
    // leader's hints.
    assert_eq!(
        cost(&mut fs, |fs| fs.write_file(f, &bytes).unwrap()),
        (91, 3)
    );
    assert_eq!(fs.read_file(f).unwrap(), bytes);
}

#[test]
fn a_40_page_append_through_a_stream_is_one_batch_a_page() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let mut bytes = contents(8 * 512, 70);
    let f = file_of(&mut fs, "stream.dat", &bytes);
    let more = contents(40 * 512, 71);
    bytes.extend_from_slice(&more);
    let (ops, batches) = cost(&mut fs, |fs| {
        let mut s = DiskByteStream::open(fs, f).unwrap();
        s.set_position(fs, 8 * 512).unwrap();
        s.write_bytes(fs, &more).unwrap();
        s.close(fs).unwrap();
    });
    // Each of the 40 new pages is one check pass over the current page and
    // the new one, then the new page's write and the current page's
    // relink. Around them: page 1 at the open, page 8 at the seek, and at
    // the close page 48's length, the leader's read and its rewrite.
    assert_eq!((ops, batches), (40 * 4 + 2 + 2 + 2, 40));
    assert_eq!(fs.read_file(f).unwrap(), bytes);
}
