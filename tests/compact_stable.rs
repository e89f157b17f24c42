//! Stable compaction (§3.5): the compactor keeps every file whose pages
//! already sit at consecutive sectors where it is, moves only the files
//! that are out of place, writes only the leaders whose hints change and
//! rewrites only the directories that name a moved leader — and still
//! leaves every file consecutive and byte-exact, whichever of its writes
//! fails.

use std::collections::BTreeMap;

use alto::disk::{
    BatchRequest, DiskError, DiskGeometry, DriveStats, FaultKind, SectorBuf, SectorOp,
};
use alto::fs::descriptor::{self, BOOT_PAGE_DA};
use alto::fs::names::Fv;
use alto::fs::page;
use alto::fs::{compact::CompactReport, FileFullName};
use alto::prelude::*;
use alto_bench::{fragmented_fs, fresh_fs};

/// Where every live page lives, by absolute name, from a raw sweep.
fn page_homes<D: Disk>(fs: &mut FileSystem<D>) -> BTreeMap<(Fv, u16), DiskAddress> {
    let count = fs.disk().geometry().unwrap().sector_count();
    let all: Vec<DiskAddress> = (0..count).map(|i| DiskAddress(i as u16)).collect();
    let mut homes = BTreeMap::new();
    for das in all.chunks(256) {
        for (&da, res) in das.iter().zip(page::read_raw_batch(fs.disk_mut(), das)) {
            let (label, _) = res.unwrap();
            if label.is_in_use() {
                homes.insert((Fv::from_label(&label), label.page_number), da);
            }
        }
    }
    homes
}

/// The homes of one file's pages, in page order.
fn homes_of(homes: &BTreeMap<(Fv, u16), DiskAddress>, fv: Fv) -> Vec<DiskAddress> {
    homes
        .range((fv, 0)..=(fv, u16::MAX))
        .map(|(_, &da)| da)
        .collect()
}

fn lookup<D: Disk>(fs: &mut FileSystem<D>, name: &str) -> FileFullName {
    let root = fs.root_dir();
    dir::lookup(fs, root, name).unwrap().unwrap()
}

fn contents<D: Disk>(fs: &mut FileSystem<D>, names: &[String]) -> Vec<Vec<u8>> {
    names
        .iter()
        .map(|n| {
            let f = lookup(fs, n);
            fs.read_file(f).unwrap()
        })
        .collect()
}

/// True when `das` are consecutive sectors.
fn consecutive(das: &[DiskAddress]) -> bool {
    das.windows(2).all(|w| w[1].0 == w[0].0 + 1)
}

/// A compacted pack of eight fragmented files and a directory `sub` with
/// one file, then one file's rewrite to twice its length: the pages it
/// gains land past the packed files, so the file is no longer consecutive.
/// Returns the names of the files in the root directory and the rewritten
/// file's.
fn scattered_by_a_rewrite() -> (FileSystem<DiskDrive>, Vec<String>, FileFullName) {
    let (mut fs, names) = fragmented_fs(8, 5, 19);
    let root = fs.root_dir();
    let sub = dir::create_directory(&mut fs, root, "sub").unwrap();
    let inner = dir::create_named_file(&mut fs, sub, "inner.dat").unwrap();
    fs.write_file(inner, &[9; 700]).unwrap();
    let first = Compactor::run(&mut fs).unwrap();
    assert_eq!(first.consecutive_files, first.files);
    let f = lookup(&mut fs, &names[3]);
    let bytes = fs.read_file(f).unwrap();
    fs.write_file(f, &[bytes.clone(), bytes].concat()).unwrap();
    (fs, names, f)
}

#[test]
fn recompaction_moves_only_the_scattered_file() {
    let (mut fs, names, grown) = scattered_by_a_rewrite();
    let want = contents(&mut fs, &names);
    let before = page_homes(&mut fs);
    assert!(!consecutive(&homes_of(&before, grown.fv)));

    let report = Compactor::run(&mut fs).unwrap();
    let after = page_homes(&mut fs);
    assert_eq!(
        report.pages_moved as usize,
        homes_of(&before, grown.fv).len()
    );
    for (name, &da) in &before {
        if name.0 == grown.fv {
            assert_ne!(after[name], da, "{name:?} stayed");
        } else {
            assert_eq!(after[name], da, "{name:?} moved");
        }
    }
    assert!(consecutive(&homes_of(&after, grown.fv)));
    assert_eq!(report.consecutive_files, report.files);
    assert_eq!(contents(&mut fs, &names), want);
}

#[test]
fn a_file_no_free_run_holds_sends_every_file_to_a_fresh_plan() {
    // Each step appends a page to `big.dat`, then lays down a filler of
    // `HOLE` pages and a one-page keeper, until the pack is nearly full.
    // Deleting the fillers leaves holes that, with the big file's own
    // sectors, are all shorter than the big file.
    const HOLE: usize = 60;
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let big = dir::create_named_file(&mut fs, root, "big.dat").unwrap();
    let mut names = vec!["big.dat".to_string()];
    let mut fillers = vec![];
    let mut pages = 0;
    while fs.descriptor().bitmap.free_count() as usize > HOLE + 8 {
        pages += 1;
        fs.write_file(big, &vec![pages as u8; pages * 512 - 3])
            .unwrap();
        let filler = format!("filler-{pages}.dat");
        let f = dir::create_named_file(&mut fs, root, &filler).unwrap();
        fs.write_file(f, &vec![0; HOLE * 512]).unwrap();
        fillers.push((filler, f));
        let keeper = format!("keeper-{pages}.dat");
        let f = dir::create_named_file(&mut fs, root, &keeper).unwrap();
        fs.write_file(f, &vec![pages as u8; 100 + pages]).unwrap();
        names.push(keeper);
    }
    for (name, f) in fillers {
        fs.delete_file(f).unwrap();
        dir::remove(&mut fs, root, &name).unwrap();
    }
    let want = contents(&mut fs, &names);

    // No free run, counting the big file's own sectors as free, holds it.
    let homes = page_homes(&mut fs);
    let big_homes = homes_of(&homes, big.fv);
    let count = fs.disk().geometry().unwrap().sector_count();
    let mut run = 0;
    let mut longest = 0;
    for s in 2..count {
        let da = DiskAddress(s as u16);
        let open = !fs.descriptor().bitmap.is_busy(da) || big_homes.contains(&da);
        run = if open { run + 1 } else { 0 };
        longest = longest.max(run);
    }
    assert!(
        longest < big_homes.len(),
        "{longest} >= {}",
        big_homes.len()
    );

    let report = Compactor::run(&mut fs).unwrap();
    assert!(report.pages_moved as usize > big_homes.len());
    assert_eq!(report.consecutive_files, report.files);
    let after = page_homes(&mut fs);
    assert!(consecutive(&homes_of(&after, big.fv)));
    assert_eq!(contents(&mut fs, &names), want);
}

#[test]
fn a_file_in_the_descriptors_range_is_placed_elsewhere() {
    // A fresh format lays the root directory down at DA 2, where the
    // descriptor's data pages belong after compaction.
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let desc_fv = descriptor::descriptor_fv();
    let before = page_homes(&mut fs);
    let range = homes_of(&before, desc_fv).len() - 1;
    let root_homes = homes_of(&before, root.fv);
    assert_eq!(root_homes[0], DiskAddress(2));
    assert!(consecutive(&root_homes));

    let report = Compactor::run(&mut fs).unwrap();
    let after = page_homes(&mut fs);
    let desc = homes_of(&after, desc_fv);
    assert_eq!(
        desc[1..],
        (2..2 + range as u16).map(DiskAddress).collect::<Vec<_>>()[..]
    );
    let moved = homes_of(&after, root.fv);
    assert!(consecutive(&moved) && moved.iter().all(|da| !desc.contains(da)));
    assert_eq!(report.consecutive_files, report.files);
    let root = fs.root_dir();
    assert_eq!(root.leader_da, moved[0]);
    assert!(dir::lookup(&mut fs, root, descriptor::DESCRIPTOR_NAME)
        .unwrap()
        .is_some());
}

#[test]
fn a_boot_file_in_place_stays_where_it_is() {
    let clock = SimClock::new();
    let trace = Trace::new();
    let machine = Machine::new(clock.clone(), trace.clone());
    let drive = DiskDrive::with_formatted_pack(clock, trace, DiskModel::Diablo31, 1);
    let mut os = AltoOs::install(machine, drive).unwrap();
    let boot = os.install_boot_file().unwrap();
    let homes = homes_of(&page_homes(&mut os.fs), boot.fv);
    // Page 1 at DA 0; the leader and pages 2 on at consecutive sectors.
    assert_eq!(homes[1], BOOT_PAGE_DA);
    assert!(homes[2].0 == homes[0].0 + 1 && consecutive(&homes[2..]));

    // The compaction swaps the root directory out of the descriptor's
    // range, and leaves the boot file alone.
    let report = Compactor::run(&mut os.fs).unwrap();
    assert!(report.pages_moved > 0);
    assert_eq!(homes_of(&page_homes(&mut os.fs), boot.fv), homes);
    // Every file but the boot file, whose page 1 is pinned away from its
    // leader, is consecutive.
    assert_eq!(report.consecutive_files, report.files - 1);
    os.bootstrap().unwrap();
}

// ----------------------------------------------------------------------
// What a stable run writes, and what a failed write leaves behind.
// ----------------------------------------------------------------------

/// A drive that records every write it is asked for — its sector, its op
/// and the label it carries — and fails one of them hard: before write
/// `fail` reaches the drive, a not-ready fault that outlasts the retry
/// budget is armed at its sector.
#[derive(Debug)]
struct Recorder {
    drive: DiskDrive,
    fail: Option<usize>,
    writes: Vec<(DiskAddress, SectorOp, Label)>,
}

impl Recorder {
    fn note(&mut self, da: DiskAddress, op: SectorOp, buf: &SectorBuf) {
        if !op.writes() {
            return;
        }
        if self.fail == Some(self.writes.len()) {
            let attempts = self.drive.retry_limit() + 1;
            self.drive
                .injector_mut()
                .arm(da, FaultKind::NotReady { attempts });
        }
        self.writes.push((da, op, buf.decoded_label()));
    }
}

impl Disk for Recorder {
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
        self.note(da, op, buf);
        self.drive.do_op(da, op, buf)
    }
    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        for req in batch.iter() {
            self.note(req.da, req.op, &req.buf);
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
    fn clock(&self) -> &SimClock {
        self.drive.clock()
    }
    fn trace(&self) -> &Trace {
        self.drive.trace()
    }
}

/// What a plain scavenge of `fixture`'s pack costs — drive ops, writes
/// and batches — and how many writes it records: the leading part of every
/// compaction of that pack.
fn scavenge_cost(fixture: impl Fn() -> FileSystem<Recorder>) -> ((u64, u64, u64), usize) {
    let mut fs = fixture();
    let cost = cost(&mut fs, |fs| {
        Scavenger::run(fs).unwrap();
    });
    (cost, fs.disk().writes.len())
}

/// Drive ops, writes and batches issued by `f`.
fn cost<D: Disk>(fs: &mut FileSystem<D>, f: impl FnOnce(&mut FileSystem<D>)) -> (u64, u64, u64) {
    let before = fs.disk().io_stats();
    f(fs);
    let after = fs.disk().io_stats();
    (
        after.ops - before.ops,
        after.write_ops - before.write_ops,
        after.batches - before.batches,
    )
}

#[test]
fn recompacting_a_compacted_pack_writes_only_the_descriptor() {
    let fixture = || {
        let (mut fs, _) = fragmented_fs(8, 5, 19);
        Compactor::run(&mut fs).unwrap();
        let drive = fs.unmount().unwrap();
        let recorder = Recorder {
            drive,
            fail: None,
            writes: vec![],
        };
        FileSystem::mount(recorder).unwrap()
    };
    let ((ops, writes, batches), scavenge) = scavenge_cost(fixture);
    let mut fs = fixture();
    let mut report = CompactReport::default();
    let total = cost(&mut fs, |fs| report = Compactor::run(fs).unwrap());
    assert_eq!((report.pages_moved, report.cycles), (0, 0));
    assert_eq!(report.consecutive_files, report.files);
    // Past its leading scavenge, the compactor reads the 4,872-sector pack
    // in 203 cylinder batches and flushes the descriptor: its leader's
    // read and one batch writing its two data pages. No page moves, no
    // leader is re-read or written and no directory is rewritten.
    let own = (total.0 - ops, total.1 - writes, total.2 - batches);
    assert_eq!(own, (4_872 + 1 + 2, 2, 203 + 1));
    let homes = page_homes(&mut fs);
    let desc = homes_of(&homes, descriptor::descriptor_fv());
    let recorded = &fs.disk().writes;
    assert_eq!(recorded.len() - scavenge, 2);
    assert!(
        recorded.iter().all(|(da, ..)| desc.contains(da)),
        "{recorded:?}"
    );
}

#[test]
fn an_in_place_file_with_stale_hints_gets_only_its_leader_written() {
    let fixture = || {
        let (mut fs, names) = fragmented_fs(8, 5, 19);
        Compactor::run(&mut fs).unwrap();
        let f = lookup(&mut fs, &names[2]);
        let mut leader = fs.read_leader(f).unwrap();
        (leader.last_page, leader.maybe_consecutive) = (1, false);
        fs.write_leader(f, &leader).unwrap();
        let recorder = Recorder {
            drive: fs.unmount().unwrap(),
            fail: None,
            writes: vec![],
        };
        (FileSystem::mount(recorder).unwrap(), f)
    };
    let (_, scavenge) = scavenge_cost(|| fixture().0);
    let (mut fs, f) = fixture();
    let report = Compactor::run(&mut fs).unwrap();
    assert_eq!(report.pages_moved, 0);
    let own: Vec<(DiskAddress, SectorOp)> = fs.disk().writes[scavenge..]
        .iter()
        .filter(|(_, _, label)| Fv::from_label(label) != descriptor::descriptor_fv())
        .map(|&(da, op, _)| (da, op))
        .collect();
    assert_eq!(own, [(f.leader_da, SectorOp::WRITE)]);
    let leader = fs.read_leader(f).unwrap();
    let homes = homes_of(&page_homes(&mut fs), f.fv);
    assert!(leader.maybe_consecutive);
    assert_eq!(
        (leader.last_page as usize, leader.last_da),
        (homes.len() - 1, homes[homes.len() - 1])
    );
}

/// Fails each write a stable compaction makes of its own — every move,
/// every free of an old home, every leader write and the directory
/// rewrite — and checks that the run stops with the error, a rebuild brings
/// back every file byte-exact, and a compaction after it leaves every file
/// consecutive. The descriptor flush is left out: it re-issues a failed
/// batched write page by page, after the fault has cleared.
#[test]
fn a_failed_write_in_a_stable_run_leaves_every_file_recoverable() {
    let fixture = |fail| {
        let (fs, names, _) = scattered_by_a_rewrite();
        let recorder = Recorder {
            drive: fs.unmount().unwrap(),
            fail,
            writes: vec![],
        };
        (FileSystem::mount(recorder).unwrap(), names)
    };
    let (_, scavenge) = scavenge_cost(|| fixture(None).0);
    let (mut fs, names) = fixture(None);
    let want = contents(&mut fs, &names);
    let report = Compactor::run(&mut fs).unwrap();
    let desc_fv = descriptor::descriptor_fv();
    let own: Vec<(usize, DiskAddress, SectorOp, Label)> = fs.disk().writes[scavenge..]
        .iter()
        .enumerate()
        .filter(|(_, (_, _, label))| Fv::from_label(label) != desc_fv)
        .map(|(k, &(da, op, label))| (scavenge + k, da, op, label))
        .collect();
    let moves = own
        .iter()
        .filter(|(_, _, op, label)| *op == SectorOp::WRITE_ALL && label.is_in_use());
    assert_eq!(moves.count(), report.pages_moved as usize);
    let leaders = own
        .iter()
        .filter(|(_, _, op, label)| *op == SectorOp::WRITE && label.page_number == 0);
    // The moved file's leader and the root directory's, rewritten; `sub`
    // names no moved leader, so none of its pages is written.
    assert_eq!(leaders.count(), 2);
    let sub = lookup(&mut fs, "sub");
    let sub = homes_of(&page_homes(&mut fs), sub.fv);
    assert!(own.iter().all(|(_, da, ..)| !sub.contains(da)));

    for &(k, da, ..) in &own {
        let (mut fs, _) = fixture(Some(k));
        let err = Compactor::run(&mut fs).unwrap_err();
        assert!(
            matches!(err, FsError::Disk(DiskError::HardError { da: at, .. }) if at == da),
            "write {k} at {da}: {err:?}"
        );
        let (mut fs, _) = Scavenger::rebuild(fs.crash()).unwrap();
        assert_eq!(contents(&mut fs, &names), want, "write {k} at {da}");
        let report = Compactor::run(&mut fs).unwrap();
        assert_eq!(report.consecutive_files, report.files, "write {k} at {da}");
    }
}
