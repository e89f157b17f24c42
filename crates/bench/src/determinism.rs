//! The double-run determinism harness.
//!
//! The simulator's core promise is that simulated time and every observable
//! it derives — trace streams, served bytes, scavenge verdicts — are a pure
//! function of the workload: bit-identical run to run, with the shadow
//! auditor armed or not. The static side of that promise is `cargo xtask
//! analyze` (no hash-order iteration, no host threads, no undisciplined
//! clocks); this module is the runtime side.
//!
//! Each workload is executed **twice** in one process. The repeat catches
//! in-process nondeterminism (every `HashMap` draws fresh hasher keys per
//! instance, so hash-order leaks diverge even within one process). Both
//! runs must produce the same [`RunDigest`]: a fold of the full trace
//! stream, a fold of every data word the workload observed, and the final
//! simulated elapsed time.

use alto_disk::{
    BatchRequest, Disk, DiskAddress, DiskModel, DriveArray, Placement, SectorBuf, SectorOp,
};
use alto_fs::hints::{resolve_page, HintStats, PageHints};
use alto_fs::{compact::Compactor, dir, FileSystem, Scavenger};
use alto_net::{
    ClientConfig, ClientFleet, Ether, PageRequest, PageServer, PageStore, PAGE_SERVICE_SOCKET,
};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, SplitMix64, Trace};
use alto_streams::{DiskByteStream, Stream};

/// FNV-1a over everything a run observes.
#[derive(Debug, Clone, Copy)]
pub struct Fold(u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
}

impl Fold {
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub fn word(&mut self, w: u16) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn words(&mut self, ws: &[u16]) {
        for &w in ws {
            self.word(w);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The observables one run produces. Two runs of the same workload must
/// compare equal on every field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Fold of every trace event (time, tag, detail), in stream order.
    pub trace: u64,
    /// Fold of every data word the workload observed (sector reads, served
    /// pages, scavenge verdicts).
    pub data: u64,
    /// Simulated time elapsed over the run, in nanoseconds.
    pub sim_ns: u64,
}

/// A run's digest: its trace stream, its data fold and the clock.
fn run_digest(clock: &SimClock, trace: &Trace, data: &Fold) -> RunDigest {
    let mut f = Fold::default();
    for ev in trace.events() {
        f.u64(ev.at.as_nanos());
        f.bytes(ev.tag.as_bytes());
        f.bytes(ev.detail.as_bytes());
    }
    RunDigest {
        trace: f.value(),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// One workload's two runs.
#[derive(Debug)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub first: RunDigest,
    pub repeat: RunDigest,
}

impl WorkloadReport {
    pub fn identical(&self) -> bool {
        self.first == self.repeat
    }

    /// A compact one-line summary, flagging the first divergence if any.
    pub fn describe(&self) -> String {
        if self.identical() {
            format!(
                "{:<16} ok  trace {:016x}  data {:016x}  sim {} ns",
                self.name, self.first.trace, self.first.data, self.first.sim_ns
            )
        } else {
            format!(
                "{:<16} DIVERGED  first {:?}  repeat {:?}",
                self.name, self.first, self.repeat
            )
        }
    }

    pub fn json(&self) -> String {
        format!(
            "    {{ \"workload\": \"{}\", \"identical\": {}, \"trace\": \"{:016x}\", \"data\": \"{:016x}\", \"sim_ns\": {} }}",
            self.name,
            self.identical(),
            self.first.trace,
            self.first.data,
            self.first.sim_ns
        )
    }
}

/// Runs `f`, then runs it again.
pub fn repeat_run(name: &'static str, f: impl Fn() -> RunDigest) -> WorkloadReport {
    WorkloadReport {
        name,
        first: f(),
        repeat: f(),
    }
}

/// Requests per array batch: every arm of a 4-arm array gets a share of
/// 256, so each batch exercises the overlapped timeline merge at scale.
const ARRAY_BATCH: u16 = 1024;
const ARRAY_ROUNDS: usize = 12;

fn array(k: usize, placement: Placement, model: DiskModel) -> (SimClock, Trace, DriveArray) {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(true);
    let arr = DriveArray::with_arms(k, placement, clock.clone(), trace.clone(), model);
    (clock, trace, arr)
}

/// Chained sequential reads across all K arms (hash placement interleaves
/// consecutive addresses onto every arm).
pub fn array_seq(k: usize) -> RunDigest {
    array_reads(k, |_, i| DiskAddress(i))
}

/// Seeded-random read batches over the whole K-arm address space.
pub fn array_random(k: usize) -> RunDigest {
    let mut rng = SplitMix64::new(0xDE7E);
    array_reads(k, move |total, _| {
        DiskAddress((rng.next_u64() % total) as u16)
    })
}

/// [`ARRAY_ROUNDS`] batches of [`ARRAY_BATCH`] reads on a hash-placed
/// K-arm array; `pick(sectors, i)` names request `i`'s address.
fn array_reads(k: usize, mut pick: impl FnMut(u64, u16) -> DiskAddress) -> RunDigest {
    let (clock, trace, mut arr) = array(k, Placement::Hash, DiskModel::Diablo31);
    let total = arr.geometry().expect("geometry").sector_count() as u64;
    let mut data = Fold::default();
    for _ in 0..ARRAY_ROUNDS {
        let mut batch: Vec<BatchRequest> = (0..ARRAY_BATCH)
            .map(|i| BatchRequest::new(pick(total, i), SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok(), "array read failed: {r:?}");
        }
        alto_disk::pool::recycle_results(results);
        for req in &batch {
            data.words(&req.buf.data);
        }
    }
    run_digest(&clock, &trace, &data)
}

/// Populate a K-pack file system, then run a full scavenger rebuild —
/// phases 1 and 3 sweep every pack in interleaved per-arm batches.
pub fn array_scavenge(k: usize) -> RunDigest {
    let (clock, trace, arr) = array(k, Placement::Range, DiskModel::Diablo31);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    for i in 0..12 {
        let f = dir::create_named_file(&mut fs, root, &format!("det-{i}.dat")).expect("create");
        fs.write_file(f, &vec![(i * 17 % 251) as u8; (i + 3) * 512 - 9])
            .expect("write");
    }
    let disk = fs.unmount().expect("unmount");
    let (mut fs, report) = Scavenger::rebuild(disk).expect("scavenge");
    let mut data = Fold::default();
    data.u64(u64::from(report.sectors_scanned));
    data.u64(u64::from(report.live_pages));
    data.u64(u64::from(report.free_pages));
    data.u64(u64::from(report.links_repaired));
    let root = fs.root_dir();
    for i in 0..12 {
        let f = dir::lookup(&mut fs, root, &format!("det-{i}.dat"))
            .expect("lookup")
            .expect("present");
        data.bytes(&fs.read_file(f).expect("read back"));
    }
    run_digest(&clock, &trace, &data)
}

/// Fragment a K-pack file system, then compact it: the permutation's
/// chained `WRITE_ALL` moves (pure cycles included — hash placement spreads
/// the interleaved pages over every arm), sweep frees and batched leader
/// refresh. The data digest folds the compaction report and every file read
/// back afterwards.
pub fn array_compact(k: usize) -> RunDigest {
    const FILES: usize = 12;
    const ROUNDS: usize = 6;
    let (clock, trace, arr) = array(k, Placement::Hash, DiskModel::Diablo31);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    let names: Vec<String> = (0..FILES).map(|i| format!("cmp-{i}.dat")).collect();
    for name in &names {
        dir::create_named_file(&mut fs, root, name).expect("create");
    }
    // Grow every file a page at a time in a seeded order, so the files'
    // pages interleave on the packs.
    let mut rng = SplitMix64::new(0xC0AC);
    for round in 1..=ROUNDS {
        let mut order: Vec<usize> = (0..FILES).collect();
        rng.shuffle(&mut order);
        for i in order {
            let f = dir::lookup(&mut fs, root, &names[i])
                .expect("lookup")
                .expect("present");
            fs.write_file(f, &vec![(i * 29 % 251) as u8; round * 512 - i])
                .expect("write");
        }
    }
    let report = Compactor::run(&mut fs).expect("compact");
    let mut data = Fold::default();
    for v in [
        report.files,
        report.pages_moved,
        report.pages_in_place,
        report.cycles,
        report.consecutive_files,
    ] {
        data.u64(u64::from(v));
    }
    data.u64(report.elapsed.as_nanos());
    let root = fs.root_dir();
    for name in &names {
        let f = dir::lookup(&mut fs, root, name)
            .expect("lookup")
            .expect("present");
        data.bytes(&fs.read_file(f).expect("read back"));
    }
    run_digest(&clock, &trace, &data)
}

/// A full scripted-fleet server round: `clients` diskless clients open and
/// page in files served by a `PageServer` over a K-arm Trident store. The
/// data digest folds the fleet's order-independent served-word digest with
/// the server's counters, so a lost, reordered, or double-served page
/// diverges it.
pub fn server_round(clients: usize, drives: usize) -> RunDigest {
    const FILES: usize = 16;
    const PAGES: u16 = 8;
    let (clock, trace, arr) = array(drives, Placement::Range, DiskModel::Trident);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    let names: Vec<String> = (0..FILES).map(|f| format!("det{f}.dat")).collect();
    let bytes = vec![0x5Eu8; PAGES as usize * 512 - 64];
    for name in &names {
        let file = dir::create_named_file(&mut fs, root, name).expect("create");
        fs.write_file(file, &bytes).expect("write");
    }

    let mut ether = Ether::new(clock.clone(), trace.clone());
    ether.attach(1).expect("server host");
    let mut server = PageServer::new(1);
    let cfg = ClientConfig::new(1, PAGE_SERVICE_SOCKET);
    let mut fleet =
        ClientFleet::new(&mut ether, cfg, clients, |i| names[i % FILES].clone()).expect("fleet");
    let mut service = FsPageService::new(&mut fs);
    while !fleet.all_done() {
        let a = fleet.tick(&mut ether).expect("fleet tick");
        let b = server.tick(&mut ether, &mut service).expect("server tick");
        if a + b == 0 {
            ether.idle_wait(SimTime::from_millis(1));
        }
    }
    let mut data = Fold::default();
    data.u64(fleet.digest());
    data.u64(server.stats.served);
    data.u64(server.stats.errors);
    data.u64(server.stats.send_failures);
    run_digest(&clock, &trace, &data)
}

/// Every link chase and page lookup in `fs`, `streams` and `core` on one
/// Diablo 31 drive: a stale last-page hint, a cache-off directory scan,
/// hint installation and rung-1 recovery, stream seeks both ways and a
/// close after growth, a shrink, a delete, a scattered file read back, and
/// pages served through the page service's slow path. The data digest
/// folds every answer.
pub fn fs_walks() -> RunDigest {
    fn note(data: &mut Fold, v: &dyn std::fmt::Debug) {
        data.bytes(format!("{v:?}").as_bytes());
    }
    let (clock, trace, arr) = array(1, Placement::Range, DiskModel::Diablo31);
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    let mut data = Fold::default();
    // Forty entries spread the root directory over several pages.
    let names: Vec<String> = (0..40).map(|i| format!("walk-{i:02}.dat")).collect();
    let mut files = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let f = dir::create_named_file(&mut fs, root, name).expect("create");
        fs.write_file(f, &vec![(i * 13 % 251) as u8; (i % 13 + 1) * 512 - 3 * i])
            .expect("write");
        files.push(f);
    }
    // A last-page hint that names a page which is not the last.
    let long = files[12];
    let mut leader = fs.read_leader(long).expect("leader");
    (leader.last_page, leader.last_da) = (3, DiskAddress(long.leader_da.0 + 3));
    fs.write_leader(long, &leader).expect("leader");
    note(&mut data, &fs.file_length(long));
    fs.set_hint_cache_enabled(false);
    note(&mut data, &dir::lookup(&mut fs, root, &names[37]));
    note(&mut data, &dir::lookup(&mut fs, root, "absent.dat"));
    fs.set_hint_cache_enabled(true);
    // Hints for every 4th page, then rung 1 from a missing and a wrong hint.
    let mut hints = PageHints::install(&mut fs, root, &names[12], 4).expect("install");
    let mut stats = HintStats::default();
    for (page, hint) in [(9, DiskAddress::NIL), (6, DiskAddress(2))] {
        let found = resolve_page(&mut fs, &mut hints, page, hint, &mut stats).expect("resolve");
        note(&mut data, &found);
    }
    // Seeks forwards and backwards, growth, and a close that has to find
    // the new last page.
    let mut s = DiskByteStream::open(&mut fs, long).expect("open");
    let mut buf = [0u8; 100];
    for pos in [9 * 512 + 5, 700, 13 * 512 - 36] {
        s.set_position(&mut fs, pos).expect("seek");
        note(&mut data, &(s.read_bytes(&mut fs, &mut buf), buf));
    }
    s.write_bytes(&mut fs, &[0x3C; 3000]).expect("grow");
    s.set_position(&mut fs, 10).expect("seek back");
    s.close(&mut fs).expect("close");
    data.bytes(&fs.read_file(long).expect("read back"));
    fs.write_file(files[5], &[5; 100]).expect("shrink");
    fs.delete_file(files[7]).expect("delete");
    // A scattered file read back, then served with stale consecutive guesses.
    crate::scatter_file(&mut fs, files[10], 0x5CA7);
    data.bytes(&fs.read_file(files[10]).expect("read scattered"));
    note(&mut data, &fs.stats());
    let mut service = FsPageService::new(&mut fs);
    let open_id = service.open(&names[10]).expect("open").open_id;
    let req = |page: u16| PageRequest {
        open_id,
        page,
        tag: page.into(),
    };
    let mut failed = Vec::new();
    for reqs in [[req(5), req(3)].as_slice(), &[req(6)]] {
        service.serve(reqs, &mut failed, |tag, words| {
            note(&mut data, &(tag, words));
        });
    }
    note(
        &mut data,
        &(failed, service.fast_served, service.slow_served),
    );
    run_digest(&clock, &trace, &data)
}

/// The standard suite: every `array_*` wall workload shape, a fleet round
/// and the one-drive chain walks, each run twice. `clients` sizes the fleet (the CI harness uses
/// 1000; the in-tree regression test uses a smaller fleet to stay fast).
pub fn standard_suite(k: usize, clients: usize) -> Vec<WorkloadReport> {
    vec![
        repeat_run("array_seq", || array_seq(k)),
        repeat_run("array_random", || array_random(k)),
        repeat_run("array_scavenge", || array_scavenge(k)),
        repeat_run("array_compact", || array_compact(k)),
        repeat_run("server_round", || server_round(clients, k)),
        repeat_run("fs_walks", fs_walks),
    ]
}
