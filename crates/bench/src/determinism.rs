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
use alto_fs::{compact::Compactor, dir, FileSystem, Scavenger};
use alto_net::{ClientConfig, ClientFleet, Ether, PageServer, PAGE_SERVICE_SOCKET};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, SplitMix64, Trace};

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

fn digest_trace(trace: &Trace) -> u64 {
    let mut f = Fold::default();
    for ev in trace.events() {
        f.u64(ev.at.as_nanos());
        f.bytes(ev.tag.as_bytes());
        f.bytes(ev.detail.as_bytes());
    }
    f.value()
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

fn array(k: usize, placement: Placement) -> (SimClock, Trace, DriveArray) {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(true);
    let arr = DriveArray::with_arms(
        k,
        placement,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    (clock, trace, arr)
}

/// Chained sequential reads across all K arms (hash placement interleaves
/// consecutive addresses onto every arm).
pub fn array_seq(k: usize) -> RunDigest {
    let (clock, trace, mut arr) = array(k, Placement::Hash);
    let mut data = Fold::default();
    for _ in 0..ARRAY_ROUNDS {
        let mut batch: Vec<BatchRequest> = (0..ARRAY_BATCH)
            .map(|i| BatchRequest::new(DiskAddress(i), SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok(), "array_seq read failed: {r:?}");
        }
        alto_disk::pool::recycle_results(results);
        for req in &batch {
            data.words(&req.buf.data);
        }
    }
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// Seeded-random read batches over the whole K-arm address space.
pub fn array_random(k: usize) -> RunDigest {
    let (clock, trace, mut arr) = array(k, Placement::Hash);
    let total = arr.geometry().expect("geometry").sector_count() as u64;
    let mut rng = SplitMix64::new(0xDE7E);
    let mut data = Fold::default();
    for _ in 0..ARRAY_ROUNDS {
        let mut batch: Vec<BatchRequest> = (0..ARRAY_BATCH)
            .map(|_| {
                let da = DiskAddress((rng.next_u64() % total) as u16);
                BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        let results = arr.do_batch(&mut batch);
        for r in &results {
            assert!(r.is_ok(), "array_random read failed: {r:?}");
        }
        alto_disk::pool::recycle_results(results);
        for req in &batch {
            data.words(&req.buf.data);
        }
    }
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// Populate a K-pack file system, then run a full scavenger rebuild —
/// phases 1 and 3 sweep every pack in interleaved per-arm batches.
pub fn array_scavenge(k: usize) -> RunDigest {
    let (clock, trace, arr) = array(k, Placement::Range);
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
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// Fragment a K-pack file system, then compact it: the permutation's
/// chained `WRITE_ALL` moves (pure cycles included — hash placement spreads
/// the interleaved pages over every arm), sweep frees and batched leader
/// refresh. The data digest folds the compaction report and every file read
/// back afterwards.
pub fn array_compact(k: usize) -> RunDigest {
    const FILES: usize = 12;
    const ROUNDS: usize = 6;
    let (clock, trace, arr) = array(k, Placement::Hash);
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
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// A full scripted-fleet server round: `clients` diskless clients open and
/// page in files served by a `PageServer` over a K-arm Trident store. The
/// data digest folds the fleet's order-independent served-word digest with
/// the server's counters, so a lost, reordered, or double-served page
/// diverges it.
pub fn server_round(clients: usize, drives: usize) -> RunDigest {
    const FILES: usize = 16;
    const PAGES: u16 = 8;
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(true);
    let arr = DriveArray::with_arms(
        drives,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Trident,
    );
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
    RunDigest {
        trace: digest_trace(&trace),
        data: data.value(),
        sim_ns: clock.now().as_nanos(),
    }
}

/// The standard suite: every `array_*` wall workload shape plus a fleet
/// round, each run twice. `clients` sizes the fleet (the CI harness uses
/// 1000; the in-tree regression test uses a smaller fleet to stay fast).
pub fn standard_suite(k: usize, clients: usize) -> Vec<WorkloadReport> {
    vec![
        repeat_run("array_seq", || array_seq(k)),
        repeat_run("array_random", || array_random(k)),
        repeat_run("array_scavenge", || array_scavenge(k)),
        repeat_run("array_compact", || array_compact(k)),
        repeat_run("server_round", || server_round(clients, k)),
    ]
}
