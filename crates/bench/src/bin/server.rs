//! Page-server load harness: thousands of scripted diskless clients
//! against one server (§5.2 / §4).
//!
//! Drives K clients × an M-arm drive array through the full stack —
//! scripted clients retransmitting over the simulated ether, the
//! `PageServer` request loop, `FsPageService` address-sorted batching,
//! the zero-copy chained read path, pooled reply payloads — and reports
//! both simulated-time service rates and host (wall-clock) throughput:
//!
//! * served page requests per **simulated** second — the §4 service-rate
//!   story: cross-client batching vs one-rotation-per-request naive
//!   service (`--config naive` flips `set_batching_enabled(false)`);
//! * served page requests per **wall** second and allocations per request
//!   — the simulator-cost story (pooled payloads, zero-copy views);
//! * p50/p95/p99 reply latency in simulated time, first send → reply.
//!
//! Run with:
//!
//! ```text
//! cargo run -p alto-bench --release --bin server -- --json BENCH_server.json
//! ```
//!
//! The default emits three points: batched and naive at 1,000 clients
//! (the ablation pair), plus batched at 5,000 clients (the scale point).
//! `--clients N` measures the requested configs at one size instead.

use std::time::Instant;

use alto_disk::{DiskModel, DriveArray, Placement};
use alto_fs::{dir, FileSystem};
use alto_net::server::PAGE_SERVICE_SOCKET;
use alto_net::{ClientConfig, ClientFleet, Ether, PageServer};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, Trace};

// Same counting allocator as the wall bench: allocs/request needs a real
// counter. Delegates every call to `System` unchanged.
#[allow(unsafe_code)]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter bump has no
    // effect on the returned memory.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }
}

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// Distinct files on the server's disk, shared round-robin by the fleet.
const FILES: usize = 32;
/// Data pages per file — every client's script reads all of them.
const PAGES: u16 = 64;

struct Point {
    config: &'static str,
    clients: usize,
    drives: usize,
    served: u64,
    sim_ns: u64,
    wall_ns: u128,
    allocs: u64,
    retransmits: u64,
    failed: u64,
    send_failures: u64,
    batches: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
}

impl Point {
    fn served_per_sim_sec(&self) -> f64 {
        self.served as f64 / (self.sim_ns as f64 / 1e9)
    }
    fn served_per_wall_sec(&self) -> f64 {
        self.served as f64 / (self.wall_ns as f64 / 1e9)
    }
    fn allocs_per_request(&self) -> f64 {
        self.allocs as f64 / self.served.max(1) as f64
    }
}

fn percentile(sorted: &[SimTime], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx].as_nanos()
}

/// One complete fleet run to completion. The payload/wire pools are
/// thread-local and survive across calls, so a warmup run at the same
/// size leaves them at steady-state capacity and the measured run's
/// allocation count reflects the hot path, not pool fill.
fn run(config: &'static str, clients: usize, drives: usize, batching: bool) -> Point {
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let arr = DriveArray::with_arms(
        drives,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Trident,
    );
    let mut fs = FileSystem::format(arr).expect("format");
    let root = fs.root_dir();
    let names: Vec<String> = (0..FILES).map(|f| format!("load{f}.dat")).collect();
    let bytes = vec![0xB7u8; PAGES as usize * 512 - 64];
    for name in &names {
        let file = dir::create_named_file(&mut fs, root, name).expect("create");
        fs.write_file(file, &bytes).expect("write");
    }

    let mut ether = Ether::new(clock.clone(), trace);
    ether.attach(1).expect("server host");
    let mut server = PageServer::new(1);
    server.set_batching_enabled(batching);
    let cfg = ClientConfig::new(1, PAGE_SERVICE_SOCKET);
    let mut fleet =
        ClientFleet::new(&mut ether, cfg, clients, |i| names[i % FILES].clone()).expect("fleet");
    fleet.samples.reserve(clients * PAGES as usize);
    let mut service = FsPageService::new(&mut fs);

    let allocs0 = alloc_count::allocs();
    let sim0 = clock.now();
    let wall0 = Instant::now();
    while !fleet.all_done() {
        let a = fleet.tick(&mut ether).expect("fleet tick");
        let b = server.tick(&mut ether, &mut service).expect("server tick");
        if a + b == 0 {
            ether.idle_wait(SimTime::from_millis(1));
        }
    }
    let wall_ns = wall0.elapsed().as_nanos();
    let sim_ns = (clock.now() - sim0).as_nanos();
    let allocs = alloc_count::allocs() - allocs0;
    let stats = fleet.stats();
    let mut samples = std::mem::take(&mut fleet.samples);
    samples.sort();
    Point {
        config,
        clients,
        drives,
        served: server.stats.served,
        sim_ns,
        wall_ns,
        allocs,
        retransmits: stats.retransmits,
        failed: stats.failed,
        send_failures: server.stats.send_failures,
        batches: server.stats.batches,
        p50_ns: percentile(&samples, 0.50),
        p95_ns: percentile(&samples, 0.95),
        p99_ns: percentile(&samples, 0.99),
    }
}

fn print_point(p: &Point) {
    println!(
        "{:<8} {:>6} clients x {} drives: {:>9.1} served/sim-s  {:>10.0} served/wall-s  {:>7.3} allocs/req  p50 {:>7.1}ms  p95 {:>7.1}ms  p99 {:>7.1}ms  ({} served, {} batches, {} rexmit, {} failed, {} send drops)",
        p.config,
        p.clients,
        p.drives,
        p.served_per_sim_sec(),
        p.served_per_wall_sec(),
        p.allocs_per_request(),
        p.p50_ns as f64 / 1e6,
        p.p95_ns as f64 / 1e6,
        p.p99_ns as f64 / 1e6,
        p.served,
        p.batches,
        p.retransmits,
        p.failed,
        p.send_failures,
    );
}

fn json_point(p: &Point) -> String {
    format!(
        "    {{ \"config\": \"{}\", \"clients\": {}, \"drives\": {}, \"pages_per_client\": {}, \"served\": {}, \"batches\": {}, \"failed\": {}, \"retransmits\": {}, \"send_failures\": {}, \"sim_ns\": {}, \"wall_ns\": {}, \"allocs\": {}, \"served_per_sim_sec\": {:.2}, \"served_per_wall_sec\": {:.1}, \"allocs_per_request\": {:.4}, \"latency_ns\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {} }} }}",
        p.config,
        p.clients,
        p.drives,
        PAGES,
        p.served,
        p.batches,
        p.failed,
        p.retransmits,
        p.send_failures,
        p.sim_ns,
        p.wall_ns,
        p.allocs,
        p.served_per_sim_sec(),
        p.served_per_wall_sec(),
        p.allocs_per_request(),
        p.p50_ns,
        p.p95_ns,
        p.p99_ns,
    )
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut which = "both".to_string();
    let mut clients: Option<usize> = None;
    let mut drives = 2usize;
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(
                    raw.next()
                        .unwrap_or_else(|| "BENCH_server.json".to_string()),
                );
            }
            "--config" => {
                which = raw.next().unwrap_or_else(|| "both".to_string());
            }
            "--clients" => {
                clients = raw.next().and_then(|s| s.parse().ok());
            }
            "--drives" => {
                drives = raw.next().and_then(|s| s.parse().ok()).unwrap_or(drives);
            }
            other => {
                eprintln!("unknown argument {other}; usage: server [--json PATH] [--config batched|naive|both] [--clients N] [--drives M]");
                std::process::exit(2);
            }
        }
    }
    let batched = which != "naive";
    let naive = which != "batched";

    // The measured plan: at an explicit --clients size, the requested
    // configs there; by default the 1k ablation pair plus the 5k batched
    // scale point.
    let mut plan: Vec<(&'static str, usize, bool)> = Vec::new();
    match clients {
        Some(n) => {
            if batched {
                plan.push(("batched", n, true));
            }
            if naive {
                plan.push(("naive", n, false));
            }
        }
        None => {
            if batched {
                plan.push(("batched", 1000, true));
            }
            if naive {
                plan.push(("naive", 1000, false));
            }
            if batched {
                plan.push(("batched", 5000, true));
            }
        }
    }

    // Warmup at the largest planned size: grows the thread-local payload
    // pools (and every scratch vector) to steady state so the measured
    // points count hot-path allocations only.
    let warm = plan.iter().map(|&(_, n, _)| n).max().unwrap_or(0);
    if warm > 0 {
        let _ = run("warmup", warm, drives, true);
    }

    println!("== page-server load (files: {FILES}, pages/client: {PAGES})");
    let mut points = Vec::new();
    for (name, n, b) in plan {
        let p = run(name, n, drives, b);
        print_point(&p);
        assert_eq!(p.failed, 0, "clients failed under lossless load");
        assert_eq!(
            p.served as usize % n,
            0,
            "partial service: {} served across {} clients",
            p.served,
            n
        );
        points.push(p);
    }

    // The headline ratio when both 1k points are present.
    let find = |cfg: &str, n: usize| {
        points
            .iter()
            .find(|p| p.config == cfg && p.clients == n)
            .map(Point::served_per_sim_sec)
    };
    if let (Some(b), Some(nv)) = (find("batched", 1000), find("naive", 1000)) {
        println!(
            "\nbatched/naive served-per-sim-sec at 1k clients: {:.1}x",
            b / nv
        );
    }

    if let Some(path) = json_path {
        let rows: Vec<String> = points.iter().map(json_point).collect();
        let json = format!(
            "{{\n  \"bench\": \"server\",\n  \"unit\": \"served page requests per simulated second\",\n  \"points\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        );
        std::fs::write(&path, json).expect("write json");
        println!("wrote {path}");
    }
}
