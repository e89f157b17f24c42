//! `pageserver` and `pageserver_1drive`: the §5.2 page service under an
//! open loop of diskless sessions.
//!
//! The server's pack set (a Trident `DriveArray`, two arms or one) holds 32
//! files of 64 pages. Sessions arrive on a seeded Poisson schedule in
//! simulated time, at each rate of a fixed list. Each session is one
//! `ScriptedClient` that opens one file, chosen with skewed popularity, and
//! reads it with its window of 8. The benchmark drives every client itself:
//! a session starts when it is due, only started and unfinished sessions
//! are pumped, and when nothing is in flight simulated time jumps to the
//! next arrival. A session's latency runs from its *scheduled* arrival to
//! its last verified page, so a tick that holds the loop shows up as lag.

use alto_disk::{DiskModel, DriveArray, Placement};
use alto_fs::file::pack_bytes;
use alto_fs::{dir, FileSystem};
use alto_net::client::FLEET_SOCKET_BASE;
use alto_net::server::PAGE_SERVICE_SOCKET;
use alto_net::{ClientConfig, ClientPhase, Ether, PageServer, PageStore, ScriptedClient};
use alto_os::FsPageService;
use alto_sim::{SimClock, SimTime, Trace};

use crate::round::{Io, Measure, Round, Scale, Snap};
use crate::span::{self, span, Layer};
use crate::timed::{Probe, TimedStore};
use crate::util::{ratio, Dist, Rng};

/// Files on the server and data pages per file (the page-server file set).
pub const FILES: usize = 32;
pub const PAGES: usize = 64;
/// Bytes per file: 64 pages, the last one short.
const FILE_BYTES: usize = PAGES * 512 - 64;
/// Sessions started at each rate.
pub const SESSIONS: usize = 4000;
/// The session-latency limit on the tail percentile, shared by both
/// page-server workloads (simulated ms).
pub const LIMIT_MS: f64 = 4_000.0;
const SERVER: u8 = 1;
/// Client hosts `2..=254`; session `i` sits at host `2 + i % HOSTS`,
/// socket `FLEET_SOCKET_BASE + i / HOSTS`.
const HOSTS: usize = 253;

/// One page-server workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub drives: usize,
    /// Offered session rates, sessions per simulated second, ascending.
    pub rates: &'static [f64],
    /// The rate whose latencies are the workload's `lat_*` metrics.
    pub reference: f64,
}

// Each list steps past its workload's knee in one stride. Across seeds the
// two-drive tail at 3 sessions/s straddles the limit (3.1–4.7 s), and the
// one-drive tail anywhere from 0.2 to 0.5 sessions/s is bimodal (some
// seeds collapse into tens of seconds, others stay near one second), so
// listing those rates would make `max_rate_per_sim_s` flip with the seed.
// Each reference rate is the highest passing rate's half or tenth, where
// the tail moves least from seed to seed.
pub const TWO_DRIVES: Config = Config {
    drives: 2,
    rates: &[0.5, 1.0, 2.0, 4.0],
    reference: 1.0,
};

pub const ONE_DRIVE: Config = Config {
    drives: 1,
    rates: &[0.02, 0.05, 0.1, 1.0],
    reference: 0.1,
};

/// The order-independent fold `ScriptedClient` keeps over served words.
fn client_digest(bytes: &[u8]) -> u64 {
    let mut d = 0u64;
    for (p, chunk) in bytes.chunks(512).enumerate() {
        let mut words = [0u16; 256];
        pack_bytes(chunk, &mut words);
        let page = p as u64 + 1;
        for (i, &w) in words.iter().enumerate() {
            d = d.wrapping_add((page << 32) ^ ((i as u64) << 16) ^ w as u64);
        }
    }
    d
}

/// What one rate point measured.
#[derive(Debug, Default)]
struct Point {
    sessions: u64,
    failed: u64,
    pages: u64,
    lat: Option<Dist>,
    /// First send → reply of every served page.
    rtt: Option<Dist>,
    grows: bool,
    backlog_max: usize,
    lag_max_ns: u64,
    tick_max_ns: u64,
    retransmits: u64,
    duplicates: u64,
    send_failures: u64,
    errors: u64,
    reads: u64,
    busy_ticks: u64,
    fast: u64,
    slow: u64,
    idle_waits: u64,
    digest: u64,
}

/// One rate point's sessions: when each is due and which file it reads.
struct Schedule {
    arrivals: Vec<SimTime>,
    files: Vec<usize>,
}

/// `sessions` Poisson arrivals at `rate` from `start`, with file picks.
///
/// Both draws are stratified ([`Rng::strata`]): the gaps are exponential
/// with mean `1 / rate` and the picks follow weight 1 / (k + 1) for file
/// k, each in seeded order. Every seed then offers the same load and the
/// same per-file shares in a different order, so the seed moves *when*
/// sessions bunch up, not how much work the point holds.
fn schedule(rng: &mut Rng, sessions: usize, rate: f64, start: SimTime) -> Schedule {
    let mut t = 0.0;
    let arrivals = rng
        .strata(sessions)
        .into_iter()
        .map(|u| {
            t += -(1.0 - u).ln() / rate;
            start + SimTime::from_nanos((t * 1e9) as u64)
        })
        .collect();
    let weights: Vec<f64> = (0..FILES).map(|k| 1.0 / (k as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let files = rng
        .strata(sessions)
        .into_iter()
        .map(|u| {
            let mut x = u * total;
            weights
                .iter()
                .position(|&w| {
                    x -= w;
                    x < 0.0
                })
                .unwrap_or(FILES - 1)
        })
        .collect();
    Schedule { arrivals, files }
}

fn run_point<S: PageStore>(
    clock: &SimClock,
    trace: &Trace,
    store: &mut S,
    sched: &Schedule,
    names: &[String],
    expect: &[u64],
) -> Result<Point, String> {
    let mut ether = Ether::new(clock.clone(), trace.clone());
    ether.attach(SERVER).map_err(|e| format!("{e:?}"))?;
    for h in 0..HOSTS {
        ether.attach(2 + h as u8).map_err(|e| format!("{e:?}"))?;
    }
    let mut server = PageServer::new(SERVER);
    let cfg = ClientConfig::new(SERVER, PAGE_SERVICE_SOCKET);
    let Schedule { arrivals, files } = sched;
    let n = arrivals.len();
    let mut clients: Vec<Option<ScriptedClient>> = (0..n).map(|_| None).collect();
    let mut active: Vec<usize> = Vec::new();
    let mut host_active = [0u32; HOSTS];
    let mut backlog = Vec::with_capacity(n);
    let mut lat = Vec::with_capacity(n);
    let mut rtt: Vec<SimTime> = Vec::with_capacity(n * PAGES);
    let mut inbox = Vec::new();
    let mut p = Point::default();
    let mut next = 0;
    loop {
        let now = clock.now();
        while next < n && arrivals[next] <= now {
            let host = 2 + (next % HOSTS) as u8;
            let socket = FLEET_SOCKET_BASE + (next / HOSTS) as u16;
            clients[next] = Some(ScriptedClient::new(
                host,
                socket,
                names[files[next]].clone(),
                cfg,
            ));
            p.lag_max_ns = p.lag_max_ns.max((now - arrivals[next]).as_nanos());
            host_active[next % HOSTS] += 1;
            active.push(next);
            backlog.push(active.len());
            next += 1;
        }

        // Deliver replies, retire finished sessions, pump the rest.
        let mut events = 0u64;
        span(Layer::Net, "net.clients", || -> Result<(), String> {
            for (h, &count) in host_active.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                inbox.clear();
                ether
                    .drain_arrived(2 + h as u8, &mut inbox)
                    .map_err(|e| format!("{e:?}"))?;
                for pkt in inbox.drain(..) {
                    let slot = pkt.dst_socket.wrapping_sub(FLEET_SOCKET_BASE) as usize;
                    let idx = slot * HOSTS + h;
                    match clients.get_mut(idx).and_then(Option::as_mut) {
                        Some(c) => {
                            events += 1;
                            c.on_packet(pkt, now, &mut rtt);
                        }
                        None => alto_net::pool::recycle_words(pkt.payload),
                    }
                }
            }
            let mut k = 0;
            while k < active.len() {
                let i = active[k];
                let c = clients[i].as_ref().expect("active sessions have clients");
                if !c.finished() {
                    k += 1;
                    continue;
                }
                let ok = c.phase() == ClientPhase::Done
                    && c.received == PAGES as u64
                    && c.digest == expect[files[i]];
                if c.phase() == ClientPhase::Done && !ok {
                    return Err(format!(
                        "session {i} ({}): served digest {:#x}, file digest {:#x}, {} pages",
                        names[files[i]], c.digest, expect[files[i]], c.received
                    ));
                }
                p.sessions += 1;
                p.pages += c.received;
                p.retransmits += c.retransmits;
                p.duplicates += c.duplicates;
                p.digest = p.digest.wrapping_add(c.digest);
                if ok {
                    lat.push((now - arrivals[i]).as_nanos());
                } else {
                    // A failed session misses any latency limit.
                    p.failed += 1;
                    lat.push(u64::MAX);
                }
                host_active[i % HOSTS] -= 1;
                clients[i] = None;
                active.swap_remove(k);
            }
            for &i in &active {
                let c = clients[i].as_mut().expect("active sessions have clients");
                events += c.pump(&mut ether, now).map_err(|e| format!("{e:?}"))?;
            }
            Ok(())
        })?;

        let t_tick = clock.now();
        let processed = span(Layer::Net, "net.server.tick", || {
            server.tick(&mut ether, store)
        })
        .map_err(|e| format!("server tick: {e:?}"))?;
        p.tick_max_ns = p.tick_max_ns.max((clock.now() - t_tick).as_nanos());
        if processed > 0 {
            p.busy_ticks += 1;
        }
        if events + processed == 0 {
            if next < n {
                let dt = arrivals[next].saturating_sub(clock.now());
                ether.idle_wait(dt);
            } else if active.is_empty() {
                break;
            } else {
                // Only a retransmission timer can be pending: step toward it.
                ether.idle_wait(SimTime::from_millis(1));
                p.idle_waits += 1;
            }
        }
    }
    p.backlog_max = backlog.iter().copied().max().unwrap_or(0);
    // The backlog grows if, late in the schedule, it averages well above
    // what it averaged in the second quarter.
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len().max(1) as f64;
    let q = n / 4;
    p.grows = mean(&backlog[3 * q..]) > 1.5 * mean(&backlog[q..2 * q]) + 2.0;
    p.lat = Some(Dist::of(&mut lat));
    let mut rtt: Vec<u64> = rtt.iter().map(|t| t.as_nanos()).collect();
    p.rtt = Some(Dist::of(&mut rtt));
    p.send_failures = server.stats.send_failures;
    p.errors = server.stats.errors;
    p.reads = server.stats.reads;
    Ok(p)
}

/// Whether a rate point meets the latency limit with a steady backlog.
fn meets(p: &Point) -> bool {
    let tail = p.lat.map_or(u64::MAX, |d| d.tail_ns);
    !p.grows && (tail as f64) <= LIMIT_MS * 1e6
}

/// One page-server round: set up the pack set, then every rate point.
pub fn round<D: Probe>(
    seed: u64,
    scale: Scale,
    cfg: Config,
    wrap: fn(DriveArray) -> D,
    traced: bool,
) -> Result<Round, String> {
    let sessions = scale.of(SESSIONS);
    let t_setup = std::time::Instant::now();
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let array = DriveArray::with_arms(
        cfg.drives,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Trident,
    );
    let mut fs = FileSystem::format(wrap(array)).map_err(|e| format!("format: {e:?}"))?;
    let root = fs.root_dir();
    let mut rng = Rng::new(seed, 0x5053);
    let names: Vec<String> = (0..FILES).map(|f| format!("load{f}.dat")).collect();
    let mut expect = Vec::with_capacity(FILES);
    for name in &names {
        let bytes = rng.bytes(FILE_BYTES);
        let file = dir::create_named_file(&mut fs, root, name).map_err(|e| format!("{e:?}"))?;
        fs.write_file(file, &bytes).map_err(|e| format!("{e:?}"))?;
        expect.push(client_digest(&bytes));
    }
    let setup_host_s = t_setup.elapsed().as_secs_f64();

    let before = Snap::take(&fs);
    let sim0 = clock.now();
    let measure = Measure::start(&clock, traced);
    let mut points = Vec::with_capacity(cfg.rates.len());
    for (k, &rate) in cfg.rates.iter().enumerate() {
        span::set_op(k as u32);
        // The reference point's latencies are the workload's `lat_*`
        // metrics: three times the sessions put 120 samples beyond its p99,
        // not 40, which steadies the tail from seed to seed.
        let n = if rate == cfg.reference {
            3 * sessions
        } else {
            sessions
        };
        let sched = schedule(&mut rng, n, rate, clock.now());
        let mut svc = FsPageService::new(&mut fs);
        let mut point = if traced {
            let mut store = TimedStore::new(&mut svc);
            run_point(&clock, &trace, &mut store, &sched, &names, &expect)?
        } else {
            run_point(&clock, &trace, &mut svc, &sched, &names, &expect)?
        };
        point.fast = svc.fast_served;
        point.slow = svc.slow_served;
        points.push(point);
    }
    let (measured_host_s, allocs, summary) = measure.stop();
    let sim = clock.now() - sim0;
    let after = Snap::take(&fs);

    let sum_of = |f: fn(&Point) -> u64| points.iter().map(f).sum::<u64>();
    let pages = sum_of(|p| p.pages);
    let sessions = sum_of(|p| p.sessions);
    let failed = sum_of(|p| p.failed);
    let mut r = Round {
        setup_host_s,
        measured_host_s,
        ops: pages,
        attempted: sessions,
        failed,
        allocs,
        digest: points.iter().fold(0u64, |d, p| d.wrapping_add(p.digest)),
        ..Round::default()
    };
    let reference = cfg
        .rates
        .iter()
        .position(|&x| x == cfg.reference)
        .expect("the reference rate is in the rate list");
    let d = points[reference].lat.expect("every point has latencies");
    r.set("sim_s", sim.as_secs_f64());
    r.set("lat_p50_sim_ms", d.p50_ns as f64 / 1e6);
    r.set("lat_tail_sim_ms", d.tail_ns as f64 / 1e6);
    r.set("lat_tail_pct", d.tail_pct);
    r.set("lat_count", d.count as f64);
    let best = cfg
        .rates
        .iter()
        .zip(&points)
        .filter(|(_, p)| meets(p))
        .map(|(&rate, _)| rate)
        .fold(0.0, f64::max);
    r.set("max_rate_per_sim_s", best);
    for (rate, p) in cfg.rates.iter().zip(&points) {
        let d = p.lat.expect("every point has latencies");
        r.set(
            &format!("rate.{rate}.lat_p50_sim_ms"),
            d.p50_ns as f64 / 1e6,
        );
        r.set(
            &format!("rate.{rate}.lat_tail_sim_ms"),
            d.tail_ns as f64 / 1e6,
        );
        r.set(&format!("rate.{rate}.grows"), f64::from(u8::from(p.grows)));
        r.set(&format!("rate.{rate}.backlog_max"), p.backlog_max as f64);
    }

    let mut io = Io::default();
    io.add(&before, &after);
    io.record(&mut r);
    let (fast, slow) = (sum_of(|p| p.fast), sum_of(|p| p.slow));
    r.set(
        "core.pagesvc.slow_frac",
        ratio(slow as f64, (fast + slow) as f64),
    );
    r.set(
        "core.pagesvc.disk_ops_per_page",
        ratio(io.io.ops as f64, pages as f64),
    );
    r.set(
        "net.server.reqs_per_tick",
        ratio(sum_of(|p| p.reads) as f64, sum_of(|p| p.busy_ticks) as f64),
    );
    let max_of = |f: fn(&Point) -> u64| points.iter().map(f).max().unwrap_or(0);
    r.set(
        "net.server.tick_sim_ms_max",
        max_of(|p| p.tick_max_ns) as f64 / 1e6,
    );
    // Page round trips at the reference rate, like the session latencies.
    let rd = points[reference].rtt.expect("every point has round trips");
    r.set("net.page_rtt_sim_ms.p50", rd.p50_ns as f64 / 1e6);
    r.set("net.page_rtt_sim_ms.tail", rd.tail_ns as f64 / 1e6);
    r.set("net.retransmits", sum_of(|p| p.retransmits) as f64);
    r.set("net.duplicates", sum_of(|p| p.duplicates) as f64);
    r.set("net.send_failures", sum_of(|p| p.send_failures) as f64);
    r.set("net.errors", sum_of(|p| p.errors) as f64);
    r.set("gen.lag_sim_ms_max", max_of(|p| p.lag_max_ns) as f64 / 1e6);
    r.set("gen.backlog_max", max_of(|p| p.backlog_max as u64) as f64);
    r.set("gen.idle_waits", sum_of(|p| p.idle_waits) as f64);
    let user_pages = pages as f64;
    r.set(
        "fs.read_amp",
        ratio((io.io.ops - io.io.write_ops) as f64, user_pages),
    );
    if let Some(sum) = summary {
        io.record_traced(&mut r, &sum, pages);
        r.set_host(
            "core.pagesvc.self_host_ns_per_page",
            ratio(sum.layer_self_ns(Layer::Core) as f64, user_pages),
        );
        let server_self =
            sum.name("net.server.tick").self_host_ns + sum.name("net.server.reply").self_host_ns;
        r.set_host(
            "net.server.self_host_ns_per_page",
            ratio(server_self as f64, user_pages),
        );
        r.set_host(
            "net.allocs_per_page",
            ratio(sum.layer_self_allocs(Layer::Net) as f64, user_pages),
        );
    }
    Ok(r)
}
