//! `recovery`: crash and rebuild on a four-arm pack set.
//!
//! A K=4 Diablo 31 `DriveArray` with range placement holds a few hundred
//! files, aged by seeded churn. Each cycle runs light churn (closed writes,
//! plus one stream left open with write-behind pages parked), then
//! `FileSystem::crash`, `Scavenger::rebuild`, a check that every closed file
//! came back byte-exact and that a second `Scavenger::run` repairs nothing,
//! and finally `Compactor::run`.

use alto_disk::{DiskModel, DriveArray, Placement};
use alto_fs::compact::Compactor;
use alto_fs::{dir, FileSystem, ScavengeReport, Scavenger};
use alto_sim::{SimClock, SimTime, Trace};
use alto_streams::DiskByteStream;

use crate::round::{Io, Measure, Round, Scale, Snap};
use crate::span::{self, span, Layer};
use crate::timed::Probe;
use crate::util::{fold, ratio, Dist, Rng, DIGEST_SEED};

const ARMS: usize = 4;
const PAGE: usize = 512;
const FILES: usize = 300;
const AGE_OPS: usize = 300;
/// Closed writes per cycle before the crash.
const CHURN: usize = 6;
/// Crash-recovery cycles in one measured phase.
pub const CYCLES: usize = 40;

struct Model<D: Probe> {
    fs: Option<FileSystem<D>>,
    names: Vec<String>,
    bytes: Vec<Vec<u8>>,
    /// Each slot's size stratum (a seeded permutation of `0..FILES`), so
    /// every seed's file set spans the whole size distribution.
    strata: Vec<usize>,
    rng: Rng,
    next_name: u64,
    /// User pages written by closed writes and read back by verification.
    pages_written: u64,
    pages_read: u64,
}

fn pages_of(len: usize) -> u64 {
    len.div_ceil(PAGE).max(1) as u64
}

impl<D: Probe> Model<D> {
    /// A size for `slot`, skewed small (1–64 pages, mean about 16.75) and
    /// drawn within the slot's stratum of the size distribution.
    fn skewed_len(&mut self, slot: usize) -> usize {
        let q = (self.strata[slot] as f64 + self.rng.unit()) / FILES as f64;
        let pages = 1 + (63.0 * q.powi(3)) as usize;
        (pages - 1) * PAGE + 1 + self.rng.index(PAGE)
    }
}

fn err(what: &str) -> impl Fn(alto_fs::FsError) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}

/// Every repair counter of a scavenge report; a fixed point has all zero.
/// (Every scavenge rebuilds the descriptor and recounts quarantined pages,
/// so neither counts as a repair — the same list `alto_fs::hostile` checks.)
fn repairs(r: &ScavengeReport) -> u32 {
    r.duplicate_pages_freed
        + r.headless_pages_freed
        + r.truncated_pages_freed
        + r.links_repaired
        + r.lengths_normalized
        + r.entries_fixed
        + r.entries_dropped
        + r.orphans_adopted
}

impl<D: Probe> Model<D> {
    fn fs(&mut self) -> &mut FileSystem<D> {
        self.fs
            .as_mut()
            .expect("the file system is mounted between cycles")
    }

    fn create(&mut self, slot: usize) -> Result<(), String> {
        let name = format!("r{:05}.dat", self.next_name);
        self.next_name += 1;
        let len = self.skewed_len(slot);
        let bytes = self.rng.bytes(len);
        let fs = self.fs();
        let root = fs.root_dir();
        let file = span(Layer::Fs, "fs.dir.create_named_file", || {
            dir::create_named_file(fs, root, &name)
        })
        .map_err(err("create"))?;
        span(Layer::Fs, "fs.write_file", || fs.write_file(file, &bytes)).map_err(err("write"))?;
        self.pages_written += pages_of(len);
        if slot == self.names.len() {
            self.names.push(name);
            self.bytes.push(bytes);
        } else {
            self.names[slot] = name;
            self.bytes[slot] = bytes;
        }
        Ok(())
    }

    /// One closed (flushed) change: rewrite a file, or replace it.
    fn churn_one(&mut self) -> Result<(), String> {
        let slot = self.rng.index(FILES);
        if self.rng.chance(1, 4) {
            let name = self.names[slot].clone();
            let fs = self.fs();
            let root = fs.root_dir();
            let file = span(Layer::Fs, "fs.dir.remove", || dir::remove(fs, root, &name))
                .map_err(err("remove"))?
                .ok_or_else(|| format!("remove {name}: not in the directory"))?;
            span(Layer::Fs, "fs.delete_file", || fs.delete_file(file)).map_err(err("delete"))?;
            return self.create(slot);
        }
        let len = self.skewed_len(slot);
        let bytes = self.rng.bytes(len);
        let name = self.names[slot].clone();
        let fs = self.fs();
        let root = fs.root_dir();
        let file = span(Layer::Fs, "fs.dir.lookup", || dir::lookup(fs, root, &name))
            .map_err(err("lookup"))?
            .ok_or_else(|| format!("lookup {name}: missing"))?;
        span(Layer::Fs, "fs.write_file", || fs.write_file(file, &bytes)).map_err(err("write"))?;
        self.pages_written += pages_of(len);
        self.bytes[slot] = bytes;
        Ok(())
    }

    /// Overwrites the front of a file through a stream that is never
    /// closed, leaving its dirty pages parked in write-behind. Returns the
    /// slot, whose contents the crash leaves unknown.
    fn in_flight(&mut self) -> Result<usize, String> {
        let slot = self.rng.index(FILES);
        let n = self.bytes[slot].len().min(3 * PAGE);
        let data = self.rng.bytes(n);
        let name = self.names[slot].clone();
        let fs = self.fs();
        let root = fs.root_dir();
        let file = dir::lookup(fs, root, &name)
            .map_err(err("lookup"))?
            .ok_or_else(|| format!("lookup {name}: missing"))?;
        let mut stream = span(Layer::Streams, "streams.open", || {
            DiskByteStream::open(fs, file)
        })
        .map_err(|e| format!("open: {e:?}"))?;
        span(Layer::Streams, "streams.write_bytes", || {
            stream.write_bytes(fs, &data)
        })
        .map_err(|e| format!("stream write: {e:?}"))?;
        drop(stream);
        Ok(slot)
    }

    /// Checks every file against the model, except `unknown`, whose
    /// recovered contents become the model's.
    fn verify(&mut self, unknown: usize) -> Result<u64, String> {
        let mut digest = DIGEST_SEED;
        let fs = self.fs.as_mut().expect("mounted");
        let root = fs.root_dir();
        for (slot, name) in self.names.iter().enumerate() {
            let file = span(Layer::Fs, "fs.dir.lookup", || dir::lookup(fs, root, name))
                .map_err(err("verify lookup"))?
                .ok_or_else(|| format!("{name} did not survive the crash"))?;
            let got = span(Layer::Fs, "fs.read_file", || fs.read_file(file))
                .map_err(err("verify read"))?;
            if slot == unknown {
                self.bytes[slot] = got;
            } else if got != self.bytes[slot] {
                return Err(format!(
                    "{name}: {} bytes recovered, {} closed before the crash",
                    got.len(),
                    self.bytes[slot].len()
                ));
            }
            digest = fold(digest, &self.bytes[slot]);
            self.pages_read += pages_of(self.bytes[slot].len());
        }
        Ok(digest)
    }
}

/// One recovery round: set up and age the pack set, then [`CYCLES`] cycles.
pub fn round<D: Probe>(
    seed: u64,
    scale: Scale,
    wrap: fn(DriveArray) -> D,
    traced: bool,
) -> Result<Round, String> {
    let cycles = scale.of(CYCLES);
    let t_setup = std::time::Instant::now();
    let clock = SimClock::new();
    let trace = Trace::new();
    trace.set_enabled(false);
    let array = DriveArray::with_arms(
        ARMS,
        Placement::Range,
        clock.clone(),
        trace.clone(),
        DiskModel::Diablo31,
    );
    let fs = FileSystem::format(wrap(array)).map_err(err("format"))?;
    let mut rng = Rng::new(seed, 0x5243);
    let mut strata: Vec<usize> = (0..FILES).collect();
    rng.shuffle(&mut strata);
    let mut m = Model {
        fs: Some(fs),
        names: Vec::with_capacity(FILES),
        bytes: Vec::with_capacity(FILES),
        strata,
        rng,
        next_name: 0,
        pages_written: 0,
        pages_read: 0,
    };
    for slot in 0..FILES {
        m.create(slot)?;
    }
    for _ in 0..AGE_OPS {
        m.churn_one()?;
    }
    m.pages_written = 0;
    let setup_host_s = t_setup.elapsed().as_secs_f64();

    let mut io = Io::default();
    let mut lat = Vec::with_capacity(cycles);
    let mut scav_sim = SimTime::ZERO;
    let mut compact_sim = SimTime::ZERO;
    let mut pages_moved = 0u64;
    let mut digest = DIGEST_SEED;
    let sim0 = clock.now();
    let measure = Measure::start(&clock, traced);
    for cycle in 0..cycles {
        span::set_op(cycle as u32);
        let mount_start = Snap::take(m.fs());
        for _ in 0..CHURN {
            m.churn_one()?;
        }
        let unknown = m.in_flight()?;
        let fs = m.fs.take().expect("mounted");
        let at_crash = Snap::take(&fs);
        io.add(&mount_start, &at_crash);
        let disk = span(Layer::Fs, "fs.crash", || fs.crash());
        let t0 = clock.now();
        let (fs, _report) = span(Layer::Fs, "fs.scavenge.rebuild", || {
            Scavenger::rebuild(disk)
        })
        .map_err(err("rebuild"))?;
        let rebuilt = clock.now() - t0;
        lat.push(rebuilt.as_nanos());
        scav_sim += rebuilt;
        let remounted = Snap::take(&fs);
        io.add_disk(&at_crash, &remounted);
        m.fs = Some(fs);
        digest = digest.wrapping_add(m.verify(unknown)?);
        let t1 = clock.now();
        let again = span(Layer::Fs, "fs.scavenge.run", || Scavenger::run(m.fs()))
            .map_err(err("second scavenge"))?;
        scav_sim += clock.now() - t1;
        if repairs(&again) != 0 {
            return Err(format!(
                "cycle {cycle}: the second scavenge repaired something: {again:?}"
            ));
        }
        let report =
            span(Layer::Fs, "fs.compact.run", || Compactor::run(m.fs())).map_err(err("compact"))?;
        compact_sim += report.elapsed;
        pages_moved += report.pages_moved as u64;
        let cycle_end = Snap::take(m.fs());
        io.add(&remounted, &cycle_end);
    }
    let (measured_host_s, allocs, summary) = measure.stop();
    let sim = clock.now() - sim0;

    let mut r = Round {
        setup_host_s,
        measured_host_s,
        ops: cycles as u64,
        attempted: cycles as u64,
        failed: 0,
        allocs,
        digest,
        ..Round::default()
    };
    let d = Dist::of(&mut lat);
    r.set("sim_s", sim.as_secs_f64());
    r.set("lat_p50_sim_ms", d.p50_ns as f64 / 1e6);
    r.set("lat_tail_sim_ms", d.tail_ns as f64 / 1e6);
    r.set("lat_tail_pct", d.tail_pct);
    r.set("lat_count", d.count as f64);
    r.set("max_rate_per_sim_s", cycles as f64 / sim.as_secs_f64());
    io.record(&mut r);
    // Two scavenges per cycle: the rebuild and the fixed-point check.
    let scavenges = 2.0 * cycles as f64;
    r.set(
        "fs.scavenge.sim_ms",
        scav_sim.as_secs_f64() * 1e3 / scavenges,
    );
    r.set(
        "fs.compact.sim_ms",
        compact_sim.as_secs_f64() * 1e3 / cycles as f64,
    );
    r.set("fs.compact.pages_moved", pages_moved as f64);
    let reads = (io.io.ops - io.io.write_ops) as f64;
    r.set("fs.read_amp", ratio(reads, m.pages_read as f64));
    r.set(
        "fs.write_amp",
        ratio(io.io.write_ops as f64, m.pages_written as f64),
    );
    if let Some(sum) = summary {
        io.record_traced(&mut r, &sum, cycles as u64);
        let scav = sum.name("fs.scavenge.rebuild").host_ns + sum.name("fs.scavenge.run").host_ns;
        r.set_host("fs.scavenge.host_ms", ratio(scav as f64 / 1e6, scavenges));
    }
    Ok(r)
}
