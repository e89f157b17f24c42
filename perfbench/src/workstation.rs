//! `workstation`: one user at one Alto, one command at a time.
//!
//! `AltoOs` on a Diablo 31 pack holds a few hundred files, sizes skewed
//! small (1–64 pages) and filling about half the pack. A closed loop issues
//! a seeded command mix — about 80% of accesses to the hottest 20% of the
//! files, reads to writes about 3:1 — through the public `fs`, `streams` and
//! `core` APIs: whole-file stream reads, random-page reads through §3.6
//! hints, directory lookups, in-place stream overwrites and appends with
//! write-behind, create-and-delete, and an occasional `OutLoad`/`InLoad`
//! world swap. A content model checks every read against the bytes last
//! written.

use alto_disk::{DiskAddress, DiskDrive, DiskModel};
use alto_fs::file::unpack_bytes;
use alto_fs::hints::resolve_page;
use alto_fs::{dir, FileFullName, FileSystem, HintStats, PageHints};
use alto_machine::Machine;
use alto_os::{AltoOs, MESSAGE_WORDS};
use alto_sim::{SimClock, Trace};
use alto_streams::{DiskByteStream, Stream};

use crate::round::{Io, Measure, Round, Scale, Snap};
use crate::span::{self, span, Layer};
use crate::timed::Probe;
use crate::util::{fold, ratio, Dist, Rng, DIGEST_SEED};

const PAGE: usize = 512;
const FILES: usize = 200;
const HOT: usize = FILES / 5;
const MAX_PAGES: usize = 64;
/// Commands in one measured phase.
pub const COMMANDS: usize = 16000;
/// Write-side commands run while ageing the pack during set-up.
const AGE_OPS: usize = 400;
/// One command in this many is a world swap.
const SWAP_EVERY: usize = 250;
/// Every `k`-th page address is remembered in a file's hints (§3.6).
const HINT_K: u16 = 8;
/// A user word the swap oracle checks survives `OutLoad` → `InLoad`.
const TOKEN_ADDR: u16 = 0o4000;

struct Slot {
    name: String,
    file: FileFullName,
    /// The slot's size stratum within its hot or cold group.
    stratum: usize,
    bytes: Vec<u8>,
    hints: PageHints,
    /// The program's remembered address for each data page.
    das: Vec<DiskAddress>,
}

/// A command failed for a reason other than wrong data.
enum Fail {
    /// The system refused or failed the command: counted, the run goes on.
    Refused(String),
    /// The system returned wrong bytes: the benchmark's output is invalid.
    Wrong(String),
}

impl<E: std::fmt::Debug> From<E> for Fail {
    fn from(e: E) -> Fail {
        Fail::Refused(format!("{e:?}"))
    }
}

struct World<D: Probe> {
    os: AltoOs<D>,
    root: FileFullName,
    state: FileFullName,
    slots: Vec<Slot>,
    rng: Rng,
    next_name: u64,
    scratch: Vec<u8>,
    hint_stats: HintStats,
    pages_read: u64,
    pages_written: u64,
    stream_bytes: u64,
    swaps: u64,
    swap_sim_ns: u64,
    digest: u64,
}

fn pages_of(len: usize) -> usize {
    len.div_ceil(PAGE).max(1)
}

/// A file size skewed small (1–64 pages, mean about 11.5) at quantile `q`.
fn skewed_len(rng: &mut Rng, q: f64) -> usize {
    let pages = 1 + (63.0 * q.powi(5)) as usize;
    (pages - 1) * PAGE + 1 + rng.index(PAGE)
}

/// How many size strata slot `i`'s group (hot or cold) is split into.
fn strata_of(i: usize) -> usize {
    if i < HOT {
        HOT
    } else {
        FILES - HOT
    }
}

impl<D: Probe> World<D> {
    fn new(seed: u64, wrap: fn(DiskDrive) -> D) -> Result<World<D>, String> {
        let clock = SimClock::new();
        let trace = Trace::new();
        trace.set_enabled(false);
        let drive =
            DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 1);
        let mut os = AltoOs::install(Machine::new(clock, trace), wrap(drive))
            .map_err(|e| format!("install: {e:?}"))?;
        let state = os
            .create_state_file("world.state")
            .map_err(|e| format!("state file: {e:?}"))?;
        let root = os.fs.root_dir();
        let mut world = World {
            os,
            root,
            state,
            slots: Vec::with_capacity(FILES),
            rng: Rng::new(seed, 0x5753),
            next_name: 0,
            scratch: Vec::new(),
            hint_stats: HintStats::default(),
            pages_read: 0,
            pages_written: 0,
            stream_bytes: 0,
            swaps: 0,
            swap_sim_ns: 0,
            digest: DIGEST_SEED,
        };
        // Sizes are stratified within the hot and the cold group, so every
        // seed's hot set spans the whole size distribution.
        let mut strata: Vec<usize> = (0..HOT).collect();
        world.rng.shuffle(&mut strata);
        let mut cold: Vec<usize> = (0..FILES - HOT).collect();
        world.rng.shuffle(&mut cold);
        strata.extend(cold);
        for (i, stratum) in strata.into_iter().enumerate() {
            let slot = world.create(i, stratum).map_err(describe)?;
            world.slots.push(slot);
        }
        for _ in 0..AGE_OPS {
            let pick = 75 + world.rng.below(24);
            world.command(pick).map_err(describe)?;
        }
        world.pages_read = 0;
        world.pages_written = 0;
        world.stream_bytes = 0;
        world.hint_stats = HintStats::default();
        Ok(world)
    }

    fn fs(&mut self) -> &mut FileSystem<D> {
        &mut self.os.fs
    }

    /// Creates a fresh file for slot `i` with seeded contents, written
    /// through a stream, its size drawn from the slot's size stratum.
    fn create(&mut self, i: usize, stratum: usize) -> Result<Slot, Fail> {
        let name = format!("u{:05}.dat", self.next_name);
        self.next_name += 1;
        let q = (stratum as f64 + self.rng.unit()) / strata_of(i) as f64;
        let len = skewed_len(&mut self.rng, q);
        let bytes = self.rng.bytes(len);
        let root = self.root;
        let fs = &mut self.os.fs;
        let file = span(Layer::Fs, "fs.dir.create_named_file", || {
            dir::create_named_file(fs, root, &name)
        })?;
        let mut stream = span(Layer::Streams, "streams.open", || {
            DiskByteStream::open(fs, file)
        })?;
        span(Layer::Streams, "streams.write_bytes", || {
            stream.write_bytes(fs, &bytes)
        })?;
        span(Layer::Streams, "streams.close", || stream.close(fs))?;
        let hints = span(Layer::Fs, "fs.hints.install", || {
            PageHints::install(fs, root, &name, HINT_K)
        })?;
        self.stream_bytes += len as u64;
        self.pages_written += pages_of(len) as u64;
        Ok(Slot {
            name,
            file,
            stratum,
            das: vec![DiskAddress::NIL; pages_of(len)],
            bytes,
            hints,
        })
    }

    /// A file index: 80% of picks go to the hottest 20% of the slots.
    fn pick(&mut self) -> usize {
        if self.rng.chance(4, 5) {
            self.rng.index(HOT)
        } else {
            HOT + self.rng.index(FILES - HOT)
        }
    }

    /// Runs one command chosen by `pick` (0–99 picks the kind; see below).
    fn command(&mut self, pick: u64) -> Result<(), Fail> {
        let i = self.pick();
        match pick {
            0..=29 => self.read_whole(i),
            30..=49 => self.read_pages(i),
            50..=74 => self.lookup(i),
            75..=82 => self.overwrite(i),
            83..=90 => self.append(i),
            _ => self.replace(i),
        }
    }

    fn read_whole(&mut self, i: usize) -> Result<(), Fail> {
        let len = self.slots[i].bytes.len();
        let file = self.slots[i].file;
        self.scratch.resize(len + 1, 0);
        let fs = &mut self.os.fs;
        let out = &mut self.scratch;
        let mut stream = span(Layer::Streams, "streams.open", || {
            DiskByteStream::open(fs, file)
        })?;
        let n = span(Layer::Streams, "streams.read_bytes", || {
            stream.read_bytes(fs, out)
        })?;
        span(Layer::Streams, "streams.close", || stream.close(fs))?;
        if n != len || self.scratch[..n] != self.slots[i].bytes[..] {
            return Err(Fail::Wrong(format!(
                "{}: stream read {n} bytes, model has {len}",
                self.slots[i].name
            )));
        }
        self.digest = fold(self.digest, &self.scratch[..n]);
        self.stream_bytes += n as u64;
        self.pages_read += pages_of(len) as u64;
        Ok(())
    }

    fn read_pages(&mut self, i: usize) -> Result<(), Fail> {
        for _ in 0..4 {
            let slot = &mut self.slots[i];
            let pages = pages_of(slot.bytes.len());
            let p = 1 + self.rng.index(pages);
            let fs = &mut self.os.fs;
            let stats = &mut self.hint_stats;
            let (data, pn, _) = span(Layer::Fs, "fs.hints.resolve_page", || {
                resolve_page(fs, &mut slot.hints, p as u16, slot.das[p - 1], stats)
            })?;
            slot.das[p - 1] = pn.da;
            let lo = (p - 1) * PAGE;
            let hi = slot.bytes.len().min(p * PAGE);
            let got = unpack_bytes(&data);
            if got[..hi - lo] != slot.bytes[lo..hi] {
                return Err(Fail::Wrong(format!("{} page {p}: wrong data", slot.name)));
            }
            self.digest = fold(self.digest, &got[..hi - lo]);
            self.pages_read += 1;
        }
        Ok(())
    }

    fn lookup(&mut self, i: usize) -> Result<(), Fail> {
        let root = self.root;
        let absent = self.rng.chance(1, 5);
        let name = if absent {
            format!("absent{}.dat", self.rng.below(1000))
        } else {
            self.slots[i].name.clone()
        };
        let fs = &mut self.os.fs;
        let found = span(Layer::Fs, "fs.dir.lookup", || dir::lookup(fs, root, &name))?;
        let want = (!absent).then_some(self.slots[i].file.fv);
        if found.map(|f| f.fv) != want {
            return Err(Fail::Wrong(format!("lookup {name}: {found:?}")));
        }
        Ok(())
    }

    fn overwrite(&mut self, i: usize) -> Result<(), Fail> {
        let len = self.slots[i].bytes.len();
        let pos = self.rng.index(len);
        let n = 1 + self.rng.index((len - pos).min(4 * PAGE));
        let data = self.rng.bytes(n);
        let file = self.slots[i].file;
        let fs = &mut self.os.fs;
        let mut stream = span(Layer::Streams, "streams.open", || {
            DiskByteStream::open(fs, file)
        })?;
        span(Layer::Streams, "streams.set_position", || {
            stream.set_position(fs, pos as u64)
        })?;
        span(Layer::Streams, "streams.write_bytes", || {
            stream.write_bytes(fs, &data)
        })?;
        span(Layer::Streams, "streams.close", || stream.close(fs))?;
        self.slots[i].bytes[pos..pos + n].copy_from_slice(&data);
        self.stream_bytes += n as u64;
        self.pages_written += (pos + n).div_ceil(PAGE) as u64 - (pos / PAGE) as u64;
        Ok(())
    }

    fn append(&mut self, i: usize) -> Result<(), Fail> {
        let len = self.slots[i].bytes.len();
        let n = 1 + self.rng.index(4 * PAGE);
        let file = self.slots[i].file;
        if len + n > MAX_PAGES * PAGE {
            // Full: rewrite the file shorter instead.
            let short_len = 1 + self.rng.index(len / 2);
            let short = self.rng.bytes(short_len);
            let fs = &mut self.os.fs;
            span(Layer::Fs, "fs.write_file", || fs.write_file(file, &short))?;
            self.pages_written += pages_of(short.len()) as u64;
            let slot = &mut self.slots[i];
            slot.das.truncate(pages_of(short.len()));
            slot.bytes = short;
            return Ok(());
        }
        // `set_position` to the very end fails when the file ends on a page
        // boundary (it looks for a page past the last), so the append
        // starts one byte early and rewrites the last byte unchanged.
        let mut data = Vec::with_capacity(n + 1);
        data.push(self.slots[i].bytes[len - 1]);
        data.extend_from_slice(&self.rng.bytes(n));
        let fs = &mut self.os.fs;
        let mut stream = span(Layer::Streams, "streams.open", || {
            DiskByteStream::open(fs, file)
        })?;
        span(Layer::Streams, "streams.set_position", || {
            stream.set_position(fs, len as u64 - 1)
        })?;
        span(Layer::Streams, "streams.write_bytes", || {
            stream.write_bytes(fs, &data)
        })?;
        span(Layer::Streams, "streams.close", || stream.close(fs))?;
        let slot = &mut self.slots[i];
        slot.bytes.extend_from_slice(&data[1..]);
        slot.das
            .resize(pages_of(slot.bytes.len()), DiskAddress::NIL);
        self.stream_bytes += n as u64;
        self.pages_written += (len + n).div_ceil(PAGE) as u64 - (len / PAGE) as u64;
        Ok(())
    }

    /// Deletes a file and creates a new one in its slot, sized from the
    /// slot's stratum — a program writing a new version of its file. This
    /// also keeps the hot files from growing without bound under appends.
    fn replace(&mut self, j: usize) -> Result<(), Fail> {
        let root = self.root;
        let name = self.slots[j].name.clone();
        let fs = &mut self.os.fs;
        let removed = span(Layer::Fs, "fs.dir.remove", || dir::remove(fs, root, &name))?;
        let Some(file) = removed else {
            return Err(Fail::Wrong(format!("remove {name}: not in the directory")));
        };
        span(Layer::Fs, "fs.delete_file", || fs.delete_file(file))?;
        self.slots[j] = self.create(j, self.slots[j].stratum)?;
        Ok(())
    }

    /// `OutLoad` then `InLoad` of the whole machine state.
    fn swap(&mut self) -> Result<(), Fail> {
        let token = 1 | self.rng.below(1 << 16) as u16;
        let state = self.state;
        let os = &mut self.os;
        os.machine.mem.write(TOKEN_ADDR, token);
        let t0 = os.fs.disk().clock().now();
        span(Layer::Core, "core.swap.out_load", || os.out_load(state))?;
        os.machine.mem.write(TOKEN_ADDR, !token);
        let message = [0u16; MESSAGE_WORDS];
        span(Layer::Core, "core.swap.in_load", || {
            os.in_load(state, &message)
        })?;
        self.swap_sim_ns += (os.fs.disk().clock().now() - t0).as_nanos();
        let got = os.machine.mem.read(TOKEN_ADDR);
        if got != token {
            return Err(Fail::Wrong(format!(
                "world swap restored {got:#o}, saved {token:#o}"
            )));
        }
        self.swaps += 1;
        let state_pages = pages_of(self.os.fs.file_length(state)? as usize) as u64;
        self.pages_written += state_pages;
        self.pages_read += state_pages;
        Ok(())
    }

    /// Reads every file back in full and checks it against the model.
    fn verify_all(&mut self) -> Result<(), String> {
        let root = self.root;
        for slot in &self.slots {
            let found = dir::lookup(&mut self.os.fs, root, &slot.name)
                .map_err(|e| format!("final lookup {}: {e:?}", slot.name))?;
            if found.map(|f| f.fv) != Some(slot.file.fv) {
                return Err(format!("final lookup {}: {found:?}", slot.name));
            }
            let bytes = self
                .os
                .fs
                .read_file(slot.file)
                .map_err(|e| format!("final read {}: {e:?}", slot.name))?;
            if bytes != slot.bytes {
                return Err(format!("final read {}: contents differ", slot.name));
            }
        }
        Ok(())
    }
}

fn describe(f: Fail) -> String {
    match f {
        Fail::Refused(e) | Fail::Wrong(e) => e,
    }
}

/// One workstation round: set up, then [`COMMANDS`] commands.
pub fn round<D: Probe>(
    seed: u64,
    scale: Scale,
    wrap: fn(DiskDrive) -> D,
    traced: bool,
) -> Result<Round, String> {
    let commands = scale.of(COMMANDS);
    let t_setup = std::time::Instant::now();
    let mut w = World::new(seed, wrap)?;
    let setup_host_s = t_setup.elapsed().as_secs_f64();

    let clock = w.os.fs.disk().clock().clone();
    let before = Snap::take(w.fs());
    let sim0 = clock.now();
    let mut lat = Vec::with_capacity(commands);
    let mut failed = 0u64;
    let mut failures = Vec::new();
    let measure = Measure::start(&clock, traced);
    // The mix is dealt like cards: each run of 100 commands holds every
    // kind in its exact share, and each run of `SWAP_EVERY` holds one swap,
    // in seeded order — the seed moves the order, not the mix.
    let mut deck: Vec<u64> = Vec::with_capacity(100);
    let mut swap_at = 0;
    for k in 0..commands {
        span::set_op(k as u32);
        let t0 = clock.now();
        if k % SWAP_EVERY == 0 {
            swap_at = k + w.rng.index(SWAP_EVERY);
        }
        let pick = if k == swap_at {
            None
        } else {
            if deck.is_empty() {
                deck.extend(0..100);
                w.rng.shuffle(&mut deck);
            }
            deck.pop()
        };
        let result = match pick {
            None => w.swap(),
            Some(p) => w.command(p),
        };
        match result {
            Ok(()) => {}
            Err(Fail::Refused(e)) => {
                failed += 1;
                failures.push(e);
            }
            Err(Fail::Wrong(e)) => return Err(format!("workstation command {k}: {e}")),
        }
        lat.push((clock.now() - t0).as_nanos());
    }
    let (measured_host_s, allocs, summary) = measure.stop();
    let sim = clock.now() - sim0;
    let after = Snap::take(w.fs());
    w.verify_all()?;
    for e in failures.iter().take(3) {
        eprintln!("workstation: refused: {e}");
    }

    let mut r = Round {
        setup_host_s,
        measured_host_s,
        ops: commands as u64 - failed,
        attempted: commands as u64,
        failed,
        allocs,
        digest: w.digest,
        ..Round::default()
    };
    let d = Dist::of(&mut lat);
    r.set("sim_s", sim.as_secs_f64());
    r.set("lat_p50_sim_ms", d.p50_ns as f64 / 1e6);
    r.set("lat_tail_sim_ms", d.tail_ns as f64 / 1e6);
    r.set("lat_tail_pct", d.tail_pct);
    r.set("lat_count", d.count as f64);
    // A closed loop's highest sustainable rate is its completion rate.
    r.set(
        "max_rate_per_sim_s",
        (commands as u64 - failed) as f64 / sim.as_secs_f64(),
    );
    let mut io = Io::default();
    io.add(&before, &after);
    io.record(&mut r);
    let h = &w.hint_stats;
    let resolves = h.direct_hits + h.link_chases + h.dir_lookups + h.string_lookups + h.scavenges;
    r.set(
        "fs.hints.direct_hit_frac",
        ratio(h.direct_hits as f64, resolves as f64),
    );
    r.set("fs.hints.link_hops", h.link_hops as f64);
    r.set("fs.hints.scavenges", h.scavenges as f64);
    let reads = (io.io.ops - io.io.write_ops) as f64;
    r.set("fs.read_amp", ratio(reads, w.pages_read as f64));
    r.set(
        "fs.write_amp",
        ratio(io.io.write_ops as f64, w.pages_written as f64),
    );
    r.set("core.swaps", w.swaps as f64);
    r.set(
        "core.swap.sim_ms",
        ratio(w.swap_sim_ns as f64 / 1e6, w.swaps as f64),
    );
    if let Some(sum) = summary {
        let ops = r.ops;
        io.record_traced(&mut r, &sum, ops);
        r.set_host(
            "streams.host_ns_per_byte",
            ratio(
                sum.layer_self_ns(Layer::Streams) as f64,
                w.stream_bytes as f64,
            ),
        );
        let swap_host =
            (sum.name("core.swap.out_load").host_ns + sum.name("core.swap.in_load").host_ns) as f64;
        r.set_host("core.swap.host_us", ratio(swap_host / 1e3, w.swaps as f64));
    }
    Ok(r)
}
