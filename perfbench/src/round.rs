//! One round of a workload — set up, then the measured phase — and the
//! metrics every workload derives the same way from it.

use std::collections::BTreeMap;
use std::time::Instant;

use alto_disk::DriveStats;
use alto_fs::CacheStats;

use crate::alloc;
use crate::span::{self, Layer, Summary};
use crate::timed::{Notes, Probe};
use crate::util::ratio;

/// A named metric value.
pub type Values = BTreeMap<String, f64>;

/// How much of its measured phase a round runs: `Scale(1)` is the
/// benchmark; `Scale(k)` cuts every op count by `k` (the tests use it).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    pub fn of(self, n: usize) -> usize {
        (n / self.0).max(2)
    }
}

/// What one round produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host seconds spent formatting, installing, populating and ageing.
    pub setup_host_s: f64,
    /// Host seconds of the measured phase.
    pub measured_host_s: f64,
    /// Workload ops completed in the measured phase (the `ops_per_host_s`
    /// numerator).
    pub ops: u64,
    /// Ops attempted and ops that failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// Heap allocation events in the measured phase.
    pub allocs: u64,
    /// Every simulated-clock metric and count. A function of the seed
    /// alone: rounds of one seed, traced or not, must agree exactly.
    pub exact: Values,
    /// Digest of every byte the workload read back and checked.
    pub digest: u64,
    /// Host-clock per-layer figures (traced rounds only).
    pub host: Values,
}

impl Round {
    pub fn set(&mut self, name: &str, value: f64) {
        self.exact.insert(name.to_string(), value);
    }

    pub fn set_host(&mut self, name: &str, value: f64) {
        self.host.insert(name.to_string(), value);
    }
}

/// Host time, allocations and (when traced) spans of a measured phase.
pub struct Measure {
    start: Instant,
    allocs: u64,
    traced: bool,
}

impl Measure {
    pub fn start(clock: &alto_sim::SimClock, traced: bool) -> Measure {
        if traced {
            span::install(clock);
        }
        Measure {
            start: Instant::now(),
            allocs: alloc::allocs(),
            traced,
        }
    }

    /// Ends the phase: `(host seconds, allocation events, span summary)`.
    pub fn stop(self) -> (f64, u64, Option<Summary>) {
        let host_s = self.start.elapsed().as_secs_f64();
        let allocs = alloc::allocs() - self.allocs;
        let summary = if self.traced {
            span::finish().map(|r| r.summarize())
        } else {
            None
        };
        (host_s, allocs, summary)
    }
}

/// Counters read from the disk and file system at the phase boundaries.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub io: DriveStats,
    pub arms: Vec<DriveStats>,
    pub threaded: u64,
    pub cache: CacheStats,
    pub notes: Option<Notes>,
}

impl Snap {
    pub fn take<D: Probe>(fs: &alto_fs::FileSystem<D>) -> Snap {
        let disk = fs.disk();
        Snap {
            io: disk.io_stats(),
            arms: disk.arm_stats(),
            threaded: disk.threaded_batches(),
            cache: fs.cache_stats(),
            notes: disk.notes(),
        }
    }
}

fn delta(after: &DriveStats, before: &DriveStats) -> DriveStats {
    DriveStats {
        ops: after.ops - before.ops,
        write_ops: after.write_ops - before.write_ops,
        label_writes: after.label_writes - before.label_writes,
        failed_checks: after.failed_checks - before.failed_checks,
        seeks: after.seeks - before.seeks,
        seek_time: after.seek_time - before.seek_time,
        rotational_wait: after.rotational_wait - before.rotational_wait,
        transfer_time: after.transfer_time - before.transfer_time,
        command_time: after.command_time - before.command_time,
        batches: after.batches - before.batches,
        batched_ops: after.batched_ops - before.batched_ops,
        chained_transfers: after.chained_transfers - before.chained_transfers,
        readahead_hits: after.readahead_hits - before.readahead_hits,
        readahead_prefetched: after.readahead_prefetched - before.readahead_prefetched,
        sectors_read: after.sectors_read - before.sectors_read,
        sectors_written: after.sectors_written - before.sectors_written,
        wb_drains: after.wb_drains - before.wb_drains,
        wb_coalesced: after.wb_coalesced - before.wb_coalesced,
        overlap_batches: after.overlap_batches - before.overlap_batches,
        overlap_saved: after.overlap_saved - before.overlap_saved,
        soft_errors: after.soft_errors - before.soft_errors,
        retries: after.retries - before.retries,
        recovered: after.recovered - before.recovered,
        hard_failures: after.hard_failures - before.hard_failures,
    }
}

/// The I/O a measured phase did, from two snapshots. A snapshot pair taken
/// across a remount (recovery) is summed per interval by the caller.
#[derive(Debug, Clone, Default)]
pub struct Io {
    pub io: DriveStats,
    pub arm_busy_ns: Vec<u64>,
    pub threaded: u64,
    pub cache: CacheStats,
    pub notes: Notes,
}

impl Io {
    /// Adds one mount's interval: disk counters, cache counters and tallies.
    pub fn add(&mut self, before: &Snap, after: &Snap) {
        self.add_disk(before, after);
        let (ca, cb) = (after.cache, before.cache);
        self.cache.name_hits += ca.name_hits - cb.name_hits;
        self.cache.name_misses += ca.name_misses - cb.name_misses;
        self.cache.leader_hits += ca.leader_hits - cb.leader_hits;
        self.cache.leader_misses += ca.leader_misses - cb.leader_misses;
        self.cache.verify_failures += ca.verify_failures - cb.verify_failures;
        self.cache.invalidations += ca.invalidations - cb.invalidations;
    }

    /// Adds the disk's counters over an interval that may span a remount
    /// (the file system's cache counters restart with each mount).
    pub fn add_disk(&mut self, before: &Snap, after: &Snap) {
        self.io = self.io.merged(&delta(&after.io, &before.io));
        if self.arm_busy_ns.len() < after.arms.len() {
            self.arm_busy_ns.resize(after.arms.len(), 0);
        }
        for (i, a) in after.arms.iter().enumerate() {
            let b = before.arms.get(i).copied().unwrap_or_default();
            self.arm_busy_ns[i] += (a.busy_time() - b.busy_time()).as_nanos();
        }
        self.threaded += after.threaded - before.threaded;
        if let (Some(na), Some(nb)) = (after.notes, before.notes) {
            self.notes.write_behind_pages += na.write_behind_pages - nb.write_behind_pages;
            self.notes.retries += na.retries - nb.retries;
        }
    }

    /// The simulated-clock and count metrics of the `disk` layer and the
    /// `fs` hint cache.
    pub fn record(&self, round: &mut Round) {
        let s = &self.io;
        let ops = s.ops as f64;
        round.set("disk.ops", ops);
        round.set("disk.write_frac", ratio(s.write_ops as f64, ops));
        round.set("disk.chained_frac", ratio(s.chained_transfers as f64, ops));
        round.set(
            "disk.ops_per_batch",
            ratio(s.batched_ops as f64, s.batches as f64),
        );
        round.set("disk.seek_s", s.seek_time.as_secs_f64());
        round.set("disk.rotation_s", s.rotational_wait.as_secs_f64());
        round.set("disk.transfer_s", s.transfer_time.as_secs_f64());
        round.set("disk.command_s", s.command_time.as_secs_f64());
        let busy: Vec<f64> = self.arm_busy_ns.iter().map(|&b| b as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        round.set("disk.arm_skew", ratio(max, mean));
        round.set("disk.threaded_batches", self.threaded as f64);
        round.set(
            "disk.readahead_hit_frac",
            ratio(s.readahead_hits as f64, s.readahead_prefetched as f64),
        );
        round.set("disk.failed_checks", s.failed_checks as f64);
        round.set("disk.retries", s.retries as f64);
        let c = &self.cache;
        round.set(
            "fs.cache.name_hit_frac",
            ratio(c.name_hits as f64, (c.name_hits + c.name_misses) as f64),
        );
        round.set(
            "fs.cache.leader_hit_frac",
            ratio(
                c.leader_hits as f64,
                (c.leader_hits + c.leader_misses) as f64,
            ),
        );
        round.set("fs.cache.invalidations", c.invalidations as f64);
    }

    /// Per-layer figures that need the wrapper's tallies or the spans.
    pub fn record_traced(&self, round: &mut Round, sum: &Summary, ops: u64) {
        let n = &self.notes;
        // Retries as the retry layer reports them through `note_retry`.
        round.set_host("disk.retries", n.retries as f64);
        round.set_host("streams.write_behind_pages", n.write_behind_pages as f64);
        let disk_ops = self.io.ops as f64;
        round.set_host(
            "disk.host_ns_per_op",
            ratio(sum.layer_self_ns(Layer::Disk) as f64, disk_ops),
        );
        round.set_host(
            "disk.allocs_per_op",
            ratio(sum.layer_self_allocs(Layer::Disk) as f64, disk_ops),
        );
        round.set_host(
            "fs.self_host_ns_per_op",
            ratio(sum.layer_self_ns(Layer::Fs) as f64, ops as f64),
        );
        // Where the traced phase's host time went: each layer's self time
        // plus the benchmark's own (everything outside a top-level span).
        let wall = sum.wall_ns as f64;
        for layer in Layer::ALL {
            round.set_host(
                &format!("host.self_frac.{}", layer.name()),
                ratio(sum.layer_self_ns(layer) as f64, wall),
            );
        }
        round.set_host(
            "host.self_frac.bench",
            ratio(wall - sum.covered_ns as f64, wall),
        );
        round.set_host("trace.spans", sum.spans as f64);
        round.set_host("trace.ops", sum.ops as f64);
        // Where the time went, call by call, for the report.
        for (name, t) in &sum.by_name {
            round.set_host(&format!("span.{name}.calls"), t.calls as f64);
            round.set_host(
                &format!("span.{name}.self_host_ms"),
                t.self_host_ns as f64 / 1e6,
            );
            round.set_host(&format!("span.{name}.sim_s"), t.sim_ns as f64 / 1e9);
        }
    }
}
