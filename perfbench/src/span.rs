//! In-memory span recorder for the traced run.
//!
//! A span brackets one call from the benchmark into a layer's public API
//! (or, through [`crate::timed`], one call from a layer into the `Disk` or
//! `PageStore` trait). Each span keeps its name, layer, host and simulated
//! start and end, the span that was open when it began (its parent), the
//! workload op it belongs to, and the allocation counter at both ends.
//! Spans stay in memory until the run ends; nothing is written while the
//! workload runs.
//!
//! The recorder is thread-local and absent by default: with no recorder
//! installed, [`span`] is one thread-local read and a direct call, so the
//! untraced run measures the system, not the tracer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use alto_sim::{SimClock, SimTime};

use crate::alloc;

/// The repository's layers, named after their crates, plus the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Disk,
    Fs,
    Streams,
    Core,
    Net,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Disk,
        Layer::Fs,
        Layer::Streams,
        Layer::Core,
        Layer::Net,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Disk => "disk",
            Layer::Fs => "fs",
            Layer::Streams => "streams",
            Layer::Core => "core",
            Layer::Net => "net",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    pub sim_start: SimTime,
    pub sim_end: SimTime,
    pub parent: u32,
    pub op: u32,
    pub allocs_start: u64,
    pub allocs_end: u64,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
    pub fn sim(&self) -> SimTime {
        self.sim_end - self.sim_start
    }
    pub fn allocs(&self) -> u64 {
        self.allocs_end - self.allocs_start
    }
}

/// The recorder state of one traced run.
#[derive(Debug)]
pub struct Recording {
    epoch: Instant,
    clock: SimClock,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

thread_local! {
    static RECORDER: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, stamping simulated times from `clock`.
pub fn install(clock: &SimClock) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recording {
            epoch: Instant::now(),
            clock: clock.clone(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        });
    });
}

/// Stops recording and hands back everything recorded.
pub fn finish() -> Option<Recording> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Tags the spans that follow with workload op `op` (a command, a session,
/// a recovery cycle).
pub fn set_op(op: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

fn open(layer: Layer, name: &'static str) -> Option<u32> {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len() as u32;
        let parent = rec.open.last().copied().unwrap_or(NO_PARENT);
        rec.spans.push(Span {
            name,
            layer,
            host_start_ns: 0,
            host_end_ns: 0,
            sim_start: rec.clock.now(),
            sim_end: SimTime::ZERO,
            parent,
            op: rec.op,
            allocs_start: alloc::allocs(),
            allocs_end: 0,
        });
        rec.open.push(idx);
        // Stamp the host start last so the recorder's own work above is
        // charged to the parent, not to this span.
        rec.spans[idx as usize].host_start_ns = rec.epoch.elapsed().as_nanos() as u64;
        Some(idx)
    })
}

fn close(idx: u32) {
    RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard
            .as_mut()
            .expect("a span closes on the thread that opened it");
        let host_end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let sim_end = rec.clock.now();
        let allocs_end = alloc::allocs();
        let span = &mut rec.spans[idx as usize];
        span.host_end_ns = host_end_ns;
        span.sim_end = sim_end;
        span.allocs_end = allocs_end;
        let top = rec.open.pop();
        debug_assert_eq!(top, Some(idx), "spans nest");
    });
}

/// Runs `f` inside a span named `name` on `layer` when a recorder is
/// installed; otherwise just runs `f`.
pub fn span<T>(layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
    match open(layer, name) {
        None => f(),
        Some(idx) => {
            let out = f();
            close(idx);
            out
        }
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub calls: u64,
    pub host_ns: u64,
    pub self_host_ns: u64,
    pub sim_ns: u64,
}

/// What a recording adds up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub spans: usize,
    /// Distinct workload ops the spans belong to.
    pub ops: usize,
    /// Wall time from install to finish.
    pub wall_ns: u64,
    /// Self host time per layer.
    pub self_ns: BTreeMap<Layer, u64>,
    /// Self allocations per layer.
    pub self_allocs: BTreeMap<Layer, u64>,
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Host time covered by top-level spans (the rest is the benchmark's).
    pub covered_ns: u64,
}

impl Recording {
    /// Self time is a span's duration minus its children's durations;
    /// children of one parent never overlap on one thread.
    pub fn summarize(&self) -> Summary {
        let wall_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        let mut covered_ns = 0;
        for s in &self.spans {
            if s.parent == NO_PARENT {
                covered_ns += s.host_ns();
            } else {
                child_ns[s.parent as usize] += s.host_ns();
                child_allocs[s.parent as usize] += s.allocs();
            }
        }
        let mut out = Summary {
            spans: self.spans.len(),
            ops: self
                .spans
                .iter()
                .map(|s| s.op)
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            wall_ns,
            covered_ns,
            ..Summary::default()
        };
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.host_ns().saturating_sub(child_ns[i]);
            let self_allocs = s.allocs().saturating_sub(child_allocs[i]);
            *out.self_ns.entry(s.layer).or_default() += self_ns;
            *out.self_allocs.entry(s.layer).or_default() += self_allocs;
            let t = out.by_name.entry(s.name).or_default();
            t.calls += 1;
            t.host_ns += s.host_ns();
            t.self_host_ns += self_ns;
            t.sim_ns += s.sim().as_nanos();
        }
        out
    }
}

impl Summary {
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        self.self_ns.get(&layer).copied().unwrap_or(0)
    }
    pub fn layer_self_allocs(&self, layer: Layer) -> u64 {
        self.self_allocs.get(&layer).copied().unwrap_or(0)
    }
    pub fn name(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}
