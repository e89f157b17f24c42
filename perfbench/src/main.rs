//! The repository benchmark: four workloads over the simulated Alto, each
//! checked against its own oracle, reported as end-to-end metrics (untraced
//! run) or per-layer metrics (traced run).
//!
//! ```text
//! bash perfbench/run.sh --workload workstation --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! Everything before it is a human-readable report. See `perfbench/README.md`.

mod alloc;
mod ladder;
mod metrics;
mod pageserver;
mod recovery;
mod round;
mod span;
mod timed;
mod util;
mod workstation;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metric;
use round::{Round, Scale, Values};
use timed::TimedDisk;
use util::{median, quartiles};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Rounds below this many are never reported, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 64;
const FULL: Scale = Scale(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Workstation,
    PageServer,
    PageServer1Drive,
    Recovery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Workstation,
        Workload::PageServer,
        Workload::PageServer1Drive,
        Workload::Recovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Workstation => "workstation",
            Workload::PageServer => "pageserver",
            Workload::PageServer1Drive => "pageserver_1drive",
            Workload::Recovery => "recovery",
        }
    }

    /// One round: set up from `seed`, run the measured phase, check it.
    /// Traced, every disk sits behind a [`TimedDisk`] and spans record.
    pub fn round(self, seed: u64, s: Scale, traced: bool) -> Result<Round, String> {
        use pageserver::{ONE_DRIVE, TWO_DRIVES};
        match (self, traced) {
            (Workload::Workstation, false) => workstation::round(seed, s, |d| d, false),
            (Workload::Workstation, true) => workstation::round(seed, s, TimedDisk::new, true),
            (Workload::PageServer, false) => pageserver::round(seed, s, TWO_DRIVES, |d| d, false),
            (Workload::PageServer, true) => {
                pageserver::round(seed, s, TWO_DRIVES, TimedDisk::new, true)
            }
            (Workload::PageServer1Drive, false) => {
                pageserver::round(seed, s, ONE_DRIVE, |d| d, false)
            }
            (Workload::PageServer1Drive, true) => {
                pageserver::round(seed, s, ONE_DRIVE, TimedDisk::new, true)
            }
            (Workload::Recovery, false) => recovery::round(seed, s, |d| d, false),
            (Workload::Recovery, true) => recovery::round(seed, s, TimedDisk::new, true),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Runs rounds until `seconds` have passed (at least [`MIN_ROUNDS`]),
/// checking that every round of the seed produced identical simulated
/// results.
fn repeat(
    seconds: f64,
    mut one: impl FnMut() -> Result<Round, String>,
) -> Result<Vec<Round>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || (Instant::now() < deadline && rounds.len() < MAX_ROUNDS) {
        let r = one()?;
        if let Some(first) = rounds.first() {
            same(first, &r, "a repeated round")?;
        }
        rounds.push(r);
    }
    Ok(rounds)
}

/// Two rounds of one seed must agree on every simulated figure and digest.
fn same(a: &Round, b: &Round, what: &str) -> Result<(), String> {
    if a.digest != b.digest {
        return Err(format!(
            "{what} read different data: digest {:#x} vs {:#x}",
            a.digest, b.digest
        ));
    }
    for (k, v) in &a.exact {
        let w = b.exact.get(k);
        if w != Some(v) {
            return Err(format!("{what} diverged on {k}: {v} vs {w:?}"));
        }
    }
    if a.exact.len() != b.exact.len() {
        return Err(format!("{what} reported different metrics"));
    }
    Ok(())
}

/// Median and quartiles of one host figure across rounds, for the report.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(values);
    (median(values), q1, q3)
}

fn end_to_end(rounds: &[Round]) -> Values {
    let first = &rounds[0];
    let mut out = Values::new();
    let host = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let setup = host(&|r| r.setup_host_s);
    let rate = host(&|r| r.ops as f64 / r.measured_host_s);
    let allocs = host(&|r| r.allocs as f64 / r.ops.max(1) as f64);
    for (name, values) in [
        ("setup_s", &setup),
        ("ops_per_host_s", &rate),
        ("allocs_per_op", &allocs),
    ] {
        let (m, q1, q3) = spread(values);
        println!(
            "  {name:<20} median {m:.6}  quartiles {q1:.6} .. {q3:.6}  ({} rounds)",
            values.len()
        );
        out.insert(name.into(), m);
    }
    for name in [
        "sim_s",
        "lat_p50_sim_ms",
        "lat_tail_sim_ms",
        "max_rate_per_sim_s",
    ] {
        out.insert(name.into(), first.exact[name]);
    }
    println!(
        "  lat_tail_sim_ms is p{:.1} of {} samples",
        first.exact["lat_tail_pct"], first.exact["lat_count"]
    );
    out.extend(
        first
            .exact
            .iter()
            .filter(|(k, _)| k.starts_with("rate."))
            .map(|(k, v)| (k.clone(), *v)),
    );
    out.insert(
        "ok_frac".into(),
        1.0 - first.failed as f64 / first.attempted as f64,
    );
    out.insert("peak_rss_mb".into(), alloc::peak_rss_mb());
    out
}

fn per_layer(pairs: &[(Round, Round)], seed: u64) -> Result<Values, String> {
    let (plain, traced) = &pairs[0];
    let mut out = plain.exact.clone();
    for key in traced.host.keys() {
        let values: Vec<f64> = pairs.iter().map(|(_, t)| t.host[key]).collect();
        out.insert(key.clone(), median(&values));
    }
    let overhead: Vec<f64> = pairs
        .iter()
        .map(|(p, t)| t.measured_host_s / p.measured_host_s - 1.0)
        .collect();
    out.insert("trace.overhead_frac".into(), median(&overhead));
    let mut ladder = Round::default();
    ladder::run(seed, &mut ladder)?;
    out.extend(ladder.host);
    Ok(out)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What a run prints as its result line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(Metric, f64)>,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    println!(
        "== perfbench {} seed {} trace {} ({} host CPUs)",
        w.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (attempted, failed, values, table) = if args.trace {
        // Untraced and traced rounds alternate; the pair must agree exactly.
        let mut pairs: Vec<(Round, Round)> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        while pairs.is_empty() || (Instant::now() < deadline && pairs.len() < MAX_ROUNDS) {
            let plain = w.round(args.seed, FULL, false)?;
            let traced = w.round(args.seed, FULL, true)?;
            same(&plain, &traced, "the traced run")?;
            pairs.push((plain, traced));
        }
        let attempted = pairs.iter().map(|(p, t)| p.attempted + t.attempted).sum();
        let failed = pairs.iter().map(|(p, t)| p.failed + t.failed).sum();
        (
            attempted,
            failed,
            per_layer(&pairs, args.seed)?,
            metrics::PER_LAYER,
        )
    } else {
        let rounds = repeat(args.seconds, || w.round(args.seed, FULL, false))?;
        let attempted = rounds.iter().map(|r| r.attempted).sum();
        let failed = rounds.iter().map(|r| r.failed).sum();
        (attempted, failed, end_to_end(&rounds), metrics::END_TO_END)
    };
    // Figures the tables do not list (per-rate latencies, event counts)
    // go to the report only.
    for (k, v) in &values {
        if !table.iter().any(|m| m.name == k) {
            println!("  {k:<44} {v:>16.6}");
        }
    }
    let mut out = Vec::with_capacity(table.len());
    for m in table {
        // A per-layer metric of a layer this workload does not use reads 0.
        let v = values.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<44} {:>16.6} {}", m.name, v, m.unit);
        out.push((*m, v));
    }
    Ok(Report {
        attempted,
        failed,
        metrics: out,
    })
}

fn main() -> ExitCode {
    // Measured phases run unaudited, as the repository's own benches do: a
    // drive created while ALTO_AUDIT is set attaches the §3.3 auditor.
    std::env::remove_var("ALTO_AUDIT");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <workstation|pageserver|pageserver_1drive|recovery> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(r) => {
            println!(
                "{}",
                json_line(true, r.attempted.max(1), r.failed, &r.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: check failed: {e}", args.workload.name());
            println!("{}", json_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every op count cut by 40: a round per workload in seconds, even
    /// unoptimized.
    const SMALL: Scale = Scale(40);

    /// One seed gives identical simulated metrics, counts and digests,
    /// traced or not; another seed reads other data and still passes every
    /// oracle.
    fn check_seeds(w: Workload) {
        let run = |seed, traced| {
            w.round(seed, SMALL, traced)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()))
        };
        let plain = run(7, false);
        let traced = run(7, true);
        same(&plain, &traced, "the traced round").unwrap();
        assert!(!traced.host.is_empty(), "the traced round reports layers");
        let other = run(8, false);
        assert_ne!(plain.digest, other.digest, "another seed, other inputs");
        assert!(plain.attempted > 0 && other.attempted > 0);
        assert_eq!(plain.failed + other.failed, 0, "no op fails");
    }

    #[test]
    fn workstation_repeats_per_seed() {
        check_seeds(Workload::Workstation);
    }

    #[test]
    fn pageserver_repeats_per_seed() {
        check_seeds(Workload::PageServer);
    }

    #[test]
    fn pageserver_1drive_repeats_per_seed() {
        check_seeds(Workload::PageServer1Drive);
    }

    #[test]
    fn recovery_repeats_per_seed() {
        check_seeds(Workload::Recovery);
    }

    #[test]
    fn ladder_reports_every_rung() {
        let mut r = Round::default();
        ladder::run(3, &mut r).unwrap();
        for m in metrics::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("ladder."))
        {
            assert!(r.host.contains_key(m.name), "{} missing", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = json.matches("\"name\":").count();
        let tables = metrics::END_TO_END.len() + metrics::PER_LAYER.len();
        assert_eq!(listed, tables + Workload::ALL.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
        }
    }
}
