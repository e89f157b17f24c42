//! `determinism` — the double-run determinism harness (CI gate).
//!
//! Runs every wall `array_*` workload shape plus a 1000-client server round
//! twice each in one process and demands bit-identical trace digests, data
//! digests, and simulated elapsed time.
//! Exits nonzero on any divergence. Run with `ALTO_AUDIT=1` to keep the
//! shadow auditor armed while the digests are taken:
//!
//! ```text
//! ALTO_AUDIT=1 cargo run --release -p alto-bench --bin determinism
//! cargo run --release -p alto-bench --bin determinism -- --json
//! ```

use std::process::ExitCode;

use alto_bench::determinism::standard_suite;

const ARMS: usize = 4;
const CLIENTS: usize = 1000;

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let audit = std::env::var("ALTO_AUDIT").is_ok_and(|v| v == "1");
    if !json {
        println!(
            "determinism: {ARMS}-arm arrays, {CLIENTS}-client fleet, audit {}",
            if audit { "armed" } else { "off" }
        );
    }
    let reports = standard_suite(ARMS, CLIENTS);
    let mut clean = true;
    if json {
        println!("{{");
        println!("  \"audit\": {audit},");
        println!("  \"workloads\": [");
        for (i, r) in reports.iter().enumerate() {
            let comma = if i + 1 < reports.len() { "," } else { "" };
            println!("{}{comma}", r.json());
            clean &= r.identical();
        }
        println!("  ]");
        println!("}}");
    } else {
        for r in &reports {
            println!("{}", r.describe());
            clean &= r.identical();
        }
    }
    if clean {
        if !json {
            println!(
                "determinism: all {} workloads bit-identical across 2 runs",
                reports.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("determinism: DIVERGENCE detected — see report above");
        ExitCode::FAILURE
    }
}
