//! Double-run determinism pins (tier-1 companion to the `determinism` bin).
//!
//! Every workload here is executed twice in one process and must produce
//! bit-identical trace digests, data digests, and simulated elapsed time.
//! The full-size harness (4 arms, 1000 clients) runs in CI via
//! `cargo run --release -p alto-bench --bin determinism`; these are smaller
//! shapes sized for debug-mode `cargo test`.

use alto_bench::determinism::{
    array_compact, array_random, array_scavenge, array_seq, fs_walks, repeat_run, server_round,
    RunDigest,
};

#[test]
fn array_seq_is_bit_identical_across_runs() {
    let r = repeat_run("array_seq", || array_seq(2));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn array_random_is_bit_identical_across_runs() {
    let r = repeat_run("array_random", || array_random(3));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn array_scavenge_is_bit_identical_across_runs() {
    let r = repeat_run("array_scavenge", || array_scavenge(2));
    assert!(r.identical(), "{}", r.describe());
}

/// Runs the compactor's chained `WRITE_ALL` moves on four arms; CI's debug
/// `ALTO_AUDIT=1` step runs them under the §3.3 auditor and the planner's
/// wait assertion.
#[test]
fn array_compact_is_bit_identical_across_runs() {
    let r = repeat_run("array_compact", || array_compact(4));
    assert!(r.identical(), "{}", r.describe());
}

#[test]
fn server_round_is_bit_identical_across_runs() {
    let r = repeat_run("server_round", || server_round(120, 2));
    assert!(r.identical(), "{}", r.describe());
}

/// Absolute pins. Any timing-model or trace-format change shows up here as
/// a diff, not just as a run-to-run divergence.
///
/// The `array_seq(4)` digest was recorded on the last tree that ran
/// drive-array shares on host threads, where threads on and threads off
/// gave the same values, and still holds. The server round has one digest
/// with and without `ALTO_AUDIT=1`: the drive services a sector through one
/// step whether or not the §3.3 auditor is attached, and a page-server reply
/// sent from inside the read visitor leaves once its sector is in (and the
/// previous reply is on the wire), in both modes.
#[test]
fn absolute_digests_hold_with_and_without_audit() {
    assert_eq!(
        array_seq(4),
        RunDigest {
            trace: 4_168_519_195_585_495_585,
            data: 8_878_843_857_106_772_773,
            sim_ns: 12_499_998_750,
        }
    );
    assert_eq!(
        server_round(120, 2),
        RunDigest {
            trace: 10_134_795_831_345_890_313,
            data: 3_648_097_143_548_785_406,
            sim_ns: 15_416_396_413,
        }
    );
}

/// Every link chase and page lookup in `fs`, `streams` and `core`, the
/// lookups through the file's `fs::PageMap`. A change to where a walk
/// starts or what the map learns shows up here. The same values hold with
/// and without `ALTO_AUDIT=1`.
#[test]
fn fs_walks_digest_holds_with_and_without_audit() {
    let r = repeat_run("fs_walks", fs_walks);
    assert!(r.identical(), "{}", r.describe());
    assert_eq!(
        r.first,
        RunDigest {
            trace: 5_156_098_282_757_424_621,
            data: 17_101_054_087_947_489_125,
            sim_ns: 37_316_662_935,
        }
    );
}
