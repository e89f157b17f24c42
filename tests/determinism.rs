//! Double-run determinism pins (tier-1 companion to the `determinism` bin).
//!
//! Every workload here is executed twice in one process and must produce
//! bit-identical trace digests, data digests, and simulated elapsed time.
//! The full-size harness (4 arms, 1000 clients) runs in CI via
//! `cargo run --release -p alto-bench --bin determinism`; these are smaller
//! shapes sized for debug-mode `cargo test`.

use alto_bench::determinism::{
    array_random, array_scavenge, array_seq, repeat_run, server_round, RunDigest,
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

#[test]
fn server_round_is_bit_identical_across_runs() {
    let r = repeat_run("server_round", || server_round(120, 2));
    assert!(r.identical(), "{}", r.describe());
}

/// Absolute pins. These digests were recorded on the last tree that ran
/// drive-array shares on host threads, where threads on and threads off
/// gave the same values; the single-threaded tree must reproduce them
/// exactly, so removing the threads moved no simulated nanosecond, trace
/// event or data word. Any timing-model or trace-format change shows up
/// here as a diff, not just as a run-to-run divergence.
///
/// The server round has a second pin for `ALTO_AUDIT=1`. An armed auditor
/// sends the drives' batch reads down the buffered path, which advances the
/// clock sector by sector; the zero-copy path advances it once per chain.
/// The page server sends each reply from inside the read visitor, so its
/// replies leave at different simulated instants on the two paths. The
/// data digest is the same either way.
#[test]
fn threading_never_moves_simulated_time() {
    assert_eq!(
        array_seq(4),
        RunDigest {
            trace: 4_168_519_195_585_495_585,
            data: 8_878_843_857_106_772_773,
            sim_ns: 12_499_998_750,
        }
    );
    let server = if alto::disk::Auditor::from_env().is_some() {
        RunDigest {
            trace: 2_558_174_265_775_078_943,
            data: 3_648_097_143_548_785_406,
            sim_ns: 33_328_224_858,
        }
    } else {
        RunDigest {
            trace: 3_466_788_512_192_165_707,
            data: 3_648_097_143_548_785_406,
            sim_ns: 32_654_986_938,
        }
    };
    assert_eq!(server_round(120, 2), server);
}
