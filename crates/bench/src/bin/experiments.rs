//! Regenerates every quantitative claim in the paper (experiments E1–E10,
//! see `DESIGN.md`), reporting **simulated time** from the device models.
//!
//! ```text
//! cargo run -p alto-bench --bin experiments             # all experiments
//! cargo run -p alto-bench --bin experiments -- e3 e5    # a subset
//! cargo run -p alto-bench --bin experiments -- pr2 --json BENCH_pr2.json
//! ```
//!
//! The `pr2` experiment measures the in-core hint cache (directory name
//! index, leader cache, placement-aware allocation) against its ablation;
//! `pr3` measures the write-behind pipeline (delayed-write stream
//! buffering and dual-drive batch overlap) against its ablations;
//! `pr4` measures transient-fault recovery (bounded retry vs the
//! abort-immediately ablation) and the retry layer's zero-fault overhead.
//! `--json <path>` additionally writes the numbers as machine-readable
//! JSON for CI to archive and diff.

use alto_bench::{consecutive_file, filled_fs, fragmented_fs, fresh_fs, scatter_file};
use alto_disk::{Disk, DiskAddress, DiskDrive, DiskModel};
use alto_fs::compact::Compactor;
use alto_fs::hints::{guess_consecutive, resolve_page, HintOutcome, HintStats, PageHints};
use alto_fs::{dir, FileSystem, Scavenger};
use alto_machine::Machine;
use alto_net::{receive_file, Ether};
use alto_os::{AltoOs, MESSAGE_WORDS};
use alto_sim::{SimClock, SimTime, SplitMix64, Trace};

fn main() {
    let mut args: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--json" {
            json_path = Some(raw.next().unwrap_or_else(|| "BENCH_pr2.json".to_string()));
        } else {
            args.push(a.to_lowercase());
        }
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    println!("=============================================================");
    println!(" Reproduction of \"An Open Operating System for a Single-User");
    println!(" Machine\" (Lampson & Sproull, SOSP 1979) — all times are");
    println!(" SIMULATED time from the device models (Diablo 31 et al.)");
    println!("=============================================================");

    if want("e1") {
        e1_transfer_rate();
    }
    if want("e2") {
        e2_scavenge_time();
    }
    if want("e3") {
        e3_compaction_speedup();
    }
    if want("e4") {
        e4_label_discipline_cost();
    }
    if want("e5") {
        e5_hint_ladder();
    }
    if want("e6") {
        e6_world_swap();
    }
    if want("e7") {
        e7_junta_levels();
    }
    if want("e8") {
        e8_robustness_campaign();
    }
    if want("e8b") {
        e8b_ablation();
    }
    if want("e9") {
        e9_consecutive_guess();
    }
    if want("e10") {
        e10_activity_switching();
    }
    if want("pr2") {
        pr2_cache_bench(json_path.as_deref());
    }
    if want("pr3") {
        pr3_write_behind_bench(json_path.as_deref());
    }
    if want("pr4") {
        pr4_retry_bench(json_path.as_deref());
    }
}

fn header(id: &str, claim: &str) {
    println!("\n--- {id}: {claim}");
}

/// E1 — "one or two moving-head disk drives, each of which can store 2.5
/// megabytes … and can transfer 64k words in about one second" (§2).
fn e1_transfer_rate() {
    header("E1", "pack capacity and streaming transfer rate (§2)");
    println!(
        "{:<12} {:>12} {:>16} {:>14} {:>12}",
        "model", "capacity", "stream rate", "64K words in", "paper"
    );
    for model in [DiskModel::Diablo31, DiskModel::Trident] {
        let mut fs = fresh_fs(model);
        let f = consecutive_file(&mut fs, "rate.dat", 256); // 64K words
        let clock = fs.disk().clock().clone();
        let t0 = clock.now();
        let bytes = fs.read_file(f).unwrap();
        let dt = clock.now() - t0;
        let words = bytes.len() as f64 / 2.0;
        let rate = words / dt.as_secs_f64();
        let t64k = 65_536.0 / rate;
        let paper = match model {
            DiskModel::Diablo31 => "2.5 MB, ~1 s",
            _ => "2x the 31",
        };
        println!(
            "{:<12} {:>9.2} MB {:>10.1} kw/s {:>12.2} s {:>14}",
            model.name(),
            model.geometry().data_bytes() as f64 / 1e6,
            rate / 1e3,
            t64k,
            paper,
        );
    }
}

/// E2 — "this entire process is called scavenging, and it takes about a
/// minute for a 2.5 megabyte disk" (§3.5).
fn e2_scavenge_time() {
    header(
        "E2",
        "scavenge time for a 2.5 MB disk (§3.5; paper: ~1 minute)",
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12} {:>14}",
        "utilization", "files", "pages", "scavenge", "per sector"
    );
    for percent in [10u32, 50, 90] {
        let fs = filled_fs(percent, 42);
        let disk = fs.unmount().unwrap();
        let (fs2, report) = Scavenger::rebuild(disk).unwrap();
        let per_sector = report.elapsed.as_nanos() / report.sectors_scanned as u64;
        println!(
            "{:<13}% {:>8} {:>10} {:>11.1} s {:>11} µs",
            percent,
            report.files,
            report.live_pages,
            report.elapsed.as_secs_f64(),
            per_sector / 1000,
        );
        drop(fs2);
    }
    println!("(the scan dominates: all labels are read regardless of use)");
}

/// E3 — the compacting scavenger "typically increases the speed with which
/// the files can be read sequentially by an order of magnitude" (§3.5).
fn e3_compaction_speedup() {
    header(
        "E3",
        "sequential read, scattered vs compacted (\u{a7}3.5; paper: ~10x)",
    );
    println!(
        "{:<26} {:>12} {:>12} {:>9}",
        "layout", "read 40 pp", "rate", "speedup"
    );
    // A 40-page file, then three layouts of the same bytes: freshly
    // written (near-consecutive), 12-way interleaved, and uniformly random
    // scatter (the worst case months of editing converge to).
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "doc.dat", 40);
    // Put some other files on disk so compaction has company.
    for i in 0..6 {
        consecutive_file(&mut fs, &format!("other-{i}.dat"), 10);
    }

    scatter_file(&mut fs, f, 1234);
    let t0 = clock.now();
    let bytes = fs.read_file(f).unwrap();
    let scattered = clock.now() - t0;

    let report = Compactor::run(&mut fs).unwrap();
    assert!(report.consecutive_files >= 1);
    let root = fs.root_dir();
    let f = dir::lookup(&mut fs, root, "doc.dat").unwrap().unwrap();
    let t0 = clock.now();
    let bytes2 = fs.read_file(f).unwrap();
    let compacted = clock.now() - t0;
    assert_eq!(bytes, bytes2);

    // And the in-between case: the 12-way interleave.
    let (mut frag, names) = fragmented_fs(12, 40, 7);
    let fclock = frag.disk().clock().clone();
    let root = frag.root_dir();
    let g = dir::lookup(&mut frag, root, &names[5]).unwrap().unwrap();
    let t0 = fclock.now();
    let fbytes = frag.read_file(g).unwrap();
    let interleaved = fclock.now() - t0;

    let rate = |b: usize, t: SimTime| (b as f64 / 2.0) / t.as_secs_f64() / 1e3;
    for (name, b, t) in [
        ("random scatter", bytes.len(), scattered),
        ("12-way interleaved", fbytes.len(), interleaved),
        ("after compaction", bytes2.len(), compacted),
    ] {
        println!(
            "{:<26} {:>10.0} ms {:>9.1} kw/s {:>8.1}x",
            name,
            t.as_nanos() as f64 / 1e6,
            rate(b, t),
            scattered.as_nanos() as f64 / t.as_nanos() as f64,
        );
    }
}

/// E4 — "this scheme costs a disk revolution each time a page is allocated
/// or freed … on any other write the label is checked, at no cost in time"
/// (§3.3).
fn e4_label_discipline_cost() {
    header("E4", "the cost of the label discipline (\u{a7}3.3)");
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let rev = fs.disk().timing().unwrap().revolution();
    let f = consecutive_file(&mut fs, "target.dat", 64);
    let n = 64u64;

    // Ordinary writes: rewrite every page of the file in place.
    let t0 = clock.now();
    fs.write_file(f, &vec![1u8; 64 * 512]).unwrap();
    let overwrite = clock.now() - t0;

    // Raw page allocation: exactly the check-then-write-label discipline,
    // no file chaining on top.
    let fv = alto_fs::names::Fv::new(alto_fs::names::SerialNumber::new(0x2FFF, false), 1);
    let mut raw_pages = Vec::new();
    let t0 = clock.now();
    for i in 0..n as u16 {
        let label = alto_disk::Label {
            fid: fv.serial.words(),
            version: 1,
            page_number: i,
            length: 512,
            next: DiskAddress::NIL,
            prev: DiskAddress::NIL,
        };
        let da = fs.allocate_page(None, label, &[0; 256]).unwrap();
        raw_pages.push((i, da));
    }
    let raw_alloc = clock.now() - t0;

    // Raw page free: check the old label, write the free label.
    let t0 = clock.now();
    for (i, da) in &raw_pages {
        fs.free_page(alto_fs::names::PageName::new(fv, *i, *da))
            .unwrap();
    }
    let raw_free = clock.now() - t0;

    // File append (allocation plus chaining the predecessor's next link).
    let t0 = clock.now();
    let g = consecutive_file(&mut fs, "alloc.dat", 64);
    let append = clock.now() - t0;

    // Delete a whole file.
    let t0 = clock.now();
    fs.delete_file(g).unwrap();
    let delete = clock.now() - t0;

    let in_revs = |t: SimTime| t.as_nanos() as f64 / rev.as_nanos() as f64 / n as f64;
    println!(
        "{:<30} {:>12} {:>16} {:>10}",
        "operation (64 pages)", "total", "revolutions/page", "paper"
    );
    for (name, t, paper) in [
        ("overwrite in place", overwrite, "~0 extra"),
        ("raw page allocate", raw_alloc, "1"),
        ("raw page free", raw_free, "1"),
        ("file append (+ chain link)", append, "1 + 1"),
        ("file delete", delete, "~1"),
    ] {
        println!(
            "{:<30} {:>9.0} ms {:>16.2} {:>10}",
            name,
            t.as_nanos() as f64 / 1e6,
            in_revs(t),
            paper
        );
    }
}

/// E5 — the hint recovery ladder (§3.6): direct access beats link-chasing
/// beats directory lookup beats scavenging, and every-k-th-page hints
/// bound the chase.
fn e5_hint_ladder() {
    header("E5", "the hint ladder: cost of each recovery rung (§3.6)");
    let pages = 60usize;
    println!(
        "{:<44} {:>12} {:>10}",
        "access path to page 45 of a 60-page file", "time", "outcome"
    );

    // Helper to build a fresh scattered file + hints each time.
    let build = || -> (FileSystem<DiskDrive>, PageHints, SimClock) {
        let (mut fs, names) = fragmented_fs(8, pages, 99);
        let clock = fs.disk().clock().clone();
        let root = fs.root_dir();
        let hints = PageHints::bare(
            dir::lookup(&mut fs, root, &names[3]).unwrap().unwrap(),
            root,
            &names[3],
        );
        (fs, hints, clock)
    };

    let target = 45u16;
    let mut stats = HintStats::default();

    // Rung 0: direct hit (learn the address first, off the books).
    let (mut fs, mut hints, clock) = build();
    let (_, pn, _) =
        resolve_page(&mut fs, &mut hints, target, DiskAddress::NIL, &mut stats).unwrap();
    let t0 = clock.now();
    let (_, _, outcome) = resolve_page(&mut fs, &mut hints, target, pn.da, &mut stats).unwrap();
    report_rung("direct hint hit", clock.now() - t0, outcome);

    // Rung 1: chase links from the leader.
    let (mut fs, mut hints, clock) = build();
    let t0 = clock.now();
    let (_, _, outcome) =
        resolve_page(&mut fs, &mut hints, target, DiskAddress::NIL, &mut stats).unwrap();
    report_rung("link chase from the leader", clock.now() - t0, outcome);

    // Rung 1': every-k-th-page hints bound the chase.
    for k in [16u16, 8, 4] {
        let (mut fs, _, clock) = build();
        let root = fs.root_dir();
        let mut hints = PageHints::install(&mut fs, root, "frag-03.dat", k).unwrap();
        let t0 = clock.now();
        let (_, _, outcome) =
            resolve_page(&mut fs, &mut hints, target, DiskAddress::NIL, &mut stats).unwrap();
        report_rung(
            &format!("chase with every-{k}-page hints"),
            clock.now() - t0,
            outcome,
        );
    }

    // Rung 2: stale leader address -> FV lookup in the directory.
    let (mut fs, mut hints, clock) = build();
    hints.file = alto_fs::names::FileFullName::new(hints.file.fv, DiskAddress(4000));
    let t0 = clock.now();
    let (_, _, outcome) =
        resolve_page(&mut fs, &mut hints, target, DiskAddress::NIL, &mut stats).unwrap();
    report_rung(
        "directory lookup (stale leader hint)",
        clock.now() - t0,
        outcome,
    );

    // Rung 3: recreated file -> string lookup.
    let (mut fs, mut hints, clock) = build();
    let root = fs.root_dir();
    let old = dir::lookup(&mut fs, root, "frag-03.dat").unwrap().unwrap();
    dir::remove(&mut fs, root, "frag-03.dat").unwrap();
    fs.delete_file(old).unwrap();
    let new = dir::create_named_file(&mut fs, root, "frag-03.dat").unwrap();
    fs.write_file(new, &vec![3u8; pages * 512]).unwrap();
    let t0 = clock.now();
    let (_, _, outcome) =
        resolve_page(&mut fs, &mut hints, target, DiskAddress::NIL, &mut stats).unwrap();
    report_rung("string lookup (file recreated)", clock.now() - t0, outcome);

    // Rung 4: scrambled directory -> the Scavenger.
    let (mut fs, mut hints, clock) = build();
    hints.file = alto_fs::names::FileFullName::new(hints.file.fv, DiskAddress(4000));
    let root = fs.root_dir();
    fs.write_file(root, &[0xFF; 64]).unwrap();
    let t0 = clock.now();
    let (_, _, outcome) =
        resolve_page(&mut fs, &mut hints, target, DiskAddress::NIL, &mut stats).unwrap();
    report_rung(
        "scavenge (directories destroyed)",
        clock.now() - t0,
        outcome,
    );

    println!(
        "(ladder stats: {} direct, {} chases [{} hops], {} dir, {} string, {} scavenges)",
        stats.direct_hits,
        stats.link_chases,
        stats.link_hops,
        stats.dir_lookups,
        stats.string_lookups,
        stats.scavenges
    );

    // The directory rungs (2 and 3) are the ones the in-core name index
    // accelerates: recover 8 files through stale leader hints, once with
    // the hint cache on (only the first recovery pays a directory scan)
    // and once with it off (every recovery re-reads the directory).
    println!("\n8 stale-leader recoveries through rung 2, hint cache on vs off:");
    println!(
        "{:<12} {:>7} {:>7} {:>6} {:>7} {:>9} {:>13}",
        "hint cache", "direct", "chase", "dir", "string", "scavenge", "total time"
    );
    for enabled in [true, false] {
        let (mut fs, _, clock) = build();
        fs.set_hint_cache_enabled(enabled);
        let root = fs.root_dir();
        let mut s = HintStats::default();
        let t0 = clock.now();
        for i in 0..8 {
            let name = format!("frag-{i:02}.dat");
            let file = dir::lookup(&mut fs, root, &name).unwrap().unwrap();
            let mut hints = PageHints::bare(
                alto_fs::names::FileFullName::new(file.fv, DiskAddress(4000)),
                root,
                &name,
            );
            resolve_page(&mut fs, &mut hints, 20, DiskAddress::NIL, &mut s).unwrap();
        }
        let dt = clock.now() - t0;
        println!(
            "{:<12} {:>7} {:>7} {:>6} {:>7} {:>9} {:>10.1} ms",
            if enabled { "on" } else { "off" },
            s.direct_hits,
            s.link_chases,
            s.dir_lookups,
            s.string_lookups,
            s.scavenges,
            dt.as_nanos() as f64 / 1e6,
        );
    }
}

fn report_rung(name: &str, t: SimTime, outcome: HintOutcome) {
    println!(
        "{name:<44} {:>9.1} ms {:>10}",
        t.as_nanos() as f64 / 1e6,
        match outcome {
            HintOutcome::DirectHit => "direct",
            HintOutcome::LinkChase { .. } => "chase",
            HintOutcome::DirectoryLookup => "dir",
            HintOutcome::StringLookup => "string",
            HintOutcome::Scavenged => "scavenge",
        }
    );
}

/// E6 — "each routine … requires about a second to complete its
/// operation"; InLoad/OutLoad are "about 900 words"; the message is
/// "about 20 words" (§4.1).
fn e6_world_swap() {
    header("E6", "InLoad/OutLoad world swap (§4.1; paper: ~1 s each)");
    let clock = SimClock::new();
    let machine = Machine::new(clock.clone(), Trace::new());
    let drive = DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
    let mut os = AltoOs::install(machine, drive).unwrap();

    let t0 = clock.now();
    let file = os.create_state_file("World.state").unwrap();
    let create = clock.now() - t0;

    let t0 = clock.now();
    os.out_load(file).unwrap();
    let out = clock.now() - t0;

    let t0 = clock.now();
    os.in_load(file, &[0; MESSAGE_WORDS]).unwrap();
    let inl = clock.now() - t0;

    let t0 = clock.now();
    os.install_boot_file().unwrap();
    let boot_install = clock.now() - t0;
    let t0 = clock.now();
    os.bootstrap().unwrap();
    let boot = clock.now() - t0;

    println!("{:<36} {:>12} {:>10}", "operation", "time", "paper");
    for (name, t, paper) in [
        ("create state file (install phase)", create, "(once)"),
        ("OutLoad (in-place, streaming)", out, "~1 s"),
        ("InLoad", inl, "~1 s"),
        ("install boot file (first time)", boot_install, "(once)"),
        ("bootstrap button", boot, "~1 s"),
    ] {
        println!("{name:<36} {:>10.2} s {:>10}", t.as_secs_f64(), paper);
    }
    println!(
        "(level 1, holding OutLoad/InLoad/CounterJunta, is {} words; paper: ~900.",
        os.levels().level(1).unwrap().words
    );
    println!(" the InLoad message vector is {MESSAGE_WORDS} words; paper: ~20)");
}

/// E7 — the Junta level table (§5.2).
fn e7_junta_levels() {
    header(
        "E7",
        "Junta levels: resident sizes and what each Junta frees (§5.2)",
    );
    let clock = SimClock::new();
    let machine = Machine::new(clock.clone(), Trace::new());
    let drive = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Diablo31, 1);
    let os = AltoOs::install(machine, drive).unwrap();
    println!(
        "{:<4} {:<42} {:>7} {:>10} {:>12}",
        "lvl", "contents (paper's list)", "words", "resident", "prog. space"
    );
    for keep in (1..=13u8).rev() {
        // A fresh OS each time so the freed numbers are per-level.
        let clock = SimClock::new();
        let machine = Machine::new(clock.clone(), Trace::new());
        let drive = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Diablo31, 1);
        let mut o = AltoOs::install(machine, drive).unwrap();
        o.junta(keep).unwrap();
        let level = os.levels().level(keep).unwrap();
        println!(
            "{:<4} {:<42} {:>7} {:>10} {:>12}",
            keep,
            level.name,
            level.words,
            o.levels().resident_words(),
            o.levels().resident_base() as u32 - 0o400,
        );
    }
    println!("(prog. space = words between the loader's base at 0o400 and the resident floor)");
}

/// E8 — robustness: "the incidence of complaints about lost information is
/// negligible" (§6). A fault-injection campaign.
fn e8_robustness_campaign() {
    header(
        "E8",
        "fault-injection campaign: label checks + Scavenger (§3.3, §6)",
    );
    let runs = 20;
    let mut total_files = 0u32;
    let mut intact = 0u32;
    let mut truncated = 0u32;
    let mut lost = 0u32;
    let mut scavenges_ok = 0u32;
    for seed in 0..runs {
        let mut rng = SplitMix64::new(seed * 7919 + 13);
        let mut fs = fresh_fs(DiskModel::Diablo31);
        let root = fs.root_dir();
        let mut contents = Vec::new();
        for i in 0..10 {
            let name = format!("f{i}.dat");
            let len = (rng.next_below(5000) + 100) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
            let f = dir::create_named_file(&mut fs, root, &name).unwrap();
            fs.write_file(f, &bytes).unwrap();
            contents.push((name, bytes));
        }
        // Damage: 3 label smashes, 2 media failures, 1 scrambled dir
        // entry, and a crash (stale map).
        let total = fs.descriptor().bitmap.len() as u64;
        for _ in 0..3 {
            let da = DiskAddress(rng.next_below(total) as u16);
            let pack = fs.disk_mut().pack_mut().unwrap();
            let s = pack.sector_mut(da).unwrap();
            for w in &mut s.label {
                *w = rng.next_u16();
            }
        }
        for _ in 0..2 {
            let da = DiskAddress(rng.next_below(total) as u16);
            fs.disk_mut().pack_mut().unwrap().damage(da);
        }
        let disk = fs.crash();
        let Ok((mut fs, _report)) = Scavenger::rebuild(disk) else {
            continue;
        };
        scavenges_ok += 1;
        let root = fs.root_dir();
        for (name, want) in &contents {
            total_files += 1;
            match dir::lookup(&mut fs, root, name).unwrap() {
                Some(f) => match fs.read_file(f) {
                    Ok(got) if got == *want => intact += 1,
                    Ok(got) if want.starts_with(&got) => truncated += 1,
                    Ok(_) => truncated += 1, // prefix damaged by label smash
                    Err(_) => lost += 1,
                },
                None => lost += 1,
            }
        }
    }
    println!("{runs} campaigns x (3 label smashes + 2 media failures + crash) over 10 files each:");
    println!("  scavenges completed : {scavenges_ok}/{runs}");
    println!(
        "  files intact        : {intact}/{total_files} ({:.1}%)",
        intact as f64 * 100.0 / total_files as f64
    );
    println!("  files truncated     : {truncated} (damage landed on their pages)");
    println!("  files lost          : {lost} (damage landed on their leaders)");
    println!("(nothing was ever silently corrupted: every loss is at a damaged sector)");
}

/// E8b — ablation: the same wild-write campaign as E8's test twin, with
/// the label checks removed. What the mechanism was carrying becomes
/// visible as silent corruption.
fn e8b_ablation() {
    use alto_disk::UncheckedDisk;
    use alto_fs::names::{Fv, PageName, SerialNumber};
    header("E8b", "ablation: the same wild writes WITHOUT label checks");

    let run = |checked: bool| -> (u32, u32) {
        // 8 files, then a wild program writing through bogus hints at
        // every 7th sector.
        let bogus = Fv::new(SerialNumber::new(0x3FFF, false), 1);
        let mut rng = SplitMix64::new(4242);
        let mut contents: Vec<(alto_fs::names::FileFullName, Vec<u8>)> = Vec::new();

        macro_rules! campaign {
            ($fs:expr) => {{
                let root = $fs.root_dir();
                for i in 0..8 {
                    let name = format!("f{i}.dat");
                    let len = (rng.next_below(4000) + 100) as usize;
                    let bytes: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
                    let f = dir::create_named_file(&mut $fs, root, &name).unwrap();
                    $fs.write_file(f, &bytes).unwrap();
                    contents.push((f, bytes));
                }
                let total = $fs.descriptor().bitmap.len() as u16;
                for da in (0..total).step_by(7) {
                    let _ =
                        $fs.write_page(PageName::new(bogus, 1, DiskAddress(da)), &[0xDEAD; 256]);
                }
                let mut corrupted = 0u32;
                let mut unreadable = 0u32;
                for (f, want) in &contents {
                    match $fs.read_file(*f) {
                        Ok(got) if got == *want => {}
                        Ok(_) => corrupted += 1,
                        Err(_) => unreadable += 1,
                    }
                }
                (corrupted, unreadable)
            }};
        }

        let clock = SimClock::new();
        let drive = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Diablo31, 1);
        if checked {
            let mut fs = FileSystem::format(drive).unwrap();
            campaign!(fs)
        } else {
            let mut fs = FileSystem::format(UncheckedDisk::new(drive)).unwrap();
            campaign!(fs)
        }
    };

    let (c_corrupt, c_unread) = run(true);
    let (u_corrupt, u_unread) = run(false);
    println!(
        "{:<28} {:>12} {:>12}",
        "configuration (8 files)", "corrupted", "unreadable"
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "with label checks (§3.3)", c_corrupt, c_unread
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "checks removed (ablation)", u_corrupt, u_unread
    );
    println!("(the check-before-write discipline is the robustness mechanism, not luck)");
}

/// E9 — the consecutive-file guess (§3.6): "a program is free to assume
/// that a file is consecutive … The label check will prevent any incorrect
/// overwriting of data."
fn e9_consecutive_guess() {
    header("E9", "guessed access to consecutive files (§3.6)");
    println!(
        "{:<26} {:>10} {:>12} {:>14}",
        "layout", "hit rate", "guess cost", "chase cost"
    );
    for (name, fragmented) in [("freshly written", false), ("12-way fragmented", true)] {
        let (mut fs, file, clock) = if fragmented {
            let (mut fs, names) = fragmented_fs(12, 30, 5);
            let clock = fs.disk().clock().clone();
            let root = fs.root_dir();
            let f = dir::lookup(&mut fs, root, &names[0]).unwrap().unwrap();
            (fs, f, clock)
        } else {
            let mut fs = fresh_fs(DiskModel::Diablo31);
            let clock = fs.disk().clock().clone();
            let f = consecutive_file(&mut fs, "cons.dat", 30);
            (fs, f, clock)
        };
        // Learn page 1's address.
        let (leader, _) = fs.read_page(file.leader_page()).unwrap();
        let p1 = leader.next;
        let mut hits = 0;
        let tries = 25;
        let t0 = clock.now();
        for j in 2..2 + tries {
            if guess_consecutive(&mut fs, file.fv, (1, p1), j)
                .unwrap()
                .is_some()
            {
                hits += 1;
            }
        }
        let guess_time = clock.now() - t0;
        // Compare: link chase to the same pages.
        let root = fs.root_dir();
        let leader_name = fs.read_leader(file).unwrap().name;
        let mut hints = PageHints::bare(file, root, &leader_name);
        let mut stats = HintStats::default();
        let t0 = clock.now();
        for j in 2..2 + tries {
            resolve_page(&mut fs, &mut hints, j, DiskAddress::NIL, &mut stats).unwrap();
        }
        let chase_time = clock.now() - t0;
        println!(
            "{:<26} {:>8}/{tries} {:>9.0} ms {:>11.0} ms",
            name,
            hits,
            guess_time.as_nanos() as f64 / 1e6,
            chase_time.as_nanos() as f64 / 1e6,
        );
    }
    println!("(a wrong guess is harmless: the label check rejects it in one pass)");
}

/// E10 — the printing server (§4): activity switching by state swap is
/// fast enough to "respond quickly to incoming files".
fn e10_activity_switching() {
    header("E10", "activity switching in the printing server (§4)");
    let clock = SimClock::new();
    let machine = Machine::new(clock.clone(), Trace::new());
    let drive = DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
    let mut os = AltoOs::install(machine, drive).unwrap();
    let mut ether = Ether::new(clock.clone(), Trace::new());
    ether.attach(1).unwrap();
    ether.attach(2).unwrap();

    let spooler = os.create_state_file("Spooler.state").unwrap();
    let printer = os.create_state_file("Printer.state").unwrap();
    os.out_load(spooler).unwrap();
    os.out_load(printer).unwrap();

    println!(
        "{:<22} {:>14} {:>14} {:>16}",
        "job size", "net transfer", "switch to job", "switch/transfer"
    );
    for pages in [1usize, 4, 16] {
        let words = vec![0x5A5Au16; pages * 256];
        // Job arrives while the "printer" world is in control.
        let t_arrive = clock.now();
        let got = receive_file(&mut ether, 1, 2, 0x30, 0x31, &words).unwrap();
        let t_transferred = clock.now();
        // Printer notices traffic: save printer world, resume spooler.
        os.out_load(printer).unwrap();
        os.in_load(spooler, &[0; MESSAGE_WORDS]).unwrap();
        let t_spooler_running = clock.now();
        assert_eq!(got.len(), words.len());
        let transfer = t_transferred - t_arrive;
        let switch = t_spooler_running - t_transferred;
        println!(
            "{:<19} pp {:>11.1} ms {:>11.1} ms {:>15.1}x",
            pages,
            transfer.as_nanos() as f64 / 1e6,
            switch.as_nanos() as f64 / 1e6,
            switch.as_nanos() as f64 / transfer.as_nanos() as f64,
        );
    }
    println!("(one activity switch = OutLoad + InLoad ≈ 2 s: cheap next to printing a");
    println!(" document, which is why §4 batches switches at job boundaries)");
}

/// PR2 — the in-core hint cache layer (directory name index, leader cache,
/// placement-aware allocation) measured against its ablation. With
/// `--json <path>`, the numbers are also written as machine-readable JSON.
fn pr2_cache_bench(json_path: Option<&str>) {
    use alto_fs::names::{FileFullName, PageName};

    header(
        "PR2",
        "in-core hint cache vs ablation (name index, leader cache, placement)",
    );

    // --- open-by-name over a 300-entry directory -----------------------
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let root = fs.root_dir();
    for i in 0..300 {
        dir::create_named_file(&mut fs, root, &format!("f{i:03}")).unwrap();
    }
    // Remount so the first lookup is genuinely cold: the cache, like any
    // hint, dies with the in-core file system.
    let mut fs = FileSystem::mount(fs.unmount().unwrap()).unwrap();
    let root = fs.root_dir();
    let open = |fs: &mut FileSystem<DiskDrive>| {
        let t0 = clock.now();
        let f = dir::lookup(fs, root, "f299").unwrap().unwrap();
        fs.open_leader(f).unwrap();
        clock.now() - t0
    };
    let cold = open(&mut fs);
    let warm = open(&mut fs);
    let stats = fs.cache_stats();
    fs.set_hint_cache_enabled(false);
    let uncached = open(&mut fs);
    fs.set_hint_cache_enabled(true);
    let speedup = uncached.as_nanos() as f64 / warm.as_nanos() as f64;

    println!("open-by-name, last of 300 entries (~10-page directory):");
    println!("{:<26} {:>12}", "path", "sim time");
    for (name, t) in [
        ("cold (scan, builds index)", cold),
        ("warm (index + verify)", warm),
        ("uncached ablation", uncached),
    ] {
        println!("{name:<26} {:>9.2} ms", t.as_nanos() as f64 / 1e6);
    }
    println!("warm speedup over the ablation: {speedup:.1}x (acceptance: >= 5x)");

    // --- placement-aware allocation on a fragmented disk ---------------
    // 15 three-page holes in the front of the disk, then a fresh 40-page
    // file: count the non-consecutive links the allocator produced.
    let build_fragmented = |enabled: bool| -> (FileSystem<DiskDrive>, SimClock) {
        let mut fs = fresh_fs(DiskModel::Diablo31);
        let clock = fs.disk().clock().clone();
        let root = fs.root_dir();
        for i in 0..30 {
            let f = dir::create_named_file(&mut fs, root, &format!("fill-{i:02}")).unwrap();
            fs.write_file(f, &vec![0u8; 3 * 512]).unwrap();
        }
        for i in (0..30).step_by(2) {
            let f = dir::remove(&mut fs, root, &format!("fill-{i:02}"))
                .unwrap()
                .unwrap();
            fs.delete_file(f).unwrap();
        }
        // Remount: the next-fit rotor, like all in-core state, resets, so
        // the fresh file is written by a newly booted system onto an aged
        // disk whose front is riddled with holes.
        let mut fs = FileSystem::mount(fs.unmount().unwrap()).unwrap();
        fs.set_hint_cache_enabled(enabled);
        (fs, clock)
    };
    let chain_jumps = |fs: &mut FileSystem<DiskDrive>, f: FileFullName| -> (u32, u32) {
        let (leader, _) = fs.read_page(f.leader_page()).unwrap();
        let (mut da, mut page) = (leader.next, 1u16);
        let (mut jumps, mut links) = (0u32, 0u32);
        loop {
            let (label, _) = fs.read_page(PageName::new(f.fv, page, da)).unwrap();
            if label.next.is_nil() {
                break;
            }
            if label.next.0 != da.0.wrapping_add(1) {
                jumps += 1;
            }
            links += 1;
            da = label.next;
            page += 1;
        }
        (jumps, links)
    };

    let mut placement = Vec::new();
    for enabled in [true, false] {
        let (mut fs, _) = build_fragmented(enabled);
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "fresh.dat").unwrap();
        fs.write_file(f, &vec![7u8; 40 * 512]).unwrap();
        let (jumps, links) = chain_jumps(&mut fs, f);
        placement.push((enabled, jumps, links));
    }
    println!("\nfresh 40-page file on a fragmented disk, data-chain jumps:");
    for (enabled, jumps, links) in &placement {
        println!(
            "  placement {:<4} {jumps:>3} jumps / {links} links",
            if *enabled { "on" } else { "off" },
        );
    }

    // --- sequential read: fresh placement vs after compaction ----------
    let (mut fs, fclock) = build_fragmented(true);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "fresh.dat").unwrap();
    fs.write_file(f, &vec![7u8; 40 * 512]).unwrap();
    let t0 = fclock.now();
    fs.read_file(f).unwrap();
    let fresh_read = fclock.now() - t0;
    Compactor::run(&mut fs).unwrap();
    let root = fs.root_dir();
    let f = dir::lookup(&mut fs, root, "fresh.dat").unwrap().unwrap();
    let t0 = fclock.now();
    fs.read_file(f).unwrap();
    let compacted_read = fclock.now() - t0;
    let read_ratio = fresh_read.as_nanos() as f64 / compacted_read.as_nanos() as f64;
    println!(
        "\nsequential read of the fresh file: {:.2} ms; after compaction: {:.2} ms ({read_ratio:.2}x, acceptance: <= 2x)",
        fresh_read.as_nanos() as f64 / 1e6,
        compacted_read.as_nanos() as f64 / 1e6,
    );

    // --- scavenge regression guard -------------------------------------
    let filled = filled_fs(50, 7);
    let (_, report) = Scavenger::rebuild(filled.unmount().unwrap()).unwrap();
    let scavenge_s = report.elapsed.as_secs_f64();
    println!("scavenge of a 50%-full disk: {scavenge_s:.1} s (cache adds nothing to it)");

    println!(
        "cache counters: {} name hits, {} name misses, {} leader hits, {} leader misses",
        stats.name_hits, stats.name_misses, stats.leader_hits, stats.leader_misses
    );

    if let Some(path) = json_path {
        let us = |t: alto_sim::SimTime| t.as_nanos() as f64 / 1e3;
        let json = format!(
            "{{\n  \"schema\": \"alto-bench/pr2\",\n  \"open_by_name\": {{\n    \"dir_entries\": 300,\n    \"cold_us\": {:.1},\n    \"warm_us\": {:.1},\n    \"uncached_us\": {:.1},\n    \"warm_speedup\": {:.2}\n  }},\n  \"allocation_locality\": {{\n    \"file_pages\": 40,\n    \"jumps_cache_on\": {},\n    \"jumps_cache_off\": {},\n    \"links\": {}\n  }},\n  \"seq_read\": {{\n    \"fresh_us\": {:.1},\n    \"compacted_us\": {:.1},\n    \"ratio\": {:.3}\n  }},\n  \"scavenge\": {{\n    \"half_full_disk_s\": {:.2}\n  }},\n  \"cache_stats\": {{\n    \"name_hits\": {},\n    \"name_misses\": {},\n    \"leader_hits\": {},\n    \"leader_misses\": {},\n    \"verify_failures\": {},\n    \"invalidations\": {}\n  }}\n}}\n",
            us(cold),
            us(warm),
            us(uncached),
            speedup,
            placement[0].1,
            placement[1].1,
            placement[0].2,
            us(fresh_read),
            us(compacted_read),
            read_ratio,
            scavenge_s,
            stats.name_hits,
            stats.name_misses,
            stats.leader_hits,
            stats.leader_misses,
            stats.verify_failures,
            stats.invalidations,
        );
        std::fs::write(path, json).unwrap();
        println!("(wrote {path})");
    }
}

/// PR3 — the write-behind pipeline: delayed-write stream buffering against
/// the flush-per-crossing ablation, and dual-drive batch overlap against
/// serialized execution. With `--json <path>`, the numbers are also
/// written as machine-readable JSON.
fn pr3_write_behind_bench(json_path: Option<&str>) {
    use alto_disk::{BatchRequest, DriveArray, Placement, SectorBuf, SectorOp};
    use alto_streams::{DiskByteStream, Stream};

    header(
        "PR3",
        "write-behind pipeline vs ablation; dual-drive overlap vs serial",
    );

    // --- sequential overwrite through a stream -------------------------
    let pages = 100usize;
    let seq = |wb: bool| -> (SimTime, u64, u64) {
        let mut fs = fresh_fs(DiskModel::Diablo31);
        let clock = fs.disk().clock().clone();
        let f = consecutive_file(&mut fs, "seq.dat", pages);
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_write_behind(&mut fs, wb).unwrap();
        let t0 = clock.now();
        for _ in 0..pages * 512 {
            s.put_byte(&mut fs, 0x5A).unwrap();
        }
        s.flush(&mut fs).unwrap();
        let dt = clock.now() - t0;
        s.close(&mut fs).unwrap();
        let stats = fs.disk().io_stats();
        (dt, stats.wb_drains, stats.wb_coalesced)
    };
    let (wb_on, drains, coalesced) = seq(true);
    let (wb_off, _, _) = seq(false);
    let wb_speedup = wb_off.as_nanos() as f64 / wb_on.as_nanos() as f64;
    println!("sequential overwrite of a {pages}-page file, one byte at a time:");
    println!("{:<38} {:>12}", "write path", "sim time");
    for (name, t) in [
        ("write-behind (coalesced drains)", wb_on),
        ("flush per crossing (ablation)", wb_off),
    ] {
        println!("{name:<38} {:>9.0} ms", t.as_nanos() as f64 / 1e6);
    }
    println!(
        "write-behind speedup: {wb_speedup:.1}x (acceptance: >= 5x); \
         {drains} drains coalesced {coalesced} pages"
    );

    // --- dual-drive batch overlap --------------------------------------
    // 24 sectors alternating between the two units, with seeks between
    // consecutive requests on each unit.
    let requests = 24u16;
    let dual_run = |overlap: bool| -> (SimTime, SimTime) {
        let clock = SimClock::new();
        let mut dual = DriveArray::with_arms(
            2,
            Placement::Range,
            clock.clone(),
            Trace::new(),
            DiskModel::Diablo31,
        );
        dual.set_overlap_enabled(overlap);
        let per_drive = (dual.geometry().unwrap().sector_count() / 2) as u16;
        let mut batch: Vec<BatchRequest> = (0..requests)
            .map(|i| {
                let local = 200 + 37 * (i / 2);
                let da = DiskAddress((i % 2) * per_drive + local);
                BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        let t0 = clock.now();
        let results = dual.do_batch(&mut batch);
        assert!(results.iter().all(std::result::Result::is_ok));
        (clock.now() - t0, dual.io_stats().overlap_saved)
    };
    let (serial, _) = dual_run(false);
    let (overlapped, saved) = dual_run(true);
    let overlap_ratio = overlapped.as_nanos() as f64 / serial.as_nanos() as f64;
    println!("\n{requests}-request batch spanning both units of a dual drive:");
    println!("{:<38} {:>12}", "execution", "sim time");
    for (name, t) in [
        ("serialized (ablation)", serial),
        ("overlapped arms", overlapped),
    ] {
        println!("{name:<38} {:>9.0} ms", t.as_nanos() as f64 / 1e6);
    }
    println!(
        "overlapped/serial: {overlap_ratio:.2}x (acceptance: <= 0.6x); \
         overlap saved {saved}"
    );

    if let Some(path) = json_path {
        let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
        let json = format!(
            "{{\n  \"schema\": \"alto-bench/pr3\",\n  \"seq_write\": {{\n    \"pages\": {pages},\n    \"write_behind_us\": {:.1},\n    \"ablation_us\": {:.1},\n    \"speedup\": {wb_speedup:.2},\n    \"wb_drains\": {drains},\n    \"wb_coalesced\": {coalesced}\n  }},\n  \"dual_overlap\": {{\n    \"requests\": {requests},\n    \"serial_us\": {:.1},\n    \"overlapped_us\": {:.1},\n    \"ratio\": {overlap_ratio:.3},\n    \"saved_us\": {:.1}\n  }}\n}}\n",
            us(wb_on),
            us(wb_off),
            us(serial),
            us(overlapped),
            us(saved),
        );
        std::fs::write(path, json).unwrap();
        println!("(wrote {path})");
    }
}

/// PR4 — transient faults and bounded retry: a seeded campaign at a 1e-3
/// per-operation fault rate must recover invisibly; with the retry budget
/// ablated to zero the same campaign surfaces errors; and at a zero fault
/// rate the retry layer costs nothing.
fn pr4_retry_bench(json_path: Option<&str>) {
    header(
        "PR4",
        "transient-fault recovery (bounded retry) vs abort-immediately ablation",
    );

    // --- seeded campaign, same fault stream at both retry budgets -------
    let ops = 120usize;
    let campaign = |retries: u32| -> (alto_disk::DriveStats, u64) {
        let mut fs = fresh_fs(DiskModel::Diablo31);
        fs.disk_mut().set_retries(retries);
        fs.disk_mut().injector_mut().set_campaign(0xBEEF, 1, 1000);
        let root = fs.root_dir();
        let mut rng = SplitMix64::new(777);
        let mut caller_errors = 0u64;
        for i in 0..ops {
            let name = format!("w-{}.dat", i % 12);
            let f = match dir::lookup(&mut fs, root, &name) {
                Ok(Some(f)) => f,
                Ok(None) => match dir::create_named_file(&mut fs, root, &name) {
                    Ok(f) => f,
                    Err(_) => {
                        caller_errors += 1;
                        continue;
                    }
                },
                Err(_) => {
                    caller_errors += 1;
                    continue;
                }
            };
            let len = (rng.next_below(3000) + 1) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
            match fs.write_file(f, &bytes) {
                Err(_) => caller_errors += 1,
                Ok(()) => {
                    if fs.read_file(f).is_err() {
                        caller_errors += 1;
                    }
                }
            }
        }
        (fs.disk().io_stats(), caller_errors)
    };
    let (with_retry, errors_with_retry) = campaign(3);
    let (ablated, errors_ablated) = campaign(0);
    let episodes = with_retry.recovered + with_retry.hard_failures;
    let recovered_fraction = if episodes == 0 {
        1.0
    } else {
        with_retry.recovered as f64 / episodes as f64
    };
    println!("seeded campaign: {ops} file ops at a 1e-3 per-sector-op fault rate:");
    println!(
        "{:<28} {:>6} {:>8} {:>10} {:>6} {:>8}",
        "retry budget", "soft", "retries", "recovered", "hard", "surfaced"
    );
    for (name, s, surfaced) in [
        ("3 attempts (default)", &with_retry, errors_with_retry),
        ("0 attempts (ablation)", &ablated, errors_ablated),
    ] {
        println!(
            "{name:<28} {:>6} {:>8} {:>10} {:>6} {:>8}",
            s.soft_errors, s.retries, s.recovered, s.hard_failures, surfaced
        );
    }
    println!(
        "recovered fraction: {recovered_fraction:.3} (acceptance: >= 0.99 \
         with 0 caller-visible errors; ablation must surface errors)"
    );
    assert!(with_retry.soft_errors > 0, "the campaign never fired");
    assert!(recovered_fraction >= 0.99);
    assert_eq!(errors_with_retry, 0, "a fault reached the caller");
    assert!(errors_ablated > 0, "the ablation surfaced nothing");

    // --- zero-fault overhead -------------------------------------------
    let pages = 100usize;
    let seq_read = |retries: u32| -> SimTime {
        let mut fs = fresh_fs(DiskModel::Diablo31);
        fs.disk_mut().set_retries(retries);
        let clock = fs.disk().clock().clone();
        let f = consecutive_file(&mut fs, "seq.dat", pages);
        let t0 = clock.now();
        fs.read_file(f).unwrap();
        clock.now() - t0
    };
    let retry_on = seq_read(3);
    let retry_off = seq_read(0);
    let overhead = retry_on.as_nanos() as f64 / retry_off.as_nanos() as f64;
    println!("\nzero-fault overhead, {pages}-page sequential read:");
    println!(
        "retry enabled {:.1} ms, retry disabled {:.1} ms, ratio {overhead:.3} \
         (acceptance: <= 1.02)",
        retry_on.as_nanos() as f64 / 1e6,
        retry_off.as_nanos() as f64 / 1e6,
    );
    assert!(overhead <= 1.02);

    if let Some(path) = json_path {
        let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
        let json = format!(
            "{{\n  \"schema\": \"alto-bench/pr4\",\n  \"campaign\": {{\n    \"fault_rate\": 0.001,\n    \"file_ops\": {ops},\n    \"soft_errors\": {},\n    \"retries\": {},\n    \"recovered\": {},\n    \"hard_failures\": {},\n    \"caller_errors\": {},\n    \"recovered_fraction\": {recovered_fraction:.4}\n  }},\n  \"ablation_retries_0\": {{\n    \"soft_errors\": {},\n    \"hard_failures\": {},\n    \"caller_errors\": {}\n  }},\n  \"zero_fault_overhead\": {{\n    \"pages\": {pages},\n    \"retry_on_us\": {:.1},\n    \"retry_off_us\": {:.1},\n    \"ratio\": {overhead:.4}\n  }}\n}}\n",
            with_retry.soft_errors,
            with_retry.retries,
            with_retry.recovered,
            with_retry.hard_failures,
            errors_with_retry,
            ablated.soft_errors,
            ablated.hard_failures,
            errors_ablated,
            us(retry_on),
            us(retry_off),
        );
        std::fs::write(path, json).unwrap();
        println!("(wrote {path})");
    }
}
