//! The robustness campaign (experiment E8's test twin).
//!
//! The paper's claim: label checking makes accidental overwriting "quite
//! unlikely" and the Scavenger permits "full automatic recovery after a
//! crash" (§3.3, §6). These tests throw seeded random damage at live file
//! systems and verify the two invariants that matter:
//!
//! 1. **No silent corruption** — a file that the damage did not touch is
//!    byte-identical after recovery;
//! 2. **No lost space** — after scavenging, free + live + bad = all, and
//!    allocation works.

use alto::disk::FaultKind;
use alto::prelude::*;
use alto::sim::SplitMix64;
use std::collections::BTreeMap;

/// Builds a populated file system and returns the contents written.
fn populated(
    seed: u64,
    files: usize,
) -> (FileSystem<DiskDrive>, BTreeMap<String, Vec<u8>>, SimClock) {
    let clock = SimClock::new();
    let drive = DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(drive).unwrap();
    let root = fs.root_dir();
    let mut rng = SplitMix64::new(seed);
    let mut contents = BTreeMap::new();
    for i in 0..files {
        let name = format!("file-{i:02}.dat");
        let len = (rng.next_below(6000) + 10) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
        let f = dir::create_named_file(&mut fs, root, &name).unwrap();
        fs.write_file(f, &bytes).unwrap();
        contents.insert(name, bytes);
    }
    (fs, contents, clock)
}

/// Which files does a set of damaged sectors touch? (By reading labels
/// straight off the pack: the ground truth.)
fn files_touching(fs: &FileSystem<DiskDrive>, sectors: &[DiskAddress]) -> Vec<u32> {
    let pack = fs.disk().pack().unwrap();
    sectors
        .iter()
        .filter_map(|da| {
            let label = pack.sector(*da)?.decoded_label();
            if label.is_in_use() {
                Some(alto::fs::names::Fv::from_label(&label).serial.number())
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn random_label_smashes_lose_only_the_files_hit() {
    for seed in [1u64, 2, 3] {
        let (mut fs, contents, _clock) = populated(seed, 12);
        let mut rng = SplitMix64::new(seed * 977);

        // Smash 5 random labels on the medium.
        let total = fs.descriptor().bitmap.len();
        let mut smashed = Vec::new();
        for _ in 0..5 {
            let da = DiskAddress(rng.next_below(total as u64) as u16);
            smashed.push(da);
        }
        let hit_serials = files_touching(&fs, &smashed);
        for da in &smashed {
            let pack = fs.disk_mut().pack_mut().unwrap();
            let sector = pack.sector_mut(*da).unwrap();
            for w in &mut sector.label {
                *w ^= rng.next_u16() | 1;
            }
        }

        let disk = fs.crash();
        let (mut fs, _report) = Scavenger::rebuild(disk).unwrap();

        // Every file whose pages were NOT hit is byte-identical.
        let root = fs.root_dir();
        for (name, want) in &contents {
            let found = dir::lookup(&mut fs, root, name).unwrap();
            let serial = found.map(|f| f.fv.serial.number());
            let was_hit = serial.is_none_or(|s| hit_serials.contains(&s));
            if let Some(f) = found {
                let got = fs.read_file(f);
                if !was_hit {
                    assert_eq!(got.unwrap(), *want, "{name} (seed {seed}) corrupted");
                }
            } else {
                // Lost entirely: only acceptable if the damage hit it —
                // specifically its leader. (Conservative: any hit counts.)
                assert!(
                    !hit_serials.is_empty(),
                    "{name} lost without any damage (seed {seed})"
                );
            }
        }

        // The system still allocates and works.
        let root = fs.root_dir();
        let f = dir::create_named_file(&mut fs, root, "after.dat").unwrap();
        fs.write_file(f, b"still alive").unwrap();
        assert_eq!(fs.read_file(f).unwrap(), b"still alive");
    }
}

#[test]
fn torn_and_dropped_writes_never_corrupt_other_files() {
    for seed in [11u64, 12] {
        let (mut fs, contents, _clock) = populated(seed, 8);
        let mut rng = SplitMix64::new(seed * 31);

        // Rewrite one file with injected write faults under it.
        let root = fs.root_dir();
        let victim_name = "file-03.dat";
        let victim = dir::lookup(&mut fs, root, victim_name).unwrap().unwrap();
        // Arm faults on several of the victim's sectors.
        let mut pn = victim.leader_page();
        let mut victim_sectors = vec![pn.da];
        loop {
            let (label, _) = fs.read_page(pn).unwrap();
            if label.next.is_nil() {
                break;
            }
            pn = alto::fs::names::PageName::new(victim.fv, pn.page + 1, label.next);
            victim_sectors.push(pn.da);
        }
        for da in victim_sectors.iter().skip(1).take(3) {
            let kind = if rng.chance(1, 2) {
                FaultKind::TornWrite {
                    words_written: rng.next_below(256) as usize,
                }
            } else {
                FaultKind::DropWrite
            };
            fs.disk_mut().injector_mut().arm(*da, kind);
        }
        let new_bytes: Vec<u8> = (0..4000u32).map(|_| rng.next_u16() as u8).collect();
        let _ = fs.write_file(victim, &new_bytes); // may or may not "succeed"

        let disk = fs.crash();
        let (mut fs, _report) = Scavenger::rebuild(disk).unwrap();
        let root = fs.root_dir();
        for (name, want) in &contents {
            if name == victim_name {
                continue; // the victim's data is fair game
            }
            let f = dir::lookup(&mut fs, root, name).unwrap().expect(name);
            assert_eq!(fs.read_file(f).unwrap(), *want, "{name} (seed {seed})");
        }
        // The victim is structurally sound (readable without errors).
        let v = dir::lookup(&mut fs, root, victim_name).unwrap().unwrap();
        fs.read_file(v).unwrap();
    }
}

#[test]
fn wild_writes_bounce_off_the_label_check() {
    // A "wild program" writes through stale hints at every sector on the
    // disk; the label discipline must reject every single attempt aimed at
    // a sector that is not the named page.
    let (mut fs, contents, _clock) = populated(99, 6);
    let bogus_fv = alto::fs::names::Fv::new(alto::fs::names::SerialNumber::new(0x3FFF, false), 1);
    let total = fs.descriptor().bitmap.len() as u16;
    let mut rejected = 0u32;
    for da in (0..total).step_by(7) {
        let pn = alto::fs::names::PageName::new(bogus_fv, 1, DiskAddress(da));
        match fs.write_page(pn, &[0xDEAD; 256]) {
            Err(_) => rejected += 1,
            Ok(_) => panic!("a wild write landed at {da}"),
        }
    }
    assert!(rejected > 600);
    // Nothing was harmed — no scavenge needed.
    let root = fs.root_dir();
    for (name, want) in &contents {
        let f = dir::lookup(&mut fs, root, name).unwrap().unwrap();
        assert_eq!(fs.read_file(f).unwrap(), *want, "{name}");
    }
}

#[test]
fn scavenging_twice_is_a_fixed_point() {
    let (mut fs, contents, _clock) = populated(55, 10);
    // Some damage.
    let root = fs.root_dir();
    dir::remove(&mut fs, root, "file-02.dat").unwrap();
    {
        let pack = fs.disk_mut().pack_mut().unwrap();
        let sector = pack.sector_mut(DiskAddress(700)).unwrap();
        sector.label = [0x4141; 7]; // implausible garbage
    }
    let disk = fs.crash();
    let (fs, first) = Scavenger::rebuild(disk).unwrap();
    let disk = fs.unmount().unwrap();
    let (mut fs, second) = Scavenger::rebuild(disk).unwrap();
    // The second run finds nothing left to fix.
    assert_eq!(second.links_repaired, 0);
    assert_eq!(second.entries_dropped, 0);
    assert_eq!(second.entries_fixed, 0);
    assert_eq!(second.orphans_adopted, 0);
    assert_eq!(second.headless_pages_freed, 0);
    assert_eq!(second.files, first.files);
    // All content is still present (file-02 came back as an orphan).
    let root = fs.root_dir();
    for (name, want) in &contents {
        let f = dir::lookup(&mut fs, root, name).unwrap().expect(name);
        assert_eq!(fs.read_file(f).unwrap(), *want);
    }
}

/// Runs a seeded create/write/read/delete workload, optionally under a
/// transient-fault campaign, and returns the file system, the model of
/// what the caller believes is on disk, and the drive's counters.
fn campaign_workload(
    campaign: bool,
) -> (
    FileSystem<DiskDrive>,
    BTreeMap<String, Vec<u8>>,
    alto::disk::DriveStats,
) {
    let clock = SimClock::new();
    let drive = DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(drive).unwrap();
    if campaign {
        fs.disk_mut().injector_mut().set_campaign(0xC0FFEE, 1, 1000);
    }
    let root = fs.root_dir();
    let mut rng = SplitMix64::new(4242);
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let names: Vec<String> = (0..5).map(|i| format!("c-{i}.dat")).collect();
    for _ in 0..400 {
        let name = &names[rng.next_below(5) as usize];
        match rng.next_below(4) {
            0 | 1 => {
                let len = (rng.next_below(4000) + 1) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
                let f = match dir::lookup(&mut fs, root, name).unwrap() {
                    Some(f) => f,
                    None => dir::create_named_file(&mut fs, root, name).unwrap(),
                };
                fs.write_file(f, &bytes).unwrap();
                model.insert(name.clone(), bytes);
            }
            2 => {
                if let Some(f) = dir::lookup(&mut fs, root, name).unwrap() {
                    assert_eq!(fs.read_file(f).unwrap(), model[name], "{name} corrupted");
                }
            }
            _ => {
                if dir::lookup(&mut fs, root, name).unwrap().is_some() {
                    dir::remove(&mut fs, root, name).unwrap();
                    model.remove(name);
                }
            }
        }
    }
    let stats = fs.disk().io_stats();
    (fs, model, stats)
}

#[test]
fn transient_campaign_recovers_invisibly_with_zero_divergence() {
    // Every operation above `unwrap()`s: a campaign at a 1e-3 per-op fault
    // rate must be invisible to the caller — bounded retry absorbs it all.
    let (mut clean_fs, clean_model, clean_stats) = campaign_workload(false);
    let (mut fs, model, stats) = campaign_workload(true);
    assert_eq!(clean_stats.soft_errors, 0);
    assert!(stats.soft_errors > 0, "the campaign never fired");
    assert!(stats.recovered > 0);
    assert_eq!(stats.hard_failures, 0, "a transient escalated");
    let episodes = stats.recovered + stats.hard_failures;
    assert!(
        stats.recovered as f64 / episodes as f64 >= 0.99,
        "recovered {} of {episodes} fault episodes",
        stats.recovered
    );
    // Zero divergence: the faulty run ends with byte-identical contents.
    assert_eq!(model, clean_model, "the runs diverged in surviving files");
    let root = fs.root_dir();
    let clean_root = clean_fs.root_dir();
    for (name, want) in &model {
        let f = dir::lookup(&mut fs, root, name).unwrap().expect(name);
        assert_eq!(fs.read_file(f).unwrap(), *want, "{name} diverged");
        let cf = dir::lookup(&mut clean_fs, clean_root, name)
            .unwrap()
            .expect(name);
        assert_eq!(clean_fs.read_file(cf).unwrap(), *want, "{name} (clean)");
    }
}

#[test]
fn retries_zero_surfaces_the_same_campaign() {
    // The ablation: with the retry budget at zero, the very faults the
    // previous test absorbed invisibly now reach the caller as errors.
    let clock = SimClock::new();
    let drive = DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(drive).unwrap();
    fs.disk_mut().set_retries(0);
    fs.disk_mut().injector_mut().set_campaign(0xC0FFEE, 1, 1000);
    let root = fs.root_dir();
    let mut rng = SplitMix64::new(4242);
    let mut surfaced = 0u32;
    for i in 0..80 {
        let name = format!("a-{}.dat", i % 5);
        let f = match dir::lookup(&mut fs, root, &name) {
            Ok(Some(f)) => f,
            Ok(None) => match dir::create_named_file(&mut fs, root, &name) {
                Ok(f) => f,
                Err(_) => {
                    surfaced += 1;
                    continue;
                }
            },
            Err(_) => {
                surfaced += 1;
                continue;
            }
        };
        let len = (rng.next_below(4000) + 1) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u16() as u8).collect();
        match fs.write_file(f, &bytes) {
            Err(_) => surfaced += 1,
            Ok(()) => {
                if fs.read_file(f).is_err() {
                    surfaced += 1;
                }
            }
        }
    }
    let stats = fs.disk().io_stats();
    assert!(stats.soft_errors > 0, "the campaign never fired");
    assert_eq!(stats.retries, 0, "retries happened despite a zero budget");
    assert_eq!(stats.recovered, 0);
    assert!(stats.hard_failures > 0);
    assert!(surfaced > 0, "no fault reached the caller");
}

#[test]
fn crash_during_retry_is_recovered_by_the_scavenger() {
    let (mut fs, contents, _clock) = populated(123, 8);
    let root = fs.root_dir();
    let victim_name = "file-04.dat";
    let victim = dir::lookup(&mut fs, root, victim_name).unwrap().unwrap();
    let (leader_label, _) = fs.read_page(victim.leader_page()).unwrap();
    let page1_da = leader_label.next;

    // A persistent not-ready fault on the victim's first data page: the
    // rewrite exhausts its retry budget mid-file and surfaces a hard error.
    fs.disk_mut()
        .injector_mut()
        .arm(page1_da, FaultKind::NotReady { attempts: 1000 });
    let new_bytes: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    assert!(fs.write_file(victim, &new_bytes).is_err());
    let stats = fs.disk().io_stats();
    assert!(
        stats.retries >= 3,
        "the budget was not spent before escalating"
    );
    assert!(stats.hard_failures >= 1);

    // The machine crashes while the file is half-rewritten; by reboot the
    // transient condition has cleared.
    fs.disk_mut().injector_mut().disarm(page1_da);
    let disk = fs.crash();
    let (mut fs, _report) = Scavenger::rebuild(disk).unwrap();

    // Every other file survives byte-identical; the victim is structurally
    // sound (readable without errors), its data fair game.
    let root = fs.root_dir();
    for (name, want) in &contents {
        if name == victim_name {
            continue;
        }
        let f = dir::lookup(&mut fs, root, name).unwrap().expect(name);
        assert_eq!(fs.read_file(f).unwrap(), *want, "{name}");
    }
    if let Some(v) = dir::lookup(&mut fs, root, victim_name).unwrap() {
        fs.read_file(v).unwrap();
    }
}

#[test]
fn page_accounting_balances_after_recovery() {
    let (mut fs, _contents, _clock) = populated(77, 10);
    // Damage three sectors irrecoverably.
    for da in [500u16, 1500, 2500] {
        fs.disk_mut().pack_mut().unwrap().damage(DiskAddress(da));
    }
    let disk = fs.crash();
    let (fs, report) = Scavenger::rebuild(disk).unwrap();
    let total = fs.descriptor().shape.sector_count();
    // free + busy = total (from the rebuilt map).
    assert_eq!(fs.descriptor().bitmap.free_count(), report.free_pages);
    let busy = total - fs.descriptor().bitmap.free_count();
    // Busy covers: live pages + bad pages + reserved (boot DA0, and the
    // rebuilt descriptor file is counted in live pages via its labels).
    let (free_census, used_census, bad_census) = fs.disk().pack().unwrap().label_census();
    assert_eq!(
        free_census as u32 + used_census as u32 + bad_census as u32,
        total
    );
    assert_eq!(report.bad_pages as usize, bad_census);
    // Every label-free page is map-free except the reserved boot page.
    assert!(busy >= used_census as u32 + bad_census as u32);
    assert!(free_census as u32 >= report.free_pages);
}
