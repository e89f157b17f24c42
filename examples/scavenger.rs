//! The Scavenger at work: wreck a disk six ways, recover everything.
//!
//! ```text
//! cargo run --example scavenger
//! ```
//!
//! Reproduces the §3.5 story: a file system is damaged — stale allocation
//! map after a crash, scrambled links, smashed directory, an unreadable
//! sector, a lost directory entry — and a single scavenge reconstructs
//! every hint from the absolutes. Then the *compacting* scavenger makes
//! the surviving files consecutive and we measure the sequential-read
//! speedup the paper promises.

use alto::fs::names::PageName;
use alto::prelude::*;

fn main() {
    let clock = SimClock::new();
    let trace = Trace::new();
    let drive = DiskDrive::with_formatted_pack(clock.clone(), trace, DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(drive).expect("format");
    let root = fs.root_dir();

    // Build a small population of files.
    println!("Creating files...");
    let mut files = Vec::new();
    for i in 0..8 {
        let name = format!("doc-{i}.txt");
        let f = dir::create_named_file(&mut fs, root, &name).unwrap();
        let body = format!("contents of document {i}").repeat(40 + i * 13);
        fs.write_file(f, body.as_bytes()).unwrap();
        files.push((name, body));
    }

    // --- Damage 1: lose a directory entry (the file itself survives).
    dir::remove(&mut fs, root, "doc-3.txt").unwrap();
    println!("damage: removed the directory entry for doc-3.txt");

    // --- Damage 2: scramble a file's links on the medium.
    let victim = dir::lookup(&mut fs, root, "doc-1.txt").unwrap().unwrap();
    let (leader_label, _) = fs.read_page(victim.leader_page()).unwrap();
    let p1 = leader_label.next;
    {
        let sector = fs.disk_mut().pack_mut().unwrap().sector_mut(p1).unwrap();
        let mut label = sector.decoded_label();
        label.next = DiskAddress(4000);
        sector.label = label.encode();
    }
    println!("damage: scrambled doc-1.txt's page links");

    // --- Damage 3: an unreadable sector in doc-5.txt.
    let victim = dir::lookup(&mut fs, root, "doc-5.txt").unwrap().unwrap();
    let (l, _) = fs.read_page(victim.leader_page()).unwrap();
    let (l2, _) = fs.read_page(PageName::new(victim.fv, 1, l.next)).unwrap();
    fs.disk_mut().pack_mut().unwrap().damage(l2.next);
    println!("damage: media failure under doc-5.txt page 2");

    // --- Damage 4: a stale entry address for doc-6.txt.
    let f6 = dir::lookup(&mut fs, root, "doc-6.txt").unwrap().unwrap();
    dir::insert(
        &mut fs,
        root,
        "doc-6.txt",
        alto::fs::FileFullName::new(f6.fv, DiskAddress(4500)),
    )
    .unwrap();
    println!("damage: doc-6.txt's directory entry points at the wrong sector");

    // --- Damage 5: crash with a stale allocation map (no unmount).
    let disk = fs.crash();
    println!("damage: crashed without flushing the allocation map\n");

    // --- Recovery. ------------------------------------------------------
    println!("Running the Scavenger...");
    let t0 = clock.now();
    let (mut fs, report) = Scavenger::rebuild(disk).expect("scavenge");
    println!("  finished in {} of simulated time", clock.now() - t0);
    println!(
        "  scanned {} sectors; {} files, {} live pages, {} free pages",
        report.sectors_scanned, report.files, report.live_pages, report.free_pages
    );
    println!(
        "  repaired {} links, fixed {} entries, dropped {}, adopted {} orphans, {} bad pages",
        report.links_repaired,
        report.entries_fixed,
        report.entries_dropped,
        report.orphans_adopted,
        report.bad_pages
    );

    // Verify every file (doc-5 is truncated at the dead sector; the rest
    // must be byte-identical).
    let root = fs.root_dir();
    for (name, body) in &files {
        let found = dir::lookup(&mut fs, root, name).unwrap();
        match found {
            Some(f) => {
                let bytes = fs.read_file(f).unwrap();
                if name == "doc-5.txt" {
                    assert!(body.as_bytes().starts_with(&bytes));
                    println!(
                        "  {name}: truncated to {} bytes (media damage)",
                        bytes.len()
                    );
                } else {
                    assert_eq!(bytes, body.as_bytes(), "{name} corrupted!");
                    println!("  {name}: intact ({} bytes)", bytes.len());
                }
            }
            None => panic!("{name} was lost!"),
        }
    }

    // --- The compacting scavenger (§3.5). -------------------------------
    // Scatter one file across the whole platter first (months of editing
    // in one call), then measure the order-of-magnitude claim.
    println!("\nMeasuring sequential read before/after compaction...");
    let f = dir::lookup(&mut fs, root, "doc-7.txt").unwrap().unwrap();
    alto_bench::scatter_file(&mut fs, f, 2026);
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let scattered = clock.now() - t0;

    let report = Compactor::run(&mut fs).expect("compact");
    println!(
        "  compaction moved {} pages ({} pure cycles broken through a spare sector) in {}; \
         {} files now consecutive",
        report.pages_moved, report.cycles, report.elapsed, report.consecutive_files
    );

    let root = fs.root_dir();
    let f = dir::lookup(&mut fs, root, "doc-7.txt").unwrap().unwrap();
    let t0 = clock.now();
    fs.read_file(f).unwrap();
    let compacted = clock.now() - t0;
    println!(
        "  sequential read: {scattered} scattered -> {compacted} consecutive ({:.1}x)",
        scattered.as_nanos() as f64 / compacted.as_nanos() as f64
    );
}
