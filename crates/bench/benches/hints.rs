//! E5 / E9 — the hint ladder and the consecutive-file guess.

use alto_bench::harness::{measure, print_table};
use alto_bench::{consecutive_file, fresh_fs, scatter_file};
use alto_disk::{Disk, DiskAddress, DiskDrive, DiskModel};
use alto_fs::hints::{resolve_page, HintStats, PageHints};
use alto_fs::{FileFullName, FileSystem, LeaderPage, PageMap, PageName};

fn main() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "h.dat", 40);
    scatter_file(&mut fs, f, 5);
    let root = fs.root_dir();
    let mut stats = HintStats::default();
    let mut rows = Vec::new();

    // Rung 0: direct hit.
    let mut hints = PageHints::bare(f, root, "h.dat");
    let (_, pn, _) = resolve_page(&mut fs, &mut hints, 30, DiskAddress::NIL, &mut stats).unwrap();
    rows.push(measure(&clock, "direct_hit", 20, || {
        resolve_page(&mut fs, &mut hints, 30, pn.da, &mut stats).unwrap()
    }));

    // Rung 1: link chase from the leader, varying the distance.
    for page in [5u16, 20, 35] {
        let mut hints = PageHints::bare(f, root, "h.dat");
        rows.push(measure(&clock, &format!("link_chase/{page}"), 10, || {
            resolve_page(&mut fs, &mut hints, page, DiskAddress::NIL, &mut stats).unwrap()
        }));
    }

    // Every-k-th hints.
    for k in [4u16, 16] {
        let hints0 = PageHints::install(&mut fs, root, "h.dat", k).unwrap();
        rows.push(measure(
            &clock,
            &format!("chase_with_k_hints/{k}"),
            10,
            || {
                let mut hints = hints0.clone();
                resolve_page(&mut fs, &mut hints, 35, DiskAddress::NIL, &mut stats).unwrap()
            },
        ));
    }
    print_table("e5_hint_ladder", &rows);

    // E9: the consecutive guess, hit and miss.
    let mut rows = Vec::new();
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let clock = fs.disk().clock().clone();
    let f = consecutive_file(&mut fs, "c.dat", 40);
    // Guess page 25 from page 1 on a file assumed consecutive, whatever its
    // leader says: one checked read, which the label check rejects on a
    // scattered file.
    let guess = |fs: &mut FileSystem<DiskDrive>, file: FileFullName| {
        let (label, data) = fs.read_page(file.leader_page()).unwrap();
        let leader = LeaderPage::decode(&data);
        let known = [(1, label.next), (leader.last_page, leader.last_da)];
        PageName::new(file.fv, 25, PageMap::new(file, &known, true).hint(25))
    };
    let hit = guess(&mut fs, f);
    rows.push(measure(&clock, "guess_hit", 20, || {
        assert!(fs.read_page(hit).is_ok());
    }));
    let g = consecutive_file(&mut fs, "s.dat", 40);
    scatter_file(&mut fs, g, 11);
    let miss = guess(&mut fs, g);
    rows.push(measure(&clock, "guess_miss_rejected_safely", 20, || {
        assert!(fs.read_page(miss).is_err());
    }));
    print_table("e9_consecutive_guess", &rows);
}
