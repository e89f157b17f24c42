//! One page locator (§3.6): stream seeks, the page service and hint
//! installation all find pages through the file's `fs::PageMap`, where a
//! consecutive file costs one checked read per page found and a stale map
//! costs failed checks, never wrong bytes.

use alto::fs::hints::PageHints;
use alto::fs::{chain, FileFullName};
use alto::net::{PageRequest, PageStore};
use alto::os::FsPageService;
use alto::prelude::*;
use alto_bench::{fresh_fs, scatter_file};

type Fs = FileSystem<DiskDrive>;

/// File contents in which every page reads differently.
fn contents(pages: usize) -> Vec<u8> {
    (0..pages * 512 - 3)
        .map(|i| (i / 512 * 7 + i % 251) as u8)
        .collect()
}

fn file_of(fs: &mut Fs, name: &str, bytes: &[u8]) -> FileFullName {
    let root = fs.root_dir();
    let f = dir::create_named_file(fs, root, name).unwrap();
    fs.write_file(f, bytes).unwrap();
    f
}

fn ops(fs: &Fs) -> u64 {
    fs.disk().stats().ops
}

/// Links between `f`'s data pages that leave address order.
fn seams(fs: &mut Fs, f: FileFullName) -> usize {
    let mut das = vec![];
    chain::to_end(fs.disk_mut(), f.leader_page(), |pn, _, _| das.push(pn.da)).unwrap();
    das[1..].windows(2).filter(|w| w[1].0 != w[0].0 + 1).count()
}

#[test]
fn a_seek_on_a_consecutive_file_costs_one_read() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let bytes = contents(40);
    let f = file_of(&mut fs, "seek.dat", &bytes);
    assert_eq!(seams(&mut fs, f), 0);
    assert!(fs.read_leader(f).unwrap().maybe_consecutive);
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    for page in [30usize, 40] {
        let pos = (page - 1) * 512 + 3;
        let before = ops(&fs);
        s.set_position(&mut fs, pos as u64).unwrap();
        assert_eq!(ops(&fs) - before, 1, "seek to page {page}");
        assert_eq!(s.get_byte(&mut fs).unwrap(), bytes[pos]);
    }
}

#[test]
fn a_stale_map_still_finds_the_moved_pages() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let bytes = contents(24);
    let f = file_of(&mut fs, "moved.dat", &bytes);
    let read_at = |s: &mut DiskByteStream<DiskDrive>, fs: &mut Fs, pos: usize| {
        s.set_position(fs, pos as u64).unwrap();
        let mut got = [0u8; 100];
        assert_eq!(s.read_bytes(fs, &mut got).unwrap(), 100);
        assert_eq!(got[..], bytes[pos..pos + 100], "at {pos}");
    };
    // The stream's map learns every page, then another writer moves them.
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    read_at(&mut s, &mut fs, 22 * 512);
    read_at(&mut s, &mut fs, 2 * 512);
    scatter_file(&mut fs, f, 0x5EED);
    for pos in [17 * 512 + 5, 3 * 512 + 9, 21 * 512 + 1, 700] {
        read_at(&mut s, &mut fs, pos);
    }
    s.close(&mut fs).unwrap();

    // The page service's map too: serve every page, move them, serve again.
    let mut service = FsPageService::new(&mut fs);
    let open = service.open("moved.dat").unwrap();
    let reqs: Vec<PageRequest> = (1..=open.pages)
        .map(|page| PageRequest {
            open_id: open.open_id,
            page,
            tag: page.into(),
        })
        .collect();
    let serve = |service: &mut FsPageService<'_, DiskDrive>| {
        let mut failed = vec![];
        let mut pages = vec![];
        service.serve(&reqs, &mut failed, |tag, words| {
            let at = (tag as usize - 1) * 512;
            let want = &bytes[at..bytes.len().min(at + 512)];
            let got = alto::fs::file::unpack_bytes(words);
            assert_eq!(got[..want.len()], *want, "page {tag}");
            pages.push(tag);
        });
        assert_eq!((failed, pages.len()), (vec![], reqs.len()));
    };
    serve(&mut service);
    let slow = service.slow_served;
    scatter_file(service.fs_mut(), f, 0xD1CE);
    serve(&mut service);
    assert!(
        service.slow_served > slow,
        "the moved pages took the slow path"
    );
}

/// Every `k`-th page of `f` by a hop-by-hop walk of the whole chain.
fn every_kth_by_walking(fs: &mut Fs, f: FileFullName, k: u16) -> Vec<(u16, DiskAddress)> {
    let mut every_kth = vec![(0, f.leader_da)];
    chain::to_end(fs.disk_mut(), f.leader_page(), |pn, _, _| {
        if pn.page > 0 && pn.page.is_multiple_of(k) {
            every_kth.push((pn.page, pn.da));
        }
    })
    .unwrap();
    every_kth
}

#[test]
fn install_matches_a_walk_of_the_whole_chain() {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    // Consecutive; one seam (a neighbour takes the sectors after page 10
    // before the file grows); scattered.
    let whole = file_of(&mut fs, "whole.dat", &contents(40));
    let seamed = file_of(&mut fs, "seamed.dat", &contents(10));
    file_of(&mut fs, "neighbour.dat", &contents(3));
    fs.write_file(seamed, &contents(37)).unwrap();
    let scattered = file_of(&mut fs, "scattered.dat", &contents(33));
    scatter_file(&mut fs, scattered, 0xC0DE);
    assert_eq!(seams(&mut fs, whole), 0);
    assert_eq!(seams(&mut fs, seamed), 1);
    assert!(fs.read_leader(seamed).unwrap().maybe_consecutive);
    assert!(seams(&mut fs, scattered) > 20);

    for (name, f, pages) in [
        ("whole.dat", whole, 40),
        ("seamed.dat", seamed, 37),
        ("scattered.dat", scattered, 33),
    ] {
        for k in [1u16, 4, 16] {
            // What the directory lookup alone costs on a warm cache.
            PageHints::install(&mut fs, root, name, 0).unwrap();
            let before = ops(&fs);
            PageHints::install(&mut fs, root, name, 0).unwrap();
            let lookup = ops(&fs) - before;
            let before = ops(&fs);
            let hints = PageHints::install(&mut fs, root, name, k).unwrap();
            let reads = ops(&fs) - before - lookup;
            let mut want = PageHints::bare(f, root, name);
            want.every_kth = every_kth_by_walking(&mut fs, f, k);
            want.k = k;
            assert_eq!(hints, want, "{name}, k = {k}");
            assert_eq!(hints.encode(), want.encode(), "{name}, k = {k}");
            if name == "whole.dat" {
                // One checked read per k-th page, and one for the end.
                let end = u64::from(pages % k != 0);
                assert_eq!(reads, u64::from(pages / k) + end, "k = {k}");
            }
        }
    }
}
