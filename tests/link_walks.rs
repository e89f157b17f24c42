//! Every caller that follows a file's links, against one broken link.
//!
//! Page 3's label is rewritten to link to a free sector, so the walk to
//! page 4 meets a label that fails the full-name check (§3.3). Each caller
//! must stop there: a delete reads the whole chain before it frees any
//! page, a seek and a page-service read report the failure, and the §3.6
//! ladder does not claim a rung-1 recovery.

use alto::disk::DiskError;
use alto::fs::hints::{resolve_page, HintOutcome, HintStats, PageHints};
use alto::fs::{page, FileFullName, PageName};
use alto::net::server::STATUS_IO;
use alto::net::{PageRequest, PageStore};
use alto::os::FsPageService;
use alto::prelude::*;
use alto::streams::StreamError;
use alto_bench::{fresh_fs, scatter_file};

const PAGES: u16 = 8;

/// A scattered 8-page file (so consecutive guesses miss) whose page 3
/// links to a free sector, with the real chain `(page, da)` from the
/// leader on.
fn broken_file() -> (FileSystem<DiskDrive>, FileFullName, Vec<PageName>) {
    let mut fs = fresh_fs(DiskModel::Diablo31);
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "broken.dat").unwrap();
    fs.write_file(f, &vec![0x42; PAGES as usize * 512 - 20])
        .unwrap();
    scatter_file(&mut fs, f, 0xB0C3);
    let mut chain = vec![f.leader_page()];
    for p in 1..=PAGES {
        let (label, _) = fs.read_page(chain[p as usize - 1]).unwrap();
        chain.push(PageName::new(f.fv, p, label.next));
    }
    let free = (16..)
        .map(DiskAddress)
        .find(|&da| !fs.descriptor().bitmap.is_busy(da))
        .unwrap();
    let (mut label, data) = fs.read_page(chain[3]).unwrap();
    label.next = free;
    page::rewrite_label(fs.disk_mut(), chain[3], label, &data).unwrap();
    (fs, f, chain)
}

#[test]
fn delete_reads_the_whole_chain_before_freeing_any_page() {
    let (mut fs, f, chain) = broken_file();
    let freed = fs.stats().pages_freed;
    let err = fs.delete_file(f).unwrap_err();
    assert!(matches!(err, FsError::Disk(DiskError::Check(_))), "{err:?}");
    assert_eq!(fs.stats().pages_freed, freed);
    for pn in chain {
        assert!(fs.read_page(pn).is_ok(), "page {} was touched", pn.page);
    }
}

#[test]
fn a_seek_past_the_broken_link_fails() {
    let (mut fs, f, _) = broken_file();
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    let err = s.set_position(&mut fs, 4 * 512 + 10).unwrap_err();
    assert!(
        matches!(err, StreamError::Fs(FsError::Disk(DiskError::Check(_)))),
        "{err:?}"
    );
}

#[test]
fn the_page_service_chain_walk_reports_an_io_error() {
    let (mut fs, ..) = broken_file();
    let mut service = FsPageService::new(&mut fs);
    let open = service.open("broken.dat").unwrap();
    let req = PageRequest {
        open_id: open.open_id,
        page: 5,
        tag: 5,
    };
    let mut failed = Vec::new();
    service.serve(&[req], &mut failed, |_, _| panic!("page 5 was served"));
    assert_eq!(failed, vec![(5, STATUS_IO)]);
    assert_eq!((service.fast_served, service.slow_served), (0, 0));
}

#[test]
fn the_hint_ladder_does_not_recover_at_rung_one() {
    let (mut fs, f, _) = broken_file();
    let root = fs.root_dir();
    let mut hints = PageHints::bare(f, root, "broken.dat");
    let mut stats = HintStats::default();
    let result = resolve_page(&mut fs, &mut hints, 5, DiskAddress::NIL, &mut stats);
    assert!(
        !matches!(result, Ok((_, _, HintOutcome::LinkChase { .. }))),
        "{result:?}"
    );
    assert_eq!(stats.link_chases, 0);
}
