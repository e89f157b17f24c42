//! Following a file's links (§3.3, §3.6).
//!
//! Every read checks the page's full name `(FV, i)`, so the §3.6 rung
//! "follow links from another known-good portion of the file" is safe from
//! any page whose name is known: a wrong link fails the next page's check.
//! [`follow`] is the one walk: from any page name it applies a per-page
//! step and moves to the page the step's label links to, until the link is
//! nil or the step stops it. Walks step with [`page::read_page`] ([`to_end`]
//! reads a whole chain). Each hop checks a page number one higher than the
//! last, so an honest walk ends at a nil link or a failed check; the cycle
//! budget (no chain outnumbers the disk's sectors) turns any other walk
//! into corruption. [`read_guessed`] is the batched twin of [`to_end`] that
//! `read_file`, the boot loader, delete and truncation use (the last two
//! read the chain, then free it as one run of [`page::RunPage`]s); its
//! [`verified_run`] rule also serves the stream readahead.

use std::convert::Infallible;
use std::ops::ControlFlow;

use alto_disk::{Disk, DiskAddress, Label, DATA_WORDS};

use crate::errors::FsError;
use crate::leader::LeaderPage;
use crate::names::PageName;
use crate::page::{self, PageResult};

/// Pages per guessed batch on a straight-line layout. One Diablo cylinder
/// holds 24 sectors, so a window this size keeps the scheduler busy across
/// a cylinder boundary without guessing far past a stale hint.
pub(crate) const GUESS_WINDOW: u16 = 32;

/// Opening window for guessed reads of a chain whose layout is *not*
/// provably straight-line: a failed check halts the command chain (§3.3),
/// so a blind full-window batch across a layout seam pays a rescheduled
/// command per wrong guess. Each fully verified batch doubles the window
/// back up to [`GUESS_WINDOW`].
const GUESS_RAMP: u16 = 4;

/// What a reader may assume about where a chain's pages lie (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Nothing says the pages are consecutive: follow the links.
    Linked,
    /// Consecutive, perhaps with seams: guess from a small window.
    Consecutive,
    /// One straight line of addresses: guess full windows.
    Straight,
}

impl Layout {
    /// What a leader's hints promise for the chain from page 1 at `first`:
    /// a straight line when the last page sits where page 1 plus
    /// `last_page − 1` lands, else a seam somewhere.
    pub fn of_leader(leader: &LeaderPage, first: DiskAddress) -> Layout {
        let (last, last_da) = (leader.last_page, leader.last_da);
        match leader.maybe_consecutive {
            false => Layout::Linked,
            true if last >= 1 && last_da.0 == first.0.wrapping_add(last - 1) => Layout::Straight,
            true => Layout::Consecutive,
        }
    }
}

/// Follows the chain from `start`. `step` does each page's disk operation
/// and either stops the walk with a value or returns the page's label,
/// whose `next` link names the following page. A walk that reaches a nil
/// link returns the last page and its label. Fails with the first error
/// `step` returns, or [`FsError::Corrupt`] past the cycle budget.
pub fn follow<D: Disk, B>(
    disk: &mut D,
    start: PageName,
    mut step: impl FnMut(&mut D, PageName) -> Result<ControlFlow<B, Label>, FsError>,
) -> Result<ControlFlow<B, (PageName, Label)>, FsError> {
    let mut budget = disk.geometry()?.sector_count() + 2;
    let mut pn = start;
    loop {
        let label = match step(disk, pn)? {
            ControlFlow::Break(b) => return Ok(ControlFlow::Break(b)),
            ControlFlow::Continue(label) => label,
        };
        if label.next.is_nil() {
            return Ok(ControlFlow::Continue((pn, label)));
        }
        if budget == 0 {
            return Err(FsError::Corrupt {
                da: pn.da,
                what: "link cycle",
            });
        }
        budget -= 1;
        pn = PageName::new(pn.fv, pn.page + 1, label.next);
    }
}

/// Reads the whole chain from `start` with [`page::read_page`], handing
/// every page to `visit`, and returns the last page and its label.
pub fn to_end<D: Disk>(
    disk: &mut D,
    start: PageName,
    mut visit: impl FnMut(PageName, Label, &[u16; DATA_WORDS]),
) -> Result<(PageName, Label), FsError> {
    let walked = follow(disk, start, |disk, pn| {
        let (label, data) = page::read_page(disk, pn)?;
        visit(pn, label, &data);
        Ok(ControlFlow::<Infallible, _>::Continue(label))
    })?;
    match walked {
        ControlFlow::Continue(end) => Ok(end),
        ControlFlow::Break(never) => match never {},
    }
}

/// The verified run of a batch read at guessed addresses from `start`
/// (entry `j` is page `start.page + j` at `start.da + j`). A page counts
/// only while it passed its check and the previous page's link named its
/// guessed address; the run is empty when entry 0 failed.
pub fn verified_run(
    start: PageName,
    pages: &[PageResult],
) -> impl Iterator<Item = (PageName, Label, &[u16; DATA_WORDS])> {
    pages
        .iter()
        .zip(0..)
        .scan(start.da, move |link, (entry, j)| {
            let pn = start.guess(j);
            let (label, data) = entry.as_ref().ok().filter(|_| *link == pn.da)?;
            *link = label.next;
            Some((pn, *label, data))
        })
}

/// Reads the chain from `start` to its nil link in chained batches at
/// guessed consecutive addresses (§3.6), handing every page to `visit` in
/// order; the first error from a check or from `visit` ends the read. A
/// batch restarts at the real link wherever the chain leaves its
/// [`verified_run`]. [`Layout::Straight`] guesses `GUESS_WINDOW` pages
/// at a time; [`Layout::Consecutive`] opens at `GUESS_RAMP` and doubles
/// per fully verified batch. `last`, the last page's number if a hint
/// gives it, clamps each batch. Two one-page batches in a row, or a guess
/// the links confirm but its check fails, leave plain [`follow`] hops for
/// the rest, all under one cycle budget.
pub fn read_guessed<D: Disk>(
    disk: &mut D,
    start: PageName,
    layout: Layout,
    last: Option<u16>,
    mut visit: impl FnMut(PageName, Label, &[u16; DATA_WORDS]) -> Result<(), FsError>,
) -> Result<(), FsError> {
    let mut window = match layout {
        Layout::Linked => 0,
        Layout::Consecutive => GUESS_RAMP,
        Layout::Straight => GUESS_WINDOW,
    };
    let mut strikes = 0;
    // The batch in hand: where it started, its pages and its run's length.
    let (mut from, mut pages, mut run) = (start, crate::pool::reads_vec(), 0);
    let walked = follow(disk, start, |disk, pn| {
        let mut k = pn.page.wrapping_sub(from.page) as usize;
        if k >= run && window > 0 {
            let guessed = pn.da.0 == from.da.0.wrapping_add(k as u16);
            if guessed && k < pages.len() {
                // The links confirmed a guess that failed its check.
                window = 0;
            } else if k > 0 {
                strikes = if !guessed && k == 1 { strikes + 1 } else { 0 };
                window = match guessed {
                    true => (window * 2).min(GUESS_WINDOW),
                    false if strikes < 2 => GUESS_RAMP,
                    false => 0,
                };
            }
            if window > 0 {
                let count = match last {
                    Some(last) if last >= pn.page => (last - pn.page + 1).min(window),
                    _ => window,
                };
                let batch = page::read_pages_guessed(disk, pn, count)?;
                crate::pool::recycle_reads(std::mem::replace(&mut pages, batch));
                (from, k) = (pn, 0);
                run = verified_run(from, &pages).count();
            }
        }
        let hop;
        let (label, data) = match pages.get(k) {
            Some(Ok((label, data))) if window > 0 => (*label, data),
            Some(Err(e)) if window > 0 => return Err(e.clone()),
            _ => {
                hop = page::read_page(disk, pn)?;
                (hop.0, &hop.1)
            }
        };
        visit(pn, label, data)?;
        Ok(ControlFlow::<Infallible, _>::Continue(label))
    });
    crate::pool::recycle_reads(pages);
    walked.map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileSystem;
    use crate::names::FileFullName;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, Trace};

    fn file_of(pages: usize) -> (FileSystem<DiskDrive>, FileFullName) {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        let mut fs = FileSystem::format(drive).unwrap();
        let root = fs.root_dir();
        let f = crate::dir::create_named_file(&mut fs, root, "c.dat").unwrap();
        fs.write_file(f, &vec![3; pages * 512 - 7]).unwrap();
        (fs, f)
    }

    #[test]
    fn to_end_visits_every_page_in_order() {
        let (mut fs, f) = file_of(5);
        let mut seen = vec![];
        let (last, label) = to_end(fs.disk_mut(), f.leader_page(), |pn, _, _| {
            seen.push(pn.page);
        })
        .unwrap();
        assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
        assert_eq!((last.page, label.length), (5, 505));
    }

    #[test]
    fn a_step_can_stop_the_walk() {
        let (mut fs, f) = file_of(5);
        let ops = fs.disk().stats().ops;
        let walked = follow(fs.disk_mut(), f.leader_page(), |disk, pn| {
            let (label, _) = page::read_page(disk, pn)?;
            Ok(if pn.page == 2 {
                ControlFlow::Break(pn)
            } else {
                ControlFlow::Continue(label)
            })
        })
        .unwrap();
        assert!(matches!(walked, ControlFlow::Break(pn) if pn.page == 2));
        assert_eq!(fs.disk().stats().ops - ops, 3);
    }

    /// File contents in which every page reads differently.
    fn contents(pages: usize) -> Vec<u8> {
        (0..pages * 512 - 3)
            .map(|i| (i / 512 * 7 + i % 251) as u8)
            .collect()
    }

    #[test]
    fn guessed_reads_follow_the_window_policy() {
        let (mut fs, whole) = file_of(1);
        let root = fs.root_dir();
        let file = |fs: &mut FileSystem<DiskDrive>, name: &str, pages: usize| {
            let f = crate::dir::create_named_file(fs, root, name).unwrap();
            fs.write_file(f, &contents(pages)).unwrap();
            f
        };
        fs.write_file(whole, &contents(40)).unwrap();
        // A neighbour takes the sectors after page 10 before the file grows.
        let seamed = file(&mut fs, "seamed.dat", 10);
        file(&mut fs, "neighbour.dat", 3);
        fs.write_file(seamed, &contents(37)).unwrap();
        // Files grown a page at a time in turns with another: every link is
        // a seam, so the second one's consecutive hint is a lie.
        let [scattered, lying] =
            [("scattered.dat", "a.dat"), ("lying.dat", "b.dat")].map(|names| {
                let (f, other) = (file(&mut fs, names.0, 1), file(&mut fs, names.1, 1));
                for n in 2..=20 {
                    fs.write_file(f, &contents(n)).unwrap();
                    fs.write_file(other, &contents(n)).unwrap();
                }
                f
            });
        let mut leader = fs.read_leader(lying).unwrap();
        leader.maybe_consecutive = true;
        fs.write_leader(lying, &leader).unwrap();

        // (file, layout, seams, drive ops for the leader and the chain)
        for (f, layout, seams, ops) in [
            (whole, Layout::Straight, 0, 41),
            (seamed, Layout::Consecutive, 1, 40),
            (scattered, Layout::Linked, 19, 21),
            // Two one-page batches of four, then plain hops.
            (lying, Layout::Consecutive, 19, 1 + 4 + 4 + 18),
        ] {
            let mut das = vec![];
            let mut reference = vec![];
            let start = to_end(fs.disk_mut(), f.leader_page(), |pn, label, data| {
                das.push(pn.da.0);
                if pn.page > 0 {
                    crate::file::append_page(&mut reference, label, data).unwrap();
                }
            });
            start.unwrap();
            let leader = fs.read_leader(f).unwrap();
            assert_eq!(Layout::of_leader(&leader, DiskAddress(das[1])), layout);
            let jumps = das[1..].windows(2).filter(|w| w[1] != w[0] + 1);
            assert_eq!(jumps.count(), seams);
            let before = fs.disk().stats().ops;
            let bytes = crate::file::read_file_with(fs.disk_mut(), f).unwrap();
            assert_eq!(bytes, reference);
            assert_eq!(fs.disk().stats().ops - before, ops, "{layout:?}");
        }
    }

    #[test]
    fn a_link_cycle_the_checks_cannot_catch_is_corruption() {
        // A step that hands back a self-link forever: the budget ends it.
        let (mut fs, f) = file_of(1);
        let mut steps = 0u32;
        let err = follow(fs.disk_mut(), f.leader_page(), |_, pn| {
            steps += 1;
            let mut label = Label::FREE;
            label.next = pn.da;
            Ok(ControlFlow::<Infallible, _>::Continue(label))
        })
        .unwrap_err();
        assert!(matches!(
            err,
            FsError::Corrupt {
                what: "link cycle",
                ..
            }
        ));
        let sectors = fs.disk().geometry().unwrap().sector_count();
        assert_eq!(steps, sectors + 3);
    }
}
