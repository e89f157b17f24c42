//! Following a file's links (§3.3, §3.6).
//!
//! Every read checks the page's full name `(FV, i)`, so the §3.6 rung
//! "follow links from another known-good portion of the file" is safe from
//! any page whose name is known: a wrong link fails the next page's check.
//! [`follow`] is the one walk: from any page name it applies a per-page
//! step and moves to the page the step's label links to, until the link is
//! nil or the step stops it. Walks step with [`page::read_page`] ([`to_end`]
//! reads a whole chain); freeing a chain steps with [`page::free_page`].
//! Each hop checks a page number one higher than the last, so an honest
//! walk ends at a nil link or a failed check; the cycle budget (no chain
//! outnumbers the disk's sectors) turns any other walk into corruption.

use std::convert::Infallible;
use std::ops::ControlFlow;

use alto_disk::{Disk, Label, DATA_WORDS};

use crate::errors::FsError;
use crate::names::PageName;
use crate::page;

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
