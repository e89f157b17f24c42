//! Where page `p` of a file is (§3.6).
//!
//! "If a program possesses the full name `(FV, i)` of a file page and the
//! hint address, it can access the page directly." A [`PageMap`] holds one
//! open file's hint addresses, and [`PageMap::locate`] is the one way
//! streams, the page service, the hint ladder and `file_length` find a
//! page. Every entry is a hint, used only through a checked read (§3.3),
//! so a wrong one costs a failed check and never returns wrong data.

use std::ops::ControlFlow;

use alto_disk::{pool, Disk, DiskAddress, DiskError, Label, DATA_WORDS};

use crate::errors::FsError;
use crate::leader::LeaderPage;
use crate::names::{FileFullName, PageName};
use crate::{chain, page};

/// A page found by [`PageMap::locate`]: the one asked for, or the file's
/// last page when the chain ends before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    /// The page's full name at its verified address.
    pub pn: PageName,
    /// Its label and data, fresh from the check.
    pub label: Label,
    pub data: [u16; DATA_WORDS],
    /// Links followed from the page the walk started at.
    pub hops: u16,
}

/// One open file's hint addresses.
#[derive(Debug)]
pub struct PageMap {
    file: FileFullName,
    /// `at[p]` is page `p`'s hint address (page 0 is the leader), nil where
    /// unknown. The last entry is the highest page the map has heard of.
    at: Vec<DiskAddress>,
    /// "A program is free to assume that a file is consecutive and, knowing
    /// the address `aᵢ` of page `i`, to compute the address of page `j` as
    /// `aᵢ + j - i`": guess unknown pages from the nearest known one below.
    consecutive: bool,
    /// A guess for this page missed, so guesses start at or above it.
    floor: usize,
}

impl PageMap {
    /// A map of `file` that knows `known` and guesses when `consecutive`.
    pub fn new(file: FileFullName, known: &[(u16, DiskAddress)], consecutive: bool) -> PageMap {
        let at = pool::da_vec();
        let mut map = PageMap {
            file,
            at,
            consecutive,
            floor: 0,
        };
        for &(p, da) in known {
            map.learn(p, da);
        }
        map.learn(0, file.leader_da);
        map
    }

    /// The map an open file starts with, from its leader: page 1's link,
    /// the last-page hint, and the `maybe_consecutive` hint.
    pub fn open(file: FileFullName, leader_label: Label, leader: &LeaderPage) -> PageMap {
        let known = [(1, leader_label.next), (leader.last_page, leader.last_da)];
        PageMap::new(file, &known, leader.maybe_consecutive)
    }

    /// True if the map guesses, as the leader allowed.
    pub fn consecutive(&self) -> bool {
        self.consecutive
    }

    /// Page `page`'s hint address: known, guessed, or nil.
    pub fn hint(&self, page: u16) -> DiskAddress {
        let p = page as usize;
        match self.at.get(p) {
            Some(da) if !da.is_nil() => *da,
            Some(_) if self.consecutive => (self.floor..p)
                .rev()
                .find(|&q| !self.at[q].is_nil())
                .and_then(|q| self.at[q].0.checked_add((p - q) as u16))
                .map_or(DiskAddress::NIL, DiskAddress),
            // Not consecutive, or past the highest page heard of.
            _ => DiskAddress::NIL,
        }
    }

    /// Records `da` as page `page`'s hint address (nil records nothing).
    pub fn learn(&mut self, page: u16, da: DiskAddress) {
        let p = page as usize;
        if !da.is_nil() {
            if p >= self.at.len() {
                self.at.resize(p + 1, DiskAddress::NIL);
            }
            self.at[p] = da;
        }
    }

    /// Records that `da` failed its check as page `page`: a stale entry is
    /// forgotten, and a wrong guess stops guesses from below `page`.
    pub fn miss(&mut self, page: u16, da: DiskAddress) {
        match self.at.get_mut(page as usize) {
            Some(entry) if *entry == da => *entry = DiskAddress::NIL,
            _ => self.floor = self.floor.max(page as usize),
        }
    }

    /// Finds `page`: at its hint, else by following links from the nearest
    /// known page below it, learning every address passed. A start whose
    /// check fails is missed and the next lower one tried.
    pub fn locate<D: Disk>(&mut self, disk: &mut D, page: u16) -> Result<Located, FsError> {
        let mut from = PageName::new(self.file.fv, page, self.hint(page));
        loop {
            if from.da.is_nil() {
                let below = (page as usize).min(self.at.len());
                let start = (0..below).rev().find(|&q| !self.at[q].is_nil());
                let start = start.ok_or(FsError::PageNotFound(self.file.page(page)))?;
                from = PageName::new(self.file.fv, start as u16, self.at[start]);
            }
            let mut started = false;
            let walked = chain::follow(disk, from, |disk, pn| {
                let (label, data) = page::read_page(disk, pn)?;
                started = true;
                self.learn(pn.page, pn.da);
                self.learn(pn.page.saturating_add(1), label.next);
                Ok(if pn.page == page || label.next.is_nil() {
                    let hops = pn.page - from.page;
                    ControlFlow::Break(Located {
                        pn,
                        label,
                        data,
                        hops,
                    })
                } else {
                    ControlFlow::Continue(label)
                })
            });
            match walked {
                Ok(ControlFlow::Break(found)) => return Ok(found),
                Ok(ControlFlow::Continue(_)) => unreachable!("the step stops at a nil link"),
                Err(e) if !started && is_miss(&e) => self.miss(from.page, from.da),
                Err(e) => return Err(e),
            }
            from.da = DiskAddress::NIL;
        }
    }
}

impl Drop for PageMap {
    /// Hands the address vector back to the pool, so a map per open stays
    /// heap-free.
    fn drop(&mut self) {
        pool::recycle_das(std::mem::take(&mut self.at));
    }
}

/// A failed check, or an address off the disk: the hint was wrong.
fn is_miss(e: &FsError) -> bool {
    matches!(
        e,
        FsError::Disk(DiskError::Check(_) | DiskError::InvalidAddress(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::FileSystem;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, Trace};

    /// A fresh, consecutively laid out file of `pages` pages, and the
    /// addresses of its pages from the leader on.
    fn file_of(pages: u16) -> (FileSystem<DiskDrive>, FileFullName, Vec<DiskAddress>) {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        let mut fs = FileSystem::format(drive).unwrap();
        let root = fs.root_dir();
        let f = crate::dir::create_named_file(&mut fs, root, "m.dat").unwrap();
        fs.write_file(f, &vec![7; pages as usize * 512 - 9])
            .unwrap();
        let mut das = vec![];
        chain::to_end(fs.disk_mut(), f.leader_page(), |pn, _, _| das.push(pn.da)).unwrap();
        (fs, f, das)
    }

    fn reads(fs: &FileSystem<DiskDrive>) -> u64 {
        fs.disk().stats().ops
    }

    #[test]
    fn a_consecutive_guess_hits_in_one_read() {
        let (mut fs, f, das) = file_of(8);
        assert_eq!(das[8].0, das[1].0 + 7, "fresh file should be consecutive");
        let mut map = PageMap::new(f, &[(1, das[1]), (8, das[8])], true);
        assert_eq!(map.hint(4), das[4]);
        let before = reads(&fs);
        let hit = map.locate(fs.disk_mut(), 4).unwrap();
        assert_eq!((hit.pn.da, hit.hops, reads(&fs) - before), (das[4], 0, 1));
    }

    #[test]
    fn a_wrong_guess_costs_one_failed_check() {
        let (mut fs, f, das) = file_of(8);
        // Page 1 is known and page 8 bounds the file, but page 1's guess
        // base is wrong: the guess for page 5 misses, then a walk from
        // the leader finds it.
        let mut map = PageMap::new(f, &[(1, DiskAddress(das[1].0 + 40)), (8, das[8])], true);
        let before = reads(&fs);
        let found = map.locate(fs.disk_mut(), 5).unwrap();
        assert_eq!((found.pn.da, found.hops), (das[5], 5));
        // The guess, the stale page 1, then the leader and pages 1 to 5.
        assert_eq!(reads(&fs) - before, 8);
        // A guess off the disk costs nothing and harms nothing either.
        let mut map = PageMap::new(f, &[(1, DiskAddress(60000)), (8, das[8])], true);
        assert_eq!(map.locate(fs.disk_mut(), 5).unwrap().pn.da, das[5]);
    }

    #[test]
    fn a_missed_guess_stops_guesses_from_below() {
        let (_, f, das) = file_of(8);
        let mut map = PageMap::new(f, &[(1, das[1]), (8, das[8])], true);
        map.miss(5, map.hint(5));
        assert!(map.hint(6).is_nil());
        map.learn(5, das[5]);
        assert_eq!(map.hint(7), das[7]);
    }

    #[test]
    fn a_walk_learns_what_it_passes() {
        let (mut fs, f, das) = file_of(8);
        let mut map = PageMap::new(f, &[(1, das[1])], false);
        let found = map.locate(fs.disk_mut(), 5).unwrap();
        assert_eq!((found.pn.da, found.hops), (das[5], 4));
        let found = map.locate(fs.disk_mut(), 3).unwrap();
        assert_eq!((found.pn.da, found.hops), (das[3], 0));
        assert_eq!(map.hint(6), das[6]);
    }

    #[test]
    fn a_stale_start_is_forgotten_and_the_next_lower_tried() {
        let (mut fs, f, das) = file_of(8);
        let mut map = PageMap::new(f, &[(1, das[1]), (4, DiskAddress(2))], false);
        let found = map.locate(fs.disk_mut(), 6).unwrap();
        assert_eq!((found.pn.da, found.hops), (das[6], 5));
        assert_eq!(map.hint(4), das[4], "relearned on the way");
    }

    #[test]
    fn past_the_end_is_the_last_page() {
        let (mut fs, f, das) = file_of(5);
        let (label, leader) = fs.open_leader(f).unwrap();
        let mut map = PageMap::open(f, label, &leader);
        let before = reads(&fs);
        let last = map.locate(fs.disk_mut(), u16::MAX).unwrap();
        assert_eq!((last.pn.page, last.pn.da), (5, das[5]));
        assert_eq!((last.label.length, reads(&fs) - before), (503, 1));
    }

    #[test]
    fn with_every_start_stale_the_locate_fails() {
        let (mut fs, f, _) = file_of(3);
        let stale = FileFullName::new(f.fv, DiskAddress(4000));
        let mut map = PageMap::new(stale, &[], false);
        assert!(map.locate(fs.disk_mut(), 2).is_err());
    }
}
