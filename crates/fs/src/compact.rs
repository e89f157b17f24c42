//! The compacting scavenger (§3.5).
//!
//! "We have also written a more elaborate scavenger that does an in-place
//! permutation of the file pages on the disk so that the pages of each file
//! are in consecutive sectors. This arrangement typically increases the
//! speed with which the files can be read sequentially by an order of
//! magnitude over what is possible if the pages have become scattered."
//!
//! The compactor computes a *stable* target layout and realizes it as an
//! in-place permutation. The descriptor's leader stays pinned at its
//! standard address and its data pages go to DA 2 onward; a boot file's
//! page 1 stays at DA 0. A file whose other pages already sit at
//! consecutive sectors outside that range keeps them. Every other file, in
//! serial-number order, takes the lowest sectors of the smallest free run
//! that holds it. If some file fits no run, every file is placed afresh,
//! which on a pack with no bad sectors is a dense prefix in serial-number
//! order. So a delete or a new version moves only the files it scattered.
//!
//! The permutation is scheduled in *waves*. A move whose destination is
//! free is in wave 0; any other move is one wave after the move that
//! vacates its destination, so a page's old home is overwritten only once
//! the page is durable at its new one. A pure cycle of moves has
//! no free destination: it is broken by first copying one of its pages to a
//! spare sector outside the target layout, which turns the cycle into a
//! path that ends with that page moving from the spare to its new home. No
//! live page is ever held only in memory.
//!
//! Each wave is cut into sweep-shaped chunks, and every chunk is one chained
//! batch that writes the chunk's moves (with the labels of the *new* layout)
//! and reads the next chunk's sources — safe because no wave's sources are
//! written before the wave after it — so host memory holds two chunks, not
//! the pack. Old homes and spares are freed in sweep batches. The leaders
//! that moved, or whose last-page hints or `maybe_consecutive` flag are
//! stale, get one batched checked write of the image the scan read; only a
//! directory that names a moved leader is rewritten; and the descriptor is
//! rebuilt. Compacting a compacted pack moves no page and writes only the
//! descriptor.
//!
//! Experiment E3 measures the order-of-magnitude sequential-read speedup
//! this buys.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::Range;

use alto_disk::{pool, BatchRequest, Disk, DiskAddress, Label, SectorBuf, SectorOp, DATA_WORDS};
use alto_sim::SimTime;

use crate::descriptor;
use crate::dir;
use crate::errors::FsError;
use crate::file::FileSystem;
use crate::leader::LeaderPage;
use crate::names::{FileFullName, Fv, PageName};
use crate::page;
use crate::scavenge::{Scavenger, Sweep};

/// What the compactor did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Files laid out.
    pub files: u32,
    /// Pages that had to move.
    pub pages_moved: u32,
    /// Pages already in place.
    pub pages_in_place: u32,
    /// Pure permutation cycles, each broken by first copying one of its
    /// pages to a spare sector outside the target layout.
    pub cycles: u32,
    /// Files whose pages are now perfectly consecutive.
    pub consecutive_files: u32,
    /// Simulated time taken, excluding the leading [`Scavenger::run`].
    pub elapsed: SimTime,
}

/// The compacting scavenger.
pub struct Compactor;

/// A file's scanned pages: `(page number, current address, label)`.
type ScannedPages = Vec<(u16, DiskAddress, Label)>;

#[derive(Debug, Clone, Copy)]
struct Placement {
    fv: Fv,
    page: u16,
    old_da: DiskAddress,
    new_da: DiskAddress,
    /// The label the scan found at `old_da`.
    old: Label,
}

/// One write of the permutation: placement `i`'s page, read at `from` and
/// written at `to` with its label in the new layout.
#[derive(Debug, Clone, Copy)]
struct Move {
    i: u32,
    from: DiskAddress,
    to: DiskAddress,
}

/// The permutation's writes in order, cut into chained chunks
/// (`order[ends[k - 1]..ends[k]]` is chunk k), and the spare each pure
/// cycle passed through.
struct Schedule {
    order: Vec<Move>,
    ends: Vec<usize>,
    spares: Vec<DiskAddress>,
}

/// No placement: an empty slot of the per-sector indexes, or a page that
/// is not written at all.
const NONE: u32 = u32::MAX;

/// The label of placement `i` in the new layout: its own absolutes and
/// length, linked to its file neighbours' new addresses.
fn new_label(placements: &[Placement], i: usize) -> Label {
    let p = &placements[i];
    let neighbour = |j: Option<usize>, page: Option<u16>| {
        j.zip(page)
            .and_then(|(j, page)| placements.get(j).filter(|q| q.fv == p.fv && q.page == page))
            .map_or(DiskAddress::NIL, |q| q.new_da)
    };
    Label {
        fid: p.fv.serial.words(),
        version: p.fv.version,
        page_number: p.page,
        length: p.old.length,
        next: neighbour(i.checked_add(1), p.page.checked_add(1)),
        prev: neighbour(i.checked_sub(1), p.page.checked_sub(1)),
    }
}

impl Compactor {
    /// Compacts the file system in place so every file's pages are
    /// consecutive. Runs a (plain) scavenge first so the page table is
    /// trustworthy, and leaves a fully consistent, freshly scavenged disk.
    ///
    /// The target layout is stable: a file whose pages already sit at
    /// consecutive sectors keeps them, the descriptor's data pages go to
    /// DA 2 onward, and every other file goes to the smallest free run that
    /// holds it. Only the leaders whose hints change are written, and only
    /// the directories that name a moved leader are rewritten, so compacting
    /// a compacted pack moves and writes nothing but the descriptor.
    pub fn run<D: Disk>(fs: &mut FileSystem<D>) -> Result<CompactReport, FsError> {
        // A scavenge gives us repaired chains and a correct bitmap.
        Scavenger::run(fs)?;
        let start = fs.disk().clock().now();
        let mut report = CompactReport::default();

        // Walk every file (via the root-reachable table the scavenger left:
        // the labels themselves) and record current page positions, and
        // keep every leader's image: `images[image_of[da]]` is the data the
        // scan read at a leader's home `da`.
        let geometry = fs.disk().geometry()?;
        let sectors = geometry.sector_count() as usize;
        let mut files: BTreeMap<Fv, ScannedPages> = BTreeMap::new();
        let mut bad: Vec<DiskAddress> = Vec::new();
        let mut images = crate::pool::chunks_vec();
        let mut image_of = vec![NONE; sectors];
        // The scan is the scavenger's sweep shape: chained cylinder batches,
        // one chunk per arm per batch so an array overlaps its timelines.
        let per_cylinder = (geometry.heads as usize * geometry.sectors as usize).max(1);
        let all: Vec<DiskAddress> = (0..sectors).map(|i| DiskAddress(i as u16)).collect();
        for das in Sweep::new(fs.disk(), &all, per_cylinder).batches() {
            let results = page::read_raw_batch(fs.disk_mut(), das);
            for (&da, res) in das.iter().zip(results) {
                match res {
                    Ok((label, data)) => {
                        if label.is_bad() {
                            bad.push(da);
                        } else if label.is_in_use() {
                            if label.page_number == 0 {
                                image_of[da.0 as usize] = images.len() as u32;
                                images.push(data);
                            }
                            files.entry(Fv::from_label(&label)).or_default().push((
                                label.page_number,
                                da,
                                label,
                            ));
                        }
                    }
                    Err(FsError::Disk(alto_disk::DiskError::HardError { .. })) => bad.push(da),
                    Err(e) => return Err(e),
                }
            }
        }
        for (fv, pages) in &mut files {
            pages.sort_unstable_by_key(|&(page, da, _)| (page, da));
            // Every file leads with a leader, whose image the scan kept.
            if pages[0].0 != 0 {
                return Err(FsError::PageNotFound(PageName::new(*fv, 0, pages[0].1)));
            }
        }

        // Each file's placements are one contiguous run, in file order:
        // the descriptor first (its data pages follow its pinned leader),
        // then everything else by serial number. A pinned page's home is
        // fixed now; the others are planned.
        let desc_fv = descriptor::descriptor_fv();
        let boot_present = files.get(&descriptor::boot_fv()).is_some_and(|pages| {
            pages
                .iter()
                .any(|(p, da, _)| *p == 1 && *da == descriptor::BOOT_PAGE_DA)
        });
        let mut placements: Vec<Placement> = Vec::new();
        let mut file_ends: Vec<usize> = Vec::with_capacity(files.len());
        let desc = files.remove(&desc_fv).map(|pages| (desc_fv, pages));
        for (fv, pages) in desc.into_iter().chain(files) {
            for (page, old_da, old) in pages {
                let new_da = if fv == desc_fv && page == 0 {
                    descriptor::DESCRIPTOR_LEADER_DA
                } else if fv == descriptor::boot_fv() && page == 1 && boot_present {
                    descriptor::BOOT_PAGE_DA
                } else {
                    DiskAddress::NIL
                };
                placements.push(Placement {
                    fv,
                    page,
                    old_da,
                    new_da,
                    old,
                });
            }
            file_ends.push(placements.len());
        }
        report.files = file_ends.len() as u32;

        // Target layout: in-place files stay, the rest go by best fit; if
        // some file fits no free run, every file is placed afresh.
        let bad_set: BTreeSet<u16> = bad.iter().map(|d| d.0).collect();
        let usable = |da: DiskAddress| {
            !bad_set.contains(&da.0)
                && da != descriptor::BOOT_PAGE_DA
                && da != descriptor::DESCRIPTOR_LEADER_DA
        };
        let free: Vec<bool> = (0..sectors)
            .map(|s| usable(DiskAddress(s as u16)))
            .collect();
        let homes = plan(&placements, &file_ends, &free, true)
            .or_else(|| plan(&placements, &file_ends, &free, false))
            .filter(|homes| !homes.contains(&DiskAddress::NIL))
            .ok_or(FsError::DiskFull)?;
        for (p, new_da) in placements.iter_mut().zip(homes) {
            p.new_da = new_da;
        }

        let pack_number = fs.disk().pack_number()?;
        let schedule = Self::schedule(fs.disk(), &placements, usable, sectors, per_cylinder)?;
        report.cycles = schedule.spares.len() as u32;
        for p in &placements {
            if p.old_da == p.new_da {
                report.pages_in_place += 1;
            } else {
                report.pages_moved += 1;
            }
        }
        Self::permute(fs.disk_mut(), pack_number, &placements, &schedule)?;

        // Free every old home that no longer holds live content, and every
        // spare a cycle passed through.
        let mut occupied = vec![false; sectors];
        for p in &placements {
            occupied[p.new_da.0 as usize] = true;
        }
        let mut freed: Vec<DiskAddress> = placements
            .iter()
            .map(|p| p.old_da)
            .chain(schedule.spares)
            .filter(|&da| {
                !occupied[da.0 as usize]
                    && da != descriptor::BOOT_PAGE_DA
                    && da != descriptor::DESCRIPTOR_LEADER_DA
            })
            .collect();
        freed.sort_unstable();
        freed.dedup();
        for das in Sweep::new(fs.disk(), &freed, per_cylinder).batches() {
            let mut batch = pool::batch_vec();
            batch.extend(das.iter().map(|&da| {
                let mut buf = SectorBuf::with_label(Label::FREE);
                buf.header = [pack_number, da.0];
                buf.data = [u16::MAX; DATA_WORDS];
                BatchRequest::new(da, SectorOp::WRITE_ALL, buf)
            }));
            run_chained(fs.disk_mut(), &mut batch)?;
            pool::recycle_batch(batch);
        }

        // Refresh leader hints and count consecutive files. A leader's
        // image is the one the scan read; one batched checked write covers
        // the leaders that moved or whose hints are stale.
        let mut moved: Vec<(Fv, DiskAddress)> = Vec::new();
        let mut dirs: Vec<FileFullName> = Vec::new();
        let mut stale: Vec<PageName> = Vec::new();
        let mut fresh = crate::pool::chunks_vec();
        let mut first = 0;
        for &end in &file_ends {
            let file = &placements[first..end];
            first = end;
            let (head, last) = (&file[0], &file[file.len() - 1]);
            if head.fv.serial.is_directory() {
                dirs.push(FileFullName::new(head.fv, head.new_da));
            }
            let consecutive = file
                .iter()
                .all(|p| p.new_da.0 == head.new_da.0.wrapping_add(p.page));
            if consecutive {
                report.consecutive_files += 1;
            }
            let mut leader = LeaderPage::decode(&images[image_of[head.old_da.0 as usize] as usize]);
            let hints = (last.page, last.new_da, consecutive);
            let was = (leader.last_page, leader.last_da, leader.maybe_consecutive);
            if head.old_da != head.new_da {
                moved.push((head.fv, head.new_da));
            } else if was == hints {
                continue;
            }
            (leader.last_page, leader.last_da, leader.maybe_consecutive) = hints;
            stale.push(PageName::new(head.fv, 0, head.new_da));
            fresh.push(leader.encode());
        }
        crate::pool::recycle_chunks(images);
        let labels = page::write_pages(fs.disk_mut(), stale.iter().copied(), &fresh)?;
        let failed = labels.iter().find_map(|r| r.as_ref().err().cloned());
        crate::pool::recycle_labels(labels);
        crate::pool::recycle_chunks(fresh);
        if let Some(e) = failed {
            return Err(e);
        }

        // Rebuild the in-memory descriptor to match the new layout.
        {
            let desc = fs.descriptor_mut();
            let total = desc.bitmap.len();
            desc.bitmap = crate::alloc::BitMap::all_free(total);
            desc.bitmap.set_busy(descriptor::BOOT_PAGE_DA);
            desc.bitmap.set_busy(descriptor::DESCRIPTOR_LEADER_DA);
            for p in &placements {
                desc.bitmap.set_busy(p.new_da);
            }
            for da in &bad {
                desc.bitmap.set_busy(*da);
            }
        }
        // The leaders that moved, by file.
        moved.sort_unstable_by_key(|&(fv, _)| fv);
        let moved_to = |fv: Fv| {
            moved
                .binary_search_by_key(&fv, |&(f, _)| f)
                .ok()
                .map(|i| moved[i].1)
        };
        let root_fv = fs.descriptor().root_dir.fv;
        if let Some(root_new) = moved_to(root_fv) {
            fs.descriptor_mut().root_dir = FileFullName::new(root_fv, root_new);
        }

        // Rewrite the directories that name a moved leader. With none
        // moved, no directory needs a look.
        if moved.is_empty() {
            dirs.clear();
        }
        for dir_name in dirs {
            let mut entries = dir::list(fs, dir_name)?;
            let mut changed = false;
            for e in &mut entries {
                if let Some(new) = moved_to(e.file.fv) {
                    e.file = FileFullName::new(e.file.fv, new);
                    changed = true;
                }
            }
            if changed {
                fs.write_file(dir_name, &dir::encode_entries(&entries))?;
            }
        }

        fs.flush_descriptor()?;
        report.elapsed = fs.disk().clock().now() - start;
        Ok(report)
    }

    /// Orders the writes of the permutation — every page that moves, every
    /// page that stays but whose links change, and one copy to a spare per
    /// pure cycle — wave by wave, each wave cut into sweep-shaped chunks.
    /// Fails with [`FsError::DiskFull`], before anything is written, if a
    /// cycle needs a spare and the pack has no sector outside the target
    /// layout.
    fn schedule<D: Disk>(
        disk: &D,
        placements: &[Placement],
        usable: impl Fn(DiskAddress) -> bool,
        sectors: usize,
        per_cylinder: usize,
    ) -> Result<Schedule, FsError> {
        // Who lives where now, and who is bound where.
        let mut by_old = vec![NONE; sectors];
        let mut by_new = vec![NONE; sectors];
        for (i, p) in placements.iter().enumerate() {
            by_old[p.old_da.0 as usize] = i as u32;
            by_new[p.new_da.0 as usize] = i as u32;
        }
        // A move waits on the page now at its destination, if that page
        // moves too; a page that stays is relabelled in wave 0, or skipped
        // if its scanned label is already the target.
        let occupant = |i: usize| {
            let j = by_old[placements[i].new_da.0 as usize];
            (j != NONE && j as usize != i).then_some(j as usize)
        };
        let mut wave = vec![NONE; placements.len()];
        let mut cycles: Vec<u32> = Vec::new();
        let mut path: Vec<usize> = Vec::new();
        for m in 0..placements.len() {
            let p = &placements[m];
            if wave[m] != NONE || (p.old_da == p.new_da && p.old == new_label(placements, m)) {
                continue;
            }
            // Chase the occupants from `m`. The moves form disjoint paths
            // and cycles, and `m` is the first of its own that is met, so
            // the chase ends at a free destination, at a move already
            // scheduled, or back at `m` — a pure cycle, whose waves count
            // from 1 for now: wave 0 is the copy of `m` to a spare.
            path.clear();
            let mut x = m;
            let base = loop {
                path.push(x);
                match occupant(x) {
                    None => break 0,
                    Some(y) if y == m => {
                        cycles.push(m as u32);
                        break 1;
                    }
                    Some(y) if wave[y] != NONE => break wave[y] + 1,
                    Some(y) => x = y,
                }
            };
            for (k, &x) in path.iter().rev().enumerate() {
                wave[x] = base + k as u32;
            }
        }

        // Break each cycle through a spare: a sector outside the target
        // layout, free from wave 0 if no page lives there, else from the
        // wave after its page moves out (paths never wait on cycles, so that
        // wave is final). The cycle shifts to start after the copy, and the
        // spare is free again the wave after `m` moves on from it.
        let mut spares = BinaryHeap::new();
        if !cycles.is_empty() {
            spares.extend(
                (0..sectors)
                    .filter(|&s| by_new[s] == NONE && usable(DiskAddress(s as u16)))
                    .map(|s| {
                        let free_at = match by_old[s] {
                            NONE => 0,
                            j => wave[j as usize] + 1,
                        };
                        Reverse((free_at, s as u16))
                    }),
            );
        }
        let mut copies: Vec<(u32, Move)> = Vec::with_capacity(cycles.len());
        for &m in &cycles {
            let Reverse((free_at, spare)) = spares.pop().ok_or(FsError::DiskFull)?;
            let mut x = Some(m as usize);
            while let Some(y) = x {
                wave[y] += free_at;
                x = occupant(y).filter(|&z| z != m as usize);
            }
            let (i, from, to) = (m, placements[m as usize].old_da, DiskAddress(spare));
            copies.push((free_at, Move { i, from, to }));
            spares.push(Reverse((wave[m as usize] + 1, spare)));
        }

        // Wave by wave, in destination order, cut into sweep-shaped chunks.
        let mut jobs: Vec<(u32, Move)> = wave
            .iter()
            .zip(placements)
            .enumerate()
            .filter(|&(_, (&w, _))| w != NONE)
            .map(|(i, (&w, p))| {
                // A cycle's first page moves on from its spare.
                let from = cycles
                    .binary_search(&(i as u32))
                    .map_or(p.old_da, |c| copies[c].1.to);
                let (i, to) = (i as u32, p.new_da);
                (w, Move { i, from, to })
            })
            .chain(copies.iter().copied())
            .collect();
        jobs.sort_unstable_by_key(|&(w, m)| (w, m.to));
        let dsts: Vec<DiskAddress> = jobs.iter().map(|(_, m)| m.to).collect();
        let mut sweep = Sweep::default();
        let mut order = Vec::with_capacity(jobs.len());
        let mut from = 0;
        while from < jobs.len() {
            let to = from + jobs[from..].partition_point(|j| j.0 == jobs[from].0);
            let start = sweep.das.len();
            sweep.extend(disk, &dsts[from..to], per_cylinder);
            let in_wave = &jobs[from..to];
            order.extend(
                sweep.das[start..]
                    .iter()
                    .map(|&da| in_wave[in_wave.partition_point(|j| j.1.to < da)].1),
            );
            from = to;
        }
        Ok(Schedule {
            order,
            ends: sweep.ends,
            spares: copies.iter().map(|(_, m)| m.to).collect(),
        })
    }

    /// Realizes the schedule: chunk 0's sources are read first, then batch
    /// k writes chunk k and reads chunk k+1's sources. A chunk's sources
    /// are written only by a later wave, so every live page keeps a durable
    /// copy at every write. A failed write stops the permutation there.
    fn permute<D: Disk>(
        disk: &mut D,
        pack_number: u16,
        placements: &[Placement],
        schedule: &Schedule,
    ) -> Result<(), FsError> {
        let Schedule { order, ends, .. } = schedule;
        if order.is_empty() {
            return Ok(());
        }
        let chunk = |k: usize| &order[k.checked_sub(1).map_or(0, |j| ends[j])..ends[k]];
        let read = |m: &Move| BatchRequest::new(m.from, SectorOp::READ_ALL, SectorBuf::zeroed());
        let mut batch = pool::batch_vec();
        batch.extend(chunk(0).iter().map(read));
        run_chained(disk, &mut batch)?;
        for k in 0..ends.len() {
            // The reads that led into this chunk become its writes; the
            // next chunk's sources are read behind them.
            for (req, m) in batch.iter_mut().zip(chunk(k)) {
                req.da = m.to;
                req.op = SectorOp::WRITE_ALL;
                req.buf.header = [pack_number, m.to.0];
                req.buf.set_label(new_label(placements, m.i as usize));
            }
            let writes = batch.len();
            if k + 1 < ends.len() {
                batch.extend(chunk(k + 1).iter().map(read));
            }
            run_chained(disk, &mut batch)?;
            batch.drain(..writes);
        }
        pool::recycle_batch(batch);
        Ok(())
    }
}

/// The target layout: every placement's new home, in order.
///
/// `file_ends` cuts `placements` into files; a placement's `new_da` is its
/// pinned home, or NIL. `free` marks the usable sectors. The descriptor's
/// data pages take the lowest of them, DA 2 onward. With `keep`, a file
/// whose other pages sit at consecutive free sectors in page order stays
/// there. Every remaining file, in order, takes the lowest sectors of the
/// smallest free run that holds it, ties to the lowest address. A file
/// that no run holds fails a plan with `keep`; without it, the file takes
/// the lowest free sectors, wherever they are.
fn plan(
    placements: &[Placement],
    file_ends: &[usize],
    free: &[bool],
    keep: bool,
) -> Option<Vec<DiskAddress>> {
    let mut free = free.to_vec();
    let mut homes: Vec<DiskAddress> = placements.iter().map(|p| p.new_da).collect();
    let mut rest: Vec<Range<usize>> = file_ends
        .iter()
        .scan(0, |from, &end| Some(std::mem::replace(from, end)..end))
        .collect();
    if placements
        .first()
        .is_some_and(|p| p.fv == descriptor::descriptor_fv())
    {
        let desc = rest.remove(0);
        take_from(&mut free, &mut homes[desc], 0);
    }
    if keep {
        rest.retain(|span| {
            let file = &placements[span.clone()];
            let stays = in_place(file, &homes[span.clone()], &free);
            if stays {
                for (h, p) in homes[span.clone()].iter_mut().zip(file) {
                    if h.is_nil() {
                        *h = p.old_da;
                        free[p.old_da.0 as usize] = false;
                    }
                }
            }
            !stays
        });
    }
    for span in rest {
        let span = &mut homes[span];
        let need = span.iter().filter(|h| h.is_nil()).count();
        let start = match best_fit(&free, need) {
            Some(start) => start,
            None if keep => return None,
            None => 0,
        };
        take_from(&mut free, span, start);
    }
    Some(homes)
}

/// True when the pages of `file` still without a home in `span` sit at
/// consecutive free sectors, in page order.
fn in_place(file: &[Placement], span: &[DiskAddress], free: &[bool]) -> bool {
    let mut olds = file
        .iter()
        .zip(span)
        .filter(|(_, h)| h.is_nil())
        .map(|(p, _)| usize::from(p.old_da.0));
    let Some(first) = olds.next() else {
        return false;
    };
    free[first]
        && olds
            .zip(first + 1..)
            .all(|(da, want)| da == want && free[da])
}

/// The first sector of the smallest run of at least `need` free sectors,
/// ties to the lowest address.
fn best_fit(free: &[bool], need: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    let mut s = 0;
    while s < free.len() {
        let len = free[s..].iter().take_while(|&&f| f).count();
        if len >= need && best.is_none_or(|(shortest, _)| len < shortest) {
            best = Some((len, s));
        }
        s += len + 1;
    }
    best.map(|(_, start)| start)
}

/// Gives each page of `span` still without a home the next free sector,
/// from `start` on.
fn take_from(free: &mut [bool], span: &mut [DiskAddress], start: usize) {
    let mut s = start;
    for h in span.iter_mut().filter(|h| h.is_nil()) {
        while s < free.len() && !free[s] {
            s += 1;
        }
        if let Some(f) = free.get_mut(s) {
            *f = false;
            *h = DiskAddress(s as u16);
        }
    }
}

/// Runs `batch` as one chained batch under bounded retry, failing with
/// its first member's error, if any.
fn run_chained<D: Disk>(disk: &mut D, batch: &mut [BatchRequest]) -> Result<(), FsError> {
    let results = page::batch_with_retry(disk, batch);
    let failed = results.iter().find_map(|r| r.err());
    pool::recycle_results(results);
    failed.map_or(Ok(()), |e| Err(e.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskError, DiskModel, DriveArray, FaultKind};
    use alto_sim::{SimClock, SplitMix64, Trace};

    fn fresh_fs() -> FileSystem<DiskDrive> {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        FileSystem::format(drive).unwrap()
    }

    /// Creates `n` files then rewrites them in shuffled order repeatedly so
    /// their pages interleave on disk.
    fn fragmented_fs(files: usize, pages_each: usize) -> (FileSystem<DiskDrive>, Vec<String>) {
        fragment(fresh_fs(), files, pages_each)
    }

    /// A K=4 Diablo 31 array fragmented the same way.
    fn fragmented_array(
        placement: alto_disk::Placement,
        files: usize,
        pages_each: usize,
    ) -> (FileSystem<DriveArray>, Vec<String>) {
        let array = DriveArray::with_arms(
            4,
            placement,
            SimClock::new(),
            Trace::new(),
            DiskModel::Diablo31,
        );
        fragment(FileSystem::format(array).unwrap(), files, pages_each)
    }

    fn fragment<D: Disk>(
        mut fs: FileSystem<D>,
        files: usize,
        pages_each: usize,
    ) -> (FileSystem<D>, Vec<String>) {
        let root = fs.root_dir();
        let mut names = Vec::new();
        for i in 0..files {
            let name = format!("frag-{i}.dat");
            dir::create_named_file(&mut fs, root, &name).unwrap();
            names.push(name);
        }
        let mut rng = SplitMix64::new(99);
        // Interleave growth: extend each file one page at a time in random
        // order so pages of different files alternate on the disk.
        let mut sizes = vec![0usize; files];
        for _ in 0..pages_each {
            let mut order: Vec<usize> = (0..files).collect();
            rng.shuffle(&mut order);
            for f in order {
                sizes[f] += 1;
                let file = dir::lookup(&mut fs, root, &names[f]).unwrap().unwrap();
                fs.write_file(file, &vec![f as u8; sizes[f] * 512 - 1])
                    .unwrap();
            }
        }
        (fs, names)
    }

    #[test]
    fn compaction_preserves_contents() {
        let (mut fs, names) = fragmented_fs(4, 5);
        let root = fs.root_dir();
        let mut before = Vec::new();
        for n in &names {
            let f = dir::lookup(&mut fs, root, n).unwrap().unwrap();
            before.push(fs.read_file(f).unwrap());
        }
        let report = Compactor::run(&mut fs).unwrap();
        assert!(report.pages_moved > 0);
        let root = fs.root_dir();
        for (n, want) in names.iter().zip(&before) {
            let f = dir::lookup(&mut fs, root, n).unwrap().unwrap();
            assert_eq!(&fs.read_file(f).unwrap(), want, "{n} changed");
        }
    }

    #[test]
    fn compaction_makes_files_consecutive() {
        let (mut fs, names) = fragmented_fs(4, 5);
        let report = Compactor::run(&mut fs).unwrap();
        assert_eq!(report.consecutive_files, report.files);
        // Check one file's physical layout directly.
        let root = fs.root_dir();
        let f = dir::lookup(&mut fs, root, &names[0]).unwrap().unwrap();
        let (leader_label, leader_data) = fs.read_page(f.leader_page()).unwrap();
        let leader = LeaderPage::decode(&leader_data);
        assert!(leader.maybe_consecutive);
        let mut da = leader_label.next;
        let mut expect = f.leader_da.0 + 1;
        let mut page = 1u16;
        loop {
            assert_eq!(da.0, expect, "page {page} not consecutive");
            let (label, _) = fs.read_page(PageName::new(f.fv, page, da)).unwrap();
            if label.next.is_nil() {
                break;
            }
            da = label.next;
            expect += 1;
            page += 1;
        }
    }

    #[test]
    fn compaction_is_idempotent() {
        let (mut fs, _) = fragmented_fs(3, 4);
        Compactor::run(&mut fs).unwrap();
        let report2 = Compactor::run(&mut fs).unwrap();
        assert_eq!(report2.pages_moved, 0);
        assert_eq!(report2.consecutive_files, report2.files);
    }

    #[test]
    fn compaction_survives_scavenge() {
        // After compaction the disk must still scavenge cleanly.
        let (mut fs, names) = fragmented_fs(3, 4);
        Compactor::run(&mut fs).unwrap();
        let disk = fs.unmount().unwrap();
        let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
        assert_eq!(report.links_repaired, 0);
        assert_eq!(report.entries_dropped, 0);
        assert_eq!(report.orphans_adopted, 0);
        let root = fs.root_dir();
        for n in &names {
            assert!(dir::lookup(&mut fs, root, n).unwrap().is_some());
        }
    }

    #[test]
    fn descriptor_stays_at_standard_address() {
        let (mut fs, _) = fragmented_fs(2, 3);
        Compactor::run(&mut fs).unwrap();
        let disk = fs.unmount().unwrap();
        // A plain mount (which goes straight to DA 1) must work.
        let fs = FileSystem::mount(disk).unwrap();
        assert_eq!(fs.descriptor().shape, DiskModel::Diablo31.geometry());
    }

    #[test]
    fn sequential_read_is_much_faster_after_compaction() {
        // The E3 headline: order-of-magnitude sequential-read speedup.
        let (mut fs, names) = fragmented_fs(6, 12);
        let root = fs.root_dir();
        let f = dir::lookup(&mut fs, root, &names[2]).unwrap().unwrap();
        let ((), scattered_time) = {
            let clock = fs.disk().clock().clone();
            let t0 = clock.now();
            fs.read_file(f).unwrap();
            ((), clock.now() - t0)
        };
        Compactor::run(&mut fs).unwrap();
        let root = fs.root_dir();
        let f = dir::lookup(&mut fs, root, &names[2]).unwrap().unwrap();
        let ((), compact_time) = {
            let clock = fs.disk().clock().clone();
            let t0 = clock.now();
            fs.read_file(f).unwrap();
            ((), clock.now() - t0)
        };
        let speedup = scattered_time.as_nanos() as f64 / compact_time.as_nanos() as f64;
        assert!(
            speedup > 3.0,
            "expected a large speedup, got {speedup:.2}x ({scattered_time} -> {compact_time})"
        );
    }

    /// FNV-1a over every sector's label, plus the data of every sector that
    /// is not a leader page (leaders carry clock-stamped dates).
    fn layout_digest<D: Disk>(fs: &mut FileSystem<D>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |w: u16| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        each_sector(fs, |_, label, data| {
            label.encode().iter().for_each(|&w| fold(w));
            if !(label.is_in_use() && label.page_number == 0) {
                data.iter().for_each(|&w| fold(w));
            }
        });
        h
    }

    /// Reads every sector of the pack raw, in address order.
    fn each_sector<D: Disk>(
        fs: &mut FileSystem<D>,
        mut visit: impl FnMut(DiskAddress, Label, &[u16; DATA_WORDS]),
    ) {
        let count = fs.disk().geometry().unwrap().sector_count();
        let all: Vec<DiskAddress> = (0..count).map(|i| DiskAddress(i as u16)).collect();
        for das in all.chunks(256) {
            for (&da, res) in das.iter().zip(page::read_raw_batch(fs.disk_mut(), das)) {
                let (label, data) = res.unwrap();
                visit(da, label, &data);
            }
        }
    }

    /// The compacted layout is pinned: the placements, labels and page data
    /// `Compactor::run` leaves on the pack, on one drive and on a K=4 array.
    #[test]
    fn compacted_layout_is_pinned() {
        let (mut fs, _) = fragmented_fs(6, 12);
        let report = Compactor::run(&mut fs).unwrap();
        assert!(report.cycles > 0);
        assert_eq!(layout_digest(&mut fs), 8_276_631_968_552_855_929);
        let (mut fs, _) = fragmented_array(alto_disk::Placement::Hash, 6, 12);
        let report = Compactor::run(&mut fs).unwrap();
        assert!(report.cycles > 0 && report.pages_in_place > 0);
        assert_eq!(layout_digest(&mut fs), 7_148_067_291_864_658_306);
    }

    /// Where every live page lives, by absolute name, from a raw sweep.
    fn page_homes<D: Disk>(fs: &mut FileSystem<D>) -> BTreeMap<(Fv, u16), DiskAddress> {
        let mut homes = BTreeMap::new();
        each_sector(fs, |da, label, _| {
            if label.is_in_use() {
                homes.insert((Fv::from_label(&label), label.page_number), da);
            }
        });
        homes
    }

    fn contents<D: Disk>(fs: &mut FileSystem<D>, names: &[String]) -> Vec<Vec<u8>> {
        let root = fs.root_dir();
        names
            .iter()
            .map(|n| {
                let f = dir::lookup(fs, root, n).unwrap().unwrap();
                fs.read_file(f).unwrap()
            })
            .collect()
    }

    /// Fails each move of compacting `fixture` in turn — its write to its
    /// destination fails hard — and checks that the run stops with the
    /// error and a rebuild brings back every file byte-exact. Returns the
    /// fault-free run's report and how many faulted moves lie on a pure
    /// cycle.
    fn fail_each_move(
        fixture: impl Fn() -> (FileSystem<DriveArray>, Vec<String>),
    ) -> (CompactReport, usize) {
        let (mut fs, names) = fixture();
        let want = contents(&mut fs, &names);
        Scavenger::run(&mut fs).unwrap();
        let before = page_homes(&mut fs);
        let report = Compactor::run(&mut fs).unwrap();
        let after = page_homes(&mut fs);
        let moves: Vec<(DiskAddress, DiskAddress)> = before
            .iter()
            .map(|(name, &src)| (src, after[name]))
            .filter(|(src, dst)| src != dst)
            .collect();
        assert_eq!(moves.len(), report.pages_moved as usize);
        // Some move waits on another, so the schedule has more than one wave.
        assert!(moves
            .iter()
            .any(|&(_, dst)| moves.iter().any(|&(src, _)| src == dst)));
        // Following each destination to the move out of it leads back to
        // a move's own source only on a pure cycle.
        let on_cycle = |&(src, dst): &(DiskAddress, DiskAddress)| {
            let mut at = dst;
            for _ in 0..moves.len() {
                if at == src {
                    return true;
                }
                match moves.iter().find(|m| m.0 == at) {
                    Some(m) => at = m.1,
                    None => return false,
                }
            }
            false
        };

        // The leading scavenge rebuilds the descriptor file at its pages'
        // current homes, so a fault there fires before the permutation.
        let desc_homes: Vec<DiskAddress> = before
            .iter()
            .filter(|((fv, _), _)| *fv == descriptor::descriptor_fv())
            .map(|(_, &da)| da)
            .collect();
        let (mut armed, mut in_cycles) = (0, 0);
        for m in moves.iter().filter(|(_, dst)| !desc_homes.contains(dst)) {
            let dst = m.1;
            armed += 1;
            in_cycles += usize::from(on_cycle(m));
            let (mut fs, _) = fixture();
            let attempts = fs.disk().retry_limit() + 1;
            let arm = fs.disk().arm_of(dst);
            // Range placement gives each arm one span; hash placement deals
            // the addresses round the arms.
            let local = DiskAddress(match fs.disk().arm_origin(arm) {
                Some(origin) => dst.0 - origin.0,
                None => dst.0 / fs.disk().arm_count() as u16,
            });
            fs.disk_mut()
                .arm_mut(arm)
                .injector_mut()
                .arm(local, FaultKind::NotReady { attempts });
            let err = Compactor::run(&mut fs).unwrap_err();
            assert!(
                matches!(err, FsError::Disk(DiskError::HardError { .. })),
                "move to {dst}: {err:?}"
            );
            let (mut fs, _) = Scavenger::rebuild(fs.crash()).unwrap();
            assert_eq!(contents(&mut fs, &names), want, "move to {dst}");
        }
        assert!(
            armed > moves.len() / 2,
            "{armed} of {} moves faulted",
            moves.len()
        );
        (report, in_cycles)
    }

    /// The schedule's crash-safety order: whichever move's write fails
    /// hard, every live page still has a durable copy. On range placement
    /// the permutation is paths only; on hash placement it has pure cycles,
    /// and a write that fails between a cycle's copy to its spare and the
    /// cycle's last move loses nothing either.
    #[test]
    fn a_failed_move_leaves_every_file_recoverable() {
        let (report, _) = fail_each_move(|| fragmented_array(alto_disk::Placement::Range, 6, 3));
        assert_eq!(report.cycles, 0);
        let (report, in_cycles) =
            fail_each_move(|| fragmented_array(alto_disk::Placement::Hash, 6, 3));
        assert!(report.cycles > 0 && in_cycles > 0);
    }
}
