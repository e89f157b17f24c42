//! Disk file streams (§2, §5).
//!
//! The standard way to read and write files: a buffered cursor over a
//! file's pages. Ordinary data traffic costs ordinary reads and writes;
//! the §3.3 label discipline shows through exactly where the paper says it
//! must — growing a page's byte count or extending the file rewrites a
//! label (one disk revolution), while overwriting in place does not.
//!
//! `position`/`set_position` are the paper's "non-standard operations"
//! (§2): they are inherent methods, not part of the abstract [`Stream`]
//! interface, and a program that uses them only works with disk streams.
//!
//! Sequential readers get **readahead**: when the stream crosses into the
//! next page of a file whose leader hints at consecutive layout, it fetches
//! a handful of following pages in one chained batch (§3.6 guessed
//! transfers) and serves later crossings from memory. The buffered pages
//! are guarded by the disk's [`Disk::write_epoch`] — any write to the
//! medium behind the stream's back drops them — so a reader never observes
//! stale prefetched data.
//!
//! Sequential writers get the symmetric **write-behind**: a page crossing
//! parks the dirty page in a delayed-write buffer instead of flushing it,
//! and a drain writes all parked pages as one chained batch — combined
//! with the next readahead refill when possible, so four writes and four
//! reads ride on a single command set-up. Every parked page keeps the full
//! §3.3 check-before-write discipline when it finally transfers. Explicit
//! `flush`/`close`, seeks, epoch conflicts (a foreign write to the medium)
//! and buffer pressure all drain. The stream re-stamps its epoch after its
//! *own* drain — the drain bumps the epoch once for the whole batch and
//! must not poison the stream's own readahead — while foreign writes still
//! invalidate. Label-changing pages (length growth, extension) never park:
//! a label rewrite is a check pass plus a write pass on one sector and
//! cannot chain.

use alto_disk::{Disk, DiskAddress, Label, UnparkOutcome, DATA_WORDS};
use alto_fs::file::PAGE_BYTES;
use alto_fs::names::FileFullName;
use alto_fs::{FileSystem, FsError, PageName};

use crate::errors::StreamError;
use crate::Stream;

/// A byte-granularity stream over a disk file.
///
/// # Examples
///
/// ```
/// use alto_disk::{DiskDrive, DiskModel};
/// use alto_fs::{dir, FileSystem};
/// use alto_sim::{SimClock, Trace};
/// use alto_streams::{DiskByteStream, Stream};
///
/// let drive = DiskDrive::with_formatted_pack(
///     SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
/// let mut fs = FileSystem::format(drive).unwrap();
/// let root = fs.root_dir();
/// let f = dir::create_named_file(&mut fs, root, "log").unwrap();
///
/// let mut s = DiskByteStream::open(&mut fs, f).unwrap();
/// for b in b"stream me" {
///     s.put_byte(&mut fs, *b).unwrap();
/// }
/// s.close(&mut fs).unwrap();
/// assert_eq!(fs.read_file(f).unwrap(), b"stream me");
/// ```
#[derive(Debug)]
pub struct DiskByteStream<D: Disk> {
    file: FileFullName,
    /// Current data page (1-based).
    page: u16,
    /// Hint address of the current page.
    da: DiskAddress,
    /// The current page's label (fresh from the last read).
    label: Label,
    buffer: [u16; DATA_WORDS],
    /// Byte offset within the current page.
    offset: usize,
    dirty: bool,
    /// The label (length or links) changed: flush must rewrite it.
    label_changed: bool,
    /// The stream extended or shrank the file: close must refresh the
    /// leader hints.
    resized: bool,
    closed: bool,
    /// Leader hint: the file's pages may sit at consecutive addresses, so
    /// guessed readahead batches are worth issuing.
    consecutive_hint: bool,
    /// Pages prefetched beyond the current one: `(page, da, label, data)`.
    readahead: Vec<(u16, DiskAddress, Label, [u16; DATA_WORDS])>,
    /// The disk's [`Disk::write_epoch`] as of this stream's own last drain
    /// or refill; a different value means a *foreign* write reached the
    /// medium, so prefetched copies may be stale and parked pages should
    /// meet their label checks promptly.
    medium_epoch: u64,
    /// Dirty pages parked for a delayed write: `(page, da, data)`. Only
    /// pages whose labels are unchanged park here; they are genuinely
    /// absent from the medium until a drain writes them back.
    write_behind: Vec<(u16, DiskAddress, [u16; DATA_WORDS])>,
    /// The ablation switch: off restores one synchronous flush per page
    /// crossing.
    write_behind_enabled: bool,
    /// Empty-but-warm double buffer for [`Self::drain`]: the parked pages
    /// swap into it for the duration of a drain, so the steady state never
    /// reallocates either vector.
    drain_scratch: Vec<(u16, DiskAddress, [u16; DATA_WORDS])>,
    /// Reusable output storage for `drain_and_prefetch_into`.
    write_results: Vec<Result<Label, FsError>>,
    /// Reusable output storage for the prefetch half of a refill batch.
    read_results: Vec<alto_fs::page::PageResult>,
    _disk: std::marker::PhantomData<D>,
}

/// Pages fetched per readahead batch (the current page plus up to three
/// prefetched followers).
const READAHEAD_PAGES: u16 = 4;

/// Dirty pages parked before buffer pressure forces a drain (symmetric
/// with [`READAHEAD_PAGES`], so a combined drain-and-refill batch moves up
/// to eight sectors on one command set-up).
const WRITE_BEHIND_PAGES: usize = 4;

impl<D: Disk> DiskByteStream<D> {
    /// Opens a stream on `file`, positioned at byte 0. The leader comes
    /// through the file system's leader cache, so a repeated open (or one
    /// straight after a verified name lookup) skips that disk revolution.
    pub fn open(fs: &mut FileSystem<D>, file: FileFullName) -> Result<Self, StreamError> {
        let (leader_label, leader) = fs.open_leader(file)?;
        let da = leader_label.next;
        let pn = PageName::new(file.fv, 1, da);
        let (label, buffer) = fs.read_page(pn)?;
        let medium_epoch = fs.disk().write_epoch();
        Ok(DiskByteStream {
            file,
            page: 1,
            da,
            label,
            buffer,
            offset: 0,
            dirty: false,
            label_changed: false,
            resized: false,
            closed: false,
            consecutive_hint: leader.maybe_consecutive,
            readahead: crate::pool::readahead_vec(),
            medium_epoch,
            write_behind: crate::pool::parked_vec(),
            write_behind_enabled: true,
            drain_scratch: crate::pool::parked_vec(),
            write_results: crate::pool::labels_vec(),
            read_results: crate::pool::reads_vec(),
            _disk: std::marker::PhantomData,
        })
    }

    /// Current absolute byte position (non-standard operation).
    pub fn position(&self) -> u64 {
        (self.page as u64 - 1) * PAGE_BYTES as u64 + self.offset as u64
    }

    /// Seeks to an absolute byte position within the file (non-standard
    /// operation). Positions up to and including the end are valid.
    pub fn set_position(&mut self, fs: &mut FileSystem<D>, pos: u64) -> Result<(), StreamError> {
        self.check_open()?;
        let target_page = (pos / PAGE_BYTES as u64) as u16 + 1;
        let mut target_offset = (pos % PAGE_BYTES as u64) as usize;
        if target_page != self.page {
            self.flush(fs)?;
            // Walk from the current page if the target is ahead, else from
            // page 1 via the leader.
            let (mut page, mut da) = if target_page > self.page {
                (self.page, self.da)
            } else {
                let (leader_label, _) = fs.open_leader(self.file)?;
                (1, leader_label.next)
            };
            loop {
                let pn = PageName::new(self.file.fv, page, da);
                let (label, buffer) = fs.read_page(pn)?;
                // The end of a file whose last page is full lies just past
                // that page: land at the end of the page itself.
                let full_end = page + 1 == target_page
                    && target_offset == 0
                    && label.next.is_nil()
                    && label.length as usize == PAGE_BYTES;
                if full_end {
                    target_offset = PAGE_BYTES;
                }
                if page == target_page || full_end {
                    self.page = page;
                    self.da = da;
                    self.label = label;
                    self.buffer = buffer;
                    break;
                }
                if label.next.is_nil() {
                    return Err(StreamError::Fs(FsError::PastEnd {
                        page: target_page,
                        last: page,
                    }));
                }
                page += 1;
                da = label.next;
            }
        }
        if target_offset > self.label.length as usize {
            return Err(StreamError::Fs(FsError::PastEnd {
                page: target_page,
                last: self.page,
            }));
        }
        self.offset = target_offset;
        Ok(())
    }

    /// The file this stream is open on.
    pub fn file(&self) -> FileFullName {
        self.file
    }

    /// Writes everything pending back to the medium: first the parked
    /// write-behind pages (one chained batch), then the current page if
    /// modified.
    pub fn flush(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.drain(fs)?;
        if !self.dirty {
            return Ok(());
        }
        let pn = PageName::new(self.file.fv, self.page, self.da);
        if self.label_changed {
            alto_fs::page::rewrite_label(fs.disk_mut(), pn, self.label, &self.buffer)?;
        } else {
            fs.write_page(pn, &self.buffer)?;
        }
        self.dirty = false;
        self.label_changed = false;
        Ok(())
    }

    /// Enables or disables write-behind (on by default). Turning it off
    /// drains anything parked and restores one synchronous flush per page
    /// crossing — the old write path, kept runnable as an ablation in the
    /// same spirit as `UnscheduledDisk`.
    pub fn set_write_behind(
        &mut self,
        fs: &mut FileSystem<D>,
        enabled: bool,
    ) -> Result<(), StreamError> {
        if !enabled {
            self.drain(fs)?;
        }
        self.write_behind_enabled = enabled;
        Ok(())
    }

    /// Writes all parked pages back as one chained batch. Each page is an
    /// ordinary data write at its known address whose label check must
    /// pass before the value transfers (§3.3), so a conflicting foreign
    /// change surfaces as an error here rather than corrupting anything.
    /// The batch bumps the write epoch once for this stream's purposes:
    /// its own readahead stays valid (the parked pages all lie behind the
    /// read cursor), so the epoch is re-stamped after the drain.
    fn drain(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        if self.write_behind.is_empty() {
            return Ok(());
        }
        // Swap the parked pages into the warm double buffer (and the warm
        // output vectors out of self) so a steady-state drain reuses the
        // same storage every time.
        let mut writes = std::mem::replace(
            &mut self.write_behind,
            std::mem::take(&mut self.drain_scratch),
        );
        let mut write_results = std::mem::take(&mut self.write_results);
        let mut read_results = std::mem::take(&mut self.read_results);
        let outcome = alto_fs::page::drain_and_prefetch_into(
            fs.disk_mut(),
            self.file.fv,
            &writes,
            None,
            0,
            &mut write_results,
            &mut read_results,
        );
        self.read_results = read_results;
        if let Err(e) = outcome {
            // Pre-flight failure: the batch never reached the disk,
            // so every parked page is still owed.
            self.drain_scratch = std::mem::replace(&mut self.write_behind, writes);
            self.write_results = write_results;
            return Err(e.into());
        }
        fs.disk_mut().note_write_behind(writes.len() as u64);
        self.medium_epoch = fs.disk().write_epoch();
        let result = self.repark_failed(fs, &writes, &mut write_results);
        writes.clear();
        self.drain_scratch = writes;
        self.write_results = write_results;
        result
    }

    /// Puts any page whose drain write failed back in the write-behind
    /// buffer and reports the first failure. A failed write must not be
    /// silently dropped with the drained batch: the page stays owed to the
    /// medium and surfaces again on the next drain, `flush` or `close` if
    /// it is still undeliverable.
    fn repark_failed(
        &mut self,
        fs: &mut FileSystem<D>,
        writes: &[(u16, DiskAddress, [u16; DATA_WORDS])],
        results: &mut Vec<Result<Label, FsError>>,
    ) -> Result<(), StreamError> {
        let mut first_err = None;
        for (w, r) in writes.iter().zip(results.drain(..)) {
            match r {
                Ok(_) => fs.disk_mut().note_unpark(w.1, w.0, UnparkOutcome::Drained),
                Err(e) => {
                    fs.disk_mut().note_unpark(w.1, w.0, UnparkOutcome::Reparked);
                    self.write_behind.push(*w);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Crossing out of the current page: park it dirty for a delayed write,
    /// or flush synchronously when write-behind is off or the label changed
    /// (a label rewrite is a check pass plus a write pass on one sector and
    /// cannot ride in a chained data batch).
    fn park_or_flush(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        if !self.dirty {
            return Ok(());
        }
        if !self.write_behind_enabled || self.label_changed {
            return self.flush(fs);
        }
        fs.disk_mut().note_park(self.da, self.page);
        self.write_behind.push((self.page, self.da, self.buffer));
        self.dirty = false;
        Ok(())
    }

    /// The shared page-crossing step of [`Self::get_byte`],
    /// [`Self::put_byte`] and the bulk slice paths: hands the current page
    /// to the write-behind buffer (or flushes it) and advances to the next
    /// page of the chain.
    fn advance_to_next_page(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.park_or_flush(fs)?;
        let (next_page, next_da) = (self.page + 1, self.label.next);
        self.advance_page(fs, next_page, next_da)
    }

    fn check_open(&self) -> Result<(), StreamError> {
        if self.closed {
            Err(StreamError::Closed)
        } else {
            Ok(())
        }
    }

    fn load_page(
        &mut self,
        fs: &mut FileSystem<D>,
        page: u16,
        da: DiskAddress,
    ) -> Result<(), StreamError> {
        let pn = PageName::new(self.file.fv, page, da);
        let (label, buffer) = fs.read_page(pn)?;
        self.page = page;
        self.da = da;
        self.label = label;
        self.buffer = buffer;
        self.offset = 0;
        Ok(())
    }

    /// Moves to `(page, da)`, serving from the readahead buffer when it is
    /// still fresh and refilling it with a chained guessed batch (§3.6)
    /// when the leader hints the file is consecutively laid out. A refill
    /// drains the write-behind buffer in the *same* batch: in the steady
    /// sequential-write state one command set-up and one rotational
    /// schedule cover [`WRITE_BEHIND_PAGES`] writes behind the cursor plus
    /// [`READAHEAD_PAGES`] reads ahead of it.
    fn advance_page(
        &mut self,
        fs: &mut FileSystem<D>,
        page: u16,
        da: DiskAddress,
    ) -> Result<(), StreamError> {
        // A *foreign* write to the medium since this stream's last drain or
        // refill may have moved, freed or rewritten the buffered pages:
        // drop the prefetched copies, and get the parked pages to their
        // label checks promptly (the checks arbitrate any conflict).
        if fs.disk().write_epoch() != self.medium_epoch {
            self.readahead.clear();
            self.drain(fs)?;
        }
        if let Some(i) = self.readahead.iter().position(|e| e.0 == page && e.1 == da) {
            // Buffer pressure: drain before yet another page parks. The
            // prefetched copies survive the stream's own drain — the parked
            // pages lie behind the cursor, the prefetched ones ahead.
            if self.write_behind.len() >= WRITE_BEHIND_PAGES {
                self.drain(fs)?;
            }
            let (p, d, label, buffer) = self.readahead.remove(i);
            fs.disk_mut().note_readahead(1, 0);
            self.page = p;
            self.da = d;
            self.label = label;
            self.buffer = buffer;
            self.offset = 0;
            return Ok(());
        }
        self.readahead.clear();
        if self.consecutive_hint {
            let mut writes = std::mem::replace(
                &mut self.write_behind,
                std::mem::take(&mut self.drain_scratch),
            );
            let mut write_results = std::mem::take(&mut self.write_results);
            let mut entries = std::mem::take(&mut self.read_results);
            match alto_fs::page::drain_and_prefetch_into(
                fs.disk_mut(),
                self.file.fv,
                &writes,
                Some(PageName::new(self.file.fv, page, da)),
                READAHEAD_PAGES,
                &mut write_results,
                &mut entries,
            ) {
                Ok(()) => {
                    if !writes.is_empty() {
                        fs.disk_mut().note_write_behind(writes.len() as u64);
                    }
                    self.medium_epoch = fs.disk().write_epoch();
                    let reparked = self.repark_failed(fs, &writes, &mut write_results);
                    writes.clear();
                    self.drain_scratch = writes;
                    self.write_results = write_results;
                    reparked?;
                    let mut drained = entries.drain(..);
                    let first = drained.next();
                    if let Some(Ok((label, buffer))) = first {
                        // Keep followers only while the verified links
                        // confirm the guessed consecutive run.
                        let mut expect_next = label.next;
                        let mut prefetched = 0u64;
                        for (j, entry) in drained.enumerate() {
                            let Ok((l, d)) = entry else { break };
                            let guess = DiskAddress(da.0.wrapping_add(j as u16 + 1));
                            if expect_next != guess {
                                break;
                            }
                            self.readahead.push((page + j as u16 + 1, guess, l, d));
                            prefetched += 1;
                            expect_next = l.next;
                        }
                        self.read_results = entries;
                        if prefetched > 0 {
                            fs.disk_mut().note_readahead(0, prefetched);
                        }
                        self.page = page;
                        self.da = da;
                        self.label = label;
                        self.buffer = buffer;
                        self.offset = 0;
                        return Ok(());
                    }
                    drop(drained);
                    self.read_results = entries;
                    // Entry 0 failed: the hint chain is authoritative
                    // there, so let the ordinary path (with its hint
                    // recovery) handle it. The drain already happened.
                }
                Err(e) => {
                    // The batch never reached the disk (pre-flight error):
                    // nothing landed, so the parked pages are still owed.
                    self.drain_scratch = std::mem::replace(&mut self.write_behind, writes);
                    self.write_results = write_results;
                    self.read_results = entries;
                    return Err(e.into());
                }
            }
        }
        self.drain(fs)?;
        self.load_page(fs, page, da)
    }

    fn byte_at(&self, i: usize) -> u8 {
        let w = self.buffer[i / 2];
        if i.is_multiple_of(2) {
            (w >> 8) as u8
        } else {
            w as u8
        }
    }

    fn set_byte(&mut self, i: usize, b: u8) {
        let w = &mut self.buffer[i / 2];
        if i.is_multiple_of(2) {
            *w = (*w & 0x00FF) | ((b as u16) << 8);
        } else {
            *w = (*w & 0xFF00) | b as u16;
        }
    }

    /// Gets the next byte.
    pub fn get_byte(&mut self, fs: &mut FileSystem<D>) -> Result<u8, StreamError> {
        self.check_open()?;
        loop {
            if self.offset < self.label.length as usize {
                let b = self.byte_at(self.offset);
                self.offset += 1;
                return Ok(b);
            }
            // At the end of this page's data.
            if (self.label.length as usize) < PAGE_BYTES || self.label.next.is_nil() {
                return Err(StreamError::EndOfStream);
            }
            self.advance_to_next_page(fs)?;
        }
    }

    /// Puts a byte at the current position (overwriting or extending).
    pub fn put_byte(&mut self, fs: &mut FileSystem<D>, b: u8) -> Result<(), StreamError> {
        self.check_open()?;
        if self.offset == PAGE_BYTES {
            // Page full: move to (or create) the next page.
            if self.label.next.is_nil() {
                self.extend(fs)?;
            } else {
                self.advance_to_next_page(fs)?;
            }
        }
        self.set_byte(self.offset, b);
        self.offset += 1;
        self.dirty = true;
        if self.offset > self.label.length as usize {
            self.label.length = self.offset as u16;
            self.label_changed = true;
            self.resized = true;
        }
        Ok(())
    }

    /// Copies `out.len()` bytes out of `words` starting at byte `start`.
    /// Bytes sit big-endian in the 16-bit words; the odd edges are peeled
    /// off so the body is whole-word slice copies.
    fn copy_out(words: &[u16; DATA_WORDS], start: usize, out: &mut [u8]) {
        let mut i = 0;
        let mut pos = start;
        if !pos.is_multiple_of(2) && i < out.len() {
            out[i] = words[pos / 2] as u8;
            i += 1;
            pos += 1;
        }
        let pairs = (out.len() - i) / 2;
        for (chunk, &w) in out[i..i + 2 * pairs]
            .chunks_exact_mut(2)
            .zip(&words[pos / 2..])
        {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        i += 2 * pairs;
        pos += 2 * pairs;
        if i < out.len() {
            out[i] = (words[pos / 2] >> 8) as u8;
        }
    }

    /// Copies `bytes` into `words` starting at byte `start` (the converse
    /// of [`Self::copy_out`]; partial words at the edges are merged).
    fn copy_in(words: &mut [u16; DATA_WORDS], start: usize, bytes: &[u8]) {
        let mut i = 0;
        let mut pos = start;
        if !pos.is_multiple_of(2) && i < bytes.len() {
            let w = &mut words[pos / 2];
            *w = (*w & 0xFF00) | bytes[i] as u16;
            i += 1;
            pos += 1;
        }
        let pairs = (bytes.len() - i) / 2;
        for (chunk, w) in bytes[i..i + 2 * pairs]
            .chunks_exact(2)
            .zip(&mut words[pos / 2..])
        {
            *w = u16::from_be_bytes([chunk[0], chunk[1]]);
        }
        i += 2 * pairs;
        pos += 2 * pairs;
        if i < bytes.len() {
            let w = &mut words[pos / 2];
            *w = (*w & 0x00FF) | ((bytes[i] as u16) << 8);
        }
    }

    /// Reads up to `out.len()` bytes, moving whole runs out of the page
    /// buffer with slice copies instead of per-byte dispatch — the bulk
    /// fast path. Short only at the end of the stream.
    pub fn read_bytes(
        &mut self,
        fs: &mut FileSystem<D>,
        out: &mut [u8],
    ) -> Result<usize, StreamError> {
        self.check_open()?;
        let mut done = 0;
        while done < out.len() {
            let avail = (self.label.length as usize).saturating_sub(self.offset);
            if avail == 0 {
                if (self.label.length as usize) < PAGE_BYTES || self.label.next.is_nil() {
                    break;
                }
                self.advance_to_next_page(fs)?;
                continue;
            }
            let n = avail.min(out.len() - done);
            Self::copy_out(&self.buffer, self.offset, &mut out[done..done + n]);
            self.offset += n;
            done += n;
        }
        Ok(done)
    }

    /// Writes all of `bytes`, moving whole runs into the page buffer with
    /// slice copies. Page crossings ride the same write-behind machinery
    /// as [`Self::put_byte`], so a long sequential write drains in chained
    /// batches.
    pub fn write_bytes(&mut self, fs: &mut FileSystem<D>, bytes: &[u8]) -> Result<(), StreamError> {
        self.check_open()?;
        let mut done = 0;
        while done < bytes.len() {
            if self.offset == PAGE_BYTES {
                if self.label.next.is_nil() {
                    self.extend(fs)?;
                } else {
                    self.advance_to_next_page(fs)?;
                }
            }
            let n = (PAGE_BYTES - self.offset).min(bytes.len() - done);
            Self::copy_in(&mut self.buffer, self.offset, &bytes[done..done + n]);
            self.offset += n;
            done += n;
            self.dirty = true;
            if self.offset > self.label.length as usize {
                self.label.length = self.offset as u16;
                self.label_changed = true;
                self.resized = true;
            }
        }
        Ok(())
    }

    /// Allocates a fresh page after the current (full) one.
    fn extend(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        debug_assert_eq!(self.label.length as usize, PAGE_BYTES);
        let new_label = Label {
            fid: self.file.fv.serial.words(),
            version: self.file.fv.version,
            page_number: self.page + 1,
            length: 0,
            next: DiskAddress::NIL,
            prev: self.da,
        };
        let new_da = fs.allocate_page(
            Some(DiskAddress(self.da.0.wrapping_add(1))),
            new_label,
            &[0; DATA_WORDS],
        )?;
        // The current page's next link changes: rewrite its label along
        // with the buffered data (one revolution, §3.3).
        self.label.next = new_da;
        let pn = PageName::new(self.file.fv, self.page, self.da);
        alto_fs::page::rewrite_label(fs.disk_mut(), pn, self.label, &self.buffer)?;
        self.dirty = false;
        self.label_changed = false;
        self.resized = true;
        self.page += 1;
        self.da = new_da;
        self.label = new_label;
        self.buffer = [0; DATA_WORDS];
        self.offset = 0;
        Ok(())
    }

    /// Flushes and refreshes the leader (dates and last-page hints).
    fn finish(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.flush(fs)?;
        if self.resized {
            // Find the file's last page (usually the current one).
            let (mut page, mut da, mut label) = (self.page, self.da, self.label);
            while !label.next.is_nil() {
                page += 1;
                da = label.next;
                let (l, _) = fs.read_page(PageName::new(self.file.fv, page, da))?;
                label = l;
            }
            let mut leader = fs.read_leader(self.file)?;
            leader.last_page = page;
            leader.last_da = da;
            leader.written = fs.now();
            fs.write_leader(self.file, &leader)?;
            self.resized = false;
        }
        Ok(())
    }
}

impl<D: Disk> Stream<FileSystem<D>> for DiskByteStream<D> {
    fn get(&mut self, fs: &mut FileSystem<D>) -> Result<u16, StreamError> {
        self.get_byte(fs).map(u16::from)
    }

    fn put(&mut self, fs: &mut FileSystem<D>, item: u16) -> Result<(), StreamError> {
        self.put_byte(fs, item as u8)
    }

    fn read_bytes(&mut self, fs: &mut FileSystem<D>, out: &mut [u8]) -> Result<usize, StreamError> {
        DiskByteStream::read_bytes(self, fs, out)
    }

    fn write_bytes(&mut self, fs: &mut FileSystem<D>, bytes: &[u8]) -> Result<(), StreamError> {
        DiskByteStream::write_bytes(self, fs, bytes)
    }

    fn reset(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.check_open()?;
        self.finish(fs)?;
        let (leader_label, _) = fs.open_leader(self.file)?;
        self.load_page(fs, 1, leader_label.next)?;
        Ok(())
    }

    fn endof(&mut self, _fs: &mut FileSystem<D>) -> Result<bool, StreamError> {
        self.check_open()?;
        Ok(self.offset >= self.label.length as usize && self.label.next.is_nil())
    }

    fn close(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        if self.closed {
            return Ok(());
        }
        self.finish(fs)?;
        self.closed = true;
        Ok(())
    }
}

impl<D: Disk> Drop for DiskByteStream<D> {
    /// Hands the stream's working vectors back to the thread-local free
    /// lists so a steady open/transfer/close cycle reuses their capacity.
    /// Dropping an unclosed stream still abandons its parked pages — the
    /// recycle clears contents; only the allocations survive.
    fn drop(&mut self) {
        crate::pool::recycle_readahead(std::mem::take(&mut self.readahead));
        crate::pool::recycle_parked(std::mem::take(&mut self.write_behind));
        crate::pool::recycle_parked(std::mem::take(&mut self.drain_scratch));
        crate::pool::recycle_labels(std::mem::take(&mut self.write_results));
        crate::pool::recycle_reads(std::mem::take(&mut self.read_results));
    }
}

/// A word-granularity stream over a disk file: each item is one 16-bit
/// word (two file bytes, big-endian).
#[derive(Debug)]
pub struct DiskWordStream<D: Disk> {
    inner: DiskByteStream<D>,
}

impl<D: Disk> DiskWordStream<D> {
    /// Opens a word stream on `file`.
    pub fn open(fs: &mut FileSystem<D>, file: FileFullName) -> Result<Self, StreamError> {
        Ok(DiskWordStream {
            inner: DiskByteStream::open(fs, file)?,
        })
    }

    /// Current position in words (non-standard operation).
    pub fn position(&self) -> u64 {
        self.inner.position() / 2
    }

    /// Seeks to a word position (non-standard operation).
    pub fn set_position(&mut self, fs: &mut FileSystem<D>, words: u64) -> Result<(), StreamError> {
        self.inner.set_position(fs, words * 2)
    }
}

impl<D: Disk> Stream<FileSystem<D>> for DiskWordStream<D> {
    fn get(&mut self, fs: &mut FileSystem<D>) -> Result<u16, StreamError> {
        let hi = self.inner.get_byte(fs)?;
        let lo = self.inner.get_byte(fs)?;
        Ok(((hi as u16) << 8) | lo as u16)
    }

    fn put(&mut self, fs: &mut FileSystem<D>, item: u16) -> Result<(), StreamError> {
        self.inner.put_byte(fs, (item >> 8) as u8)?;
        self.inner.put_byte(fs, item as u8)
    }

    fn reset(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.inner.reset(fs)
    }

    fn endof(&mut self, fs: &mut FileSystem<D>) -> Result<bool, StreamError> {
        self.inner.endof(fs)
    }

    fn close(&mut self, fs: &mut FileSystem<D>) -> Result<(), StreamError> {
        self.inner.close(fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_sim::{SimClock, Trace};

    type Fs = FileSystem<DiskDrive>;

    fn fresh_fs() -> Fs {
        let drive =
            DiskDrive::with_formatted_pack(SimClock::new(), Trace::new(), DiskModel::Diablo31, 1);
        FileSystem::format(drive).unwrap()
    }

    fn file_named(fs: &mut Fs, name: &str) -> FileFullName {
        let root = fs.root_dir();
        alto_fs::dir::create_named_file(fs, root, name).unwrap()
    }

    #[test]
    fn write_then_read_small() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "s.txt");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for b in b"stream me" {
            s.put_byte(&mut fs, *b).unwrap();
        }
        s.close(&mut fs).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), b"stream me");
    }

    #[test]
    fn read_via_stream() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "s.txt");
        fs.write_file(f, b"abc").unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert!(!s.endof(&mut fs).unwrap());
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'a');
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'b');
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'c');
        assert!(s.endof(&mut fs).unwrap());
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
    }

    #[test]
    fn multi_page_write_and_read_back() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "big.dat");
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for &b in &bytes {
            s.put_byte(&mut fs, b).unwrap();
        }
        s.close(&mut fs).unwrap();
        assert_eq!(fs.read_file(f).unwrap(), bytes);
        // And read back through a fresh stream.
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        let mut back = Vec::new();
        loop {
            match s.get_byte(&mut fs) {
                Ok(b) => back.push(b),
                Err(StreamError::EndOfStream) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(back, bytes);
    }

    #[test]
    fn overwrite_in_place_is_ordinary_writes() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "w.dat");
        fs.write_file(f, &vec![0u8; 1000]).unwrap();
        let label_writes_before = fs.disk().stats().label_writes;
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1000 {
            s.put_byte(&mut fs, 7).unwrap();
        }
        s.close(&mut fs).unwrap();
        // Same length, same pages: no label was rewritten.
        assert_eq!(fs.disk().stats().label_writes, label_writes_before);
        assert_eq!(fs.read_file(f).unwrap(), vec![7u8; 1000]);
    }

    #[test]
    fn growing_rewrites_labels() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "g.dat");
        let before = fs.disk().stats().label_writes;
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..600 {
            s.put_byte(&mut fs, 1).unwrap();
        }
        s.close(&mut fs).unwrap();
        // Page 1's length changed and a page was allocated: labels written.
        assert!(fs.disk().stats().label_writes > before);
        assert_eq!(fs.file_length(f).unwrap(), 600);
    }

    #[test]
    fn reset_rewinds() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "r.dat");
        fs.write_file(f, b"xyz").unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'x');
        s.reset(&mut fs).unwrap();
        assert_eq!(s.get_byte(&mut fs).unwrap(), b'x');
    }

    #[test]
    fn position_and_seek() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "p.dat");
        let bytes: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_position(&mut fs, 1500).unwrap();
        assert_eq!(s.position(), 1500);
        assert_eq!(s.get_byte(&mut fs).unwrap(), (1500 % 256) as u8);
        // Seek backwards.
        s.set_position(&mut fs, 3).unwrap();
        assert_eq!(s.get_byte(&mut fs).unwrap(), 3);
        // Seek to the very end: valid position, instant end-of-stream.
        s.set_position(&mut fs, 2000).unwrap();
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
        // Past the end: error.
        assert!(s.set_position(&mut fs, 3000).is_err());
    }

    #[test]
    fn seek_to_the_end_of_a_page_aligned_file_appends() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "aligned.dat");
        let bytes: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_position(&mut fs, 1024).unwrap();
        assert_eq!(s.position(), 1024);
        s.put_byte(&mut fs, 0xEE).unwrap();
        s.close(&mut fs).unwrap();
        let back = fs.read_file(f).unwrap();
        assert_eq!(back.len(), 1025);
        assert_eq!(back[..1024], bytes[..]);
        assert_eq!(back[1024], 0xEE);
    }

    #[test]
    fn seek_preserves_pending_writes() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "sw.dat");
        fs.write_file(f, &vec![0u8; 1024]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.put_byte(&mut fs, 0xAA).unwrap(); // dirty page 1
        s.set_position(&mut fs, 600).unwrap(); // crosses to page 2: flush
        s.put_byte(&mut fs, 0xBB).unwrap();
        s.close(&mut fs).unwrap();
        let bytes = fs.read_file(f).unwrap();
        assert_eq!(bytes[0], 0xAA);
        assert_eq!(bytes[600], 0xBB);
    }

    #[test]
    fn word_stream_round_trip() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "w.words");
        let words: Vec<u16> = (0..700u16).map(|i| i.wrapping_mul(257)).collect();
        let mut s = DiskWordStream::open(&mut fs, f).unwrap();
        crate::write_all(&mut s, &mut fs, &words).unwrap();
        s.close(&mut fs).unwrap();
        let mut s = DiskWordStream::open(&mut fs, f).unwrap();
        assert_eq!(crate::read_all(&mut s, &mut fs).unwrap(), words);
    }

    #[test]
    fn word_stream_seek() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "w2.words");
        let words: Vec<u16> = (0..700u16).collect();
        let mut s = DiskWordStream::open(&mut fs, f).unwrap();
        crate::write_all(&mut s, &mut fs, &words).unwrap();
        s.set_position(&mut fs, 300).unwrap();
        assert_eq!(s.get(&mut fs).unwrap(), 300);
        assert_eq!(s.position(), 301);
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn leader_hints_updated_on_close() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "h.dat");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1200 {
            s.put_byte(&mut fs, 9).unwrap();
        }
        s.close(&mut fs).unwrap();
        let leader = fs.read_leader(f).unwrap();
        assert_eq!(leader.last_page, 3);
        let (label, _) = fs
            .read_page(PageName::new(f.fv, 3, leader.last_da))
            .unwrap();
        assert_eq!(label.length, 1200 - 1024);
    }

    #[test]
    fn closed_stream_rejects_io() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "c.dat");
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.close(&mut fs).unwrap();
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::Closed));
        assert_eq!(s.put_byte(&mut fs, 1), Err(StreamError::Closed));
        // Closing twice is fine.
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn sequential_read_uses_readahead() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "seq.dat");
        let bytes: Vec<u8> = (0..2500u32).map(|i| (i % 241) as u8).collect();
        fs.write_file(f, &bytes).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        let mut back = Vec::new();
        loop {
            match s.get_byte(&mut fs) {
                Ok(b) => back.push(b),
                Err(StreamError::EndOfStream) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(back, bytes);
        // Five pages: the crossing into page 2 prefetches 3..5; the three
        // later crossings are served from memory.
        let stats = fs.disk().stats();
        assert_eq!(stats.readahead_prefetched, 3);
        assert_eq!(stats.readahead_hits, 3);
    }

    #[test]
    fn readahead_is_dropped_when_the_file_is_rewritten() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "fresh.dat");
        let old: Vec<u8> = vec![1; 2500];
        let new: Vec<u8> = vec![2; 2500];
        fs.write_file(f, &old).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Read pages 1-2 exactly; crossing into page 2 prefetched 3..5.
        for _ in 0..1024 {
            s.get_byte(&mut fs).unwrap();
        }
        // Rewrite the whole file behind the stream's back (same pages, same
        // addresses — a cache keyed by address alone would go stale).
        fs.write_file(f, &new).unwrap();
        // Everything from the next page crossing on must be the new data.
        for (i, &want) in new.iter().enumerate().skip(1024) {
            assert_eq!(s.get_byte(&mut fs).unwrap(), want, "byte {i}");
        }
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
    }

    #[test]
    fn readahead_never_masks_a_truncation() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "trunc.dat");
        fs.write_file(f, &vec![1u8; 2500]).unwrap(); // 5 pages
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1024 {
            s.get_byte(&mut fs).unwrap();
        }
        // Truncate to 3 pages of new data while pages 3..5 sit prefetched.
        let new: Vec<u8> = vec![3u8; 1536];
        fs.write_file(f, &new).unwrap();
        // Page 3 must come back fresh — and the stream must end there, not
        // run on through the stale (now freed) pages 4 and 5.
        for (i, &want) in new.iter().enumerate().skip(1024) {
            assert_eq!(s.get_byte(&mut fs).unwrap(), want, "byte {i}");
        }
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
    }

    #[test]
    fn interleaved_stream_writes_invalidate_readahead() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "mix.dat");
        fs.write_file(f, &vec![0u8; 2500]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..1024 {
            s.get_byte(&mut fs).unwrap(); // prefetches pages 3..5
        }
        // Write one byte into page 4 through a second stream.
        let mut w = DiskByteStream::open(&mut fs, f).unwrap();
        w.set_position(&mut fs, 3 * 512 + 7).unwrap();
        w.put_byte(&mut fs, 0xCC).unwrap();
        w.close(&mut fs).unwrap();
        // Keep reading sequentially: page 4 was prefetched *before* the
        // write, so a cache that survived it would serve the old byte.
        for i in 1024..2500 {
            let expect = if i == 3 * 512 + 7 { 0xCC } else { 0 };
            assert_eq!(s.get_byte(&mut fs).unwrap(), expect, "byte {i}");
        }
        assert_eq!(s.get_byte(&mut fs), Err(StreamError::EndOfStream));
    }

    #[test]
    fn parked_pages_are_absent_until_drained() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "wb.dat");
        fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Cross into page 5: page 1 drained with the first readahead
        // refill, pages 2..4 still parked in the write-behind buffer.
        for _ in 0..(4 * 512 + 10) {
            s.put_byte(&mut fs, 7).unwrap();
        }
        let on_disk = fs.read_file(f).unwrap();
        assert_eq!(&on_disk[..512], &[7u8; 512][..], "page 1 was drained");
        assert_eq!(
            &on_disk[512..1024],
            &[0u8; 512][..],
            "page 2 is parked, not yet on the medium"
        );
        // An explicit flush drains the parked pages as one chained batch.
        s.flush(&mut fs).unwrap();
        let on_disk = fs.read_file(f).unwrap();
        assert_eq!(&on_disk[..4 * 512 + 10], &[7u8; 4 * 512 + 10][..]);
        let stats = fs.disk().io_stats();
        assert_eq!(stats.wb_drains, 2);
        assert_eq!(stats.wb_coalesced, 4);
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn failed_drain_write_reparks_and_surfaces_on_flush() {
        use alto_disk::FaultKind;
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "park.dat");
        fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
        let page1_da = fs.open_leader(f).unwrap().0.next;
        let page2_da = fs
            .read_page(PageName::new(f.fv, 1, page1_da))
            .unwrap()
            .0
            .next;
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Cross into page 5: page 1 drains with the readahead refill,
        // pages 2..4 park in the write-behind buffer.
        for _ in 0..(4 * 512 + 10) {
            s.put_byte(&mut fs, 9).unwrap();
        }
        // Page 2's parked write will fail past the retry limit.
        fs.disk_mut()
            .injector_mut()
            .arm(page2_da, FaultKind::NotReady { attempts: 100 });
        assert!(s.flush(&mut fs).is_err(), "drain must surface the failure");
        // The page re-parked rather than being dropped: a second flush
        // still owes the write and still fails.
        assert!(s.flush(&mut fs).is_err(), "the page is still owed");
        assert_eq!(
            &fs.read_file(f).unwrap()[512..1024],
            &[0u8; 512][..],
            "the failed write must not land"
        );
        // Once the drive recovers, the parked page drains and every byte
        // the caller wrote is on the medium.
        fs.disk_mut().injector_mut().disarm(page2_da);
        s.flush(&mut fs).unwrap();
        s.close(&mut fs).unwrap();
        let on_disk = fs.read_file(f).unwrap();
        assert_eq!(&on_disk[..4 * 512 + 10], &[9u8; 4 * 512 + 10][..]);
        let stats = fs.disk().io_stats();
        assert!(stats.hard_failures >= 2);
    }

    #[test]
    fn bulk_round_trip_with_odd_edges() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "bulk.dat");
        let bytes: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        // Start the bulk write at an odd byte offset.
        s.put_byte(&mut fs, 0xEE).unwrap();
        s.write_bytes(&mut fs, &bytes).unwrap();
        s.close(&mut fs).unwrap();
        let mut want = vec![0xEE];
        want.extend_from_slice(&bytes);
        assert_eq!(fs.read_file(f).unwrap(), want);
        // Read back in ragged chunks through a fresh stream.
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        let mut back = Vec::new();
        let mut chunk = [0u8; 7];
        loop {
            let n = s.read_bytes(&mut fs, &mut chunk).unwrap();
            back.extend_from_slice(&chunk[..n]);
            if n < chunk.len() {
                break;
            }
        }
        assert_eq!(back, want);
        // And an odd-offset seek followed by a large read.
        s.set_position(&mut fs, 1001).unwrap();
        let mut tail = vec![0u8; 800];
        assert_eq!(s.read_bytes(&mut fs, &mut tail).unwrap(), 800);
        assert_eq!(tail, &want[1001..1801]);
        s.close(&mut fs).unwrap();
    }

    #[test]
    fn write_behind_off_never_parks() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "abl.dat");
        fs.write_file(f, &vec![0u8; 6 * 512]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        s.set_write_behind(&mut fs, false).unwrap();
        for _ in 0..(3 * 512) {
            s.put_byte(&mut fs, 9).unwrap();
        }
        s.close(&mut fs).unwrap();
        assert_eq!(fs.disk().io_stats().wb_drains, 0);
        assert_eq!(&fs.read_file(f).unwrap()[..3 * 512], &[9u8; 3 * 512][..]);
    }

    #[test]
    fn readahead_survives_the_streams_own_drain() {
        let mut fs = fresh_fs();
        let f = file_named(&mut fs, "ra.dat");
        fs.write_file(f, &vec![0u8; 8 * 512]).unwrap();
        let mut s = DiskByteStream::open(&mut fs, f).unwrap();
        for _ in 0..(8 * 512) {
            s.put_byte(&mut fs, 5).unwrap();
        }
        s.close(&mut fs).unwrap();
        // Crossings into pages 3..5 and 7..8 are served from the readahead
        // buffer: the stream's own drains re-stamp the epoch instead of
        // poisoning its prefetched copies.
        let stats = fs.disk().stats();
        assert_eq!(stats.readahead_hits, 5);
        assert_eq!(fs.read_file(f).unwrap(), vec![5u8; 8 * 512]);
    }

    #[test]
    fn two_streams_on_different_files() {
        let mut fs = fresh_fs();
        let a = file_named(&mut fs, "a.dat");
        let b = file_named(&mut fs, "b.dat");
        let mut sa = DiskByteStream::open(&mut fs, a).unwrap();
        let mut sb = DiskByteStream::open(&mut fs, b).unwrap();
        for i in 0..100u8 {
            sa.put_byte(&mut fs, i).unwrap();
            sb.put_byte(&mut fs, 100 - i).unwrap();
        }
        sa.close(&mut fs).unwrap();
        sb.close(&mut fs).unwrap();
        assert_eq!(fs.read_file(a).unwrap()[3], 3);
        assert_eq!(fs.read_file(b).unwrap()[3], 97);
    }
}
