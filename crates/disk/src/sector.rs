//! Sectors and sector operations.
//!
//! The physical representation of a page is a *sector* with three parts —
//! header, label, value (§3.3). A single disk operation performs a read,
//! check or write action independently on each part, in that order, with the
//! restriction that once a write is begun it must continue through the rest
//! of the sector. A check compares disk words against memory words, treating
//! a memory word of 0 as a wildcard that is replaced by the disk word; the
//! first mismatch aborts the entire operation before anything later is
//! written.
//!
//! This module implements those semantics as a pure state transformation
//! ([`apply`]); the drive adds geometry, timing and fault injection.

use crate::errors::{CheckFailure, DiskError, SectorPart};
use crate::geometry::DiskAddress;
use crate::label::{Label, LABEL_WORDS};

/// Number of data words in a sector's value part.
pub const DATA_WORDS: usize = 256;

/// Number of words in a sector's header part: pack number and disk address.
pub const HEADER_WORDS: usize = 2;

/// The on-disk contents of one sector.
///
/// `#[repr(C)]` fixes the part order (header, label, value) so the typed
/// views in [`crate::view`] can treat a sector as one contiguous word slab.
#[repr(C)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sector {
    /// Header words: `[pack_number, disk_address]`.
    pub header: [u16; HEADER_WORDS],
    /// The seven label words.
    pub label: [u16; LABEL_WORDS],
    /// The 256 data words.
    pub data: [u16; DATA_WORDS],
}

impl Sector {
    /// A freshly formatted sector: correct header, free (all-ones) label,
    /// all-ones data (§3.3 — freeing writes ones into label and value).
    pub fn formatted(pack_number: u16, da: DiskAddress) -> Sector {
        Sector {
            header: [pack_number, da.0],
            label: Label::FREE.encode(),
            data: [u16::MAX; DATA_WORDS],
        }
    }

    /// Decodes this sector's label.
    pub fn decoded_label(&self) -> Label {
        Label::decode(&self.label)
    }
}

/// The memory-side buffers involved in a sector operation.
///
/// Read actions fill these from the disk; check actions compare against them
/// (filling wildcard words); write actions copy them to the disk.
#[repr(C)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectorBuf {
    /// Header buffer.
    pub header: [u16; HEADER_WORDS],
    /// Label buffer.
    pub label: [u16; LABEL_WORDS],
    /// Data buffer.
    pub data: [u16; DATA_WORDS],
}

impl Default for SectorBuf {
    fn default() -> Self {
        SectorBuf::zeroed()
    }
}

impl SectorBuf {
    /// An all-zero buffer (every word a wildcard for check actions).
    pub fn zeroed() -> SectorBuf {
        SectorBuf {
            header: [0; HEADER_WORDS],
            label: [0; LABEL_WORDS],
            data: [0; DATA_WORDS],
        }
    }

    /// A buffer whose label part is set from `label` (header and data zero).
    pub fn with_label(label: Label) -> SectorBuf {
        SectorBuf {
            label: label.encode(),
            ..SectorBuf::zeroed()
        }
    }

    /// Decodes the label buffer.
    pub fn decoded_label(&self) -> Label {
        Label::decode(&self.label)
    }

    /// Sets the label buffer.
    pub fn set_label(&mut self, label: Label) {
        self.label = label.encode();
    }
}

/// The action performed on one part of a sector during an operation (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Transfer disk words to memory.
    Read,
    /// Compare disk words with memory words; a memory word of 0 is replaced
    /// by the disk word (pattern match); mismatch aborts the operation.
    Check,
    /// Transfer memory words to the disk.
    Write,
}

/// A complete sector operation: one action per part, applied in disk order
/// (header, then label, then value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SectorOp {
    /// Action on the header part.
    pub header: Action,
    /// Action on the label part.
    pub label: Action,
    /// Action on the value part.
    pub value: Action,
}

impl SectorOp {
    /// Read everything: header, label and data to memory.
    pub const READ_ALL: SectorOp = SectorOp {
        header: Action::Read,
        label: Action::Read,
        value: Action::Read,
    };

    /// The normal page read: check header and label, read data.
    pub const READ: SectorOp = SectorOp {
        header: Action::Check,
        label: Action::Check,
        value: Action::Read,
    };

    /// The normal page write: check header and label, write data —
    /// "on any other write the label is checked, at no cost in time" (§3.3).
    pub const WRITE: SectorOp = SectorOp {
        header: Action::Check,
        label: Action::Check,
        value: Action::Write,
    };

    /// Rewrite label and data after checking the header and (via a prior
    /// check pass) the label: used to allocate, free, and change file length.
    pub const WRITE_LABEL: SectorOp = SectorOp {
        header: Action::Check,
        label: Action::Write,
        value: Action::Write,
    };

    /// Check the label only (reading it via wildcards), touching no data:
    /// the first pass of an allocate/free, and the Scavenger's scan step.
    pub const CHECK_LABEL: SectorOp = SectorOp {
        header: Action::Check,
        label: Action::Check,
        value: Action::Read,
    };

    /// Format pass: write all three parts.
    pub const WRITE_ALL: SectorOp = SectorOp {
        header: Action::Write,
        label: Action::Write,
        value: Action::Write,
    };

    /// Validates the hardware restriction that once a write is begun it must
    /// continue through the rest of the sector (§3.3).
    #[inline]
    pub fn validate(&self) -> Result<(), DiskError> {
        let mut writing = false;
        for action in [self.header, self.label, self.value] {
            match action {
                Action::Write => writing = true,
                Action::Read | Action::Check if writing => {
                    return Err(DiskError::MalformedOp(
                        "read or check action after a write action",
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// True if any part of this operation writes the disk.
    #[inline]
    pub fn writes(&self) -> bool {
        [self.header, self.label, self.value].contains(&Action::Write)
    }
}

/// The check action alone, against an immutably borrowed disk part — the
/// §3.3 wildcard pattern match shared by [`apply`] and the zero-copy write
/// path, which checks header and label in place before touching the value.
pub(crate) fn check_part(
    disk: &[u16],
    mem: &mut [u16],
    da: DiskAddress,
    part: SectorPart,
) -> Result<(), CheckFailure> {
    // Fast path: an exact match (no wildcards to capture, nothing to
    // report) is the steady state of §3.3 check-before-write, and a
    // single slice compare beats the word loop on every hot path.
    if mem == disk {
        return Ok(());
    }
    for (i, (m, d)) in mem.iter_mut().zip(disk.iter()).enumerate() {
        if *m == 0 {
            *m = *d; // wildcard: pattern-match and capture
        } else if *m != *d {
            return Err(CheckFailure {
                da,
                part,
                word_index: i,
                expected: *m,
                found: *d,
            });
        }
    }
    Ok(())
}

fn run_part(
    action: Action,
    disk: &mut [u16],
    mem: &mut [u16],
    da: DiskAddress,
    part: SectorPart,
) -> Result<(), CheckFailure> {
    match action {
        Action::Read => mem.copy_from_slice(disk),
        Action::Write => disk.copy_from_slice(mem),
        Action::Check => check_part(disk, mem, da, part)?,
    }
    Ok(())
}

/// Applies a sector operation to an on-disk sector and a memory buffer.
///
/// Parts are processed in disk order; a failed check aborts the remainder of
/// the operation, and because of the write-continuation rule (validated
/// here) no write can precede a check, so an aborted operation leaves the
/// disk unmodified.
pub fn apply(
    op: SectorOp,
    da: DiskAddress,
    sector: &mut Sector,
    buf: &mut SectorBuf,
) -> Result<(), DiskError> {
    op.validate()?;
    run_part(
        op.header,
        &mut sector.header,
        &mut buf.header,
        da,
        SectorPart::Header,
    )?;
    run_part(
        op.label,
        &mut sector.label,
        &mut buf.label,
        da,
        SectorPart::Label,
    )?;
    run_part(
        op.value,
        &mut sector.data,
        &mut buf.data,
        da,
        SectorPart::Value,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_sector() -> Sector {
        let mut s = Sector::formatted(1, DiskAddress(5));
        s.label = Label {
            fid: [10, 20],
            version: 1,
            page_number: 2,
            length: 512,
            next: DiskAddress(6),
            prev: DiskAddress(4),
        }
        .encode();
        s.data = [0x5A5A; DATA_WORDS];
        s
    }

    #[test]
    fn read_all_fills_buffers() {
        let mut s = live_sector();
        let mut b = SectorBuf::zeroed();
        apply(SectorOp::READ_ALL, DiskAddress(5), &mut s, &mut b).unwrap();
        assert_eq!(b.header, s.header);
        assert_eq!(b.label, s.label);
        assert_eq!(b.data, s.data);
    }

    #[test]
    fn check_with_exact_label_passes() {
        let mut s = live_sector();
        let mut b = SectorBuf::with_label(s.decoded_label());
        b.header = s.header;
        apply(SectorOp::READ, DiskAddress(5), &mut s, &mut b).unwrap();
        assert_eq!(b.data, [0x5A5A; DATA_WORDS]);
    }

    #[test]
    fn check_wildcards_capture_disk_words() {
        let mut s = live_sector();
        // Know only fid and page number; lengths and links are wildcards.
        let mut b = SectorBuf::zeroed();
        b.label = [10, 20, 1, 2, 0, 0, 0];
        apply(SectorOp::READ, DiskAddress(5), &mut s, &mut b).unwrap();
        // Wildcards were replaced by the disk's words (pattern match).
        assert_eq!(b.decoded_label(), s.decoded_label());
    }

    #[test]
    fn header_wildcard_acts_as_read() {
        let mut s = live_sector();
        let mut b = SectorBuf::with_label(s.decoded_label());
        apply(SectorOp::READ, DiskAddress(5), &mut s, &mut b).unwrap();
        assert_eq!(b.header, [1, 5]);
    }

    #[test]
    fn mismatched_check_aborts_before_write() {
        let mut s = live_sector();
        let original = s.clone();
        let mut wrong = s.decoded_label();
        wrong.page_number = 3; // stale hint: wrong page
        let mut b = SectorBuf::with_label(wrong);
        b.data = [0xDEAD; DATA_WORDS];
        let err = apply(SectorOp::WRITE, DiskAddress(5), &mut s, &mut b).unwrap_err();
        match err {
            DiskError::Check(c) => {
                assert_eq!(c.part, SectorPart::Label);
                assert_eq!(c.word_index, 3); // PN is label word 3
                assert_eq!(c.expected, 3);
                assert_eq!(c.found, 2);
            }
            other => panic!("expected check failure, got {other:?}"),
        }
        // Nothing was written: the disk is untouched.
        assert_eq!(s, original);
    }

    #[test]
    fn free_sector_rejects_file_reads() {
        let mut s = Sector::formatted(1, DiskAddress(9));
        let mut b = SectorBuf::with_label(Label {
            fid: [10, 20],
            version: 1,
            page_number: 0,
            length: 0, // wildcard is fine; fid mismatch hits first
            next: DiskAddress(0),
            prev: DiskAddress(0),
        });
        let err = apply(SectorOp::READ, DiskAddress(9), &mut s, &mut b).unwrap_err();
        assert!(matches!(err, DiskError::Check(c) if c.part == SectorPart::Label));
    }

    #[test]
    fn allocate_requires_free_label() {
        // The first write after allocation checks that the page is free.
        let mut s = Sector::formatted(1, DiskAddress(9));
        let mut b = SectorBuf::with_label(Label::FREE);
        b.header = [1, 9];
        apply(SectorOp::CHECK_LABEL, DiskAddress(9), &mut s, &mut b).unwrap();
        // Now write the proper label.
        let mut b2 = SectorBuf::with_label(Label {
            fid: [10, 20],
            version: 1,
            page_number: 0,
            length: 0,
            next: DiskAddress::NIL,
            prev: DiskAddress::NIL,
        });
        b2.header = [1, 9];
        apply(SectorOp::WRITE_LABEL, DiskAddress(9), &mut s, &mut b2).unwrap();
        assert!(s.decoded_label().is_in_use());
    }

    #[test]
    fn allocate_fails_if_sector_is_busy() {
        let mut s = live_sector();
        let mut b = SectorBuf::with_label(Label::FREE);
        let err = apply(SectorOp::CHECK_LABEL, DiskAddress(5), &mut s, &mut b).unwrap_err();
        assert!(matches!(err, DiskError::Check(_)));
    }

    #[test]
    fn malformed_op_rejected() {
        let bad = SectorOp {
            header: Action::Write,
            label: Action::Check,
            value: Action::Write,
        };
        assert!(matches!(bad.validate(), Err(DiskError::MalformedOp(_))));
        let mut s = live_sector();
        let before = s.clone();
        let mut b = SectorBuf::zeroed();
        assert!(apply(bad, DiskAddress(5), &mut s, &mut b).is_err());
        assert_eq!(s, before);
    }

    #[test]
    fn standard_ops_are_well_formed() {
        for op in [
            SectorOp::READ_ALL,
            SectorOp::READ,
            SectorOp::WRITE,
            SectorOp::WRITE_LABEL,
            SectorOp::CHECK_LABEL,
            SectorOp::WRITE_ALL,
        ] {
            op.validate().unwrap();
        }
    }

    #[test]
    fn writes_predicate() {
        assert!(!SectorOp::READ.writes());
        assert!(SectorOp::WRITE.writes());
        assert!(SectorOp::WRITE_LABEL.writes());
        assert!(SectorOp::WRITE_ALL.writes());
        assert!(!SectorOp::CHECK_LABEL.writes());
    }

    #[test]
    fn formatted_sector_is_free_and_self_identifying() {
        let s = Sector::formatted(7, DiskAddress(100));
        assert_eq!(s.header, [7, 100]);
        assert!(s.decoded_label().is_free());
        assert!(s.data.iter().all(|&w| w == u16::MAX));
    }
}
