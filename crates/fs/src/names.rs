//! File and page names (§3.1, §3.2).
//!
//! A page's *absolute name* is `(FV, n)`: a two-word file identifier `F`
//! (the serial number), a version `V`, and a page number `n`. Its *hint
//! name* is a disk address. The *full name* is the pair; the name of page
//! `(FV, 0)` — the leader page — is also the name of the file.
//!
//! A subset of the file identifiers is reserved for directory files so the
//! Scavenger can identify all directories from labels alone (§3.4): bit 15
//! of the serial number's first word is the directory flag.

use alto_disk::{DiskAddress, Label};
use std::fmt;

/// A two-word file serial number.
///
/// Layout: word 0 = `directory flag (bit 15) | 0x4000 | number bits 16..29`;
/// word 1 = `number bits 0..15`. Bit 14 is always set so that word 0 of a
/// live file is never zero (a zero word would act as a wildcard in label
/// checks, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SerialNumber {
    words: [u16; 2],
}

/// The directory flag bit in word 0 of a serial number.
const DIRECTORY_FLAG: u16 = 0x8000;
/// The always-set marker bit in word 0 (keeps the word non-zero).
const LIVE_FLAG: u16 = 0x4000;

impl SerialNumber {
    /// Builds a serial number from a 30-bit file number and directory flag.
    ///
    /// # Panics
    ///
    /// Panics if `number` needs more than 30 bits.
    pub fn new(number: u32, directory: bool) -> SerialNumber {
        assert!(number < (1 << 30), "file number too large: {number}");
        let flag = if directory { DIRECTORY_FLAG } else { 0 };
        SerialNumber {
            words: [
                flag | LIVE_FLAG | ((number >> 16) as u16 & 0x3FFF),
                number as u16,
            ],
        }
    }

    /// Reconstructs a serial number from its two label words.
    pub fn from_words(words: [u16; 2]) -> SerialNumber {
        SerialNumber { words }
    }

    /// The two label words.
    pub fn words(self) -> [u16; 2] {
        self.words
    }

    /// The 30-bit file number.
    pub fn number(self) -> u32 {
        ((self.words[0] as u32 & 0x3FFF) << 16) | self.words[1] as u32
    }

    /// True if this serial is reserved for a directory file (§3.4).
    pub fn is_directory(self) -> bool {
        self.words[0] & DIRECTORY_FLAG != 0
    }

    /// True if the live marker bit is present (sanity check on labels
    /// recovered during scavenging).
    pub fn looks_live(self) -> bool {
        self.words[0] & LIVE_FLAG != 0
    }
}

impl fmt::Display for SerialNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_directory() {
            write!(f, "D{}", self.number())
        } else {
            write!(f, "S{}", self.number())
        }
    }
}

/// `FV`: a file identifier and version — the file part of an absolute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fv {
    /// The file's serial number.
    pub serial: SerialNumber,
    /// The file's version (1 for all ordinarily created files).
    pub version: u16,
}

impl Fv {
    /// Creates an `FV` pair.
    pub fn new(serial: SerialNumber, version: u16) -> Fv {
        Fv { serial, version }
    }

    /// The label a page of this file must carry, with the given page
    /// number; length and links are wildcards (to be captured on check).
    pub fn check_label(self, page: u16) -> Label {
        Label {
            fid: self.serial.words(),
            version: self.version,
            page_number: page,
            length: 0,
            next: DiskAddress(0),
            prev: DiskAddress(0),
        }
    }

    /// Extracts the `FV` from a label.
    pub fn from_label(label: &Label) -> Fv {
        Fv {
            serial: SerialNumber::from_words(label.fid),
            version: label.version,
        }
    }
}

impl fmt::Display for Fv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}v{}", self.serial, self.version)
    }
}

/// The full name of a page: absolute name `(FV, n)` plus hint address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageName {
    /// File identifier and version.
    pub fv: Fv,
    /// Page number within the file (0 = leader page).
    pub page: u16,
    /// Hint: the disk address this page was last known to occupy.
    pub da: DiskAddress,
}

impl PageName {
    /// The full name of the page `page` of the file, with hint `da`.
    pub fn new(fv: Fv, page: u16, da: DiskAddress) -> PageName {
        PageName { fv, page, da }
    }

    /// Page `page + j` of the file, guessed `j` sectors on (§3.6: "compute
    /// the address of page j as aᵢ + j − i").
    pub fn guess(self, j: u16) -> PageName {
        PageName::new(
            self.fv,
            self.page + j,
            DiskAddress(self.da.0.wrapping_add(j)),
        )
    }
}

impl fmt::Display for PageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}) @ {}", self.fv, self.page, self.da)
    }
}

/// The full name of a file: the full name of its leader page (§3.2 — "the
/// name of page (FV, 0) is also the name of the file").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileFullName {
    /// File identifier and version.
    pub fv: Fv,
    /// Hint: disk address of the leader page.
    pub leader_da: DiskAddress,
}

impl FileFullName {
    /// Creates a file full name.
    pub fn new(fv: Fv, leader_da: DiskAddress) -> FileFullName {
        FileFullName { fv, leader_da }
    }

    /// The full name of this file's page `n` with an unknown (nil) hint.
    pub fn page(self, n: u16) -> PageName {
        PageName::new(self.fv, n, DiskAddress::NIL)
    }

    /// The full name of the leader page.
    pub fn leader_page(self) -> PageName {
        PageName::new(self.fv, 0, self.leader_da)
    }

    /// True if this file is a directory (from its serial number).
    pub fn is_directory(self) -> bool {
        self.fv.serial.is_directory()
    }
}

impl fmt::Display for FileFullName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.fv, self.leader_da)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_round_trip() {
        for (n, d) in [
            (0u32, false),
            (1, true),
            (0x0001_2345, false),
            ((1 << 30) - 1, true),
        ] {
            let s = SerialNumber::new(n, d);
            assert_eq!(s.number(), n);
            assert_eq!(s.is_directory(), d);
            assert!(s.looks_live());
            assert_eq!(SerialNumber::from_words(s.words()), s);
        }
    }

    #[test]
    #[should_panic(expected = "file number too large")]
    fn serial_rejects_wide_numbers() {
        SerialNumber::new(1 << 30, false);
    }

    #[test]
    fn serial_words_never_zero_in_word0() {
        // Word 0 carries the live flag, so label checks on it are never
        // accidentally wildcarded.
        let s = SerialNumber::new(0, false);
        assert_ne!(s.words()[0], 0);
    }

    #[test]
    fn directory_flag_partitions_the_space() {
        let f = SerialNumber::new(77, false);
        let d = SerialNumber::new(77, true);
        assert_ne!(f, d);
        assert_eq!(f.number(), d.number());
        assert_eq!(f.to_string(), "S77");
        assert_eq!(d.to_string(), "D77");
    }

    #[test]
    fn check_label_wildcards_only_hints_and_length() {
        let fv = Fv::new(SerialNumber::new(5, false), 1);
        let l = fv.check_label(3);
        assert_eq!(l.fid, fv.serial.words());
        assert_eq!(l.version, 1);
        assert_eq!(l.page_number, 3);
        assert_eq!(l.length, 0);
        assert_eq!(l.next, DiskAddress(0));
        assert_eq!(l.prev, DiskAddress(0));
    }

    #[test]
    fn fv_from_label_round_trips() {
        let fv = Fv::new(SerialNumber::new(42, true), 3);
        let label = fv.check_label(0);
        assert_eq!(Fv::from_label(&label), fv);
    }

    #[test]
    fn file_full_name_pages() {
        let fv = Fv::new(SerialNumber::new(9, false), 1);
        let f = FileFullName::new(fv, DiskAddress(55));
        assert_eq!(f.leader_page().da, DiskAddress(55));
        assert_eq!(f.leader_page().page, 0);
        assert_eq!(f.page(4).page, 4);
        assert!(f.page(4).da.is_nil());
        assert!(!f.is_directory());
    }

    #[test]
    fn display_formats() {
        let fv = Fv::new(SerialNumber::new(9, false), 1);
        assert_eq!(fv.to_string(), "S9v1");
        let p = PageName::new(fv, 2, DiskAddress(7));
        assert_eq!(p.to_string(), "(S9v1, 2) @ DA[7]");
        let f = FileFullName::new(fv, DiskAddress(7));
        assert_eq!(f.to_string(), "S9v1 @ DA[7]");
    }
}
