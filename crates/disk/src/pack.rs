//! Removable disk packs and their serialized image format.
//!
//! A pack is the removable medium: every sector's header carries the pack
//! number (different for each removable pack, §3.3). Packs serialize to a
//! self-describing byte image so that simulated file systems persist across
//! host runs and can be moved between simulated drives — the moral
//! equivalent of carrying a pack to another Alto.
//!
//! The image format is defined word-by-word here rather than via a generic
//! serializer because representation standardization below the software is
//! the paper's central policy (§1).

use std::fmt;
use std::path::Path;

use crate::geometry::{DiskAddress, DiskGeometry, DiskModel};
use crate::label::LABEL_WORDS;
use crate::sector::{Sector, DATA_WORDS, HEADER_WORDS};

/// Magic bytes identifying a pack image.
const MAGIC: &[u8; 8] = b"ALTOIMG1";

/// Errors decoding a pack image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackImageError {
    /// The image does not begin with the pack magic.
    BadMagic,
    /// The model tag is unknown.
    UnknownModel(u16),
    /// The image is shorter than its declared contents.
    Truncated,
    /// The declared sector count does not match the model's geometry.
    GeometryMismatch {
        /// Sector count declared in the image.
        declared: u32,
        /// Sector count implied by the model.
        expected: u32,
    },
    /// An I/O error reading or writing an image file.
    Io(String),
}

impl fmt::Display for PackImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackImageError::BadMagic => f.write_str("not a pack image (bad magic)"),
            PackImageError::UnknownModel(m) => write!(f, "unknown disk model tag {m}"),
            PackImageError::Truncated => f.write_str("pack image truncated"),
            PackImageError::GeometryMismatch { declared, expected } => write!(
                f,
                "pack image declares {declared} sectors but model has {expected}"
            ),
            PackImageError::Io(e) => write!(f, "pack image I/O error: {e}"),
        }
    }
}

impl std::error::Error for PackImageError {}

/// A removable disk pack: the medium, not the drive.
#[derive(Debug, Clone)]
pub struct DiskPack {
    model: DiskModel,
    pack_number: u16,
    sectors: Vec<Sector>,
    /// Sectors with unrecoverable media damage (value part unreadable).
    hard_damaged: std::collections::BTreeSet<u16>,
}

impl DiskPack {
    /// Creates a freshly formatted pack: every sector self-identifying in
    /// its header, with a free (all-ones) label and all-ones data.
    pub fn formatted(model: DiskModel, pack_number: u16) -> DiskPack {
        let geometry = model.geometry();
        let sectors = (0..geometry.sector_count() as u16)
            .map(|da| Sector::formatted(pack_number, DiskAddress(da)))
            .collect();
        DiskPack {
            model,
            pack_number,
            sectors,
            hard_damaged: Default::default(),
        }
    }

    /// The drive model this pack is formatted for.
    pub fn model(&self) -> DiskModel {
        self.model
    }

    /// The pack number written into every sector header.
    pub fn pack_number(&self) -> u16 {
        self.pack_number
    }

    /// The pack's geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.model.geometry()
    }

    /// Shared access to a sector (for inspection; the drive goes through
    /// [`DiskPack::sector_mut`] with full check semantics).
    pub fn sector(&self, da: DiskAddress) -> Option<&Sector> {
        self.sectors.get(da.0 as usize)
    }

    /// Mutable access to a sector.
    #[inline]
    pub fn sector_mut(&mut self, da: DiskAddress) -> Option<&mut Sector> {
        self.sectors.get_mut(da.0 as usize)
    }

    /// Marks a sector as having unrecoverable media damage; value-part
    /// accesses through a drive will fail with a hard error until the
    /// Scavenger quarantines it.
    pub fn damage(&mut self, da: DiskAddress) {
        self.hard_damaged.insert(da.0);
    }

    /// True if the sector has unrecoverable media damage.
    #[inline]
    pub fn is_damaged(&self, da: DiskAddress) -> bool {
        self.hard_damaged.contains(&da.0)
    }

    /// Iterates over `(address, sector)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (DiskAddress, &Sector)> {
        self.sectors
            .iter()
            .enumerate()
            .map(|(i, s)| (DiskAddress(i as u16), s))
    }

    /// Counts sectors whose labels are free / in use / bad (a formatting
    /// and test convenience; real software must go through the drive).
    pub fn label_census(&self) -> (usize, usize, usize) {
        let mut free = 0;
        let mut used = 0;
        let mut bad = 0;
        for s in &self.sectors {
            let l = s.decoded_label();
            if l.is_free() {
                free += 1;
            } else if l.is_bad() {
                bad += 1;
            } else {
                used += 1;
            }
        }
        (free, used, bad)
    }

    /// Serializes the pack to a byte image.
    pub fn to_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len() + 8 + self.sectors.len() * (HEADER_WORDS + LABEL_WORDS + DATA_WORDS) * 2,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&model_tag(self.model).to_le_bytes());
        out.extend_from_slice(&self.pack_number.to_le_bytes());
        out.extend_from_slice(&(self.sectors.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.hard_damaged.len() as u32).to_le_bytes());
        for &da in &self.hard_damaged {
            out.extend_from_slice(&da.to_le_bytes());
        }
        for s in &self.sectors {
            for w in s.header.iter().chain(s.label.iter()).chain(s.data.iter()) {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a pack from a byte image.
    pub fn from_image(bytes: &[u8]) -> Result<DiskPack, PackImageError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(PackImageError::BadMagic);
        }
        let model = model_from_tag(r.u16()?)?;
        let pack_number = r.u16()?;
        let declared = r.u32()?;
        let expected = model.geometry().sector_count();
        if declared != expected {
            return Err(PackImageError::GeometryMismatch { declared, expected });
        }
        let damaged_count = r.u32()?;
        let mut hard_damaged = std::collections::BTreeSet::new();
        for _ in 0..damaged_count {
            hard_damaged.insert(r.u16()?);
        }
        let mut sectors = Vec::with_capacity(declared as usize);
        for _ in 0..declared {
            let mut header = [0u16; HEADER_WORDS];
            let mut label = [0u16; LABEL_WORDS];
            let mut data = [0u16; DATA_WORDS];
            for w in &mut header {
                *w = r.u16()?;
            }
            for w in &mut label {
                *w = r.u16()?;
            }
            for w in &mut data {
                *w = r.u16()?;
            }
            sectors.push(Sector {
                header,
                label,
                data,
            });
        }
        Ok(DiskPack {
            model,
            pack_number,
            sectors,
            hard_damaged,
        })
    }

    /// Writes the pack image to a file.
    pub fn save(&self, path: &Path) -> Result<(), PackImageError> {
        std::fs::write(path, self.to_image()).map_err(|e| PackImageError::Io(e.to_string()))
    }

    /// Reads a pack image from a file.
    pub fn load(path: &Path) -> Result<DiskPack, PackImageError> {
        let bytes = std::fs::read(path).map_err(|e| PackImageError::Io(e.to_string()))?;
        DiskPack::from_image(&bytes)
    }
}

fn model_tag(model: DiskModel) -> u16 {
    match model {
        DiskModel::Diablo31 => 0,
        DiskModel::Diablo44 => 1,
        DiskModel::Trident => 2,
    }
}

fn model_from_tag(tag: u16) -> Result<DiskModel, PackImageError> {
    match tag {
        0 => Ok(DiskModel::Diablo31),
        1 => Ok(DiskModel::Diablo44),
        2 => Ok(DiskModel::Trident),
        other => Err(PackImageError::UnknownModel(other)),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PackImageError> {
        let end = self.pos.checked_add(n).ok_or(PackImageError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PackImageError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, PackImageError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, PackImageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;

    #[test]
    fn formatted_pack_census() {
        let pack = DiskPack::formatted(DiskModel::Diablo31, 42);
        let (free, used, bad) = pack.label_census();
        assert_eq!(free, 4872);
        assert_eq!(used, 0);
        assert_eq!(bad, 0);
        assert_eq!(pack.pack_number(), 42);
    }

    #[test]
    fn headers_are_self_identifying() {
        let pack = DiskPack::formatted(DiskModel::Diablo31, 7);
        for (da, s) in pack.iter() {
            assert_eq!(s.header, [7, da.0]);
        }
    }

    #[test]
    fn image_round_trip() {
        let mut pack = DiskPack::formatted(DiskModel::Diablo31, 5);
        // Scribble a recognizable sector.
        let s = pack.sector_mut(DiskAddress(100)).unwrap();
        s.label = Label {
            fid: [1, 2],
            version: 1,
            page_number: 0,
            length: 12,
            next: DiskAddress::NIL,
            prev: DiskAddress::NIL,
        }
        .encode();
        s.data[0] = 0xCAFE;
        pack.damage(DiskAddress(200));

        let image = pack.to_image();
        let back = DiskPack::from_image(&image).unwrap();
        assert_eq!(back.model(), DiskModel::Diablo31);
        assert_eq!(back.pack_number(), 5);
        assert_eq!(
            back.sector(DiskAddress(100)).unwrap(),
            pack.sector(DiskAddress(100)).unwrap()
        );
        assert!(back.is_damaged(DiskAddress(200)));
        assert!(!back.is_damaged(DiskAddress(100)));
    }

    #[test]
    fn image_rejects_bad_magic() {
        let mut image = DiskPack::formatted(DiskModel::Diablo31, 1).to_image();
        image[0] = b'X';
        assert_eq!(
            DiskPack::from_image(&image).unwrap_err(),
            PackImageError::BadMagic
        );
    }

    #[test]
    fn image_rejects_truncation() {
        let image = DiskPack::formatted(DiskModel::Diablo31, 1).to_image();
        let cut = &image[..image.len() / 2];
        assert_eq!(
            DiskPack::from_image(cut).unwrap_err(),
            PackImageError::Truncated
        );
    }

    #[test]
    fn image_rejects_unknown_model() {
        let mut image = DiskPack::formatted(DiskModel::Diablo31, 1).to_image();
        image[8] = 99; // model tag low byte
        assert!(matches!(
            DiskPack::from_image(&image).unwrap_err(),
            PackImageError::UnknownModel(99)
        ));
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("alto-disk-pack-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pack.img");
        let pack = DiskPack::formatted(DiskModel::Trident, 9);
        pack.save(&path).unwrap();
        let back = DiskPack::load(&path).unwrap();
        assert_eq!(back.model(), DiskModel::Trident);
        assert_eq!(back.pack_number(), 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_sector_access() {
        let pack = DiskPack::formatted(DiskModel::Diablo31, 1);
        assert!(pack.sector(DiskAddress(4871)).is_some());
        assert!(pack.sector(DiskAddress(4872)).is_none());
        assert!(pack.sector(DiskAddress::NIL).is_none());
    }
}
