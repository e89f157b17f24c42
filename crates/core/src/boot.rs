//! Bootstrapping (§4).
//!
//! "A hardware bootstrap button causes the state of the machine to be
//! restored from a disk file whose first page is kept at a fixed location
//! on the disk." The boot file's first data page is pinned at disk address
//! 0; the bootstrap reads it by address alone — no directory, no
//! descriptor — and follows the links, exactly what microcode could do.
//!
//! Also here: the *emergency* OutLoad of §4.1, a last-ditch state save
//! that "could not preserve some of the most vital state (e.g., processor
//! registers)".

use alto_disk::{Disk, DiskAddress, Label, DATA_WORDS};
use alto_fs::chain::{self, Layout};
use alto_fs::descriptor::{boot_fv, BOOT_PAGE_DA};
use alto_fs::file::{append_page, bytes_to_words, words_to_bytes};
use alto_fs::leader::LeaderPage;
use alto_fs::names::{FileFullName, PageName};
use alto_fs::{dir, page};
use alto_machine::state::MachineState;

use crate::errors::OsError;
use crate::os::AltoOs;
use crate::swap::{FLAG_ADDR, MESSAGE_ADDR, MESSAGE_WORDS};

/// The boot file's conventional directory name.
pub const BOOT_FILE_NAME: &str = "Boot.state";

impl<D: Disk> AltoOs<D> {
    /// Installs the current machine state as the boot file: a file whose
    /// page 1 sits at the fixed disk address 0. Subsequent
    /// [`AltoOs::bootstrap`] calls restore this state.
    pub fn install_boot_file(&mut self) -> Result<FileFullName, OsError> {
        let fv = boot_fv();
        let root = self.fs.root_dir();
        let existing = dir::lookup(&mut self.fs, root, BOOT_FILE_NAME)?;
        let file = match existing {
            Some(f) => f,
            None => {
                // Lay the skeleton down by hand: leader anywhere, page 1
                // pinned at DA 0 (reserved busy since format).
                let leader = LeaderPage::new(BOOT_FILE_NAME, self.fs.now()).map_err(OsError::Fs)?;
                let leader_label = Label {
                    fid: fv.serial.words(),
                    version: fv.version,
                    page_number: 0,
                    length: alto_fs::file::PAGE_BYTES as u16,
                    next: BOOT_PAGE_DA,
                    prev: DiskAddress::NIL,
                };
                let leader_da = self
                    .fs
                    .allocate_page(None, leader_label, &leader.encode())?;
                let page1_label = Label {
                    fid: fv.serial.words(),
                    version: fv.version,
                    page_number: 1,
                    length: 0,
                    next: DiskAddress::NIL,
                    prev: leader_da,
                };
                page::allocate_at(
                    self.fs.disk_mut(),
                    BOOT_PAGE_DA,
                    page1_label,
                    &[0; DATA_WORDS],
                )?;
                let file = FileFullName::new(fv, leader_da);
                // Record the last-page hint.
                let mut leader = leader;
                leader.last_page = 1;
                leader.last_da = BOOT_PAGE_DA;
                self.fs.write_leader(file, &leader)?;
                dir::insert(&mut self.fs, root, BOOT_FILE_NAME, file)?;
                file
            }
        };
        // Write the state image in place; page 1 never moves off DA 0
        // because same-size (and growing-in-place) rewrites reuse pages.
        let state = self.capture_for_boot();
        let bytes = words_to_bytes(&state.encode());
        self.fs.write_file(file, &bytes)?;
        Ok(file)
    }

    fn capture_for_boot(&mut self) -> MachineState {
        // Like OutLoad: the image carries the restored-branch flag.
        self.machine.mem.write(FLAG_ADDR, 0);
        for i in 0..MESSAGE_WORDS as u16 {
            self.machine.mem.write(MESSAGE_ADDR + i, 0);
        }
        MachineState::capture(&self.machine)
    }

    /// The hardware bootstrap button: reads the sector at the fixed boot
    /// address, identifies the boot file from its *label*, follows the
    /// links to collect the state image, and restores it. No directory or
    /// descriptor is consulted.
    pub fn bootstrap(&mut self) -> Result<(), OsError> {
        let disk = self.fs.disk_mut();
        let (label, data) = page::read_raw(disk, BOOT_PAGE_DA)?;
        if !label.is_in_use() || label.page_number != 1 {
            return Err(OsError::Fs(alto_fs::FsError::Corrupt {
                da: BOOT_PAGE_DA,
                what: "no boot file at the fixed address",
            }));
        }
        let fv = alto_fs::names::Fv::from_label(&label);
        let mut bytes = Vec::new();
        append_page(&mut bytes, label, &data)?;
        // Installs lay the state image out consecutively, so the boot
        // loader reads the rest as one straight line (§3.6) and lets each
        // sector's label check reject a wrong guess. The links in the
        // verified labels steer the read back on course, so a boot file
        // with seams still loads — it just pays for each jump.
        if !label.next.is_nil() {
            let rest = PageName::new(fv, 2, label.next);
            chain::read_guessed(disk, rest, Layout::Straight, None, |_, label, data| {
                append_page(&mut bytes, label, data)
            })?;
        }
        let state = MachineState::decode(&bytes_to_words(&bytes))?;
        state.restore(&mut self.machine);
        // Re-attach the resident structures carried in the image.
        let l2 = self.levels().level(2).expect("level 2 exists");
        self.typeahead = crate::typeahead::TypeAhead::attach(&self.machine.mem, l2.base);
        Ok(())
    }

    /// The emergency OutLoad (§4.1): saves the memory image but loses the
    /// processor registers (they are zero in the saved state).
    pub fn emergency_out_load(&mut self, name: &str) -> Result<(), OsError> {
        let file = self.create_state_file(name)?;
        self.machine.mem.write(FLAG_ADDR, 0);
        let mut state = MachineState::capture(&self.machine);
        state.ac = [0; 4];
        state.pc = 0;
        state.carry = false;
        let bytes = words_to_bytes(&state.encode());
        self.fs.write_file(file, &bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alto_disk::{DiskDrive, DiskModel};
    use alto_machine::Machine;
    use alto_sim::{SimClock, SimTime, Trace};

    fn os() -> AltoOs {
        let clock = SimClock::new();
        let trace = Trace::new();
        let machine = Machine::new(clock.clone(), trace.clone());
        let drive = DiskDrive::with_formatted_pack(clock, trace, DiskModel::Diablo31, 1);
        AltoOs::install(machine, drive).unwrap()
    }

    #[test]
    fn boot_file_page_one_is_at_the_fixed_address() {
        let mut os = os();
        os.install_boot_file().unwrap();
        let label = os
            .fs
            .disk()
            .pack()
            .unwrap()
            .sector(BOOT_PAGE_DA)
            .unwrap()
            .decoded_label();
        assert!(label.is_in_use());
        assert_eq!(label.page_number, 1);
        assert_eq!(alto_fs::names::Fv::from_label(&label), boot_fv());
    }

    #[test]
    fn bootstrap_restores_the_installed_state() {
        let mut os = os();
        os.machine.pc = 0o7777;
        os.machine.ac[1] = 0xBEA7;
        os.machine.mem.write(0o6000, 0x1234);
        os.install_boot_file().unwrap();

        // The machine is then trashed by a wild program…
        os.machine.pc = 0;
        os.machine.ac = [0; 4];
        os.machine.mem.write(0o6000, 0);
        // …and the user pushes the boot button.
        os.bootstrap().unwrap();
        assert_eq!(os.machine.pc, 0o7777);
        assert_eq!(os.machine.ac[1], 0xBEA7);
        assert_eq!(os.machine.mem.read(0o6000), 0x1234);
    }

    #[test]
    fn bootstrap_survives_losing_every_directory() {
        // The bootstrap consults no directory: scramble them all.
        let mut os = os();
        os.machine.ac[3] = 321;
        os.install_boot_file().unwrap();
        let root = os.fs.root_dir();
        os.fs.write_file(root, &[0xFF; 100]).unwrap();
        os.machine.ac[3] = 0;
        os.bootstrap().unwrap();
        assert_eq!(os.machine.ac[3], 321);
    }

    #[test]
    fn reinstalling_overwrites_in_place() {
        let mut os = os();
        os.machine.ac[0] = 1;
        os.install_boot_file().unwrap();
        let clock = os.machine.clock().clone();
        os.machine.ac[0] = 2;
        let t0 = clock.now();
        os.install_boot_file().unwrap();
        let dt = clock.now() - t0;
        // Second install is an in-place streaming rewrite: ~1 s, not the
        // ~15 s of initial allocation.
        assert!(dt < SimTime::from_secs(3), "reinstall took {dt}");
        os.machine.ac[0] = 0;
        os.bootstrap().unwrap();
        assert_eq!(os.machine.ac[0], 2);
    }

    #[test]
    fn bootstrap_without_boot_file_fails_cleanly() {
        let mut os = os();
        assert!(matches!(
            os.bootstrap(),
            Err(OsError::Fs(alto_fs::FsError::Corrupt { .. }))
        ));
    }

    #[test]
    fn emergency_out_load_loses_registers() {
        let mut os = os();
        os.machine.ac = [5, 6, 7, 8];
        os.machine.pc = 0o1234;
        os.machine.mem.write(0o3000, 99);
        os.emergency_out_load("Emergency.state").unwrap();
        os.in_load_named("Emergency.state", &[0; crate::swap::MESSAGE_WORDS])
            .unwrap();
        // Memory survived; the vital processor state did not (§4.1).
        assert_eq!(os.machine.mem.read(0o3000), 99);
        assert_eq!(os.machine.pc, 0);
        assert_eq!(os.machine.ac[1], 0);
    }

    /// The boot file's pages, in chain order from page 1.
    fn boot_pages(os: &mut AltoOs) -> Vec<(PageName, Label, [u16; DATA_WORDS])> {
        let mut pages = vec![];
        let page1 = PageName::new(boot_fv(), 1, BOOT_PAGE_DA);
        alto_fs::chain::to_end(os.fs.disk_mut(), page1, |pn, label, data| {
            pages.push((pn, label, *data));
        })
        .unwrap();
        pages
    }

    /// Rewrites boot page `page`'s label to claim 600 data bytes.
    fn overlong(os: &mut AltoOs, page: usize) {
        let (pn, mut label, data) = boot_pages(os)[page - 1];
        label.length = 600;
        page::rewrite_label(os.fs.disk_mut(), pn, label, &data).unwrap();
    }

    #[test]
    fn an_overlong_first_boot_page_is_a_bad_length() {
        let mut os = os();
        os.install_boot_file().unwrap();
        overlong(&mut os, 1);
        assert_eq!(
            os.bootstrap().unwrap_err(),
            OsError::Fs(alto_fs::FsError::BadLength(600))
        );
    }

    #[test]
    fn an_overlong_later_boot_page_is_a_bad_length() {
        let mut os = os();
        os.install_boot_file().unwrap();
        overlong(&mut os, 2);
        assert_eq!(
            os.bootstrap().unwrap_err(),
            OsError::Fs(alto_fs::FsError::BadLength(600))
        );
    }

    #[test]
    fn a_boot_file_with_a_seam_still_loads() {
        let mut os = os();
        os.machine.ac[2] = 0o4321;
        os.machine.mem.write(0o7000, 0x5A5A);
        os.install_boot_file().unwrap();
        // Move page 9 far from its neighbours; page 1 stays at DA 0.
        let pages = boot_pages(&mut os);
        let (pn, label, data) = pages[8];
        let moved = os
            .fs
            .allocate_page(Some(DiskAddress(pn.da.0 + 2000)), label, &data)
            .unwrap();
        let (before, mut before_label, before_data) = pages[7];
        before_label.next = moved;
        page::rewrite_label(os.fs.disk_mut(), before, before_label, &before_data).unwrap();
        let (after, mut after_label, after_data) = pages[9];
        after_label.prev = moved;
        page::rewrite_label(os.fs.disk_mut(), after, after_label, &after_data).unwrap();
        os.fs.free_page(pn).unwrap();
        let das: Vec<_> = boot_pages(&mut os).iter().map(|p| p.0.da).collect();
        assert_eq!(
            (das[0], das[8], das.len()),
            (BOOT_PAGE_DA, moved, pages.len())
        );

        os.machine.ac[2] = 0;
        os.machine.mem.write(0o7000, 0);
        let ops = os.fs.disk().stats().ops;
        os.bootstrap().unwrap();
        assert_eq!(os.machine.ac[2], 0o4321);
        assert_eq!(os.machine.mem.read(0o7000), 0x5A5A);
        // Page 1, a full window that meets the seam after page 8, a
        // one-page batch at the moved page, then `read_file`'s ramp:
        // 4 + 8 + 16 and seven full windows to the end.
        assert_eq!(os.fs.disk().stats().ops - ops, 1 + 32 + 4 + 28 + 7 * 32);
    }

    #[test]
    fn a_consecutive_boot_file_loads_in_full_windows() {
        let mut os = os();
        os.install_boot_file().unwrap();
        assert_eq!(boot_pages(&mut os).len(), 257);
        let ops = os.fs.disk().stats().ops;
        os.bootstrap().unwrap();
        // Page 1 at DA 0, then eight 32-page guessed batches.
        assert_eq!(os.fs.disk().stats().ops - ops, 1 + 8 * 32);
    }
}
