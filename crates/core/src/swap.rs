//! `OutLoad` and `InLoad`: world swapping through disk files (§4, §4.1).
//!
//! "OutLoad writes the current machine state on the file, and returns with
//! the written flag true … The InLoad procedure restores the state of the
//! machine from the given file, and passes a message (about 20 words) to
//! the restored program. The effect is that OutLoad returns again, this
//! time with written false and with the message that was provided in the
//! InLoad call."
//!
//! The written flag and message vector live at fixed low-memory addresses
//! so that the restored program — whatever language it was written in —
//! finds them; this is representation standardization again (§1).
//!
//! State files are rewritten **in place**: the image size never changes,
//! so every page is an ordinary write and the whole swap streams at disk
//! speed — about a second for the 64K-word image (§4.1), measured by
//! experiment E6. Creating the state file in the first place allocates
//! its ~260 pages — a chained pass that checks every sector free, then one
//! that writes every label — which is why programs make their state files
//! once, at install time (§3.6).

use alto_disk::Disk;
use alto_fs::file::{bytes_to_words, words_to_bytes};
use alto_fs::names::FileFullName;
use alto_fs::{dir, FsError};
use alto_machine::state::{MachineState, HEADER_WORDS};
use alto_sim::MEMORY_WORDS;

use crate::errors::OsError;
use crate::os::AltoOs;

/// Size of the `InLoad` message vector, in words ("about 20 words").
pub const MESSAGE_WORDS: usize = 20;

/// Fixed address of the written flag.
pub const FLAG_ADDR: u16 = 0o100;
/// Fixed address of the message vector (20 words).
pub const MESSAGE_ADDR: u16 = 0o101;

/// What `OutLoad` reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutLoadResult {
    /// The state was written; execution continued past the OutLoad.
    Written,
}

/// Total words in a state file.
fn state_words() -> usize {
    HEADER_WORDS + MEMORY_WORDS
}

impl<D: Disk> AltoOs<D> {
    /// Creates (or finds) a state file of the right size, entered in the
    /// root directory. Pre-allocating once makes every later swap an
    /// in-place rewrite at streaming speed.
    pub fn create_state_file(&mut self, name: &str) -> Result<FileFullName, OsError> {
        let root = self.fs.root_dir();
        if let Some(existing) = dir::lookup(&mut self.fs, root, name)? {
            return Ok(existing);
        }
        let file = dir::create_named_file(&mut self.fs, root, name)?;
        let zeros = vec![0u8; state_words() * 2];
        self.fs.write_file(file, &zeros)?;
        Ok(file)
    }

    /// `OutLoad`: writes the entire machine state to `file`.
    ///
    /// On return the machine continues with the written flag (at
    /// [`FLAG_ADDR`]) true and `AC0 = 1`. When some later `InLoad` restores
    /// the file, execution continues *from the same point* with the flag
    /// false, `AC0 = 0`, and the message at [`MESSAGE_ADDR`].
    pub fn out_load(&mut self, file: FileFullName) -> Result<OutLoadResult, OsError> {
        // The state we save must be the one the restored program resumes
        // from: flag=0 (the "restored" branch) is what goes to disk; the
        // in-memory flag is then set to 1 (the "written" branch).
        self.machine.mem.write(FLAG_ADDR, 0);
        for i in 0..MESSAGE_WORDS as u16 {
            self.machine.mem.write(MESSAGE_ADDR + i, 0);
        }
        self.machine.ac[0] = 0;
        let state = MachineState::capture(&self.machine);
        let bytes = words_to_bytes(&state.encode());
        self.fs.write_file(file, &bytes)?;
        // Continue on the "written" branch.
        self.machine.mem.write(FLAG_ADDR, 1);
        self.machine.ac[0] = 1;
        Ok(OutLoadResult::Written)
    }

    /// `InLoad`: replaces the machine state from `file`, delivering
    /// `message` to the restored program.
    pub fn in_load(
        &mut self,
        file: FileFullName,
        message: &[u16; MESSAGE_WORDS],
    ) -> Result<(), OsError> {
        let bytes = self.fs.read_file(file)?;
        let words = bytes_to_words(&bytes);
        let state = MachineState::decode(&words)?;
        state.restore(&mut self.machine);
        // Deliver the restored-branch values.
        self.machine.mem.write(FLAG_ADDR, 0);
        self.machine
            .mem
            .write_block(MESSAGE_ADDR, message)
            .expect("message vector is in range");
        self.machine.ac[0] = 0;
        // The resident structures changed with the memory image; re-attach.
        let l2 = self.levels().level(2).expect("level 2 exists");
        self.typeahead = crate::typeahead::TypeAhead::attach(&self.machine.mem, l2.base);
        Ok(())
    }

    /// `OutLoad` by root-directory name, creating the state file if
    /// needed (the system-call interface).
    pub fn out_load_named(&mut self, name: &str) -> Result<OutLoadResult, OsError> {
        let file = self.create_state_file(name)?;
        self.out_load(file)
    }

    /// `InLoad` by root-directory name.
    pub fn in_load_named(
        &mut self,
        name: &str,
        message: &[u16; MESSAGE_WORDS],
    ) -> Result<(), OsError> {
        let root = self.fs.root_dir();
        let file = dir::lookup(&mut self.fs, root, name)?
            .ok_or_else(|| OsError::Fs(FsError::NameNotFound(name.to_string())))?;
        self.in_load(file, message)
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
    fn out_load_then_in_load_resumes_with_message() {
        let mut os = os();
        let file = os.create_state_file("World.state").unwrap();
        os.machine.pc = 0o4321;
        os.machine.ac[2] = 777;
        let r = os.out_load(file).unwrap();
        assert_eq!(r, OutLoadResult::Written);
        // Written branch: flag 1, AC0 1.
        assert_eq!(os.machine.mem.read(FLAG_ADDR), 1);
        assert_eq!(os.machine.ac[0], 1);

        // Wreck the machine, then restore.
        os.machine.pc = 0;
        os.machine.ac = [9, 9, 9, 9];
        os.machine.mem.write(0o5000, 0xDEAD);
        let mut message = [0u16; MESSAGE_WORDS];
        message[0] = 42;
        message[19] = 43;
        os.in_load(file, &message).unwrap();
        // Restored branch: same PC/ACs as at capture, flag 0, message
        // delivered, AC0 = 0.
        assert_eq!(os.machine.pc, 0o4321);
        assert_eq!(os.machine.ac[2], 777);
        assert_eq!(os.machine.ac[0], 0);
        assert_eq!(os.machine.mem.read(FLAG_ADDR), 0);
        assert_eq!(os.machine.mem.read(MESSAGE_ADDR), 42);
        assert_eq!(os.machine.mem.read(MESSAGE_ADDR + 19), 43);
        assert_eq!(os.machine.mem.read(0o5000), 0); // wreckage gone
    }

    #[test]
    fn swap_takes_about_a_second() {
        // §4.1: each of OutLoad/InLoad "requires about a second".
        let mut os = os();
        let file = os.create_state_file("World.state").unwrap();
        let clock = os.machine.clock().clone();

        let t0 = clock.now();
        os.out_load(file).unwrap();
        let out_time = clock.now() - t0;

        let t0 = clock.now();
        os.in_load(file, &[0; MESSAGE_WORDS]).unwrap();
        let in_time = clock.now() - t0;

        for (name, t) in [("OutLoad", out_time), ("InLoad", in_time)] {
            let secs = t.as_secs_f64();
            assert!(
                (0.5..2.5).contains(&secs),
                "{name} took {secs:.2} simulated seconds"
            );
        }
    }

    #[test]
    fn state_file_creation_is_the_slow_part() {
        let mut os = os();
        let clock = os.machine.clock().clone();
        let before = os.fs.disk().stats();
        let t0 = clock.now();
        let file = os.create_state_file("World.state").unwrap();
        let create_time = clock.now() - t0;
        let created = os.fs.disk().stats();
        let t0 = clock.now();
        os.out_load(file).unwrap();
        let swap_time = clock.now() - t0;
        // Creation allocates 257 pages as runs (§3.3): the directory lookup
        // and entry with the leader and page 1 (13 ops in 4 batches), then
        // the growth — page 1's data, one chained check pass over page 1
        // and the 256 new pages, one chained write pass over the new pages,
        // page 1's relink and the leader's hints. The swap itself is one
        // in-place streaming pass, yet still the cheaper of the two.
        assert_eq!(
            (created.ops - before.ops, created.batches - before.batches),
            (531, 7)
        );
        assert!(
            create_time > swap_time,
            "create {create_time} vs swap {swap_time}"
        );
        // Creating again finds the existing file instantly-ish.
        let t0 = clock.now();
        os.create_state_file("World.state").unwrap();
        assert!(clock.now() - t0 < SimTime::from_millis(500));
    }

    #[test]
    fn coroutine_ping_pong() {
        // Two "programs" exchange control through two state files, paper
        // §4.1's coroutine linkage, orchestrated from Rust.
        let mut os = os();
        let a = os.create_state_file("A.state").unwrap();
        let b = os.create_state_file("B.state").unwrap();

        // Program A: counting in AC2.
        os.machine.pc = 0o1000;
        os.machine.ac[2] = 1;
        os.out_load(a).unwrap();

        // Program B: counting in AC2 by hundreds.
        os.machine.pc = 0o2000;
        os.machine.ac[2] = 100;
        os.out_load(b).unwrap();

        // Switch to A, advance it, save it, switch to B.
        os.in_load(a, &[0; MESSAGE_WORDS]).unwrap();
        assert_eq!(os.machine.pc, 0o1000);
        os.machine.ac[2] += 1; // "A runs"
        os.out_load(a).unwrap();
        os.in_load(b, &[0; MESSAGE_WORDS]).unwrap();
        assert_eq!(os.machine.pc, 0o2000);
        assert_eq!(os.machine.ac[2], 100);
        os.machine.ac[2] += 100; // "B runs"
        os.out_load(b).unwrap();
        // Back to A: its private count is intact.
        os.in_load(a, &[0; MESSAGE_WORDS]).unwrap();
        assert_eq!(os.machine.ac[2], 2);
    }

    #[test]
    fn vm_program_outloads_itself() {
        // A machine program calls OutLoad via trap, sees written=1, halts.
        // We then InLoad the file and the program continues at the same
        // place with written=0, taking the other branch.
        let mut os = os();
        let source = format!(
            "
            lda 0, fnamep
            trap 0, {outload}
            ; AC0 = written flag
            mov# 0, 0, szr   ; skip when AC0 == 0 (restored)
            jmp written
restored:   lda 1, mk2
            sta 1, 0o200
            halt
written:    lda 1, mk1
            sta 1, 0o200
            halt
mk1:        .word 111
mk2:        .word 222
fnamep:     .word fname
fname:      .str \"Self.state\"
            ",
            outload = crate::syscalls::SysCall::OutLoad.code()
        );
        let code = alto_machine::assemble(&source).unwrap();
        os.machine.load_program(0o400, &code.words).unwrap();
        os.run_machine(2_000_000).unwrap();
        assert_eq!(
            os.machine.mem.read(0o200),
            111,
            "first run takes the written branch"
        );

        // Now restore the saved world: the program resumes right after its
        // OutLoad trap with AC0 = 0.
        os.in_load_named("Self.state", &[0; MESSAGE_WORDS]).unwrap();
        os.run_machine(2_000_000).unwrap();
        assert_eq!(
            os.machine.mem.read(0o200),
            222,
            "restored run takes the other branch"
        );
    }

    #[test]
    fn in_load_unknown_file_fails() {
        let mut os = os();
        assert!(matches!(
            os.in_load_named("nothing.state", &[0; MESSAGE_WORDS]),
            Err(OsError::Fs(FsError::NameNotFound(_)))
        ));
    }
}
