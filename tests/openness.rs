//! The openness story (§1, §5.2): the system's packages compose with
//! user-supplied implementations of the abstract objects.
//!
//! "It is common for a program using a large non-standard disk to include
//! a package that implements only the disk object for the special disk
//! hardware, and to open streams on files using the standard operating
//! system disk stream implementation."

use alto::disk::{DiskError, DiskGeometry, Sector, SectorBuf, SectorOp};
use alto::prelude::*;
use alto::sim::Trace;
use alto::streams::{read_all, write_all, CountingStream, StreamError};

/// A user-written disk object: a zero-latency RAM disk with an exotic
/// geometry, implementing only the `Disk` trait.
struct RamDisk {
    geometry: DiskGeometry,
    sectors: Vec<Sector>,
    clock: SimClock,
    trace: Trace,
}

impl RamDisk {
    fn new(clock: SimClock) -> RamDisk {
        let geometry = DiskGeometry {
            cylinders: 64,
            heads: 4,
            sectors: 16,
        };
        let sectors = (0..geometry.sector_count() as u16)
            .map(|i| Sector::formatted(42, DiskAddress(i)))
            .collect();
        RamDisk {
            geometry,
            sectors,
            clock,
            trace: Trace::new(),
        }
    }
}

impl Disk for RamDisk {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        Ok(self.geometry)
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        Ok(42)
    }

    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        if !self.geometry.contains(da) {
            return Err(DiskError::InvalidAddress(da));
        }
        // Zero latency, but full check semantics: the robustness discipline
        // comes from the *format*, not from the drive.
        alto::disk::sector::apply(op, da, &mut self.sectors[da.0 as usize], buf)
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// The standard file system runs unmodified on the user's disk object.
#[test]
fn standard_fs_on_a_user_disk() {
    let clock = SimClock::new();
    let mut fs = FileSystem::format(RamDisk::new(clock.clone())).unwrap();
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "on-ram.txt").unwrap();
    fs.write_file(f, b"no moving parts").unwrap();
    assert_eq!(fs.read_file(f).unwrap(), b"no moving parts");
    // Zero simulated time passed: the RAM disk charges nothing.
    assert_eq!(clock.now(), SimTime::ZERO);
}

/// The standard *streams* run on the standard fs on the user disk.
#[test]
fn standard_streams_on_a_user_disk() {
    let clock = SimClock::new();
    let mut fs = FileSystem::format(RamDisk::new(clock)).unwrap();
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "s.dat").unwrap();
    let mut s = DiskByteStream::open(&mut fs, f).unwrap();
    for b in b"streamed onto RAM" {
        s.put_byte(&mut fs, *b).unwrap();
    }
    s.close(&mut fs).unwrap();
    assert_eq!(fs.read_file(f).unwrap(), b"streamed onto RAM");
}

/// Even the Scavenger — the most structure-dependent component — works on
/// the user disk, because it only needs labels and the check semantics.
#[test]
fn scavenger_on_a_user_disk() {
    let clock = SimClock::new();
    let mut fs = FileSystem::format(RamDisk::new(clock)).unwrap();
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "keep.txt").unwrap();
    fs.write_file(f, b"scavenge me").unwrap();
    dir::remove(&mut fs, root, "keep.txt").unwrap(); // orphan it
    let disk = fs.crash();
    let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
    assert_eq!(report.orphans_adopted, 1);
    let root = fs.root_dir();
    let g = dir::lookup(&mut fs, root, "keep.txt").unwrap().unwrap();
    assert_eq!(fs.read_file(g).unwrap(), b"scavenge me");
}

/// The whole OS assembles over the user's disk: AltoOs is generic in D.
#[test]
fn whole_os_on_a_user_disk() {
    let clock = SimClock::new();
    let machine = Machine::new(clock.clone(), Trace::new());
    let mut os: AltoOs<RamDisk> = AltoOs::install(machine, RamDisk::new(clock)).unwrap();
    os.type_text("ls\nquit\n");
    os.run_executive(5).unwrap();
    assert!(os.machine.display.transcript().contains("SysDir"));
}

/// User-defined streams compose with system streams: a counting wrapper
/// around a memory stream around nothing at all.
#[test]
fn user_streams_compose() {
    let mut s = CountingStream::new(CountingStream::new(MemoryStream::new()));
    write_all(&mut s, &mut (), &[1, 2, 3, 4]).unwrap();
    s.reset(&mut ()).unwrap();
    assert_eq!(read_all(&mut s, &mut ()).unwrap(), vec![1, 2, 3, 4]);
    assert_eq!(s.puts(), 4);
    assert_eq!(s.gets(), 4);
}

/// A user-written stream type works anywhere a stream is expected: here,
/// a stream that produces the Fibonacci sequence.
#[test]
fn user_stream_implementation() {
    struct Fib(u16, u16, usize);
    impl Stream<()> for Fib {
        fn get(&mut self, (): &mut ()) -> Result<u16, StreamError> {
            if self.2 == 0 {
                return Err(StreamError::EndOfStream);
            }
            self.2 -= 1;
            let out = self.0;
            let next = self.0.wrapping_add(self.1);
            self.0 = self.1;
            self.1 = next;
            Ok(out)
        }
        fn reset(&mut self, (): &mut ()) -> Result<(), StreamError> {
            *self = Fib(0, 1, 10);
            Ok(())
        }
        fn endof(&mut self, (): &mut ()) -> Result<bool, StreamError> {
            Ok(self.2 == 0)
        }
        fn close(&mut self, (): &mut ()) -> Result<(), StreamError> {
            Ok(())
        }
    }
    let mut counted = CountingStream::new(Fib(0, 1, 10));
    let items = read_all(&mut counted, &mut ()).unwrap();
    assert_eq!(items, vec![0, 1, 1, 2, 3, 5, 8, 13, 21, 34]);
    assert_eq!(counted.gets(), 10);
}

/// Zones allocate any part of memory, "whether in the system free storage
/// region or not" — including a region the program just got from Junta.
#[test]
fn zone_over_junta_reclaimed_memory() {
    let mut os = alto::fresh_alto();
    let floor_before = os.levels().resident_base();
    os.junta(4).unwrap();
    let floor_after = os.levels().resident_base();
    assert!(floor_after > floor_before);
    // Build a zone exactly over the reclaimed words.
    let reclaimed = floor_after - floor_before;
    let mut zone = FirstFitZone::new(&mut os.machine.mem, floor_before, reclaimed).unwrap();
    let a = zone.allocate(&mut os.machine.mem, 100).unwrap();
    assert!(a >= floor_before && a < floor_after);
    os.machine.mem.write(a, 0x1357);
    zone.free(&mut os.machine.mem, a).unwrap();
    os.counter_junta(); // the OS takes its storage back
}

/// Two drives, one file system (§2: "one or two moving-head disk
/// drives"): a two-arm range drive array makes the standard file system
/// span both packs, and files land on whichever drive has the space.
#[test]
fn one_file_system_across_two_drives() {
    use alto::disk::{DriveArray, Placement};
    let clock = SimClock::new();
    let dual = DriveArray::with_arms(
        2,
        Placement::Range,
        clock,
        Trace::new(),
        DiskModel::Diablo31,
    );
    let mut fs = FileSystem::format(dual).unwrap();
    assert_eq!(fs.descriptor().bitmap.len(), 2 * 4872);

    // Fill past one drive's capacity so files must spill onto unit 1.
    let root = fs.root_dir();
    let mut names = Vec::new();
    for i in 0..40 {
        let name = format!("span-{i:02}.dat");
        let f = dir::create_named_file(&mut fs, root, &name).unwrap();
        fs.write_file(f, &vec![i as u8; 150 * 512]).unwrap();
        names.push(name);
    }
    // Unit 1 definitely has live pages now.
    let (_, used_1, _) = fs.disk().arm(1).pack().unwrap().label_census();
    assert!(used_1 > 1000, "unit 1 only has {used_1} live pages");

    // Everything reads back.
    for (i, name) in names.iter().enumerate() {
        let f = dir::lookup(&mut fs, root, name).unwrap().unwrap();
        assert_eq!(fs.read_file(f).unwrap(), vec![i as u8; 150 * 512]);
    }

    // And the Scavenger sweeps both packs.
    let disk = fs.crash();
    let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
    assert_eq!(report.sectors_scanned, 2 * 4872);
    let root = fs.root_dir();
    for name in &names {
        assert!(
            dir::lookup(&mut fs, root, name).unwrap().is_some(),
            "{name}"
        );
    }
}

/// The ablation: remove the label checks and the §3.3 guarantee is gone —
/// the same wild writes that bounced in `tests/robustness.rs` now destroy
/// live data.
#[test]
fn without_label_checks_wild_writes_destroy_data() {
    use alto::disk::UncheckedDisk;
    use alto::fs::names::{Fv, PageName, SerialNumber};

    let clock = SimClock::new();
    let drive = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Diablo31, 1);
    let mut fs = FileSystem::format(UncheckedDisk::new(drive)).unwrap();
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "victim.txt").unwrap();
    fs.write_file(f, &vec![0x11u8; 2000]).unwrap();

    // The same wild write pattern as the robustness test.
    let bogus = Fv::new(SerialNumber::new(0x3FFF, false), 1);
    let total = fs.descriptor().bitmap.len() as u16;
    let mut landed = 0u32;
    for da in (0..total).step_by(7) {
        // On the checked disk every one of these is rejected; here the
        // write happens first and software notices (if at all) too late.
        let _ = fs.write_page(PageName::new(bogus, 1, DiskAddress(da)), &[0xDEAD; 256]);
        landed += 1;
    }
    assert!(landed > 0);
    // The victim is corrupt or unreadable — the ablation proves the
    // mechanism carried the guarantee.
    let damaged = match fs.read_file(f) {
        Err(_) => true,
        Ok(bytes) => bytes != vec![0x11u8; 2000],
    };
    assert!(damaged, "data survived without label checks only by luck");
}

/// §5.2's file-server pattern: a program on a big non-standard disk keeps
/// only the low levels resident (overlays manage the rest), yet uses the
/// standard disk-stream package — here, a Trident-based server that Juntas
/// to level 8 and still serves files through streams.
#[test]
fn file_server_on_the_big_disk_with_overlays() {
    let clock = SimClock::new();
    let machine = Machine::new(clock.clone(), Trace::new());
    let big = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Trident, 5);
    let mut os = AltoOs::install(machine, big).expect("install on Trident");

    // Stock the server with files.
    let root = os.fs.root_dir();
    for i in 0..5 {
        let f = dir::create_named_file(&mut os.fs, root, &format!("doc-{i}")).unwrap();
        os.fs
            .write_file(f, format!("document {i}").as_bytes())
            .unwrap();
    }

    // The server keeps levels 1..=8 (streams) and drops directories,
    // keyboard/display streams and the loader: maximum space for buffers.
    let freed = os.junta(8).unwrap();
    assert!(freed > 2000);

    // Disk streams still work (level 8 is resident)...
    let h = os.open_read("doc-3").unwrap();
    let mut served = Vec::new();
    while let Some(b) = os.stream_get(h).unwrap() {
        served.push(b);
    }
    os.stream_close(h).unwrap();
    assert_eq!(served, b"document 3");

    // ...but the display service is gone, as the server intended.
    assert!(os
        .handle_syscall(alto::os::syscalls::SysCall::PutChar.code(), 0)
        .is_err());

    // When the server shuts down, CounterJunta hands back a full system.
    os.counter_junta();
    os.type_text("ls\nquit\n");
    os.run_executive(5).unwrap();
    assert!(os.machine.display.transcript().contains("doc-4"));
}

/// §6's lament, dissolved: "there is no way to intercept all accesses to
/// the file system … and direct them to some other device, such as a
/// remote file system. This could be done only by changing the machine's
/// microcode." With the disk as an abstract object, a remote file system
/// is just another implementation: every sector operation travels over
/// the simulated ether to a drive on another host, and the *standard*
/// file system (Scavenger included) runs on top, unchanged.
#[test]
fn remote_file_system_through_the_disk_trait() {
    use alto::disk::{DiskError, DiskGeometry, SectorBuf, SectorOp};
    use alto::net::{Packet, PacketType};

    /// A disk whose platters are on another machine: requests and replies
    /// cross the ether (both transmissions charged to the shared clock).
    struct NetDisk {
        ether: Ether,
        /// The remote drive, driven inline by the "server half".
        remote: DiskDrive,
        client: u8,
        server: u8,
        seq: u16,
    }

    impl NetDisk {
        fn round_trip(
            &mut self,
            da: DiskAddress,
            op: SectorOp,
            buf: &mut SectorBuf,
        ) -> Result<(), DiskError> {
            // Request: op encoding + the memory-side buffers.
            self.seq = self.seq.wrapping_add(1);
            let mut payload = vec![da.0, encode_op(op)];
            payload.extend_from_slice(&buf.header);
            payload.extend_from_slice(&buf.label);
            // (The 256 data words ride in a second packet to stay within
            // the MTU.)
            let request = Packet {
                ptype: PacketType::Other(20),
                dst_host: self.server,
                src_host: self.client,
                dst_socket: 0o60,
                src_socket: 0o61,
                seq: self.seq,
                payload,
            };
            let data_packet = Packet {
                ptype: PacketType::Other(21),
                dst_host: self.server,
                src_host: self.client,
                dst_socket: 0o60,
                src_socket: 0o61,
                seq: self.seq,
                payload: buf.data.to_vec(),
            };
            self.ether.send(request).unwrap();
            self.ether.send(data_packet).unwrap();

            // Server half: receive, perform on the real drive, reply.
            let req = self.ether.receive(self.server, 0o60).unwrap().unwrap();
            let dat = self.ether.receive(self.server, 0o60).unwrap().unwrap();
            let mut remote_buf = SectorBuf::zeroed();
            remote_buf.header = [req.payload[2], req.payload[3]];
            remote_buf.label.copy_from_slice(&req.payload[4..11]);
            remote_buf.data.copy_from_slice(&dat.payload);
            let remote_da = DiskAddress(req.payload[0]);
            let result = self.remote.do_op(remote_da, op, &mut remote_buf);
            let status = match &result {
                Ok(()) => 0u16,
                Err(_) => 1,
            };
            let mut reply_payload = vec![status];
            reply_payload.extend_from_slice(&remote_buf.header);
            reply_payload.extend_from_slice(&remote_buf.label);
            let reply = Packet {
                ptype: PacketType::Other(22),
                dst_host: self.client,
                src_host: self.server,
                dst_socket: 0o61,
                src_socket: 0o60,
                seq: self.seq,
                payload: reply_payload,
            };
            let reply_data = Packet {
                ptype: PacketType::Other(23),
                dst_host: self.client,
                src_host: self.server,
                dst_socket: 0o61,
                src_socket: 0o60,
                seq: self.seq,
                payload: remote_buf.data.to_vec(),
            };
            self.ether.send(reply).unwrap();
            self.ether.send(reply_data).unwrap();

            // Client half: unpack the reply into the caller's buffers.
            let rep = self.ether.receive(self.client, 0o61).unwrap().unwrap();
            let repd = self.ether.receive(self.client, 0o61).unwrap().unwrap();
            buf.header = [rep.payload[1], rep.payload[2]];
            buf.label.copy_from_slice(&rep.payload[3..10]);
            buf.data.copy_from_slice(&repd.payload);
            result
        }
    }

    fn encode_op(op: SectorOp) -> u16 {
        use alto::disk::Action;
        let f = |a: Action| match a {
            Action::Read => 0u16,
            Action::Check => 1,
            Action::Write => 2,
        };
        f(op.header) | (f(op.label) << 2) | (f(op.value) << 4)
    }

    impl Disk for NetDisk {
        fn geometry(&self) -> Result<DiskGeometry, DiskError> {
            self.remote.geometry()
        }
        fn pack_number(&self) -> Result<u16, DiskError> {
            self.remote.pack_number()
        }
        fn do_op(
            &mut self,
            da: DiskAddress,
            op: SectorOp,
            buf: &mut SectorBuf,
        ) -> Result<(), DiskError> {
            self.round_trip(da, op, buf)
        }
        fn clock(&self) -> &SimClock {
            self.remote.clock()
        }
        fn trace(&self) -> &Trace {
            self.remote.trace()
        }
    }

    // Assemble the remote configuration.
    let clock = SimClock::new();
    let mut ether = Ether::new(clock.clone(), Trace::new());
    ether.attach(1).unwrap();
    ether.attach(2).unwrap();
    let remote =
        DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 9);
    let netdisk = NetDisk {
        ether,
        remote,
        client: 1,
        server: 2,
        seq: 0,
    };

    // The standard file system, on platters across the network.
    let mut fs = FileSystem::format(netdisk).expect("format remotely");
    let root = fs.root_dir();
    let f = dir::create_named_file(&mut fs, root, "remote.txt").unwrap();
    fs.write_file(f, b"my platters are elsewhere").unwrap();
    assert_eq!(fs.read_file(f).unwrap(), b"my platters are elsewhere");

    // Even the check discipline crosses the wire: a wild write bounces.
    use alto::fs::names::{Fv, PageName, SerialNumber};
    let bogus = Fv::new(SerialNumber::new(0x3FFF, false), 1);
    assert!(fs
        .write_page(PageName::new(bogus, 1, DiskAddress(50)), &[0xDEAD; 256])
        .is_err());

    // And the Scavenger works over the network too.
    let disk = fs.crash();
    let (mut fs, report) = Scavenger::rebuild(disk).unwrap();
    assert_eq!(report.sectors_scanned, 4872);
    let root = fs.root_dir();
    let g = dir::lookup(&mut fs, root, "remote.txt").unwrap().unwrap();
    assert_eq!(fs.read_file(g).unwrap(), b"my platters are elsewhere");
}
