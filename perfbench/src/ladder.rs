//! The layer ladder: one access pattern — 4,096 sequential pages, then 256
//! random ones — issued through every layer of the read path in turn, each
//! rung on a fresh copy of the same seeded Trident pack. The difference
//! between adjacent rungs is what the upper layer costs on top of the lower
//! one (its *tax*), in host and in simulated time.

use std::time::Instant;

use alto_disk::{Disk, DiskDrive, DiskModel, DiskPack, DriveArray, Placement, DATA_WORDS};
use alto_fs::file::pack_bytes;
use alto_fs::names::PageName;
use alto_fs::page::read_pages_zero_copy;
use alto_fs::{dir, FileFullName, FileSystem};
use alto_net::server::{
    encode_name, OPEN_REPLY, OPEN_REQUEST, PAGE_REPLY, PAGE_SERVICE_SOCKET, READ_REQUEST, STATUS_OK,
};
use alto_net::{ClientConfig, ClientPhase, Ether, Packet, PageServer, ScriptedClient};
use alto_os::FsPageService;
use alto_sim::{SimClock, Trace};
use alto_streams::{DiskByteStream, Stream};

use crate::round::Round;
use crate::util::Rng;

const SEQ_PAGES: usize = 4096;
const RAND_PAGES: usize = 256;
const PAGE: usize = 512;
pub const RUNGS: [&str; 6] = [
    "drive", "array_k1", "fs_page", "fs_file", "streams", "pagesvc",
];

/// The pack and what is on it.
struct Image {
    pack: DiskPack,
    file: FileFullName,
    /// Page `p`'s address at index `p - 1`.
    das: Vec<alto_disk::DiskAddress>,
    /// Page `p`'s words at index `p - 1`.
    words: Vec<[u16; DATA_WORDS]>,
    /// Page numbers of the random pattern.
    picks: Vec<usize>,
}

/// The ScriptedClient's order-independent fold of one served page.
fn page_digest(page: usize, words: &[u16; DATA_WORDS]) -> u64 {
    words.iter().enumerate().fold(0u64, |d, (i, &w)| {
        d.wrapping_add(((page as u64) << 32) ^ ((i as u64) << 16) ^ w as u64)
    })
}

fn fresh_drive(pack: &DiskPack) -> DiskDrive {
    let trace = Trace::new();
    trace.set_enabled(false);
    let mut drive = DiskDrive::new(SimClock::new(), trace);
    drive.load_pack(pack.clone());
    drive
}

fn build(seed: u64) -> Result<Image, String> {
    let trace = Trace::new();
    trace.set_enabled(false);
    let drive = DiskDrive::with_formatted_pack(SimClock::new(), trace, DiskModel::Trident, 1);
    let mut fs = FileSystem::format(drive).map_err(|e| format!("{e:?}"))?;
    let root = fs.root_dir();
    let mut rng = Rng::new(seed, 0x4C44);
    // A seeded handful of small files first, so the big file's place on the
    // pack depends on the seed.
    for k in 0..rng.below(32) {
        let f = dir::create_named_file(&mut fs, root, &format!("pad{k}"))
            .map_err(|e| format!("{e:?}"))?;
        let pad_len = 1 + rng.index(PAGE);
        let pad = rng.bytes(pad_len);
        fs.write_file(f, &pad).map_err(|e| format!("{e:?}"))?;
    }
    let file = dir::create_named_file(&mut fs, root, "ladder.dat").map_err(|e| format!("{e:?}"))?;
    let bytes = rng.bytes(SEQ_PAGES * PAGE);
    fs.write_file(file, &bytes).map_err(|e| format!("{e:?}"))?;
    let words: Vec<[u16; DATA_WORDS]> = bytes
        .chunks(PAGE)
        .map(|c| {
            let mut w = [0u16; DATA_WORDS];
            pack_bytes(c, &mut w);
            w
        })
        .collect();
    let (leader, _) = fs.open_leader(file).map_err(|e| format!("{e:?}"))?;
    let mut das = Vec::with_capacity(SEQ_PAGES);
    let mut da = leader.next;
    for p in 1..=SEQ_PAGES {
        das.push(da);
        let (label, _) = fs
            .read_page(PageName::new(file.fv, p as u16, da))
            .map_err(|e| format!("{e:?}"))?;
        da = label.next;
    }
    let picks = (0..RAND_PAGES).map(|_| 1 + rng.index(SEQ_PAGES)).collect();
    let drive = fs.unmount().map_err(|e| format!("{e:?}"))?;
    let pack = drive.pack().expect("the drive holds the pack").clone();
    Ok(Image {
        pack,
        file,
        das,
        words,
        picks,
    })
}

/// One rung's cost on one pattern: host and simulated ns per page.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    host_ns: f64,
    sim_ns: f64,
}

/// Runs `pattern` against a fresh copy of the pack, checking its digest.
fn measure<T>(
    img: &Image,
    make: impl Fn(DiskDrive) -> Result<T, String>,
    pattern: impl Fn(&mut T, &Image) -> Result<u64, String>,
    clock_of: impl Fn(&T) -> SimClock,
    pages: usize,
    expect: u64,
    what: &str,
) -> Result<Cost, String> {
    let mut env = make(fresh_drive(&img.pack))?;
    let clock = clock_of(&env);
    let sim0 = clock.now();
    let t0 = Instant::now();
    let digest = pattern(&mut env, img)?;
    let host = t0.elapsed().as_nanos() as f64;
    let sim = (clock.now() - sim0).as_nanos() as f64;
    if digest != expect {
        return Err(format!(
            "ladder {what}: digest {digest:#x}, pack holds {expect:#x}"
        ));
    }
    Ok(Cost {
        host_ns: host / pages as f64,
        sim_ns: sim / pages as f64,
    })
}

fn seq_disk<D: Disk>(disk: &mut D, img: &Image) -> Result<u64, String> {
    let mut d = 0u64;
    let res = disk.do_batch_read(&img.das, |i, view| {
        d = d.wrapping_add(page_digest(i + 1, view.data()));
    });
    res.iter()
        .try_for_each(|r| r.map_err(|e| format!("{e:?}")))?;
    Ok(d)
}

fn rand_disk<D: Disk>(disk: &mut D, img: &Image) -> Result<u64, String> {
    let mut d = 0u64;
    for &p in &img.picks {
        let res = disk.do_batch_read(&img.das[p - 1..p], |_, view| {
            d = d.wrapping_add(page_digest(p, view.data()));
        });
        res[0].map_err(|e| format!("{e:?}"))?;
    }
    Ok(d)
}

fn names(img: &Image, pages: impl Iterator<Item = usize>) -> Vec<PageName> {
    pages
        .map(|p| PageName::new(img.file.fv, p as u16, img.das[p - 1]))
        .collect()
}

fn seq_fs_page(fs: &mut FileSystem<DiskDrive>, img: &Image) -> Result<u64, String> {
    let reads = names(img, 1..=SEQ_PAGES);
    let mut d = 0u64;
    let labels = read_pages_zero_copy(fs.disk_mut(), &reads, |i, _, view| {
        d = d.wrapping_add(page_digest(i + 1, view.data()));
    });
    let ok = labels.iter().all(Result::is_ok);
    alto_fs::pool::recycle_labels(labels);
    if ok {
        Ok(d)
    } else {
        Err("fs_page read failed".into())
    }
}

fn rand_fs_page(fs: &mut FileSystem<DiskDrive>, img: &Image) -> Result<u64, String> {
    let mut d = 0u64;
    for &p in &img.picks {
        let reads = names(img, std::iter::once(p));
        let labels = read_pages_zero_copy(fs.disk_mut(), &reads, |_, _, view| {
            d = d.wrapping_add(page_digest(p, view.data()));
        });
        let ok = labels[0].is_ok();
        alto_fs::pool::recycle_labels(labels);
        if !ok {
            return Err(format!("fs_page page {p} failed"));
        }
    }
    Ok(d)
}

fn bytes_digest(first_page: usize, bytes: &[u8]) -> u64 {
    bytes.chunks(PAGE).enumerate().fold(0u64, |d, (k, c)| {
        let mut w = [0u16; DATA_WORDS];
        pack_bytes(c, &mut w);
        d.wrapping_add(page_digest(first_page + k, &w))
    })
}

fn seq_fs_file(fs: &mut FileSystem<DiskDrive>, img: &Image) -> Result<u64, String> {
    let bytes = fs.read_file(img.file).map_err(|e| format!("{e:?}"))?;
    Ok(bytes_digest(1, &bytes))
}

fn rand_fs_file(fs: &mut FileSystem<DiskDrive>, img: &Image) -> Result<u64, String> {
    let mut d = 0u64;
    for pn in names(img, img.picks.iter().copied()) {
        let (_, data) = fs.read_page(pn).map_err(|e| format!("{e:?}"))?;
        d = d.wrapping_add(page_digest(pn.page as usize, &data));
    }
    Ok(d)
}

fn seq_streams(fs: &mut FileSystem<DiskDrive>, img: &Image) -> Result<u64, String> {
    let mut buf = vec![0u8; SEQ_PAGES * PAGE];
    let mut s = DiskByteStream::open(fs, img.file).map_err(|e| format!("{e:?}"))?;
    let n = s.read_bytes(fs, &mut buf).map_err(|e| format!("{e:?}"))?;
    s.close(fs).map_err(|e| format!("{e:?}"))?;
    Ok(bytes_digest(1, &buf[..n]))
}

fn rand_streams(fs: &mut FileSystem<DiskDrive>, img: &Image) -> Result<u64, String> {
    let mut buf = [0u8; PAGE];
    let mut d = 0u64;
    let mut s = DiskByteStream::open(fs, img.file).map_err(|e| format!("{e:?}"))?;
    for &p in &img.picks {
        s.set_position(fs, ((p - 1) * PAGE) as u64)
            .map_err(|e| format!("{e:?}"))?;
        let n = s.read_bytes(fs, &mut buf).map_err(|e| format!("{e:?}"))?;
        d = d.wrapping_add(bytes_digest(p, &buf[..n]));
    }
    s.close(fs).map_err(|e| format!("{e:?}"))?;
    Ok(d)
}

const SERVER: u8 = 1;
const CLIENT: u8 = 2;

/// A page server over the rung's file system, with one client host.
struct Served {
    fs: FileSystem<DiskDrive>,
    ether: Ether,
}

fn serve_env(drive: DiskDrive) -> Result<Served, String> {
    let clock = drive.clock().clone();
    let trace = drive.trace().clone();
    let fs = FileSystem::mount(drive).map_err(|e| format!("{e:?}"))?;
    let mut ether = Ether::new(clock, trace);
    ether.attach(SERVER).map_err(|e| format!("{e:?}"))?;
    ether.attach(CLIENT).map_err(|e| format!("{e:?}"))?;
    Ok(Served { fs, ether })
}

fn seq_pagesvc(env: &mut Served, _img: &Image) -> Result<u64, String> {
    let Served { fs, ether } = env;
    let mut svc = FsPageService::new(fs);
    let mut server = PageServer::new(SERVER);
    let cfg = ClientConfig::new(SERVER, PAGE_SERVICE_SOCKET);
    let mut client = ScriptedClient::new(CLIENT, 0x100, "ladder.dat".into(), cfg);
    let mut samples = Vec::with_capacity(SEQ_PAGES);
    let mut inbox = Vec::new();
    while !client.finished() {
        let now = ether.clock().now();
        inbox.clear();
        ether
            .drain_arrived(CLIENT, &mut inbox)
            .map_err(|e| format!("{e:?}"))?;
        for pkt in inbox.drain(..) {
            client.on_packet(pkt, now, &mut samples);
        }
        client.pump(ether, now).map_err(|e| format!("{e:?}"))?;
        server.tick(ether, &mut svc).map_err(|e| format!("{e:?}"))?;
    }
    if client.phase() != ClientPhase::Done || client.received != SEQ_PAGES as u64 {
        return Err(format!("pagesvc client ended {:?}", client.phase()));
    }
    Ok(client.digest)
}

/// Sends one request and runs the server until its reply arrives.
fn exchange(
    ether: &mut Ether,
    svc: &mut FsPageService<'_, DiskDrive>,
    server: &mut PageServer,
    ptype: alto_net::PacketType,
    seq: u16,
    payload: Vec<u16>,
) -> Result<Packet, String> {
    ether
        .send(Packet {
            ptype,
            dst_host: SERVER,
            src_host: CLIENT,
            dst_socket: PAGE_SERVICE_SOCKET,
            src_socket: 0x100,
            seq,
            payload,
        })
        .map_err(|e| format!("{e:?}"))?;
    server.tick(ether, svc).map_err(|e| format!("{e:?}"))?;
    let mut inbox = Vec::with_capacity(1);
    ether
        .drain_arrived(CLIENT, &mut inbox)
        .map_err(|e| format!("{e:?}"))?;
    inbox.pop().ok_or_else(|| "no reply".to_string())
}

fn rand_pagesvc(env: &mut Served, img: &Image) -> Result<u64, String> {
    let Served { fs, ether } = env;
    let mut svc = FsPageService::new(fs);
    let mut server = PageServer::new(SERVER);
    let mut name = Vec::new();
    encode_name("ladder.dat", &mut name);
    let open = exchange(ether, &mut svc, &mut server, OPEN_REQUEST, 0, name)?;
    let [STATUS_OK, handle, _, _] = open.payload[..] else {
        return Err(format!("open refused: {:?}", open.payload));
    };
    if open.ptype != OPEN_REPLY {
        return Err("open: wrong reply".into());
    }
    let mut d = 0u64;
    for (k, &p) in img.picks.iter().enumerate() {
        let payload = vec![handle, p as u16];
        let reply = exchange(
            ether,
            &mut svc,
            &mut server,
            READ_REQUEST,
            k as u16 + 1,
            payload,
        )?;
        if reply.ptype != PAGE_REPLY {
            return Err(format!("page {p}: status reply {:?}", reply.payload));
        }
        let words: &[u16; DATA_WORDS] = reply.payload[..]
            .try_into()
            .map_err(|_| format!("page {p}: short reply"))?;
        d = d.wrapping_add(page_digest(p, words));
    }
    Ok(d)
}

/// Runs the ladder and records every rung's per-page costs and taxes.
pub fn run(seed: u64, r: &mut Round) -> Result<(), String> {
    let img = build(seed)?;
    let seq_expect = img
        .words
        .iter()
        .enumerate()
        .fold(0u64, |d, (i, w)| d.wrapping_add(page_digest(i + 1, w)));
    let rand_expect = img.picks.iter().fold(0u64, |d, &p| {
        d.wrapping_add(page_digest(p, &img.words[p - 1]))
    });
    let mount = |d: DiskDrive| FileSystem::mount(d).map_err(|e| format!("{e:?}"));
    let fs_clock = |fs: &FileSystem<DiskDrive>| fs.disk().clock().clone();
    let array =
        |d: DiskDrive| DriveArray::new(vec![d], Placement::Range).map_err(|e| format!("{e:?}"));
    let array_clock = |a: &DriveArray| a.clock().clone();
    let drive_clock = |d: &DiskDrive| d.clock().clone();
    let svc_clock = |s: &Served| s.ether.clock().clone();
    let ok = |d: DiskDrive| Ok(d);
    let mut costs: Vec<(Cost, Cost)> = Vec::with_capacity(RUNGS.len());
    let n = (SEQ_PAGES, RAND_PAGES);
    let e = (seq_expect, rand_expect);
    costs.push((
        measure(&img, ok, seq_disk, drive_clock, n.0, e.0, "drive seq")?,
        measure(&img, ok, rand_disk, drive_clock, n.1, e.1, "drive rand")?,
    ));
    costs.push((
        measure(&img, array, seq_disk, array_clock, n.0, e.0, "array seq")?,
        measure(&img, array, rand_disk, array_clock, n.1, e.1, "array rand")?,
    ));
    costs.push((
        measure(&img, mount, seq_fs_page, fs_clock, n.0, e.0, "fs_page seq")?,
        measure(
            &img,
            mount,
            rand_fs_page,
            fs_clock,
            n.1,
            e.1,
            "fs_page rand",
        )?,
    ));
    costs.push((
        measure(&img, mount, seq_fs_file, fs_clock, n.0, e.0, "fs_file seq")?,
        measure(
            &img,
            mount,
            rand_fs_file,
            fs_clock,
            n.1,
            e.1,
            "fs_file rand",
        )?,
    ));
    costs.push((
        measure(&img, mount, seq_streams, fs_clock, n.0, e.0, "streams seq")?,
        measure(
            &img,
            mount,
            rand_streams,
            fs_clock,
            n.1,
            e.1,
            "streams rand",
        )?,
    ));
    costs.push((
        measure(
            &img,
            serve_env,
            seq_pagesvc,
            svc_clock,
            n.0,
            e.0,
            "pagesvc seq",
        )?,
        measure(
            &img,
            serve_env,
            rand_pagesvc,
            svc_clock,
            n.1,
            e.1,
            "pagesvc rand",
        )?,
    ));
    for (k, (rung, (seq, rand))) in RUNGS.iter().zip(&costs).enumerate() {
        for (pat, c) in [("seq", seq), ("rand", rand)] {
            r.set_host(&format!("ladder.{rung}.{pat}.host_ns_per_page"), c.host_ns);
            r.set_host(&format!("ladder.{rung}.{pat}.sim_ns_per_page"), c.sim_ns);
            if k > 0 {
                let below = if pat == "seq" {
                    costs[k - 1].0
                } else {
                    costs[k - 1].1
                };
                r.set_host(
                    &format!("ladder.{rung}.{pat}.host_tax_ns_per_page"),
                    c.host_ns - below.host_ns,
                );
                r.set_host(
                    &format!("ladder.{rung}.{pat}.sim_tax_ns_per_page"),
                    c.sim_ns - below.sim_ns,
                );
            }
        }
    }
    Ok(())
}
