//! N-arm drive arrays (§2, generalized).
//!
//! The paper's machine room grows one drive at a time: "one or two
//! moving-head disk drives", each an independent arm over its own pack.
//! [`DriveArray`] generalizes the two-drive adapter to N arms behind the
//! same abstract disk object (§2/§5.2): a *sharding layer* maps every
//! global disk address to exactly one arm and a local address on it, a
//! spanning batch is split into per-arm sub-batches, and the sub-batches
//! run on *overlapped simulated timelines* — every arm starts at the same
//! instant and the batch's elapsed time is the maximum over the arms, not
//! the sum, because each arm seeks and transfers independently.
//!
//! Two placement policies are selectable:
//!
//! * [`Placement::Range`] — arm `k` owns one contiguous span of the global
//!   address space (the two-drive layout, generalized; mixed geometries
//!   allowed). Consecutive addresses stay on one arm, so a single file
//!   streams from a single arm and *different* files parallelize.
//! * [`Placement::Hash`] — global address `a` lives on arm `a mod N` at
//!   local address `a div N` (uniform geometries required). Consecutive
//!   addresses interleave across all arms, so even one sequential chain
//!   parallelizes N ways.
//!
//! The shares run one after another on the host, each rewound to the
//! batch's start instant, and the clock then jumps to the latest finish —
//! an *overlapped serial replay*. `set_overlap_enabled(false)` serializes
//! the arms on the shared timeline (the ablation), and a one-arm array
//! degenerates to a plain pass-through.
//!
//! A two-arm [`Placement::Range`] array of identical packs is the paper's
//! two-drive system: addresses `0 .. n` on drive 0, `n .. 2n` on drive 1.

use alto_sim::{SimClock, SimTime, Trace};

use crate::drive::{Disk, DiskDrive, DriveStats};
use crate::errors::DiskError;
use crate::geometry::{DiskAddress, DiskGeometry};
use crate::pool;
use crate::sched::BatchRequest;
use crate::sector::{SectorBuf, SectorOp};

/// How a global disk address is assigned to an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Arm `k` owns one contiguous range of the global address space, in
    /// arm order — the two-drive layout generalized. Mixed geometries are
    /// allowed; each arm's span is its own pack's sector count.
    Range,
    /// Global address `a` maps to arm `a mod N`, local address `a div N`.
    /// Consecutive global addresses interleave across all arms (so one
    /// sequential chain engages every arm); requires uniform geometries.
    Hash,
}

/// N drives presented as one disk whose address space is the union of the
/// member packs, with batches that span arms served on overlapped
/// simulated timelines (elapsed = max over the arms).
#[derive(Debug)]
pub struct DriveArray {
    arms: Vec<DiskDrive>,
    placement: Placement,
    /// Cumulative span starts for [`Placement::Range`]: arm `k` owns global
    /// addresses `starts[k] .. starts[k + 1]`; `starts[N] == total`.
    starts: Vec<u32>,
    total: u32,
    shape: DiskGeometry,
    overlap: bool,
    overlap_batches: u64,
    overlap_saved: SimTime,
    /// Per-arm `(original indices, translated requests)` split storage,
    /// kept across batches so the steady state allocates nothing.
    scratch: Vec<(Vec<usize>, Vec<BatchRequest>)>,
    /// Per-arm `(original indices, local addresses)` split storage for
    /// zero-copy batch reads, likewise recycled across batches.
    read_scratch: Vec<(Vec<usize>, Vec<DiskAddress>)>,
    /// Per-arm result storage, likewise recycled across batches.
    sub_results: Vec<Vec<Result<(), DiskError>>>,
}

impl DriveArray {
    /// Combines the given loaded drives into one array.
    ///
    /// Returns an error if there are no arms, any arm is empty, the
    /// combined address space does not fit 16-bit disk addresses, the
    /// member shapes cannot be presented as one composite geometry, or
    /// [`Placement::Hash`] is requested over mixed geometries.
    pub fn new(arms: Vec<DiskDrive>, placement: Placement) -> Result<DriveArray, DiskError> {
        if arms.is_empty() {
            return Err(DiskError::MalformedOp("drive array needs at least one arm"));
        }
        let mut starts = Vec::with_capacity(arms.len() + 1);
        let mut total = 0u32;
        let g0 = arms[0].geometry()?;
        for arm in &arms {
            let g = arm.geometry()?;
            if placement == Placement::Hash && g != g0 {
                return Err(DiskError::MalformedOp(
                    "hash placement requires uniform arm geometries",
                ));
            }
            starts.push(total);
            total += g.sector_count();
        }
        starts.push(total);
        if total >= u16::MAX as u32 {
            return Err(DiskError::MalformedOp(
                "drive-array address space exceeds 16-bit disk addresses",
            ));
        }
        // The composite shape keeps arm 0's track layout and stacks the
        // union as extra cylinders when the capacities divide evenly, so
        // CHS locality stays meaningful within each arm's span; otherwise
        // (mixed geometries that do not stack) the shape degenerates to one
        // sector per track — only the exact sector count matters to the
        // layers above.
        let per_cyl = g0.heads as u32 * g0.sectors as u32;
        let shape = if per_cyl > 0 && total.is_multiple_of(per_cyl) {
            DiskGeometry {
                cylinders: (total / per_cyl) as u16,
                heads: g0.heads,
                sectors: g0.sectors,
            }
        } else {
            DiskGeometry {
                cylinders: total as u16,
                heads: 1,
                sectors: 1,
            }
        };
        let count = arms.len();
        Ok(DriveArray {
            arms,
            placement,
            starts,
            total,
            shape,
            overlap: true,
            overlap_batches: 0,
            overlap_saved: SimTime::ZERO,
            scratch: (0..count).map(|_| Default::default()).collect(),
            read_scratch: (0..count).map(|_| Default::default()).collect(),
            sub_results: (0..count).map(|_| Vec::new()).collect(),
        })
    }

    /// Convenience: `count` freshly formatted packs of one model on a
    /// shared timeline, pack numbers `1 ..= count`.
    pub fn with_arms(
        count: usize,
        placement: Placement,
        clock: SimClock,
        trace: Trace,
        model: crate::geometry::DiskModel,
    ) -> DriveArray {
        let arms = (1..=count as u16)
            .map(|pack| DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), model, pack))
            .collect();
        DriveArray::new(arms, placement).expect("identical fresh packs")
    }

    /// The arm and local address for a global address (prechecked to be in
    /// range).
    fn route(&self, da: DiskAddress) -> (usize, DiskAddress) {
        let v = da.0 as u32;
        match self.placement {
            Placement::Hash => {
                let n = self.arms.len() as u32;
                ((v % n) as usize, DiskAddress((v / n) as u16))
            }
            Placement::Range => {
                let mut arm = self.arms.len() - 1;
                for k in 0..self.arms.len() {
                    if v < self.starts[k + 1] {
                        arm = k;
                        break;
                    }
                }
                (arm, DiskAddress((v - self.starts[arm]) as u16))
            }
        }
    }

    /// The global address of `local` on `arm` — [`DriveArray::route`]'s
    /// inverse.
    #[cfg(test)]
    fn unroute(&self, arm: usize, local: DiskAddress) -> DiskAddress {
        match self.placement {
            Placement::Hash => {
                DiskAddress((local.0 as u32 * self.arms.len() as u32 + arm as u32) as u16)
            }
            Placement::Range => DiskAddress((self.starts[arm] + local.0 as u32) as u16),
        }
    }

    /// The placement policy in effect.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Access to one of the member drives.
    pub fn arm(&self, arm: usize) -> &DiskDrive {
        &self.arms[arm]
    }

    /// Mutable access to one of the member drives.
    pub fn arm_mut(&mut self, arm: usize) -> &mut DiskDrive {
        &mut self.arms[arm]
    }

    /// Enables or disables overlapped execution of batches that span two or
    /// more arms (enabled by default). Disabled, the arms run one after the
    /// other on the shared timeline — the serialized ablation.
    pub fn set_overlap_enabled(&mut self, enabled: bool) {
        self.overlap = enabled;
    }

    /// How many spanning batches ran on host threads: always 0, since every
    /// batch is an overlapped serial replay on the calling thread. Kept so
    /// reports that print the counter keep their shape.
    pub fn threaded_batches(&self) -> u64 {
        0
    }

    /// Sets the retry limit on every arm (see [`DiskDrive::set_retries`]).
    pub fn set_retries(&mut self, retries: u32) {
        for d in &mut self.arms {
            d.set_retries(retries);
        }
    }

    /// Runs every occupied arm's share of a split batch (`split[arm]`: the
    /// requests' original indices and the arm's own work) in arm order.
    /// Every arm has its own head assembly and data path, so with overlap
    /// on and two or more arms occupied each share starts from the batch's
    /// start instant and the clock then jumps to the *last* finish (elapsed
    /// = max over the arms, not the sum), recorded as one `disk.io.overlap`
    /// event; otherwise the shares follow one another on the shared
    /// timeline — the serialized ablation.
    fn replay<T>(
        &mut self,
        split: &mut [(Vec<usize>, T)],
        what: &'static str,
        mut run: impl FnMut(usize, &mut DiskDrive, &[usize], &mut T),
    ) {
        let occupied = split.iter().filter(|(idxs, _)| !idxs.is_empty()).count();
        let overlapped = self.overlap && occupied >= 2;
        let clock = self.arms[0].clock().clone();
        let t0 = clock.now();
        let (mut longest, mut total) = (SimTime::ZERO, SimTime::ZERO);
        for (arm, (idxs, share)) in split.iter_mut().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            if overlapped {
                clock.set(t0);
            }
            run(arm, &mut self.arms[arm], idxs, share);
            let elapsed = clock.now() - t0;
            longest = longest.max(elapsed);
            total += elapsed;
        }
        if !overlapped {
            return;
        }
        let saved = total - longest;
        clock.set(t0 + longest);
        self.overlap_batches += 1;
        self.overlap_saved += saved;
        self.arms[0]
            .trace()
            .record_with(clock.now(), "disk.io.overlap", || {
                let counts = split
                    .iter()
                    .map(|(idxs, _)| idxs.len().to_string())
                    .collect::<Vec<_>>()
                    .join("+");
                format!("{counts} {what} overlapped, {saved} saved")
            });
    }
}

impl Disk for DriveArray {
    fn geometry(&self) -> Result<DiskGeometry, DiskError> {
        Ok(self.shape)
    }

    fn pack_number(&self) -> Result<u16, DiskError> {
        self.arms[0].pack_number()
    }

    fn arm_count(&self) -> usize {
        self.arms.len()
    }

    fn arm_of(&self, da: DiskAddress) -> usize {
        if da.is_nil() || (da.0 as u32) >= self.total {
            0
        } else {
            self.route(da).0
        }
    }

    fn arm_origin(&self, arm: usize) -> Option<DiskAddress> {
        // Only range placement has per-arm contiguous spans worth steering
        // allocation toward; hash placement interleaves consecutive
        // addresses across arms by construction.
        if self.placement == Placement::Range && self.arms.len() > 1 && arm < self.arms.len() {
            Some(DiskAddress(self.starts[arm] as u16))
        } else {
            None
        }
    }

    fn do_op(
        &mut self,
        da: DiskAddress,
        op: SectorOp,
        buf: &mut SectorBuf,
    ) -> Result<(), DiskError> {
        if da.is_nil() || (da.0 as u32) >= self.total {
            return Err(DiskError::InvalidAddress(da));
        }
        let (arm, local) = self.route(da);
        // The physical sector self-identifies with its *pack's* number and
        // its *local* address; translate the caller's global view on the
        // way in (zero stays zero: it is the check wildcard) and back on
        // the way out.
        if buf.header[0] == self.arms[0].pack_number()? {
            buf.header[0] = self.arms[arm].pack_number()?;
        }
        if buf.header[1] == da.0 && da.0 != 0 {
            buf.header[1] = local.0;
        }
        let result = self.arms[arm].do_op(local, op, buf);
        if result.is_ok() && buf.header[1] == local.0 {
            buf.header[1] = da.0;
        }
        result
    }

    fn do_batch_read<F>(&mut self, das: &[DiskAddress], mut visit: F) -> Vec<Result<(), DiskError>>
    where
        F: FnMut(usize, crate::view::SectorView<'_>),
    {
        // Split the addresses by arm so each drive runs its own zero-copy
        // chain; results land back in the request's original order and the
        // visitor sees original indices. Views lend each arm's platter
        // sectors directly, so their headers carry the arm-local address —
        // callers verify pages by *label* (fv, page number), which is
        // position-independent.
        let mut results = pool::results_vec();
        results.extend(das.iter().map(|_| Ok(())));
        let mut split = std::mem::take(&mut self.read_scratch);
        for (idxs, locals) in &mut split {
            idxs.clear();
            locals.clear();
        }
        for (i, &da) in das.iter().enumerate() {
            if da.is_nil() || (da.0 as u32) >= self.total {
                results[i] = Err(DiskError::InvalidAddress(da));
                continue;
            }
            let (arm, local) = self.route(da);
            split[arm].0.push(i);
            split[arm].1.push(local);
        }
        self.replay(&mut split, "read requests", |_, drive, idxs, locals| {
            let sub = drive.do_batch_read(locals, |j, view| visit(idxs[j], view));
            for (&i, &res) in idxs.iter().zip(sub.iter()) {
                results[i] = res;
            }
            pool::recycle_results(sub);
        });
        self.read_scratch = split;
        results
    }

    fn do_batch(&mut self, batch: &mut [BatchRequest]) -> Vec<Result<(), DiskError>> {
        // On one arm routing is the identity: the drive takes the batch as is.
        if self.arms.len() == 1 {
            return self.arms[0].do_batch(batch);
        }
        // Split the batch by arm so each drive schedules (and chains) its
        // own share; addresses and headers are translated exactly as in
        // `do_op`, and results land back in the batch's original order.
        // The result vector comes from the free lists and the split storage
        // is kept on the adapter, so the steady state allocates nothing.
        let mut results = pool::results_vec();
        results.extend(batch.iter().map(|_| Ok(())));
        let pack0 = self.arms[0].pack_number().ok();
        let mut split = std::mem::take(&mut self.scratch);
        for (idxs, sub) in &mut split {
            idxs.clear();
            sub.clear();
        }
        for (i, req) in batch.iter_mut().enumerate() {
            let da = req.da;
            if da.is_nil() || (da.0 as u32) >= self.total {
                results[i] = Err(DiskError::InvalidAddress(da));
                continue;
            }
            let (arm, local) = self.route(da);
            let mut buf = std::mem::take(&mut req.buf);
            if let (Some(p0), Some(pu)) = (pack0, self.arms[arm].pack_number().ok()) {
                if buf.header[0] == p0 {
                    buf.header[0] = pu;
                }
            }
            if buf.header[1] == da.0 && da.0 != 0 {
                buf.header[1] = local.0;
            }
            split[arm].0.push(i);
            split[arm].1.push(BatchRequest::new(local, req.op, buf));
        }
        let mut sub_results = std::mem::take(&mut self.sub_results);
        self.replay(&mut split, "requests", |arm, drive, _, sub| {
            sub_results[arm] = drive.do_batch(sub);
        });
        for (arm, (idxs, sub)) in split.iter_mut().enumerate() {
            for ((&i, done), res) in idxs
                .iter()
                .zip(sub.iter_mut())
                .zip(sub_results[arm].drain(..))
            {
                let da = batch[i].da;
                if res.is_ok() && done.buf.header[1] == done.da.0 {
                    done.buf.header[1] = da.0;
                }
                batch[i].buf = std::mem::take(&mut done.buf);
                results[i] = res;
            }
        }
        for v in &mut sub_results {
            pool::recycle_results(std::mem::take(v));
        }
        self.sub_results = sub_results;
        self.scratch = split;
        results
    }

    fn note_readahead(&mut self, hits: u64, prefetched: u64) {
        self.arms[0].note_readahead(hits, prefetched);
    }

    fn note_write_behind(&mut self, pages: u64) {
        self.arms[0].note_write_behind(pages);
    }

    fn io_stats(&self) -> DriveStats {
        // Per-arm counters merge; the overlap accounting lives here, on
        // the adapter that does the overlapping.
        let mut s = self
            .arms
            .iter()
            .fold(DriveStats::default(), |acc, d| acc.merged(&d.stats()));
        s.overlap_batches = self.overlap_batches;
        s.overlap_saved = self.overlap_saved;
        s
    }

    fn write_epoch(&self) -> u64 {
        self.arms.iter().map(super::drive::Disk::write_epoch).sum()
    }

    // Every arm shares one retry policy (set via `set_retries`); arm 0
    // answers for it and collects the sequence outcomes.
    fn retry_limit(&self) -> u32 {
        self.arms[0].retry_limit()
    }

    fn retry_backoff(&self) -> SimTime {
        self.arms[0].retry_backoff()
    }

    fn note_retry(&mut self, retries: u64, recovered: bool) {
        self.arms[0].note_retry(retries, recovered);
    }

    // Park/drain accounting routes to the arm that owns the address, in
    // that arm's local address space — the same translation its sector
    // operations get, so its auditor sees consistent addresses.
    fn note_park(&mut self, da: DiskAddress, page: u16) {
        let (arm, local) = self.route(da);
        self.arms[arm].note_park(local, page);
    }

    fn note_unpark(&mut self, da: DiskAddress, page: u16, outcome: crate::audit::UnparkOutcome) {
        let (arm, local) = self.route(da);
        self.arms[arm].note_unpark(local, page, outcome);
    }

    fn set_audit_enabled(&mut self, enabled: bool) {
        for d in &mut self.arms {
            d.set_audit_enabled(enabled);
        }
    }

    fn audit_violations(&self) -> u64 {
        self.arms
            .iter()
            .map(super::drive::Disk::audit_violations)
            .sum()
    }

    fn clock(&self) -> &SimClock {
        self.arms[0].clock()
    }

    fn trace(&self) -> &Trace {
        self.arms[0].trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskModel;
    use crate::label::Label;
    use crate::sector::DATA_WORDS;

    fn array(count: usize, placement: Placement) -> DriveArray {
        DriveArray::with_arms(
            count,
            placement,
            SimClock::new(),
            Trace::new(),
            DiskModel::Diablo31,
        )
    }

    fn live_label(page: u16) -> Label {
        Label {
            fid: [3, 4],
            version: 1,
            page_number: page,
            length: 512,
            next: DiskAddress::NIL,
            prev: DiskAddress::NIL,
        }
    }

    fn allocate(d: &mut DriveArray, da: DiskAddress, label: Label) {
        let mut buf = SectorBuf::with_label(Label::FREE);
        d.do_op(da, SectorOp::CHECK_LABEL, &mut buf).unwrap();
        let mut buf = SectorBuf::with_label(label);
        buf.data = [da.0; DATA_WORDS];
        d.do_op(da, SectorOp::WRITE_LABEL, &mut buf).unwrap();
    }

    #[test]
    fn every_address_routes_to_exactly_one_arm() {
        // The sharding invariant, both policies, K ∈ {1, 2, 4, 8}: routing
        // is total, the local address is in the arm's range, and unroute
        // inverts route — so each global address has exactly one home.
        for placement in [Placement::Range, Placement::Hash] {
            for k in [1usize, 2, 4, 8] {
                let d = array(k, placement);
                let total = d.geometry().unwrap().sector_count();
                assert_eq!(total, 4872 * k as u32);
                let mut per_arm = vec![0u32; k];
                for a in 0..total as u16 {
                    let (arm, local) = d.route(DiskAddress(a));
                    assert!(arm < k);
                    assert!(
                        (local.0 as u32) < d.arms[arm].geometry().unwrap().sector_count(),
                        "{placement:?} K={k} addr {a}"
                    );
                    assert_eq!(d.unroute(arm, local), DiskAddress(a));
                    assert_eq!(d.arm_of(DiskAddress(a)), arm);
                    per_arm[arm] += 1;
                }
                // Exact partition: the shares cover the space with no
                // overlap and no gap.
                assert_eq!(per_arm.iter().sum::<u32>(), total);
                for (arm, &n) in per_arm.iter().enumerate() {
                    assert_eq!(n, 4872, "{placement:?} K={k} arm {arm}");
                }
            }
        }
    }

    #[test]
    fn round_trip_across_arm_boundaries_is_bit_identical() {
        // Writes then reads spanning every arm, K ∈ {1, 2, 4, 8}, both
        // policies, with the §3.3 auditor armed on every arm: the data and
        // labels come back bit-identical through the global address space
        // and the audit stays clean.
        for placement in [Placement::Range, Placement::Hash] {
            for k in [1usize, 2, 4, 8] {
                let mut d = array(k, placement);
                d.set_audit_enabled(true);
                let total = d.geometry().unwrap().sector_count();
                // Addresses straddling each arm boundary plus a spread.
                let mut das: Vec<DiskAddress> = Vec::new();
                for arm in 1..k {
                    let boundary = (total as usize * arm / k) as u16;
                    das.push(DiskAddress(boundary - 1));
                    das.push(DiskAddress(boundary));
                }
                das.push(DiskAddress(1));
                das.push(DiskAddress(total as u16 - 1));
                for (i, &da) in das.iter().enumerate() {
                    allocate(&mut d, da, live_label(i as u16));
                }
                let mut batch: Vec<BatchRequest> = das
                    .iter()
                    .enumerate()
                    .map(|(i, &da)| {
                        BatchRequest::new(
                            da,
                            SectorOp::READ,
                            SectorBuf::with_label(live_label(i as u16)),
                        )
                    })
                    .collect();
                for r in d.do_batch(&mut batch) {
                    r.unwrap();
                }
                for (req, &da) in batch.iter().zip(&das) {
                    assert_eq!(req.buf.data, [da.0; DATA_WORDS], "{placement:?} K={k}");
                    assert_eq!(req.buf.header[1], da.0, "{placement:?} K={k}");
                }
                assert_eq!(d.audit_violations(), 0, "{placement:?} K={k}");
            }
        }
    }

    #[test]
    fn mixed_geometries_stack_under_range_placement() {
        // §2's "disk with about twice the size and performance" joins the
        // array: a Diablo arm and a Trident arm present one address space,
        // split at the Diablo's capacity.
        let clock = SimClock::new();
        let trace = Trace::new();
        let d0 =
            DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), DiskModel::Diablo31, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, trace, DiskModel::Trident, 2);
        let mut d = DriveArray::new(vec![d0, d1], Placement::Range).unwrap();
        assert_eq!(d.geometry().unwrap().sector_count(), 4872 + 9744);
        assert_eq!(d.arm_of(DiskAddress(4871)), 0);
        assert_eq!(d.arm_of(DiskAddress(4872)), 1);
        allocate(&mut d, DiskAddress(4871), live_label(0));
        allocate(&mut d, DiskAddress(4872 + 9000), live_label(1));
        let mut buf = SectorBuf::with_label(live_label(1));
        d.do_op(DiskAddress(4872 + 9000), SectorOp::READ, &mut buf)
            .unwrap();
        assert_eq!(buf.data, [(4872 + 9000) as u16; DATA_WORDS]);
        // The physical sector self-identifies with its pack and local
        // address.
        let s = d.arm(1).pack().unwrap().sector(DiskAddress(9000)).unwrap();
        assert_eq!(s.header, [2, 9000]);
    }

    #[test]
    fn hash_placement_requires_uniform_geometries() {
        let clock = SimClock::new();
        let d0 =
            DiskDrive::with_formatted_pack(clock.clone(), Trace::new(), DiskModel::Diablo31, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, Trace::new(), DiskModel::Trident, 2);
        assert!(DriveArray::new(vec![d0, d1], Placement::Hash).is_err());
    }

    #[test]
    fn one_arm_array_degenerates_to_a_plain_drive() {
        // The ablation knob "arm-count = 1": routing is the identity, no
        // batch is ever overlapped, and placement hints vanish.
        for placement in [Placement::Range, Placement::Hash] {
            let mut d = array(1, placement);
            assert_eq!(d.arm_count(), 1);
            assert_eq!(d.arm_origin(0), None);
            assert_eq!(d.route(DiskAddress(123)), (0, DiskAddress(123)));
            let mut batch: Vec<BatchRequest> = (0..8u16)
                .map(|i| {
                    BatchRequest::new(DiskAddress(40 + i), SectorOp::READ_ALL, SectorBuf::zeroed())
                })
                .collect();
            for r in d.do_batch(&mut batch) {
                r.unwrap();
            }
            let s = d.io_stats();
            assert_eq!(s.overlap_batches, 0);
            assert_eq!(d.threaded_batches(), 0);
        }
    }

    #[test]
    fn four_arms_overlap_a_spanning_batch() {
        use alto_sim::SimTime;
        // Hash placement interleaves consecutive addresses over all four
        // arms, so a sequential batch engages every arm at once: elapsed is
        // the longest arm's share, well under the serialized sum.
        let run = |overlap: bool| -> SimTime {
            let mut d = array(4, Placement::Hash);
            d.set_overlap_enabled(overlap);
            let mut batch: Vec<BatchRequest> = (0..64u16)
                .map(|a| BatchRequest::new(DiskAddress(a), SectorOp::READ_ALL, SectorBuf::zeroed()))
                .collect();
            let t0 = d.clock().now();
            for r in d.do_batch(&mut batch) {
                r.unwrap();
            }
            if overlap {
                let s = d.io_stats();
                assert_eq!(s.overlap_batches, 1);
                assert!(s.overlap_saved > SimTime::ZERO);
            }
            d.clock().now() - t0
        };
        let serial = run(false);
        let overlapped = run(true);
        // Four equal shares: at least 2.5× out of the ideal 4×.
        assert!(
            overlapped.as_nanos() * 10 <= serial.as_nanos() * 4,
            "overlapped {overlapped} vs serialized {serial}"
        );
    }

    #[test]
    fn hard_error_on_one_arm_still_charges_max_of_arms() {
        use alto_sim::SimTime;
        // Mid-batch media failure on one arm of four: the failed arm
        // reschedules its own remainder (every other request still
        // succeeds, exactly once) and the batch's elapsed time is still
        // the max over the arms — the error must not shear the merged
        // timeline.
        let damaged_global = DiskAddress(4 * 100 + 2); // arm 2, local 100
        let share = |d: &mut DriveArray, arm: u16| -> Vec<BatchRequest> {
            // Eight requests per arm, spread over cylinders; arm 2's share
            // contains the damaged sector in the middle.
            (0..8u16)
                .map(|i| {
                    let local = if arm == 2 && i == 3 {
                        100
                    } else {
                        200 + 37 * i
                    };
                    BatchRequest::new(
                        d.unroute(arm as usize, DiskAddress(local)),
                        SectorOp::READ_ALL,
                        SectorBuf::zeroed(),
                    )
                })
                .collect()
        };
        let elapsed = |which: Option<u16>| -> SimTime {
            let mut d = array(4, Placement::Hash);
            d.set_retries(0);
            d.arm_mut(2).pack_mut().unwrap().damage(DiskAddress(100));
            let mut batch = Vec::new();
            for arm in 0..4u16 {
                if which.is_none() || which == Some(arm) {
                    batch.extend(share(&mut d, arm));
                }
            }
            let t0 = d.clock().now();
            let results = d.do_batch(&mut batch);
            for (req, res) in batch.iter().zip(&results) {
                if req.da == damaged_global {
                    assert!(matches!(res, Err(DiskError::HardError { .. })), "{res:?}");
                } else {
                    assert!(res.is_ok(), "{:?}: {res:?}", req.da);
                }
            }
            if which.is_none() {
                // Each arm serviced its own share exactly once — the
                // failure rescheduled only arm 2's remainder, on arm 2.
                for arm in 0..4 {
                    assert_eq!(d.arm(arm).stats().ops, 8, "arm {arm}");
                }
            }
            d.clock().now() - t0
        };
        let all = elapsed(None);
        let singles: Vec<SimTime> = (0..4).map(|arm| elapsed(Some(arm))).collect();
        let longest = singles.iter().copied().max().unwrap();
        assert!(
            singles[2] > singles[0],
            "the replanned arm pays for its rescheduling"
        );
        assert_eq!(all, longest);
    }

    #[test]
    fn two_range_arms_self_identify_per_pack_at_the_seam() {
        // The paper's two-drive system: the sectors either side of the seam
        // land on different packs, each self-identified with its own pack
        // number and *local* address, so the Scavenger works unchanged.
        let mut d = array(2, Placement::Range);
        allocate(&mut d, DiskAddress(4871), live_label(0));
        allocate(&mut d, DiskAddress(4872), live_label(1));
        let s0 = d.arm(0).pack().unwrap().sector(DiskAddress(4871)).unwrap();
        assert_eq!(s0.decoded_label().page_number, 0);
        assert_eq!(s0.header, [1, 4871]);
        let s1 = d.arm(1).pack().unwrap().sector(DiskAddress(0)).unwrap();
        assert_eq!(s1.decoded_label().page_number, 1);
        assert_eq!(s1.header, [2, 0]);
        // Label checks keep their §3.3 meaning on the far arm: a wrong
        // label claim bounces.
        let mut buf = SectorBuf::with_label(live_label(6));
        assert!(matches!(
            d.do_op(DiskAddress(4872), SectorOp::READ, &mut buf),
            Err(DiskError::Check(_))
        ));
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let mut d = array(2, Placement::Range);
        let mut buf = SectorBuf::zeroed();
        for da in [DiskAddress(2 * 4872), DiskAddress::NIL] {
            assert!(matches!(
                d.do_op(da, SectorOp::READ_ALL, &mut buf),
                Err(DiskError::InvalidAddress(_))
            ));
        }
    }

    #[test]
    fn straddling_batch_runs_every_request_once_on_its_own_arm() {
        // Requests interleaved across the seam plus one nil address: every
        // valid request runs exactly once, on its own arm, with results
        // and header translation back in the batch's original order, and
        // the nil request fails alone.
        let mut d = array(2, Placement::Range);
        let das: Vec<DiskAddress> = (0..8u16)
            .map(|i| {
                if i % 2 == 0 {
                    DiskAddress(4868 + i / 2)
                } else {
                    DiskAddress(4872 + i / 2)
                }
            })
            .collect();
        for (i, &da) in das.iter().enumerate() {
            allocate(&mut d, da, live_label(i as u16));
        }
        let ops_before = [d.arm(0).stats().ops, d.arm(1).stats().ops];
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .enumerate()
            .map(|(i, &da)| {
                BatchRequest::new(
                    da,
                    SectorOp::READ,
                    SectorBuf::with_label(live_label(i as u16)),
                )
            })
            .collect();
        batch.push(BatchRequest::new(
            DiskAddress::NIL,
            SectorOp::READ,
            SectorBuf::zeroed(),
        ));
        let results = d.do_batch(&mut batch);
        for r in &results[..8] {
            assert!(r.is_ok());
        }
        assert!(matches!(results[8], Err(DiskError::InvalidAddress(_))));
        assert_eq!(d.arm(0).stats().ops - ops_before[0], 4);
        assert_eq!(d.arm(1).stats().ops - ops_before[1], 4);
        for (i, req) in batch[..8].iter().enumerate() {
            assert_eq!(req.buf.data, [das[i].0; DATA_WORDS], "request {i}");
            assert_eq!(req.buf.header[1], das[i].0, "request {i}");
        }
    }

    #[test]
    fn overlap_restores_the_longer_arm_when_the_shorter_one_errors() {
        use alto_sim::SimTime;
        // The mirror of `hard_error_on_one_arm_still_charges_max_of_arms`:
        // here the *shorter* share ends in a label-check error, and the
        // clock must still land on the longer arm's finish. The same
        // spanning batch runs three ways from identical histories — both
        // shares, arm 0's alone, arm 1's alone.
        let elapsed = |which: Option<usize>| -> SimTime {
            let mut d = array(2, Placement::Range);
            for i in 0..6u16 {
                allocate(&mut d, DiskAddress(200 + 37 * i), live_label(i));
            }
            allocate(&mut d, DiskAddress(4872 + 300), live_label(9));
            let mut batch = Vec::new();
            if which != Some(1) {
                for i in 0..6u16 {
                    batch.push(BatchRequest::new(
                        DiskAddress(200 + 37 * i),
                        SectorOp::READ,
                        SectorBuf::with_label(live_label(i)),
                    ));
                }
            }
            if which != Some(0) {
                batch.push(BatchRequest::new(
                    DiskAddress(4872 + 300),
                    SectorOp::READ,
                    SectorBuf::with_label(live_label(5)),
                ));
            }
            let t0 = d.clock().now();
            let results = d.do_batch(&mut batch);
            if which != Some(0) {
                assert!(matches!(results.last(), Some(Err(DiskError::Check(_)))));
            }
            d.clock().now() - t0
        };
        let both = elapsed(None);
        let arm0 = elapsed(Some(0));
        let arm1 = elapsed(Some(1));
        assert!(arm1 < arm0, "the failing arm must be the shorter one");
        assert_eq!(both, arm0.max(arm1));
    }

    #[test]
    fn arms_share_one_timeline_but_not_one_head() {
        let mut d = array(2, Placement::Range);
        let t0 = d.clock().now();
        allocate(&mut d, DiskAddress(0), live_label(0));
        allocate(&mut d, DiskAddress(4872), live_label(1));
        assert!(d.clock().now() > t0);
        // Seeks on arm 1 do not move arm 0's head.
        assert_eq!(d.arm(0).current_cylinder(), 0);
        // A batch that stays on one arm has nothing to overlap.
        let mut batch: Vec<BatchRequest> = (0..4u16)
            .map(|i| {
                BatchRequest::new(DiskAddress(50 + i), SectorOp::READ_ALL, SectorBuf::zeroed())
            })
            .collect();
        for r in d.do_batch(&mut batch) {
            r.unwrap();
        }
        assert_eq!(d.io_stats().overlap_batches, 0);
    }

    #[test]
    fn range_placement_exposes_arm_origins() {
        let d = array(4, Placement::Range);
        for arm in 0..4u16 {
            assert_eq!(
                d.arm_origin(arm as usize),
                Some(DiskAddress(4872 * arm)),
                "arm {arm}"
            );
        }
        // Hash placement interleaves by construction: no origin hints.
        let h = array(4, Placement::Hash);
        for arm in 0..4 {
            assert_eq!(h.arm_origin(arm), None);
        }
    }

    /// A mixed two-arm array: a Diablo 31 plus a Trident on one timeline.
    fn mixed(first: DiskModel, second: DiskModel) -> DriveArray {
        let clock = SimClock::new();
        let trace = Trace::new();
        let d0 = DiskDrive::with_formatted_pack(clock.clone(), trace.clone(), first, 1);
        let d1 = DiskDrive::with_formatted_pack(clock, trace, second, 2);
        DriveArray::new(vec![d0, d1], Placement::Range).expect("range placement takes mixed arms")
    }

    #[test]
    fn mixed_geometries_stack_or_degenerate() {
        // Diablo first: 14616 total sectors divide arm 0's 24-sector
        // cylinders evenly, so the composite keeps the Diablo track layout
        // and stacks the union as extra cylinders.
        let a = mixed(DiskModel::Diablo31, DiskModel::Trident);
        let g = a.geometry().expect("geometry");
        assert_eq!(g.sector_count(), 4872 + 9744);
        assert_eq!((g.heads, g.sectors), (2, 12));
        assert_eq!(g.cylinders, 609);
        // Trident first: the same total does not divide its 48-sector
        // cylinders, so the shape degenerates to one sector per track. Only
        // the exact sector count is promised to the layers above.
        let b = mixed(DiskModel::Trident, DiskModel::Diablo31);
        let g = b.geometry().expect("geometry");
        assert_eq!(g.sector_count(), 4872 + 9744);
        assert_eq!((g.heads, g.sectors), (1, 1));
        assert_eq!(g.cylinders, 14616);
    }

    #[test]
    fn mixed_route_unroute_cover_every_sector_in_both_stackings() {
        for (first, second) in [
            (DiskModel::Diablo31, DiskModel::Trident),
            (DiskModel::Trident, DiskModel::Diablo31),
        ] {
            let a = mixed(first, second);
            let total = a.geometry().expect("geometry").sector_count();
            let cap0 = a.arm(0).geometry().expect("arm 0").sector_count();
            let cap1 = a.arm(1).geometry().expect("arm 1").sector_count();
            let mut per_arm = [0u32; 2];
            for v in 0..total {
                let (arm, local) = a.route(DiskAddress(v as u16));
                let cap = if arm == 0 { cap0 } else { cap1 };
                assert!((local.0 as u32) < cap, "local {local} out of arm {arm}");
                assert_eq!(a.unroute(arm, local), DiskAddress(v as u16));
                per_arm[arm] += 1;
            }
            // Exhaustive and exact: every global address maps into exactly
            // one arm, and each arm receives exactly its capacity.
            assert_eq!(per_arm, [cap0, cap1]);
        }
    }

    #[test]
    fn mixed_batches_straddling_the_arm_boundary_are_served() {
        // Requests on both sides of the Diablo/Trident seam, interleaved so
        // the split-and-reassemble path has to preserve request order, in
        // both the buffered and the zero-copy read form.
        let mut a = mixed(DiskModel::Diablo31, DiskModel::Trident);
        let seam = a.arm(0).geometry().expect("arm 0").sector_count() as u16;
        let das: Vec<DiskAddress> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    DiskAddress(seam - 8 + i)
                } else {
                    DiskAddress(seam + 40 + i)
                }
            })
            .collect();
        let mut batch: Vec<BatchRequest> = das
            .iter()
            .map(|&da| BatchRequest::new(da, SectorOp::READ_ALL, SectorBuf::zeroed()))
            .collect();
        for r in a.do_batch(&mut batch) {
            r.unwrap();
        }
        // Headers prove each request reached the right physical arm (pack 1
        // below the seam, pack 2 above it) — and that the buffered path
        // translated the sector's local self-address back to the caller's
        // global view on the way out.
        for (req, &da) in batch.iter().zip(&das) {
            let (arm, _) = a.route(da);
            assert_eq!(req.buf.header, [arm as u16 + 1, da.0]);
        }
        // The zero-copy form lends each arm's platter sector directly, so
        // its header keeps the *arm-local* self-address (callers verify by
        // label, which is position-independent).
        let mut seen = vec![false; das.len()];
        let results = a.do_batch_read(&das, |i, view| {
            seen[i] = true;
            let (arm, local) = a_route(&das, i, seam);
            assert_eq!(*view.header(), [arm + 1, local]);
        });
        for r in &results {
            r.as_ref().unwrap();
        }
        assert!(seen.iter().all(|&s| s), "zero-copy visit missed a member");
        // Both arms actually serviced their four members of each batch.
        assert!(a.arm(0).io_stats().sectors_read >= 8);
        assert!(a.arm(1).io_stats().sectors_read >= 8);
    }

    /// Route recomputed from first principles for the straddle test's
    /// visitor (which cannot borrow the array while it is being driven).
    fn a_route(das: &[DiskAddress], i: usize, seam: u16) -> (u16, u16) {
        let v = das[i].0;
        if v < seam {
            (0, v)
        } else {
            (1, v - seam)
        }
    }
}
