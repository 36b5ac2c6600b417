//! `SimDisk`: a deterministic virtual block device with sector-level fault
//! injection.
//!
//! The disk models the failure semantics of a real device under a
//! write-back cache:
//!
//! - Writes land in a volatile *pending* buffer; nothing is durable until
//!   [`SimDisk::flush`] (the fsync analogue) moves pending sectors to the
//!   durable medium.
//! - [`SimDisk::crash`] drops the pending buffer — un-fsynced data is lost,
//!   fsynced data survives. Crash is idempotent.
//! - Faults are *armed* on the disk ahead of time and fire at the next
//!   matching operation, so the caller (the fault simulator) decides *what*
//!   happens and the disk decides *where* in the byte stream it lands:
//!   - [`SimDisk::tear_last_flush`]: retroactively shortens the most recent
//!     flush to its first `keep` sectors, modeling a torn multi-sector
//!     write that straddled the crash.
//!   - [`SimDisk::reorder_last_flush`]: retroactively drops the *first*
//!     sector of the most recent multi-sector flush while keeping the rest,
//!     modeling the device persisting queued sectors out of order before
//!     power loss.
//!   - [`SimDisk::flip_bit`]: flips one bit of durable data, modeling bit
//!     rot / medium error. Flips are journaled so tests can repair them.
//!   - [`SimDisk::arm_misdirect`]: the next pending write is redirected by a
//!     sector delta, modeling a misdirected write (firmware writes good data
//!     to the wrong LBA).
//!
//! The durable medium is a map of fixed **tracks** of [`TRACK_SECTORS`]
//! sectors: one allocation per track, a presence bitmap and a torn-sector
//! bitmap beside it, so a sector write, read or delete costs a track lookup
//! and a bit, not an allocation and a map node. Tracks and their bits are
//! walked in ascending order, so the same call sequence always produces the
//! same bytes — the determinism the simulator's byte-identical-replay
//! acceptance criterion needs.
//!
//! Like a sparse file, a track keeps only the bytes written: a write may end
//! inside a sector, whose rest reads as zeros ([`Extent`]). Addressing —
//! flips, tears, `durable_bits` — still counts whole sectors.
//!
//! Besides the raw (always-succeeding) operations above, the disk exposes a
//! *checked* interface — [`SimDisk::try_read`], [`SimDisk::try_write`],
//! [`SimDisk::try_flush`], [`SimDisk::try_delete`] — that ticks a device-op
//! counter and consults three armed fault channels before touching the
//! medium:
//!
//! - [`SimDisk::arm_transient_errors`]: the next `n` checked ops fail with
//!   [`DiskError::Transient`]; a retry later may succeed (a flaky cable, a
//!   recoverable controller error).
//! - [`SimDisk::set_full`]: checked mutations fail with [`DiskError::Full`]
//!   until the device is [healed](SimDisk::heal) (ENOSPC; reads keep working).
//! - [`SimDisk::arm_crash_at_op`]: the device *trips* after the next `n`
//!   checked ops succeed — every later op fails with [`DiskError::Crashed`]
//!   until [`crash`](SimDisk::crash) acknowledges the power loss. This is the
//!   trigger the recovery-convergence oracle uses to kill recovery at every
//!   device-op index.
//!
//! Besides the fail-stop channels, the checked interface carries a
//! deterministic **tick-cost model** for gray failures — devices that are
//! slow rather than broken. Every checked op costs one logical tick;
//! [`SimDisk::arm_slow_ops`] makes the next `n` checked ops each cost extra
//! ticks (a degraded medium), and [`SimDisk::arm_fsync_stall`] makes the
//! next `n` non-empty flushes stall for extra ticks (an fsync that hangs).
//! The accumulated [`device_ticks`](SimDisk::device_ticks) are the device's
//! elapsed logical time, and the stall surplus is reported separately via
//! [`stall_ticks`](SimDisk::stall_ticks) so health detectors can tell a busy
//! device from a lying one. [`heal`](SimDisk::heal) clears the armed latency
//! channels along with the error budgets.
//!
//! The raw operations bypass the checked channels entirely: they are the
//! omniscient view tests and repair tooling use to inspect or fix the
//! medium, and they never tick the op counter.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

/// Why a checked device operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// An armed transient fault fired: the same op may succeed on retry.
    Transient,
    /// The device is out of space: mutations fail until [`SimDisk::heal`].
    Full,
    /// The armed crash-at-op trigger fired: every checked op fails until
    /// [`SimDisk::crash`] acknowledges the power loss.
    Crashed,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Transient => write!(f, "transient I/O error"),
            DiskError::Full => write!(f, "device full"),
            DiskError::Crashed => write!(f, "device crashed mid-operation"),
        }
    }
}

/// Durable bytes as stored, then `zeros` implied zeros to the sector's end.
/// Equality compares the split too; [`to_vec`](Self::to_vec) the contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Extent<'a> {
    pub bytes: Cow<'a, [u8]>,
    pub zeros: usize,
}

impl Extent<'_> {
    /// The contents with the zero tail written out: whole sectors.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = self.bytes.to_vec();
        out.resize(out.len() + self.zeros, 0);
        out
    }

    /// The same contents, copied to store at least `n` bytes if fewer are.
    pub fn widened(self, n: usize) -> Self {
        if self.bytes.len() >= n {
            return self;
        }
        let zeros = (self.bytes.len() + self.zeros).saturating_sub(n);
        let mut bytes = self.to_vec();
        bytes.truncate(bytes.len() - zeros);
        Extent { bytes: Cow::Owned(bytes), zeros }
    }
}

/// What a classified read found at a sector address. Distinguishes a sector
/// that *was* durable until a tear/reorder destroyed it from one that was
/// never written (or was deliberately deleted) — the recovery scanner needs
/// the difference to tell a torn tail from a clean log end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SectorRead<'a> {
    /// The sector holds durable bytes (never empty).
    Data(Extent<'a>),
    /// The sector was durable once but a tear or reorder destroyed it.
    Torn,
    /// No data was ever durable here (or it was deliberately deleted).
    Absent,
}

/// Sectors per track of the durable medium.
pub const TRACK_SECTORS: u64 = 64;

/// One track: [`TRACK_SECTORS`] sector slots in a single allocation.
#[derive(Clone, Debug)]
struct Track {
    /// Bit `i` set: slot `i` holds durable bytes.
    present: u64,
    /// Bit `i` set: slot `i` was durable until a tear/reorder destroyed it,
    /// and has not been rewritten or deliberately deleted since. Disjoint
    /// from `present`.
    torn: u64,
    /// Slot `i` stored `data[ends[i - 1]..ends[i]]` (from 0 for slot 0), back
    /// to back in slot order; the rest of its sector reads as zeros. The
    /// bytes mean something only while its `present` bit is set.
    ends: [u32; TRACK_SECTORS as usize],
    data: Vec<u8>,
}

impl Track {
    fn span(&self, slot: usize) -> std::ops::Range<usize> {
        let start = if slot == 0 { 0 } else { self.ends[slot - 1] as usize };
        start..self.ends[slot] as usize
    }

    /// Slot `slot`'s bytes and implied zeros, if it holds durable ones.
    fn read(&self, slot: u32, size: usize) -> Option<Extent<'_>> {
        let bytes = &self.data[self.span(slot as usize)];
        (self.present >> slot & 1 != 0)
            .then(|| Extent { bytes: Cow::Borrowed(bytes), zeros: size - bytes.len() })
    }

    /// Store `bytes` as slot `slot`'s: in place at the same length, appended
    /// at the end of the data, else spliced in, moving the later slots.
    fn put(&mut self, slot: usize, bytes: &[u8], size: usize) {
        let span = self.span(slot);
        if span.len() == bytes.len() {
            self.data[span].copy_from_slice(bytes);
            return;
        }
        let need = self.data.len() + bytes.len().saturating_sub(span.len());
        if need > self.data.capacity() {
            // Room for the slots above at the bytes per slot so far, plus an
            // eighth: one allocation per track in the log's order.
            let per_slot = need / (self.present | 1 << slot).count_ones() as usize;
            let want = (need + per_slot * (TRACK_SECTORS as usize - 1 - slot)) * 9 / 8;
            let want = want.min(TRACK_SECTORS as usize * size).max(need);
            self.data.reserve_exact(want - self.data.len());
        }
        if span.end == self.data.len() {
            self.data.truncate(span.start);
            self.data.extend_from_slice(bytes);
        } else {
            self.data.splice(span.clone(), bytes.iter().copied());
        }
        let delta = bytes.len() as i64 - span.len() as i64;
        for end in &mut self.ends[slot..] {
            *end = (i64::from(*end) + delta) as u32;
        }
    }
}

/// Ascending indices of the set bits of `bits`.
fn set_bits(mut bits: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros() as u64;
            bits &= bits - 1;
            i
        })
    })
}

/// The durable medium: every sector that survives a crash, plus the
/// tombstones of sectors a tear or reorder destroyed. A track is in the map
/// exactly while one of its bitmaps is non-zero.
#[derive(Clone, Debug)]
struct Medium {
    sector: usize,
    tracks: BTreeMap<u64, Track>,
    /// Durable sectors on the medium (the sum of the `present` popcounts).
    durable: u64,
}

impl Medium {
    fn slot(sector: u64) -> (u64, u32) {
        (sector / TRACK_SECTORS, (sector % TRACK_SECTORS) as u32)
    }

    fn read(&self, sector: u64) -> Option<Extent<'_>> {
        let (t, slot) = Self::slot(sector);
        self.tracks.get(&t)?.read(slot, self.sector)
    }

    fn is_torn(&self, sector: u64) -> bool {
        let (t, slot) = Self::slot(sector);
        self.tracks.get(&t).is_some_and(|track| track.torn >> slot & 1 != 0)
    }

    /// Byte `byte` of a durable sector, for a flip. A byte in the implied
    /// tail is stored first: the slot is zero-extended to just past it.
    fn byte_mut(&mut self, sector: u64, byte: usize) -> Option<&mut u8> {
        let (t, slot) = Self::slot(sector);
        let track = self.tracks.get_mut(&t).filter(|track| track.present >> slot & 1 != 0)?;
        let span = track.span(slot as usize);
        if byte >= span.len() {
            let mut bytes = track.data[span].to_vec();
            bytes.resize(byte + 1, 0);
            track.put(slot as usize, &bytes, self.sector);
        }
        let at = track.span(slot as usize).start + byte;
        Some(&mut track.data[at])
    }

    /// Make `sectors[i]` durable with the next `lens[i]` bytes of `data`, in
    /// order (a later write of the same sector wins). One track lookup per
    /// run of sectors that share a track.
    fn store(&mut self, sectors: &[u64], lens: &[u32], data: &[u8]) {
        let size = self.sector;
        let (mut i, mut at) = (0, 0);
        while i < sectors.len() {
            let t = sectors[i] / TRACK_SECTORS;
            let track = self.tracks.entry(t).or_insert_with(|| Track {
                present: 0,
                torn: 0,
                ends: [0; TRACK_SECTORS as usize],
                data: Vec::new(),
            });
            while i < sectors.len() && sectors[i] / TRACK_SECTORS == t {
                let slot = (sectors[i] % TRACK_SECTORS) as usize;
                let len = lens[i] as usize;
                track.put(slot, &data[at..at + len], size);
                self.durable += u64::from(track.present >> slot & 1 == 0);
                track.present |= 1 << slot;
                track.torn &= !(1 << slot);
                (i, at) = (i + 1, at + len);
            }
        }
    }

    /// Remove `sector`'s bytes, leaving a tombstone if `tombstone` (a tear)
    /// and clearing any if not (a deliberate delete). Returns whether the
    /// sector was durable.
    fn remove(&mut self, sector: u64, tombstone: bool) -> bool {
        let (t, slot) = Self::slot(sector);
        let Some(track) = self.tracks.get_mut(&t) else { return false };
        let bit = 1u64 << slot;
        let was = track.present & bit != 0;
        track.present &= !bit;
        if was && tombstone {
            track.torn |= bit;
        } else if !tombstone {
            track.torn &= !bit;
        }
        self.durable -= u64::from(was);
        if track.present | track.torn == 0 {
            self.tracks.remove(&t);
        }
        was
    }

    fn durable_in(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = u64> + '_ {
        let lo = match range.start_bound() {
            Bound::Included(&s) => Some(s),
            Bound::Excluded(&s) => s.checked_add(1),
            Bound::Unbounded => Some(0),
        };
        let hi = match range.end_bound() {
            Bound::Included(&e) => Some(e),
            Bound::Excluded(&e) => e.checked_sub(1),
            Bound::Unbounded => Some(u64::MAX),
        };
        lo.zip(hi).filter(|(lo, hi)| lo <= hi).into_iter().flat_map(move |(lo, hi)| {
            self.tracks.range(lo / TRACK_SECTORS..=hi / TRACK_SECTORS).flat_map(
                move |(&t, track)| {
                    set_bits(track.present)
                        .map(move |slot| t * TRACK_SECTORS + slot)
                        .filter(move |s| (lo..=hi).contains(s))
                },
            )
        })
    }
}

/// A copy of the durable image, for snapshot/restore replay (the
/// recovery-convergence probe re-runs recovery many times from one image).
#[derive(Clone, Debug)]
pub struct DiskImage {
    medium: Medium,
}

impl DiskImage {
    /// The durable sectors, in index order — the enumeration hook the
    /// explorer's canonical-state fingerprint folds over.
    pub fn sectors(&self) -> impl Iterator<Item = (u64, Extent<'_>)> {
        let size = self.medium.sector;
        self.medium.tracks.iter().flat_map(move |(&t, track)| {
            set_bits(track.present).map(move |slot| {
                let bytes = track.read(slot as u32, size).expect("a set presence bit");
                (t * TRACK_SECTORS + slot, bytes)
            })
        })
    }

    /// Sectors destroyed by a tear/reorder and not rewritten since.
    pub fn torn_sectors(&self) -> impl Iterator<Item = u64> + '_ {
        self.medium
            .tracks
            .iter()
            .flat_map(|(&t, track)| set_bits(track.torn).map(move |slot| t * TRACK_SECTORS + slot))
    }
}

/// Counters for the physical activity of one [`SimDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Sectors made durable by `flush`.
    pub sectors_flushed: u64,
    /// `flush` calls that had at least one pending sector.
    pub flushes: u64,
    /// `crash` calls that discarded at least one pending sector.
    pub lossy_crashes: u64,
    /// Sectors dropped by `tear_last_flush`.
    pub torn_sectors: u64,
    /// Sectors dropped by `reorder_last_flush`.
    pub reordered_sectors: u64,
    /// Bits flipped by `flip_bit`.
    pub flipped_bits: u64,
    /// Flipped bits repaired by `unflip_all`. `flipped_bits -
    /// repaired_bits` is the flips that became unrepairable because their
    /// sector was torn or truncated away — the reconciliation the
    /// repair-then-rescan flow pins.
    pub repaired_bits: u64,
    /// Writes redirected by an armed misdirect.
    pub misdirected_writes: u64,
    /// Checked ops that failed with an armed transient error.
    pub transient_errors: u64,
    /// Extra logical ticks charged by the armed slow-op and fsync-stall
    /// channels — the latency surplus a healthy device would not have paid.
    pub stall_ticks: u64,
}

/// A deterministic simulated block device. See the module docs for the fault
/// model.
///
/// `Clone` duplicates the *entire* device — durable sectors, write cache,
/// armed faults and counters — which is what the model checker's
/// state-space explorer snapshots and restores; [`SimDisk::snapshot`] /
/// [`SimDisk::restore`] remain the narrower durable-image hooks.
#[derive(Clone, Debug)]
pub struct SimDisk {
    /// Durable sectors and torn-sector tombstones.
    medium: Medium,
    /// Sector indices written but not yet flushed, in write order.
    pending: Vec<u64>,
    /// How many bytes each of `pending` stores: a whole sector, or fewer
    /// where a write ended inside it.
    pending_lens: Vec<u32>,
    /// The bytes of `pending`, back to back, in the same order. All three
    /// vectors keep their capacity across flushes.
    pending_data: Vec<u8>,
    /// Sector indices made durable by the most recent flush, in write order.
    last_flush: Vec<u64>,
    /// Journal of applied bit flips `(sector, byte, mask)` so tests can
    /// repair the medium.
    flips: Vec<(u64, usize, u8)>,
    /// Sector delta applied to the next write, then cleared.
    misdirect: Option<i64>,
    /// Checked device ops performed (reads, writes, flushes, deletes).
    /// `Cell` because classified reads take `&self`.
    ops: Cell<u64>,
    /// Checked ops left to fail with `Transient` (armed fault budget).
    transient: Cell<u32>,
    /// Checked ops that failed with an armed transient error.
    transient_fired: Cell<u64>,
    /// Whether checked mutations fail with `Full`.
    full: Cell<bool>,
    /// Trip the device once the op counter passes this value.
    trip_at: Cell<Option<u64>>,
    /// The crash-at-op trigger fired; all checked ops fail until `crash`.
    tripped: Cell<bool>,
    /// Elapsed logical device time: one tick per checked op, plus whatever
    /// the armed latency channels charge on top.
    ticks: Cell<u64>,
    /// Checked ops left to run slow (armed gray-failure budget).
    slow_ops: Cell<u32>,
    /// Extra ticks each slow op costs.
    slow_cost: Cell<u64>,
    /// Non-empty flushes left to stall (armed gray-failure budget).
    stall_flushes: Cell<u32>,
    /// Extra ticks each stalled flush costs.
    stall_cost: Cell<u64>,
    /// Accumulated latency surplus from both gray channels.
    stalled: Cell<u64>,
    stats: DiskStats,
}

impl SimDisk {
    /// A new empty disk with the given sector size in bytes.
    pub fn new(sector: usize) -> Self {
        assert!((1..=1 << 26).contains(&sector), "sector size must be in 1..=64 MiB (u32 offsets)");
        SimDisk {
            medium: Medium { sector, tracks: BTreeMap::new(), durable: 0 },
            pending: Vec::new(),
            pending_lens: Vec::new(),
            pending_data: Vec::new(),
            last_flush: Vec::new(),
            flips: Vec::new(),
            misdirect: None,
            ops: Cell::new(0),
            transient: Cell::new(0),
            transient_fired: Cell::new(0),
            full: Cell::new(false),
            trip_at: Cell::new(None),
            tripped: Cell::new(false),
            ticks: Cell::new(0),
            slow_ops: Cell::new(0),
            slow_cost: Cell::new(0),
            stall_flushes: Cell::new(0),
            stall_cost: Cell::new(0),
            stalled: Cell::new(0),
            stats: DiskStats::default(),
        }
    }

    /// Sector size in bytes.
    pub fn sector_size(&self) -> usize {
        self.medium.sector
    }

    pub fn stats(&self) -> DiskStats {
        let mut stats = self.stats;
        stats.transient_errors = self.transient_fired.get();
        stats.stall_ticks = self.stalled.get();
        stats
    }

    /// Queue a write of `data` starting at `sector` (volatile until
    /// [`flush`](Self::flush)). `data` may end inside its last sector; the
    /// rest of that sector then reads as zeros.
    pub fn write(&mut self, sector: u64, data: &[u8]) {
        let size = self.medium.sector;
        assert!(!data.is_empty(), "a write covers at least one byte");
        let base = match self.misdirect.take() {
            Some(delta) => {
                self.stats.misdirected_writes += 1;
                sector.wrapping_add_signed(delta)
            }
            None => sector,
        };
        let n = data.len().div_ceil(size);
        self.pending.extend((0..n as u64).map(|i| base + i));
        self.pending_lens.extend((0..n).map(|i| (data.len() - i * size).min(size) as u32));
        self.pending_data.extend_from_slice(data);
    }

    /// Make all pending writes durable, in write order. Returns the number
    /// of sectors persisted.
    pub fn flush(&mut self) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let n = self.pending.len();
        self.medium.store(&self.pending, &self.pending_lens, &self.pending_data);
        std::mem::swap(&mut self.last_flush, &mut self.pending);
        self.discard_pending();
        self.stats.sectors_flushed += n as u64;
        self.stats.flushes += 1;
        n
    }

    /// Drop all un-flushed writes (power loss). Idempotent. Acknowledging
    /// the power loss also resets a tripped crash-at-op trigger — the
    /// device comes back up serving ops.
    pub fn crash(&mut self) {
        if !self.pending.is_empty() {
            self.stats.lossy_crashes += 1;
        }
        self.discard_pending();
        self.misdirect = None;
        self.trip_at.set(None);
        self.tripped.set(false);
    }

    /// Read one sector; `None` if it was never written.
    /// Reads see only durable data — the pending buffer is the device
    /// cache, and the recovery scanner runs strictly post-crash.
    pub fn read(&self, sector: u64) -> Option<Extent<'_>> {
        self.medium.read(sector)
    }

    /// The contents of the `n` sectors from `first`, if all are durable:
    /// borrowed in place when they lie back to back in one track (every
    /// sector but the last stored whole), else concatenated, the inner
    /// sectors zero-extended. `Err(i)` when only the first `i` are durable.
    /// Raw, like [`read`](Self::read).
    pub fn read_run(&self, first: u64, n: u64) -> Result<Extent<'_>, usize> {
        let (t, slot) = Medium::slot(first);
        let size = self.medium.sector;
        if n > 0 && slot as u64 + n <= TRACK_SECTORS {
            let Some(track) = self.medium.tracks.get(&t) else { return Err(0) };
            let run = (track.present >> slot).trailing_ones() as u64;
            if run < n {
                return Err(run as usize);
            }
            let (lo, hi) = (track.span(slot as usize), track.span(slot as usize + n as usize - 1));
            if hi.start - lo.start == (n as usize - 1) * size {
                let bytes = Cow::Borrowed(&track.data[lo.start..hi.end]);
                return Ok(Extent { bytes, zeros: size - hi.len() });
            }
        }
        let mut buf = Vec::with_capacity(n as usize * size);
        let mut zeros = 0;
        for (i, s) in (first..first + n).enumerate() {
            buf.resize(buf.len() + zeros, 0);
            let sector = self.medium.read(s).ok_or(i)?;
            buf.extend_from_slice(&sector.bytes);
            zeros = sector.zeros;
        }
        Ok(Extent { bytes: Cow::Owned(buf), zeros })
    }

    /// Drop every staged-but-unflushed write without a power loss: the
    /// process discards its write cache after a failed append so the staged
    /// bytes can never leak out through a later unrelated flush. Durable
    /// data is untouched.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
        self.pending_lens.clear();
        self.pending_data.clear();
    }

    /// Read one sector with explicit damage classification: durable bytes,
    /// a sector *destroyed* by a tear/reorder, or one never written.
    /// [`read`](Self::read) collapses the last two into `None`; the scanner
    /// uses this form so a torn-away sector is never mistaken for a clean
    /// log end. `Data` always spans the whole sector, zero tail included.
    pub fn read_classified(&self, sector: u64) -> SectorRead<'_> {
        match self.medium.read(sector) {
            Some(bytes) => SectorRead::Data(bytes),
            None if self.medium.is_torn(sector) => SectorRead::Torn,
            None => SectorRead::Absent,
        }
    }

    /// Sectors persisted by the most recent flush.
    pub fn last_flush_len(&self) -> usize {
        self.last_flush.len()
    }

    /// Indices of all durable sectors, ascending.
    pub fn durable_sectors(&self) -> impl Iterator<Item = u64> + '_ {
        self.medium.durable_in(..)
    }

    /// Indices of the durable sectors inside `range`, ascending. Visits only
    /// the tracks the range touches.
    pub fn durable_in(&self, range: impl RangeBounds<u64>) -> impl Iterator<Item = u64> + '_ {
        self.medium.durable_in(range)
    }

    /// How many sectors are durable.
    pub fn durable_len(&self) -> u64 {
        self.medium.durable
    }

    /// Total durable bits on the medium (the bit-flip address space).
    pub fn durable_bits(&self) -> u64 {
        self.medium.durable * self.medium.sector as u64 * 8
    }

    /// Delete a durable sector (used by log truncation and tail discard).
    /// A deliberate delete also clears any torn-sector tombstone — the
    /// caller has classified the damage and disposed of the sector.
    pub fn delete(&mut self, sector: u64) -> bool {
        self.medium.remove(sector, false)
    }

    /// Retroactively shorten the most recent flush to its first `keep`
    /// sectors, as if the crash interrupted the physical write. Returns
    /// `false` (no effect) when the last flush had ≤ `keep` sectors —
    /// nothing to tear.
    pub fn tear_last_flush(&mut self, keep: usize) -> bool {
        if self.last_flush.len() <= keep {
            return false;
        }
        for &idx in &self.last_flush[keep..] {
            self.medium.remove(idx, true);
            self.stats.torn_sectors += 1;
        }
        self.last_flush.truncate(keep);
        true
    }

    /// Retroactively drop the *first* sector of the most recent flush while
    /// keeping the later ones, as if the device persisted its queue out of
    /// order and lost power before the head sector landed. Returns `false`
    /// when the last flush had < 2 sectors (reordering is unobservable).
    pub fn reorder_last_flush(&mut self) -> bool {
        if self.last_flush.len() < 2 {
            return false;
        }
        let first = self.last_flush.remove(0);
        self.medium.remove(first, true);
        self.stats.reordered_sectors += 1;
        true
    }

    /// Flip one durable bit. `bit` is reduced modulo the total durable bit
    /// count and located by iterating durable sectors in key order, so the
    /// same `bit` always hits the same stored byte for the same disk image.
    /// Returns `false` when the disk holds no durable data.
    pub fn flip_bit(&mut self, bit: u64) -> bool {
        let total = self.durable_bits();
        if total == 0 {
            return false;
        }
        let target = bit % total;
        let sector_bits = self.medium.sector as u64 * 8;
        let idx = self
            .medium
            .durable_in(..)
            .nth((target / sector_bits) as usize)
            .expect("target bit within durable_bits() total");
        let byte = (target % sector_bits / 8) as usize;
        let mask = 1u8 << (target % 8);
        *self.medium.byte_mut(idx, byte).expect("a durable sector") ^= mask;
        self.flips.push((idx, byte, mask));
        self.stats.flipped_bits += 1;
        true
    }

    /// Undo every flip applied by [`flip_bit`](Self::flip_bit) whose sector
    /// still exists. Returns the number of repairs, and reconciles the
    /// stats: `repaired_bits` grows by exactly that number, so
    /// `flipped_bits - repaired_bits` is always the flips that became
    /// unrepairable (their sector was torn or truncated away).
    pub fn unflip_all(&mut self) -> usize {
        let flips = std::mem::take(&mut self.flips);
        let mut repaired = 0;
        for (idx, byte, mask) in flips {
            if let Some(b) = self.medium.byte_mut(idx, byte) {
                *b ^= mask;
                repaired += 1;
            }
        }
        self.stats.repaired_bits += repaired as u64;
        repaired
    }

    /// Redirect the next write by `delta` sectors.
    pub fn arm_misdirect(&mut self, delta: i64) {
        self.misdirect = Some(delta);
    }

    // ------------------------------------------------------------------
    // The checked device interface: every op ticks the device-op counter
    // and consults the armed fault channels before touching the medium.
    // ------------------------------------------------------------------

    /// Checked device ops performed so far (reads, writes, flushes and
    /// deletes through the `try_*` interface).
    pub fn device_ops(&self) -> u64 {
        self.ops.get()
    }

    /// Arm the next `n` checked ops to fail with [`DiskError::Transient`].
    /// Cumulative with a previously armed budget.
    pub fn arm_transient_errors(&mut self, n: u32) {
        self.transient.set(self.transient.get().saturating_add(n));
    }

    /// Set or clear the device-full condition. While full, checked
    /// mutations fail with [`DiskError::Full`]; reads keep working.
    pub fn set_full(&mut self, full: bool) {
        self.full.set(full);
    }

    /// Whether the device-full condition is set.
    pub fn is_full(&self) -> bool {
        self.full.get()
    }

    /// Arm the crash-at-op trigger: the next `n` checked ops succeed, then
    /// the device trips — every later op fails with [`DiskError::Crashed`]
    /// until [`crash`](SimDisk::crash) acknowledges the power loss.
    pub fn arm_crash_at_op(&mut self, n: u64) {
        self.trip_at.set(Some(self.ops.get() + n));
        self.tripped.set(false);
    }

    /// Whether the crash-at-op trigger has fired and the device is dead.
    pub fn is_tripped(&self) -> bool {
        self.tripped.get()
    }

    /// Elapsed logical device time: one tick per checked op, plus the
    /// surplus the armed latency channels charged. Ticks accumulate for the
    /// life of the device, like the op counter.
    pub fn device_ticks(&self) -> u64 {
        self.ticks.get()
    }

    /// Accumulated latency surplus from the gray channels — the slice of
    /// [`device_ticks`](SimDisk::device_ticks) a healthy device would not have
    /// paid. Health detectors watch the delta of this figure to tell a busy
    /// device from a lying one.
    pub fn stall_ticks(&self) -> u64 {
        self.stalled.get()
    }

    /// Arm the next `n` checked ops to each cost `cost` extra ticks — a
    /// degraded medium serving every request slowly. Cumulative budget; the
    /// cost replaces any previously armed cost.
    pub fn arm_slow_ops(&mut self, n: u32, cost: u64) {
        self.slow_ops.set(self.slow_ops.get().saturating_add(n));
        self.slow_cost.set(cost);
    }

    /// Arm the next `n` non-empty checked flushes to each stall for `cost`
    /// extra ticks — an fsync that hangs before acknowledging. Cumulative
    /// budget; the cost replaces any previously armed cost.
    pub fn arm_fsync_stall(&mut self, n: u32, cost: u64) {
        self.stall_flushes.set(self.stall_flushes.get().saturating_add(n));
        self.stall_cost.set(cost);
    }

    /// Heal the device: clear the full condition, any remaining
    /// transient-error budget, and the armed slow-op / fsync-stall latency
    /// budgets (the operator replaced the gray hardware). A tripped device
    /// stays dead until [`crash`](SimDisk::crash) — power loss is not healable
    /// in place. Accumulated ticks and stall surplus persist, like the op
    /// counter.
    pub fn heal(&mut self) {
        self.full.set(false);
        self.transient.set(0);
        self.slow_ops.set(0);
        self.stall_flushes.set(0);
    }

    /// Tick the op counter, charge the logical time the op costs, and
    /// consult the armed fault channels. `mutates` selects whether the
    /// device-full condition applies. Time is charged even when the op then
    /// fails — a transient error on a slow device still wastes the wait.
    fn tick(&self, mutates: bool) -> Result<(), DiskError> {
        if self.tripped.get() {
            return Err(DiskError::Crashed);
        }
        let n = self.ops.get() + 1;
        self.ops.set(n);
        let mut cost = 1u64;
        let slow = self.slow_ops.get();
        if slow > 0 {
            self.slow_ops.set(slow - 1);
            cost += self.slow_cost.get();
            self.stalled.set(self.stalled.get().saturating_add(self.slow_cost.get()));
        }
        self.ticks.set(self.ticks.get().saturating_add(cost));
        if let Some(at) = self.trip_at.get() {
            if n > at {
                self.tripped.set(true);
                return Err(DiskError::Crashed);
            }
        }
        let budget = self.transient.get();
        if budget > 0 {
            self.transient.set(budget - 1);
            self.transient_fired.set(self.transient_fired.get() + 1);
            return Err(DiskError::Transient);
        }
        if mutates && self.full.get() {
            return Err(DiskError::Full);
        }
        Ok(())
    }

    /// Checked classified read. See [`read_classified`](Self::read_classified).
    pub fn try_read(&self, sector: u64) -> Result<SectorRead<'_>, DiskError> {
        self.tick(false)?;
        Ok(self.read_classified(sector))
    }

    /// Checked write. See [`write`](Self::write).
    pub fn try_write(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError> {
        self.tick(true)?;
        self.write(sector, data);
        Ok(())
    }

    /// Checked flush. See [`flush`](Self::flush). An empty flush on a live
    /// device is a no-op and never fails — there is nothing for the device
    /// to do; a tripped device fails every op, empty or not. A non-empty
    /// flush consumes one armed fsync-stall (if any) and pays its extra
    /// ticks before the data lands — the stall delays the fsync, it does
    /// not lose it.
    pub fn try_flush(&mut self) -> Result<usize, DiskError> {
        if self.tripped.get() {
            return Err(DiskError::Crashed);
        }
        if self.pending.is_empty() {
            return Ok(0);
        }
        let stalls = self.stall_flushes.get();
        if stalls > 0 {
            self.stall_flushes.set(stalls - 1);
            let cost = self.stall_cost.get();
            self.ticks.set(self.ticks.get().saturating_add(cost));
            self.stalled.set(self.stalled.get().saturating_add(cost));
        }
        self.tick(true)?;
        Ok(self.flush())
    }

    /// Checked delete. See [`delete`](Self::delete). Deletes free space, so
    /// they succeed on a full device.
    pub fn try_delete(&mut self, sector: u64) -> Result<bool, DiskError> {
        self.tick(false)?;
        Ok(self.delete(sector))
    }

    /// Snapshot the durable image (and torn-sector tombstones) for later
    /// [`restore`](Self::restore).
    pub fn snapshot(&self) -> DiskImage {
        DiskImage { medium: self.medium.clone() }
    }

    /// Restore a snapshot: the durable image and tombstones come back
    /// exactly; the pending buffer, flip journal, last-flush record and all
    /// armed faults are cleared (the snapshot models re-imaging the
    /// medium). The op counter and wear stats keep accumulating.
    pub fn restore(&mut self, image: &DiskImage) {
        self.medium = image.medium.clone();
        self.discard_pending();
        self.last_flush.clear();
        self.flips.clear();
        self.misdirect = None;
        self.transient.set(0);
        self.full.set(false);
        self.trip_at.set(None);
        self.tripped.set(false);
        self.slow_ops.set(0);
        self.stall_flushes.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(fill: u8, n: usize) -> Vec<u8> {
        vec![fill; n]
    }

    /// A raw read, zero tail written out.
    fn whole(d: &SimDisk, sector: u64) -> Option<Vec<u8>> {
        d.read(sector).map(|e| e.to_vec())
    }

    fn data(bytes: &[u8]) -> SectorRead<'_> {
        SectorRead::Data(Extent { bytes: Cow::Borrowed(bytes), zeros: 0 })
    }

    #[test]
    fn unflushed_writes_die_in_a_crash() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        d.write(1, &sec(2, 8));
        d.crash();
        d.crash(); // idempotent
        assert_eq!(whole(&d, 0), Some(sec(1, 8)));
        assert_eq!(whole(&d, 1), None);
        assert_eq!(d.stats().lossy_crashes, 1);
    }

    #[test]
    fn tear_keeps_a_prefix_of_the_last_flush() {
        let mut d = SimDisk::new(8);
        d.write(0, &[sec(1, 8), sec(2, 8), sec(3, 8)].concat());
        d.flush();
        assert!(d.tear_last_flush(1));
        assert_eq!(whole(&d, 0), Some(sec(1, 8)));
        assert_eq!(whole(&d, 1), None);
        assert_eq!(whole(&d, 2), None);
        assert_eq!(d.stats().torn_sectors, 2);
        // A single-sector flush can't be torn down to one sector.
        d.write(5, &sec(9, 8));
        d.flush();
        assert!(!d.tear_last_flush(1));
    }

    #[test]
    fn reorder_drops_the_head_sector_only() {
        let mut d = SimDisk::new(8);
        d.write(0, &[sec(1, 8), sec(2, 8)].concat());
        d.flush();
        assert!(d.reorder_last_flush());
        assert_eq!(whole(&d, 0), None);
        assert_eq!(whole(&d, 1), Some(sec(2, 8)));
        // Single-sector flushes can't reorder.
        d.write(4, &sec(7, 8));
        d.flush();
        assert!(!d.reorder_last_flush());
    }

    #[test]
    fn flips_are_deterministic_and_repairable() {
        let mut d = SimDisk::new(4);
        d.write(0, &[sec(0, 4), sec(0xFF, 4)].concat());
        d.flush();
        assert_eq!(d.durable_bits(), 64);
        assert!(d.flip_bit(3));
        assert!(d.flip_bit(3 + 64)); // wraps to the same bit → flips back
        assert_eq!(whole(&d, 0), Some(sec(0, 4)));
        assert!(d.flip_bit(35)); // second sector, byte 0, bit 3
        assert_eq!(whole(&d, 1).unwrap()[0], 0xFF ^ 0x08);
        assert_eq!(d.unflip_all(), 3);
        assert_eq!(whole(&d, 1), Some(sec(0xFF, 4)));
        let empty = &mut SimDisk::new(4);
        assert!(!empty.flip_bit(0));
    }

    #[test]
    fn misdirect_redirects_exactly_one_write() {
        let mut d = SimDisk::new(8);
        d.arm_misdirect(3);
        d.write(0, &sec(1, 8));
        d.write(1, &sec(2, 8));
        d.flush();
        assert_eq!(whole(&d, 0), None);
        assert_eq!(whole(&d, 3), Some(sec(1, 8)));
        assert_eq!(whole(&d, 1), Some(sec(2, 8)));
        assert_eq!(d.stats().misdirected_writes, 1);
    }

    /// Regression (satellite): a sector destroyed by a tear used to be
    /// indistinguishable from one never written — both read back `None`.
    /// The classified read keeps them apart, and a plain `read` never
    /// returns an empty slice for a torn sector.
    #[test]
    fn torn_sector_is_classified_distinct_from_absent() {
        let mut d = SimDisk::new(8);
        d.write(0, &[sec(1, 8), sec(2, 8), sec(3, 8)].concat());
        d.flush();
        assert!(d.tear_last_flush(1));
        assert_eq!(whole(&d, 1), None, "a torn sector must not read as Some(&[])");
        assert_eq!(d.read_classified(1), SectorRead::Torn);
        assert_eq!(d.read_classified(2), SectorRead::Torn);
        assert_eq!(d.read_classified(7), SectorRead::Absent, "never-written is Absent");
        assert_eq!(d.read_classified(0), data(&sec(1, 8)));
        // A deliberate delete disposes of the tombstone...
        assert!(!d.delete(1));
        assert_eq!(d.read_classified(1), SectorRead::Absent);
        // ...and a rewrite heals it.
        d.write(2, &sec(9, 8));
        d.flush();
        assert_eq!(d.read_classified(2), data(&sec(9, 8)));
    }

    /// Reconciliation (satellite): repairs are counted, so the stats always
    /// satisfy `flipped_bits = repaired_bits + unrepairable flips`.
    #[test]
    fn unflip_reconciles_the_flip_counters() {
        let mut d = SimDisk::new(4);
        d.write(0, &[sec(0xAA, 4), sec(0xBB, 4)].concat());
        d.flush();
        assert!(d.flip_bit(2)); // sector 0
        assert!(d.flip_bit(33)); // sector 1
        assert!(d.tear_last_flush(1)); // sector 1 (and its flip) destroyed
        assert_eq!(d.unflip_all(), 1, "only the surviving sector's flip repairs");
        let s = d.stats();
        assert_eq!(s.flipped_bits, 2);
        assert_eq!(s.repaired_bits, 1);
        assert_eq!(s.flipped_bits - s.repaired_bits, 1, "one flip died with its sector");
        assert_eq!(whole(&d, 0), Some(sec(0xAA, 4)));
    }

    #[test]
    fn transient_errors_fire_then_clear() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        d.arm_transient_errors(2);
        assert_eq!(d.try_read(0), Err(DiskError::Transient));
        assert_eq!(d.try_write(1, &sec(2, 8)), Err(DiskError::Transient));
        assert_eq!(d.try_read(0), Ok(data(&sec(1, 8))));
        assert_eq!(d.stats().transient_errors, 2);
        assert_eq!(d.device_ops(), 3);
    }

    #[test]
    fn full_device_refuses_mutations_until_healed() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        d.set_full(true);
        assert_eq!(d.try_write(1, &sec(2, 8)), Err(DiskError::Full));
        assert_eq!(d.try_read(0), Ok(data(&sec(1, 8))));
        assert_eq!(d.try_delete(0), Ok(true), "deletes free space on a full device");
        d.heal();
        assert_eq!(d.try_write(1, &sec(2, 8)), Ok(()));
        assert_eq!(d.try_flush(), Ok(1));
    }

    #[test]
    fn crash_at_op_trips_the_device_until_power_cycle() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        d.arm_crash_at_op(2);
        assert!(d.try_read(0).is_ok());
        assert!(d.try_read(0).is_ok());
        assert_eq!(d.try_read(0), Err(DiskError::Crashed));
        assert!(d.is_tripped());
        // Every op fails, mutating or not, and heal() cannot revive it.
        assert_eq!(d.try_write(1, &sec(2, 8)), Err(DiskError::Crashed));
        d.heal();
        assert_eq!(d.try_flush().err(), Some(DiskError::Crashed));
        // Only acknowledging the power loss brings the device back.
        d.crash();
        assert!(!d.is_tripped());
        assert!(d.try_read(0).is_ok());
        // Arming at 0 kills the very next op.
        d.arm_crash_at_op(0);
        assert_eq!(d.try_read(0), Err(DiskError::Crashed));
    }

    #[test]
    fn slow_ops_charge_extra_ticks_then_clear() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        assert_eq!(d.device_ticks(), 0, "raw ops never tick the clock");
        assert!(d.try_read(0).is_ok());
        assert_eq!(d.device_ticks(), 1);
        d.arm_slow_ops(2, 4);
        assert!(d.try_read(0).is_ok());
        assert!(d.try_read(0).is_ok());
        assert!(d.try_read(0).is_ok());
        // Two slow ops at 1+4 ticks, one healthy op at 1 tick.
        assert_eq!(d.device_ticks(), 1 + 5 + 5 + 1);
        assert_eq!(d.stall_ticks(), 8);
        assert_eq!(d.stats().stall_ticks, 8);
        assert_eq!(d.device_ops(), 4, "slow ops still count as one op each");
    }

    #[test]
    fn fsync_stalls_charge_non_empty_flushes_only() {
        let mut d = SimDisk::new(8);
        d.arm_fsync_stall(2, 32);
        assert_eq!(d.try_flush(), Ok(0), "empty flush is a no-op — no stall consumed");
        assert_eq!(d.device_ticks(), 0);
        d.write(0, &sec(1, 8));
        d.try_write(1, &sec(2, 8)).unwrap();
        assert_eq!(d.try_flush(), Ok(2), "the stall delays the fsync, it does not lose it");
        // One checked write (1 tick) + one stalled flush (1 + 32 ticks).
        assert_eq!(d.device_ticks(), 1 + 33);
        assert_eq!(d.stall_ticks(), 32);
        d.write(2, &sec(3, 8));
        assert_eq!(d.try_flush(), Ok(1));
        d.write(3, &sec(4, 8));
        assert_eq!(d.try_flush(), Ok(1), "budget exhausted — healthy flush");
        assert_eq!(d.stall_ticks(), 64);
        assert_eq!(whole(&d, 0), Some(sec(1, 8)));
    }

    #[test]
    fn slow_op_time_is_charged_even_when_the_op_fails() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        d.arm_slow_ops(1, 7);
        d.arm_transient_errors(1);
        assert_eq!(d.try_read(0), Err(DiskError::Transient));
        assert_eq!(d.device_ticks(), 8, "a transient error on a slow device still wastes the wait");
        assert_eq!(d.stall_ticks(), 7);
    }

    #[test]
    fn heal_clears_armed_latency_but_keeps_elapsed_time() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        d.arm_slow_ops(10, 4);
        d.arm_fsync_stall(10, 32);
        assert!(d.try_read(0).is_ok());
        let before = d.device_ticks();
        assert_eq!(d.stall_ticks(), 4);
        d.heal();
        assert!(d.try_read(0).is_ok());
        d.write(1, &sec(2, 8));
        assert_eq!(d.try_flush(), Ok(1));
        assert_eq!(d.device_ticks(), before + 2, "healed device serves at one tick per op");
        assert_eq!(d.stall_ticks(), 4, "the surplus already paid persists");
    }

    #[test]
    fn restore_clears_armed_latency_channels() {
        let mut d = SimDisk::new(8);
        d.write(0, &sec(1, 8));
        d.flush();
        let img = d.snapshot();
        d.arm_slow_ops(5, 9);
        d.arm_fsync_stall(5, 9);
        d.restore(&img);
        assert!(d.try_read(0).is_ok());
        assert_eq!(d.stall_ticks(), 0, "restore re-images onto healthy hardware");
    }

    #[test]
    fn snapshot_restore_round_trips_the_durable_image() {
        let mut d = SimDisk::new(8);
        d.write(0, &[sec(1, 8), sec(2, 8)].concat());
        d.flush();
        d.tear_last_flush(1);
        let img = d.snapshot();
        d.write(5, &sec(7, 8));
        d.flush();
        d.set_full(true);
        d.arm_crash_at_op(0);
        d.restore(&img);
        assert_eq!(whole(&d, 0), Some(sec(1, 8)));
        assert_eq!(whole(&d, 5), None);
        assert_eq!(d.read_classified(1), SectorRead::Torn, "tombstones restore too");
        assert!(d.try_read(0).is_ok(), "restore clears armed faults");
        assert!(!d.is_full());
    }

    #[test]
    fn same_operations_same_image() {
        let run = || {
            let mut d = SimDisk::new(8);
            d.write(0, &[sec(1, 8), sec(2, 8), sec(3, 8)].concat());
            d.flush();
            d.write(3, &sec(4, 8));
            d.flush();
            d.flip_bit(77);
            d.tear_last_flush(0);
            d.durable_sectors().map(|s| (s, whole(&d, s).unwrap())).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
