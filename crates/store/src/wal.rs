//! Segmented write-ahead log on a [`SimDisk`]: the on-disk format (CRC'd
//! frames, epoch-stamped segment headers) and its writer — appends, group
//! flushes, checkpoint truncation, and the recovery that applies what the
//! crate's one reading of an image (`scan.rs`) decides.
//!
//! # On-disk format
//!
//! Every stored object is a **frame**, zero-padded to a whole number of
//! sectors:
//!
//! ```text
//! magic  u32-le   b"CCRF"
//! kind   u8       1 = segment header, 2 = commit, 3 = checkpoint,
//!                 5 = PREPARE (2PC: gtid + the participant's commit record),
//!                 6 = DECIDE (2PC: gtid + commit/abort flag); 4 is unused
//! len    u32-le   payload byte length
//! crc    u32-le   CRC32 of the whole padded frame with this field zeroed
//! payload[len]
//! zero padding to a sector multiple
//! ```
//!
//! A commit frame (kind 2) holds one or more commit records back to back;
//! each record is self-delimiting, so the frame needs no count.
//! `append_commit` writes a frame of one. `append_commits`
//! ([`LogBackend::append_commits`]) writes a whole group flush as one frame
//! under one CRC and one flush, which is what amortises the fsync cost
//! across the group: recovery keeps such a frame whole or drops it whole.
//! A group that runs past the end of a segment is split at a record
//! boundary there: the records that fit are flushed as a frame of their own
//! before the next segment's header, and the rest follow in a frame after
//! it.
//!
//! The CRC covers the padding, so *every durable bit* of the log belongs to
//! exactly one frame's checked extent — any single-bit flip is detectable.
//! Nobody writes or reads the padding: the device stores a frame's occupied
//! bytes, and builder and checker fold the zero tail in arithmetically
//! ([`crate::codec`]). A flipped padding bit is stored (the flip stores the
//! tail up to its byte), so it still fails the check.
//!
//! The log is an array of fixed-size **segments** (`seg_sectors` sectors).
//! Sector 0 of each segment holds a segment-header frame carrying the
//! recovery epoch, the segment index, a `requires_checkpoint` flag (set once
//! truncation has ever deleted a segment — after that, a scan that finds no
//! valid checkpoint must refuse rather than silently start cold), the
//! transaction-id / exec-seq floors, and the durable [`StoreStats`]
//! counters. The header is rewritten in place at segment creation, at every
//! checkpoint, and at every successful recovery (with the epoch bumped).
//!
//! How an image written in this format is read back — the walk, the damage
//! classes, what each [`TailPolicy`] may discard — is stated once, in
//! `scan.rs`, beside the code that decides it.

use std::collections::BTreeSet;
use std::marker::PhantomData;

use ccr_core::adt::Adt;

use crate::backend::{
    CheckpointImage, CommitRecord, ConvergenceFailure, ConvergenceReport, Detection, LogBackend,
    RecoveredLog, RetryRecord, ScanReport, StoreFailure, StoreFailureKind, StoreStats, TailPolicy,
};
use crate::codec::{crc32, crc32_zero_tail, Persist};
use crate::disk::{DiskError, SimDisk};
use crate::scan;

/// Geometry of the simulated log device.
///
/// The defaults are deliberately tiny — 32-byte sectors make a one-operation
/// commit span two sectors (so torn writes are expressible), and 64-sector
/// segments make rolls and checkpoint truncation fire in small tests.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Sector size in bytes.
    pub sector: usize,
    /// Sectors per log segment.
    pub seg_sectors: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { sector: 32, seg_sectors: 64 }
    }
}

impl WalConfig {
    /// Sectors a segment-header frame occupies: where a segment's data
    /// area begins.
    pub(crate) fn header_sectors(&self) -> u64 {
        (FRAME_OVERHEAD + HEADER_PAYLOAD).div_ceil(self.sector) as u64
    }
}

pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"CCRF");
pub(crate) const KIND_SEG_HEADER: u8 = 1;
pub(crate) const KIND_COMMIT: u8 = 2;
pub(crate) const KIND_CHECKPOINT: u8 = 3;
/// A two-phase-commit PREPARE: the participant's full commit record,
/// journaled *before* the vote — the transaction is in doubt until a
/// decide frame (or the coordinator's verdict) resolves it.
pub(crate) const KIND_PREPARE: u8 = 5;
/// A two-phase-commit decision for a previously prepared transaction:
/// gtid plus a commit/abort flag. Per presumed abort, a prepare whose
/// decide frame is torn away resolves to abort.
pub(crate) const KIND_DECIDE: u8 = 6;
/// magic(4) + kind(1) + len(4) + crc(4).
pub(crate) const FRAME_OVERHEAD: usize = 13;
/// epoch(8) + seg_index(8) + requires_checkpoint(1) + txn_floor(4) +
/// next_exec_seq(8) + five `StoreStats` counters (40).
pub(crate) const HEADER_PAYLOAD: usize = 69;

/// Open a frame of `kind` in `buf`: the header with `len` and `crc` still
/// zero. The caller appends the payload and [`seal_frame`]s it.
fn begin_frame(buf: &mut Vec<u8>, kind: u8) {
    buf.clear();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(&[0u8; 8]);
}

/// Close the frame opened in `buf`: record the payload length and store the
/// CRC of the extent zero-padded to a sector multiple, the CRC field still
/// zero. The padding is folded in, never written: the device reads it.
fn seal_frame(buf: &mut [u8], sector: usize) {
    let occupied = buf.len();
    let len = (occupied - FRAME_OVERHEAD) as u32;
    buf[5..9].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_zero_tail(&[buf], occupied.next_multiple_of(sector) - occupied);
    buf[9..13].copy_from_slice(&crc.to_le_bytes());
}

/// Build a sector-aligned CRC'd frame around `payload`, padding included.
/// Public (with [`check_frame`]) as the wire-format test surface: the
/// corruption property tests damage frames byte-by-byte without a device.
pub fn build_frame(kind: u8, payload: &[u8], sector: usize) -> Vec<u8> {
    let total = (FRAME_OVERHEAD + payload.len()).next_multiple_of(sector);
    let mut buf = Vec::with_capacity(total);
    begin_frame(&mut buf, kind);
    buf.extend_from_slice(payload);
    seal_frame(&mut buf, sector);
    buf.resize(total, 0);
    buf
}

/// The kind and payload length a frame's first bytes claim, if they start
/// with the magic and a known kind.
pub(crate) fn frame_head(first: &[u8]) -> Option<(u8, usize)> {
    if first.len() < FRAME_OVERHEAD {
        return None;
    }
    let magic = u32::from_le_bytes(first[0..4].try_into().expect("4 bytes"));
    let kind = first[4];
    let len = u32::from_le_bytes(first[5..9].try_into().expect("4 bytes")) as usize;
    let known = matches!(kind, KIND_SEG_HEADER..=KIND_CHECKPOINT | KIND_PREPARE..=KIND_DECIDE);
    (magic == MAGIC && known).then_some((kind, len))
}

/// The payload of a frame [`frame_crc_matches`] accepted.
pub(crate) fn frame_payload(frame: &[u8]) -> &[u8] {
    let len = u32::from_le_bytes(frame[5..9].try_into().expect("4 bytes")) as usize;
    &frame[FRAME_OVERHEAD..FRAME_OVERHEAD + len]
}

/// Validate a frame image exactly the way the recovery scanner does —
/// magic, kind range, sane length, CRC over the whole sector-aligned extent
/// — and return `(kind, payload)` if it is intact, the payload borrowed
/// from `buf`. `None` classifies the frame as corrupt; a torn frame (short
/// buffer) is also `None`.
pub fn check_frame(buf: &[u8]) -> Option<(u8, &[u8])> {
    let (kind, len) = frame_head(buf)?;
    let total = FRAME_OVERHEAD.checked_add(len)?;
    (total <= buf.len() && frame_crc_matches(buf, 0)).then(|| (kind, &buf[FRAME_OVERHEAD..total]))
}

/// Whether the CRC in `frame[9..13]` is the checksum of `frame` and then
/// `zeros` zero bytes, that field read as zero — how [`seal_frame`]
/// computed it. The frame is neither copied nor read past its stored bytes.
pub(crate) fn frame_crc_matches(frame: &[u8], zeros: usize) -> bool {
    let stored = u32::from_le_bytes(frame[9..13].try_into().expect("4 bytes"));
    crc32_zero_tail(&[&frame[..9], &[0; 4], &frame[13..]], zeros) == stored
}

/// Retries of a transiently failing device op after its first failure;
/// then the error surfaces to the caller, who degrades to read-only rather
/// than panicking.
const RETRY_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in logical ticks; doubles per attempt
/// (no wall clock: the run stays a pure function of the fault plan).
const RETRY_BACKOFF_BASE: u64 = 2;

/// Run one checked device op under the retry policy: transient errors are
/// retried with deterministic exponential backoff; permanent errors and
/// budget exhaustion surface to the caller. Retried ops are recorded for
/// the runtime to drain into obs events.
fn with_retries<T>(
    retries: &mut Vec<RetryRecord>,
    mut op: impl FnMut() -> Result<T, DiskError>,
) -> Result<T, DiskError> {
    let mut attempts = 0u32;
    let mut backoff = 0u64;
    loop {
        match op() {
            Ok(v) => {
                if attempts > 0 {
                    retries.push(RetryRecord { attempts, backoff, ok: true });
                }
                return Ok(v);
            }
            Err(DiskError::Transient) if attempts < RETRY_ATTEMPTS => {
                backoff += RETRY_BACKOFF_BASE << attempts;
                attempts += 1;
            }
            Err(e) => {
                if attempts > 0 {
                    retries.push(RetryRecord { attempts, backoff, ok: false });
                }
                return Err(e);
            }
        }
    }
}

/// Decoded segment-header payload. Public (with the 2PC codec below) as
/// the wire-format test surface: the epoch-header round-trip and
/// byte-corruption property tests drive `encode`/`decode` directly, without
/// a device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegHeader {
    /// Recovery epoch (bumped by every successful recovery).
    pub epoch: u64,
    /// Index of the segment this header opens.
    pub seg_index: u64,
    /// Whether truncation made the checkpoint in this segment load-bearing.
    pub requires_checkpoint: bool,
    /// Transaction-id floor at header-write time.
    pub txn_floor: u32,
    /// Global execution-sequence floor at header-write time.
    pub next_exec_seq: u64,
    /// Durable counters as persisted with this header.
    pub stats: StoreStats,
}

impl SegHeader {
    /// Serialize to the fixed-width header payload (`HEADER_PAYLOAD` bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_PAYLOAD);
        self.put(&mut out);
        debug_assert_eq!(out.len(), HEADER_PAYLOAD);
        out
    }

    fn put(&self, out: &mut Vec<u8>) {
        self.epoch.encode(out);
        self.seg_index.encode(out);
        (self.requires_checkpoint as u8).encode(out);
        self.txn_floor.encode(out);
        self.next_exec_seq.encode(out);
        self.stats.checkpoints.encode(out);
        self.stats.recoveries.encode(out);
        self.stats.sector_tears.encode(out);
        self.stats.reordered_flushes.encode(out);
        self.stats.bitflips_detected.encode(out);
    }

    /// Parse a header payload; `None` on any structural damage (wrong
    /// length, truncated field).
    pub fn decode(payload: &[u8]) -> Option<SegHeader> {
        let mut pos = 0;
        let h = SegHeader {
            epoch: u64::decode(payload, &mut pos)?,
            seg_index: u64::decode(payload, &mut pos)?,
            requires_checkpoint: u8::decode(payload, &mut pos)? != 0,
            txn_floor: u32::decode(payload, &mut pos)?,
            next_exec_seq: u64::decode(payload, &mut pos)?,
            stats: StoreStats {
                checkpoints: u64::decode(payload, &mut pos)?,
                recoveries: u64::decode(payload, &mut pos)?,
                sector_tears: u64::decode(payload, &mut pos)?,
                reordered_flushes: u64::decode(payload, &mut pos)?,
                bitflips_detected: u64::decode(payload, &mut pos)?,
            },
        };
        (pos == payload.len()).then_some(h)
    }
}

// The `put_*` functions append a payload to a buffer — the frame being
// built, on the append paths — so no payload is allocated on its own.

fn put_commit<A>(out: &mut Vec<u8>, rec: &CommitRecord<A>)
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    rec.floor.encode(out);
    rec.ops.encode(out);
}

/// Read one commit record at `pos`, advancing it past the record; `None`
/// on structural damage.
fn get_commit<A>(payload: &[u8], pos: &mut usize) -> Option<CommitRecord<A>>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    Some(CommitRecord { floor: u32::decode(payload, pos)?, ops: Persist::decode(payload, pos)? })
}

/// Serialize a commit frame's payload: the records back to back. Public
/// (with [`decode_commit`]) as the wire-format test surface.
pub fn encode_commits<A>(recs: &[CommitRecord<A>]) -> Vec<u8>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    let mut out = Vec::new();
    for rec in recs {
        put_commit(&mut out, rec);
    }
    out
}

/// Append the records of a commit payload — one or more, back to back — to
/// `out`. `None`, with `out` left as it was, on structural damage; an empty
/// payload is damage too, since nothing writes one.
pub fn decode_commit<A>(payload: &[u8], out: &mut Vec<CommitRecord<A>>) -> Option<()>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    let (start, mut pos) = (out.len(), 0);
    while pos < payload.len() {
        let Some(rec) = get_commit(payload, &mut pos) else {
            out.truncate(start);
            return None;
        };
        out.push(rec);
    }
    (out.len() > start).then_some(())
}

/// Serialize a 2PC prepare frame: the global transaction id followed by the
/// participant's full commit record. Public (with [`decode_prepare`]) as the
/// wire-format test surface for the presumed-abort property tests.
pub fn encode_prepare<A>(gtid: u64, rec: &CommitRecord<A>) -> Vec<u8>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    let mut out = Vec::new();
    put_prepare(&mut out, gtid, rec);
    out
}

fn put_prepare<A>(out: &mut Vec<u8>, gtid: u64, rec: &CommitRecord<A>)
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    gtid.encode(out);
    put_commit(out, rec);
}

/// Parse a prepare payload; `None` on structural damage.
pub fn decode_prepare<A>(payload: &[u8]) -> Option<(u64, CommitRecord<A>)>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
{
    let mut pos = 0;
    let gtid = u64::decode(payload, &mut pos)?;
    let rec = get_commit(payload, &mut pos)?;
    (pos == payload.len()).then_some((gtid, rec))
}

/// Serialize a 2PC decide frame: gtid plus commit flag (1 = commit,
/// 0 = abort). Public as the wire-format test surface.
pub fn encode_decide(gtid: u64, commit: bool) -> Vec<u8> {
    let mut out = Vec::new();
    put_decide(&mut out, gtid, commit);
    out
}

fn put_decide(out: &mut Vec<u8>, gtid: u64, commit: bool) {
    gtid.encode(out);
    (commit as u8).encode(out);
}

/// Parse a decide payload; `None` on structural damage (a flag byte other
/// than 0/1 counts as damage — nothing legitimate writes one).
pub fn decode_decide(payload: &[u8]) -> Option<(u64, bool)> {
    let mut pos = 0;
    let gtid = u64::decode(payload, &mut pos)?;
    let flag = u8::decode(payload, &mut pos)?;
    if flag > 1 {
        return None;
    }
    (pos == payload.len()).then_some((gtid, flag == 1))
}

fn put_checkpoint<A>(out: &mut Vec<u8>, img: &CheckpointImage<A>)
where
    A: Adt,
    A::State: Persist,
{
    img.base_records.encode(out);
    img.txn_floor.encode(out);
    img.next_exec_seq.encode(out);
    img.states.encode(out);
}

pub(crate) fn decode_checkpoint<A>(payload: &[u8]) -> Option<CheckpointImage<A>>
where
    A: Adt,
    A::State: Persist,
{
    let mut pos = 0;
    let img = CheckpointImage {
        base_records: u64::decode(payload, &mut pos)?,
        txn_floor: u32::decode(payload, &mut pos)?,
        next_exec_seq: u64::decode(payload, &mut pos)?,
        states: Persist::decode(payload, &mut pos)?,
    };
    (pos == payload.len()).then_some(img)
}

/// The durable WAL backend: a segmented CRC'd log on a [`SimDisk`].
///
/// `Clone` duplicates the whole backend — device, cursors, counters, armed
/// sabotage — the snapshot primitive the model checker's explorer forks
/// states with.
#[derive(Clone, Debug)]
pub struct WalBackend<A: Adt> {
    disk: SimDisk,
    cfg: WalConfig,
    epoch: u64,
    /// Current segment index.
    seg: u64,
    /// Next free sector *within* the current segment.
    head: u64,
    requires_checkpoint: bool,
    txn_floor: u32,
    next_exec_seq: u64,
    /// In-process view of the durable counters (what the last header write
    /// persisted, plus activity since). Wiped by `crash` and rebuilt from
    /// the log by `recover` — process memory is not stable storage.
    stats: StoreStats,
    /// Detections accumulated by scans since the last crash, folded into
    /// `stats` (and persisted) at the next successful recovery.
    detected: StoreStats,
    /// Damage sites already counted into `detected` since the last crash.
    /// Repeated scans of the same un-repaired damage (a Strict refusal
    /// followed by a DiscardTail retry) re-detect the same physical fault;
    /// this set keeps one fault from inflating the persisted counters.
    seen_damage: BTreeSet<(u8, u64)>,
    /// Whether the most recent flush was a commit append. Header and
    /// checkpoint flushes are synchronous fsyncs the caller waited on, so
    /// tear / reorder faults (which model an interrupted flush) do not
    /// apply to them.
    tearable: bool,
    /// Retried ops since the last [`LogBackend::drain_retries`], oldest
    /// first. Process memory — wiped by `crash`.
    retries: Vec<RetryRecord>,
    /// Where every frame is built: the payload is encoded straight into it
    /// and it is checksummed in place; the device gets its occupied bytes
    /// only. Empty between frames (so `Clone` copies nothing); only its
    /// capacity is kept.
    frame: Vec<u8>,
    /// Test-only sabotage: skip the epoch bump at the end of recovery, so
    /// the convergence probe's negative test can prove it notices a
    /// recovery that makes no durable progress.
    skip_epoch_bump: bool,
    _marker: PhantomData<fn() -> A>,
}

impl<A> WalBackend<A>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    pub fn new(cfg: WalConfig) -> Self {
        let header_sectors = cfg.header_sectors();
        assert!(
            cfg.seg_sectors > header_sectors,
            "segment must have room for data after its header"
        );
        let mut wal = WalBackend {
            disk: SimDisk::new(cfg.sector),
            cfg,
            epoch: 0,
            seg: 0,
            head: header_sectors,
            requires_checkpoint: false,
            txn_floor: 0,
            next_exec_seq: 0,
            stats: StoreStats::default(),
            detected: StoreStats::default(),
            seen_damage: BTreeSet::new(),
            tearable: false,
            retries: Vec::new(),
            frame: Vec::new(),
            skip_epoch_bump: false,
            _marker: PhantomData,
        };
        wal.write_header().expect("a fresh device has no armed faults");
        wal
    }

    /// Direct access to the underlying device, for fault-injection tests
    /// that target the disk itself (e.g. misdirected writes).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Read-only access to the underlying device — the offline forensic
    /// inspector ([`crate::inspect`]) walks the durable image through this
    /// without ticking a single checked device op.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    pub fn config(&self) -> WalConfig {
        self.cfg
    }

    fn header(&self) -> SegHeader {
        SegHeader {
            epoch: self.epoch,
            seg_index: self.seg,
            requires_checkpoint: self.requires_checkpoint,
            txn_floor: self.txn_floor,
            next_exec_seq: self.next_exec_seq,
            stats: self.stats,
        }
    }

    /// Test-only sabotage hook for the convergence probe's negative test:
    /// skip the durable epoch bump that seals every successful recovery.
    pub fn set_skip_epoch_bump(&mut self, on: bool) {
        self.skip_epoch_bump = on;
    }

    /// The current recovery epoch (bumped and persisted by every
    /// successful recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Build a frame of `kind` around the payload `put` writes, in the
    /// backend's frame buffer, and hand its occupied bytes to `then`.
    fn with_frame<T>(
        &mut self,
        kind: u8,
        put: impl FnOnce(&mut Vec<u8>),
        then: impl FnOnce(&mut Self, &[u8]) -> T,
    ) -> T {
        let mut frame = std::mem::take(&mut self.frame);
        begin_frame(&mut frame, kind);
        put(&mut frame);
        seal_frame(&mut frame, self.cfg.sector);
        let out = then(self, &frame);
        frame.clear();
        self.frame = frame;
        out
    }

    /// Stage `frame` in the device's write cache at absolute sector `at`.
    fn write_at(&mut self, at: u64, frame: &[u8]) -> Result<(), DiskError> {
        with_retries(&mut self.retries, || self.disk.try_write(at, frame))
    }

    fn flush(&mut self) -> Result<usize, DiskError> {
        with_retries(&mut self.retries, || self.disk.try_flush())
    }

    /// (Re)write the current segment's header in place and fsync it.
    fn write_header(&mut self) -> Result<(), DiskError> {
        let header = self.header();
        let at = self.seg * self.cfg.seg_sectors;
        self.with_frame(
            KIND_SEG_HEADER,
            |out| header.put(out),
            |wal, frame| wal.write_at(at, frame),
        )?;
        self.flush()?;
        self.tearable = false;
        Ok(())
    }

    /// Open the next segment: its header is written and fsynced, and the
    /// head moves to its data area.
    fn roll(&mut self) -> Result<(), DiskError> {
        self.seg += 1;
        self.head = self.cfg.header_sectors();
        self.write_header()
    }

    /// Stage one frame at the head, first rolling to a new segment if it
    /// does not fit. Returns the frame's sector count; advancing the head
    /// over it is the caller's move.
    fn stage_frame(&mut self, frame: &[u8]) -> Result<u64, DiskError> {
        let sectors = frame.len().div_ceil(self.cfg.sector) as u64;
        assert!(
            sectors <= self.cfg.seg_sectors - self.cfg.header_sectors(),
            "frame of {sectors} sectors exceeds segment capacity"
        );
        if self.head + sectors > self.cfg.seg_sectors {
            self.roll()?;
        }
        self.write_at(self.seg * self.cfg.seg_sectors + self.head, frame)?;
        Ok(sectors)
    }

    /// Write `recs` as one commit frame in `frame` (the backend's buffer)
    /// and fsync it. A group that runs past the segment's end is split at
    /// the record that does not fit: the records before it are sealed and
    /// flushed as a frame of their own — their sectors must not share a
    /// flush with the next segment's non-tearable header fsync — and the
    /// rest continue after the roll.
    fn write_group(
        &mut self,
        frame: &mut Vec<u8>,
        recs: &[CommitRecord<A>],
    ) -> Result<(), DiskError> {
        let sector = self.cfg.sector;
        begin_frame(frame, KIND_COMMIT);
        for rec in recs {
            self.cover(rec);
            let start = frame.len();
            put_commit(frame, rec);
            if self.head + frame.len().div_ceil(sector) as u64 <= self.cfg.seg_sectors {
                continue;
            }
            if start > FRAME_OVERHEAD {
                seal_frame(&mut frame[..start], sector);
                self.head += self.stage_frame(&frame[..start])?;
                self.flush()?;
                frame.drain(FRAME_OVERHEAD..start);
                frame[5..FRAME_OVERHEAD].fill(0);
            }
            self.roll()?;
        }
        seal_frame(frame, sector);
        self.head += self.stage_frame(frame)?;
        self.flush()?;
        self.tearable = true;
        Ok(())
    }

    /// Append one frame at the head (rolling to a new segment if it does
    /// not fit) and fsync it.
    fn append_frame(&mut self, kind: u8, put: impl FnOnce(&mut Vec<u8>)) -> Result<(), DiskError> {
        let sectors = self.with_frame(kind, put, |wal, frame| wal.stage_frame(frame))?;
        self.flush()?;
        self.head += sectors;
        self.tearable = matches!(kind, KIND_COMMIT | KIND_PREPARE | KIND_DECIDE);
        Ok(())
    }

    /// Advance the floors over `rec`: a recovery must resume above every id
    /// and execution stamp the log has seen.
    fn cover(&mut self, rec: &CommitRecord<A>) {
        self.txn_floor = rec.floor;
        if let Some(max) = rec.ops.iter().map(|(s, _, _)| s + 1).max() {
            self.next_exec_seq = self.next_exec_seq.max(max);
        }
    }

    /// Run one durable append — floors advanced, frames written and
    /// fsynced by `write` — as a unit. If the device fails while it is
    /// still alive the whole append is [rolled back](Self::rollback_append),
    /// which is what lets every `append_*` promise "on `Err` nothing of this
    /// is durable". A tripped device ([`DiskError::Crashed`]) is about to
    /// power-cycle: only the floors are taken back, and whatever prefix
    /// reached the platter follows ordinary crash semantics.
    fn guarded_append<T>(
        &mut self,
        write: impl FnOnce(&mut Self) -> Result<T, DiskError>,
    ) -> Result<T, DiskError> {
        let start = (self.seg, self.head);
        let floors = (self.txn_floor, self.next_exec_seq);
        write(self).inspect_err(|&e| {
            if e == DiskError::Crashed {
                (self.txn_floor, self.next_exec_seq) = floors;
            } else {
                self.rollback_append(start, floors);
            }
        })
    }

    /// Undo a failed append on a still-live device: scrub the staged bytes
    /// from the write cache (so no later flush can leak them out), delete
    /// any sectors the append already made durable (a group that rolls
    /// flushes the records before the roll), and rewind the head and
    /// floors. After this the log is exactly what it was before the append
    /// — the record the caller reports as failed can never resurface at
    /// recovery.
    fn rollback_append(&mut self, start: (u64, u64), floors: (u32, u64)) {
        self.disk.discard_pending();
        let abs = start.0 * self.cfg.seg_sectors + start.1;
        let doomed: Vec<u64> = self.disk.durable_in(abs..).collect();
        for s in doomed {
            self.disk.delete(s);
        }
        (self.seg, self.head) = start;
        (self.txn_floor, self.next_exec_seq) = floors;
        self.tearable = false;
    }

    /// Fingerprint of everything a recovered log determines about the
    /// resumed system: the replay base, the record suffix, both floors, the
    /// checkpoint-required flag and the durable checkpoint counter. Two
    /// recoveries with equal fingerprints replay to the identical `View`
    /// under *any* replay function. Detection and recovery tallies are
    /// deliberately excluded — a nested crash between a repair and the
    /// header fsync can legitimately lose a detection count (the tally is
    /// telemetry, not replay state); DESIGN.md §11 spells out the contract.
    fn recovered_fingerprint(&self, out: &RecoveredLog<A>) -> String {
        let mut buf = Vec::new();
        for rec in &out.records {
            put_commit(&mut buf, rec);
            buf.push(0xA5);
        }
        if let Some(cp) = &out.checkpoint {
            put_checkpoint(&mut buf, cp);
        }
        for (gtid, rec) in &out.in_doubt {
            put_prepare(&mut buf, *gtid, rec);
            buf.push(0x2C);
        }
        for (gtid, commit) in &out.decisions {
            put_decide(&mut buf, *gtid, *commit);
            buf.push(0xD0);
        }
        out.txn_floor.encode(&mut buf);
        out.next_exec_seq.encode(&mut buf);
        (self.requires_checkpoint as u8).encode(&mut buf);
        out.stats.checkpoints.encode(&mut buf);
        format!(
            "view:{:08x} floor:{} seq:{} ckpts:{}",
            crc32(&buf),
            out.txn_floor,
            out.next_exec_seq,
            out.stats.checkpoints
        )
    }

    /// One convergence outcome: a successful recovery's fingerprint, or the
    /// classification of a refusal. Device errors never appear here — the
    /// probe handles them separately.
    fn outcome_key(&self, res: &Result<RecoveredLog<A>, StoreFailure>) -> String {
        match res {
            Ok(out) => self.recovered_fingerprint(out),
            Err(f) => format!("refused:{}:{:?}", f.report.damage, f.kind),
        }
    }
}

/// Count a scan detection toward the per-process fault stats, at most once
/// per damage site per crash: repeated scans of the same un-repaired damage
/// re-detect the same physical fault and must not inflate the persisted
/// counters. (A crash legitimately clears the memo — process memory is not
/// stable storage — so each post-crash scan counts a site it finds afresh.)
fn note_detection(detected: &mut StoreStats, seen: &mut BTreeSet<(u8, u64)>, d: &Detection) {
    let key = match d {
        Detection::TornFrame { sector } => (0u8, *sector),
        Detection::MissingData { sector } => (1, *sector),
        Detection::CrcMismatch { sector } => (2, *sector),
        Detection::InteriorFrame { sector } => (3, *sector),
    };
    if !seen.insert(key) {
        return;
    }
    match d {
        Detection::TornFrame { .. } => detected.sector_tears += 1,
        Detection::MissingData { .. } => detected.reordered_flushes += 1,
        Detection::CrcMismatch { .. } => detected.bitflips_detected += 1,
        Detection::InteriorFrame { .. } => {}
    }
}

/// One timed window of a recovery attempt: the checked device ops and the
/// wall time between `start` and `stop`, added to the report's fields for
/// the window's stage.
struct Stage {
    clock: std::time::Instant,
    ops0: u64,
}

impl Stage {
    fn start(disk: &SimDisk) -> Stage {
        Stage { clock: std::time::Instant::now(), ops0: disk.device_ops() }
    }

    fn stop(self, disk: &SimDisk, ops: &mut u64, ns: &mut u64) {
        *ops += disk.device_ops() - self.ops0;
        *ns += self.clock.elapsed().as_nanos() as u64;
    }
}

impl<A> LogBackend<A> for WalBackend<A>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    fn append_commit(&mut self, rec: &CommitRecord<A>) -> Result<(), StoreFailure> {
        self.guarded_append(|wal| {
            wal.cover(rec);
            wal.append_frame(KIND_COMMIT, |out| put_commit(out, rec))
        })
        .map_err(StoreFailure::device)
    }

    fn append_commits(&mut self, recs: &[CommitRecord<A>]) -> Result<(), StoreFailure> {
        if recs.is_empty() {
            return Ok(());
        }
        // A crash keeps whatever a roll flushed early, but a *reported*
        // failure promises "none durable": the guard deletes it again.
        self.guarded_append(|wal| {
            let mut frame = std::mem::take(&mut wal.frame);
            let written = wal.write_group(&mut frame, recs);
            frame.clear();
            wal.frame = frame;
            written
        })
        .map_err(StoreFailure::device)
    }

    fn append_prepare(&mut self, gtid: u64, rec: &CommitRecord<A>) -> Result<(), StoreFailure> {
        self.guarded_append(|wal| {
            // A prepare advances the floors exactly as its commit would: the
            // record's ops are durable from here even though the outcome is
            // still open, and a recovery must not hand out ids or exec stamps
            // that collide with the in-doubt transaction's.
            wal.cover(rec);
            wal.append_frame(KIND_PREPARE, |out| put_prepare(out, gtid, rec))
        })
        .map_err(StoreFailure::device)
    }

    fn append_decision(&mut self, gtid: u64, commit: bool) -> Result<(), StoreFailure> {
        self.guarded_append(|wal| {
            wal.append_frame(KIND_DECIDE, |out| put_decide(out, gtid, commit))
        })
        .map_err(StoreFailure::device)
    }

    fn write_checkpoint(&mut self, img: &CheckpointImage<A>) -> Result<u64, StoreFailure> {
        self.guarded_append(|wal| {
            wal.txn_floor = img.txn_floor;
            wal.next_exec_seq = img.next_exec_seq;
            wal.append_frame(KIND_CHECKPOINT, |out| put_checkpoint(out, img))
        })
        .map_err(StoreFailure::device)?;
        // The checkpoint frame is durable: from here on the new image is
        // the replay base and failure no longer rolls anything back. Whole
        // segments before the checkpoint's segment are now redundant.
        let cut = self.seg * self.cfg.seg_sectors;
        let doomed: Vec<u64> = self.disk.durable_in(..cut).collect();
        let mut truncated_segs: Vec<u64> = Vec::new();
        for &s in &doomed {
            let seg = s / self.cfg.seg_sectors;
            if truncated_segs.last() != Some(&seg) {
                truncated_segs.push(seg);
            }
        }
        self.stats.checkpoints += 1;
        if !truncated_segs.is_empty() {
            // Persist the refuse-without-a-checkpoint flag *before* any
            // sector is deleted: a crash mid-truncation must find the flag
            // durable, or a later scan that also loses the checkpoint frame
            // would silently start cold on the truncated log.
            self.requires_checkpoint = true;
        }
        self.write_header().map_err(StoreFailure::device)?;
        for s in doomed {
            with_retries(&mut self.retries, || self.disk.try_delete(s))
                .map_err(StoreFailure::device)?;
        }
        Ok(truncated_segs.len() as u64)
    }

    fn crash(&mut self) {
        self.disk.crash();
        // Process memory is gone: everything below must be re-learned from
        // the log by `recover`. (The disk object itself *is* the stable
        // medium, so it survives.)
        self.epoch = 0;
        self.seg = 0;
        self.head = self.cfg.header_sectors();
        self.requires_checkpoint = false;
        self.txn_floor = 0;
        self.next_exec_seq = 0;
        self.stats = StoreStats::default();
        self.detected = StoreStats::default();
        self.seen_damage.clear();
        self.tearable = false;
        self.retries.clear();
    }

    fn recover(&mut self, policy: TailPolicy) -> Result<RecoveredLog<A>, StoreFailure> {
        // Stage accounting: every checked device op of this attempt lands in
        // exactly one of the scan / classify / repair windows, so the three
        // `*_ops` fields tile the attempt's device-op delta (the profiler's
        // recovery-coverage check relies on that). Wall time rides along but
        // is excluded from report equality.
        let (disk, cfg, retries) = (&self.disk, &self.cfg, &mut self.retries);
        // Every frame position the scan visits costs one *checked* read
        // (retried under the policy), so a crash-at-op or an exhausted
        // transient budget can kill a recovery at any of them.
        let mut read = |sector| with_retries(retries, || disk.try_read(sector));

        let stage = Stage::start(disk);
        let mut scan = scan::walk::<A, _>(disk, cfg, &mut read).map_err(StoreFailure::device)?;
        let mut report = scan.report();
        stage.stop(disk, &mut report.scan_ops, &mut report.scan_ns);

        if let Some(found) = scan.site.as_ref().map(scan::Site::detection) {
            // Counted before the probe: a device error there must not lose
            // the detection.
            note_detection(&mut self.detected, &mut self.seen_damage, &found);
            let stage = Stage::start(disk);
            let probed = scan.probe(disk, cfg, &mut read);
            stage.stop(disk, &mut report.classify_ops, &mut report.classify_ns);
            probed.map_err(StoreFailure::device)?;
        }

        let plan = scan.plan(policy);
        // The plan may find more (the interior frame); the memo keeps the
        // site from counting twice.
        for d in &plan.detections {
            note_detection(&mut self.detected, &mut self.seen_damage, d);
        }
        report.damage = plan.damage;
        report.detections = plan.detections;

        // Apply the plan: what it discards goes before what it refuses.
        let stage = Stage::start(&self.disk);
        if let Some(at) = plan.discard_from {
            let doomed: Vec<u64> = self.disk.durable_in(at..).collect();
            for s in doomed {
                with_retries(&mut self.retries, || self.disk.try_delete(s))
                    .map_err(StoreFailure::device)?;
            }
        }
        stage.stop(&self.disk, &mut report.repair_ops, &mut report.repair_ns);
        if let Some(kind) = plan.refuse {
            return Err(StoreFailure { report, kind });
        }

        // Adopt the durable counters from the log, fold in what this
        // process's scans detected, and persist the updated header with a
        // bumped epoch — the durable record that a recovery happened. The
        // header fsync is recovery's commit point: until it lands a nested
        // crash re-runs the whole scan from what the discard left. An empty
        // medium has no header to succeed: a cold start seals epoch 0, as a
        // new log does.
        let governing = scan.governing();
        let cold = scan.headers.is_empty();
        (self.seg, self.head) = scan.end;
        let log = scan.replay();
        self.epoch = governing.epoch + u64::from(!cold && !self.skip_epoch_bump);
        self.requires_checkpoint = governing.requires_checkpoint;
        self.txn_floor = log.txn_floor;
        self.next_exec_seq = log.next_exec_seq;
        self.stats = governing.stats;
        self.stats.add(&self.detected);
        self.stats.recoveries += 1;
        self.detected = StoreStats::default();
        // The damage this process saw is now persisted (and repaired or
        // discarded); damage a later scan finds at the same sector is a new
        // fault.
        self.seen_damage.clear();
        let stage = Stage::start(&self.disk);
        self.write_header().map_err(StoreFailure::device)?;
        stage.stop(&self.disk, &mut report.repair_ops, &mut report.repair_ns);

        Ok(RecoveredLog { stats: self.stats, scan: report, ..log })
    }

    fn read_log(&self) -> Result<RecoveredLog<A>, StoreFailure> {
        let (scan, plan) = scan::Scan::<A>::read_raw(&self.disk, &self.cfg);
        let report =
            ScanReport { damage: plan.damage, detections: plan.detections, ..scan.report() };
        match plan.refuse {
            Some(kind) => Err(StoreFailure { report, kind }),
            None => Ok(RecoveredLog { stats: self.stats(), scan: report, ..scan.replay() }),
        }
    }

    fn tear_last_flush(&mut self, n: usize) -> bool {
        if !self.tearable || n == 0 {
            return false;
        }
        // A torn write still persists some prefix; tearing the whole flush
        // away is indistinguishable from a plain crash before the write,
        // which the caller models separately.
        let len = self.disk.last_flush_len();
        if n >= len {
            return false;
        }
        let torn = self.disk.tear_last_flush(len - n);
        if torn {
            self.tearable = false;
        }
        torn
    }

    fn reorder_last_flush(&mut self) -> bool {
        if !self.tearable {
            return false;
        }
        if self.disk.reorder_last_flush() {
            self.tearable = false;
            true
        } else {
            false
        }
    }

    fn device(&self) -> Option<&SimDisk> {
        Some(&self.disk)
    }

    fn device_mut(&mut self) -> Option<&mut SimDisk> {
        Some(&mut self.disk)
    }

    fn drain_retries(&mut self) -> Vec<RetryRecord> {
        std::mem::take(&mut self.retries)
    }

    /// The sixth oracle leg. Baseline: crash + recover from a snapshot of
    /// the current image, counting the device ops recovery consumes. Then
    /// one trial per device-op index: restore the snapshot, arm the
    /// crash-at-op trigger there, recover, and — when the trip kills the
    /// recovery mid-flight — power-cycle and recover once more. Every
    /// trial's eventual outcome (recovered fingerprint, or the exact
    /// refusal) must equal the baseline's, and a successful recovery must
    /// durably advance the epoch by exactly one (the negative test skips
    /// the bump and must be caught here). Leaves the backend recovered
    /// from the snapshot.
    fn check_recovery_convergence(
        &mut self,
        policy: TailPolicy,
    ) -> Result<ConvergenceReport, ConvergenceFailure> {
        if self.disk.is_tripped() || self.disk.is_full() {
            return Err(ConvergenceFailure {
                trial: 0,
                reason: "device unhealthy at probe start".to_string(),
            });
        }
        let image = self.disk.snapshot();
        let ops_before = self.disk.device_ops();
        <Self as LogBackend<A>>::crash(self);
        let baseline = <Self as LogBackend<A>>::recover(self, policy);
        let device_ops = self.disk.device_ops() - ops_before;
        if let Err(f) = &baseline {
            if matches!(f.kind, StoreFailureKind::Device(_)) {
                return Err(ConvergenceFailure {
                    trial: 0,
                    reason: format!("baseline recovery hit a device error: {:?}", f.kind),
                });
            }
        }
        let base_key = self.outcome_key(&baseline);

        // Progress: re-recovering a just-recovered log must advance the
        // durable epoch by exactly one — the bump is recovery's durable
        // seal.
        if baseline.is_ok() {
            let sealed = self.epoch;
            <Self as LogBackend<A>>::crash(self);
            match <Self as LogBackend<A>>::recover(self, policy) {
                Ok(_) => {
                    if self.epoch != sealed + 1 {
                        return Err(ConvergenceFailure {
                            trial: 0,
                            reason: format!(
                                "recovery did not durably advance the epoch \
                                 (sealed {} then recovered to {})",
                                sealed, self.epoch
                            ),
                        });
                    }
                }
                Err(f) => {
                    return Err(ConvergenceFailure {
                        trial: 0,
                        reason: format!("re-recovery of a recovered log failed: {:?}", f.kind),
                    });
                }
            }
        }

        let mut trials = 0u64;
        for i in 0..device_ops {
            self.disk.restore(&image);
            <Self as LogBackend<A>>::crash(self);
            self.disk.arm_crash_at_op(i);
            let mut out = <Self as LogBackend<A>>::recover(self, policy);
            if matches!(&out, Err(f) if f.kind == StoreFailureKind::Device(DiskError::Crashed)) {
                // The nested crash fired mid-recovery: power-cycle the
                // device and recover from whatever the first attempt left.
                <Self as LogBackend<A>>::crash(self);
                out = <Self as LogBackend<A>>::recover(self, policy);
            }
            trials += 1;
            if let Err(f) = &out {
                if matches!(f.kind, StoreFailureKind::Device(_)) {
                    return Err(ConvergenceFailure {
                        trial: i,
                        reason: format!("nested-crash trial could not complete: {:?}", f.kind),
                    });
                }
            }
            let key = self.outcome_key(&out);
            if key != base_key {
                return Err(ConvergenceFailure {
                    trial: i,
                    reason: format!("outcome diverged from baseline: {key} vs {base_key}"),
                });
            }
        }

        // Leave the backend exactly as a caller that just recovered from
        // the snapshot would find it.
        self.disk.restore(&image);
        <Self as LogBackend<A>>::crash(self);
        let _ = <Self as LogBackend<A>>::recover(self, policy);
        Ok(ConvergenceReport { trials, device_ops })
    }

    fn image_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // Cursor state first: two WALs with the same durable bytes but
        // different epochs or head positions append (and tear) differently.
        self.epoch.hash(&mut h);
        self.seg.hash(&mut h);
        self.head.hash(&mut h);
        self.requires_checkpoint.hash(&mut h);
        self.txn_floor.hash(&mut h);
        self.next_exec_seq.hash(&mut h);
        // A sector hashes as the slice it reads as: length, bytes, zero tail.
        let img = self.disk.snapshot();
        for (sector, stored) in img.sectors() {
            sector.hash(&mut h);
            h.write_usize(stored.bytes.len() + stored.zeros);
            h.write(&stored.bytes);
            for done in (0..stored.zeros).step_by(64) {
                h.write(&[0; 64][..(stored.zeros - done).min(64)]);
            }
        }
        for sector in img.torn_sectors() {
            sector.hash(&mut h);
        }
        h.finish()
    }

    fn stats(&self) -> StoreStats {
        let mut s = self.stats;
        s.add(&self.detected);
        s
    }

    fn name(&self) -> &'static str {
        "disk"
    }

    fn wal_inspection(&self) -> Option<String> {
        Some(crate::inspect::inspect_wal::<A>(&self.disk, &self.cfg).to_json())
    }

    fn inspection_agrees_with_recovery(&self) -> Option<Result<(), String>> {
        let ins = crate::inspect::inspect_wal::<A>(&self.disk, &self.cfg);
        let mut probe = self.clone();
        probe.crash();
        let check = match probe.recover(TailPolicy::DiscardTail) {
            Ok(out) => [
                (ins.damage != out.scan.damage)
                    .then(|| format!("damage: {} vs {}", ins.damage, out.scan.damage)),
                (ins.frames != out.scan.frames)
                    .then(|| format!("frames: {} vs {}", ins.frames, out.scan.frames)),
                (ins.sectors != out.scan.sectors)
                    .then(|| format!("sectors: {} vs {}", ins.sectors, out.scan.sectors)),
                (ins.detections != out.scan.detections).then(|| "detections differ".to_string()),
                (ins.txn_floor != out.txn_floor)
                    .then(|| format!("txn_floor: {} vs {}", ins.txn_floor, out.txn_floor)),
                (ins.next_exec_seq != out.next_exec_seq).then(|| {
                    format!("next_exec_seq: {} vs {}", ins.next_exec_seq, out.next_exec_seq)
                }),
                (ins.replay_records != out.records.len() as u64).then(|| {
                    format!("replay_records: {} vs {}", ins.replay_records, out.records.len())
                }),
            ]
            .into_iter()
            .flatten()
            .next(),
            Err(fail) => [
                (ins.damage != fail.report.damage).then(|| {
                    format!("damage on refusal: {} vs {}", ins.damage, fail.report.damage)
                }),
                (ins.detections != fail.report.detections)
                    .then(|| "detections differ on refusal".to_string()),
            ]
            .into_iter()
            .flatten()
            .next(),
        };
        Some(match check {
            Some(msg) => Err(msg),
            None => Ok(()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccr_adt::bank::{BankAccount, BankInv, BankResp};
    use ccr_core::adt::Op;
    use ccr_core::ids::ObjectId;

    type Wal = WalBackend<BankAccount>;

    fn dep(amount: u64) -> Op<BankAccount> {
        Op::new(BankInv::Deposit(amount), BankResp::Ok)
    }

    fn rec(floor: u32, seq0: u64, amounts: &[u64]) -> CommitRecord<BankAccount> {
        CommitRecord {
            floor,
            ops: amounts
                .iter()
                .enumerate()
                .map(|(i, &a)| (seq0 + i as u64, ObjectId(0), dep(a)))
                .collect(),
        }
    }

    fn wal() -> Wal {
        Wal::new(WalConfig::default())
    }

    #[test]
    fn prepare_survives_crash_as_in_doubt_until_decided() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_prepare(11, &rec(2, 1, &[3])).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5])]);
        assert_eq!(out.in_doubt, vec![(11, rec(2, 1, &[3]))]);
        assert!(out.decisions.is_empty());
        // The in-doubt record's floors bind: ids and exec seqs it holds must
        // not be reissued while the outcome is open.
        assert_eq!(out.txn_floor, 2);
        assert_eq!(out.next_exec_seq, 2);

        // Decide commit: the record enters the replay suffix at the decide
        // position and the doubt clears.
        w.append_decision(11, true).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5]), rec(2, 1, &[3])]);
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.decisions, vec![(11, true)]);
    }

    #[test]
    fn decide_abort_drops_the_prepared_record() {
        let mut w = wal();
        w.append_prepare(3, &rec(1, 0, &[7])).unwrap();
        w.append_decision(3, false).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert!(out.records.is_empty());
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.decisions, vec![(3, false)]);
    }

    #[test]
    fn torn_prepare_discards_to_presumed_abort() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        // A prepare fat enough to span sectors, so a sector tear can cut it.
        w.append_prepare(11, &rec(2, 1, &[3, 4, 6, 8])).unwrap();
        assert!(w.tear_last_flush(1));
        w.crash();
        let err = w.recover(TailPolicy::Strict).unwrap_err();
        assert_eq!(err.report.damage, "torn-tail");
        let out = w.recover(TailPolicy::DiscardTail).unwrap();
        // The torn prepare is gone entirely: no doubt, no replay — exactly
        // the abort presumed-abort promises for an unacknowledged vote.
        assert_eq!(out.records, vec![rec(1, 0, &[5])]);
        assert!(out.in_doubt.is_empty());
        assert_eq!(out.txn_floor, 1);
    }

    #[test]
    fn append_crash_recover_round_trips() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_commit(&rec(2, 1, &[3, 4])).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5]), rec(2, 1, &[3, 4])]);
        assert!(out.checkpoint.is_none());
        assert_eq!(out.txn_floor, 2);
        assert_eq!(out.next_exec_seq, 3);
        assert_eq!(out.stats.recoveries, 1);
        assert_eq!(out.scan.damage, "clean");
        assert!(out.scan.detections.is_empty());
        // A second crash+recover sees the same records and the epoch advance.
        w.crash();
        let again = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.stats.recoveries, 2);
    }

    #[test]
    fn log_rolls_across_segments() {
        let mut w = wal();
        for i in 0..40u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1])).unwrap();
        }
        assert!(w.seg > 0, "40 two-sector commits must roll a 64-sector segment");
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records.len(), 40);
        assert_eq!(out.txn_floor, 40);
        assert!(out.scan.segments > 1);
    }

    #[test]
    fn torn_tail_is_refused_by_strict_and_discarded_by_discard_tail() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_commit(&rec(2, 1, &[3])).unwrap();
        assert!(w.tear_last_flush(1), "a two-sector commit can lose one sector");
        w.crash();
        let err = w.recover(TailPolicy::Strict).unwrap_err();
        assert!(matches!(err.kind, StoreFailureKind::Torn { record: 1, expected: 2, found: 1 }));
        assert_eq!(err.report.damage, "torn-tail");
        w.crash();
        let out = w.recover(TailPolicy::DiscardTail).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5])]);
        assert_eq!(out.txn_floor, 1);
        assert!(out.stats.sector_tears >= 1);
        // The discarded image is clean now.
        w.crash();
        assert_eq!(w.recover(TailPolicy::Strict).unwrap().records.len(), 1);
    }

    #[test]
    fn reordered_flush_is_a_discardable_hole() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_commit(&rec(2, 1, &[3])).unwrap();
        assert!(w.reorder_last_flush(), "a two-sector commit flush can reorder");
        w.crash();
        let err = w.recover(TailPolicy::Strict).unwrap_err();
        assert_eq!(err.report.damage, "torn-tail");
        assert!(matches!(err.report.detections[0], Detection::MissingData { .. }));
        let out = w.recover(TailPolicy::DiscardTail).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5])]);
        // One physical fault, two scans (the Strict refusal re-detected the
        // same hole): still one count.
        assert_eq!(out.stats.reordered_flushes, 1);
    }

    #[test]
    fn headers_and_checkpoints_are_not_tearable() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        let truncated = w
            .write_checkpoint(&CheckpointImage {
                base_records: 1,
                txn_floor: 1,
                next_exec_seq: 1,
                states: vec![(ObjectId(0), 5u64)],
            })
            .unwrap();
        assert_eq!(truncated, 0, "checkpoint in segment 0 truncates nothing");
        // Last flush is the header rewrite — not a commit, so storage
        // tear/reorder faults must degrade.
        assert!(!w.tear_last_flush(1));
        assert!(!w.reorder_last_flush());
    }

    #[test]
    fn checkpoint_truncates_and_recovery_replays_from_it() {
        let mut w = wal();
        for i in 0..40u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1])).unwrap();
        }
        let seg_before = w.seg;
        assert!(seg_before > 0);
        let truncated = w
            .write_checkpoint(&CheckpointImage {
                base_records: 40,
                txn_floor: 40,
                next_exec_seq: 40,
                states: vec![(ObjectId(0), 40u64)],
            })
            .unwrap();
        assert!(truncated >= 1, "earlier segments must be reclaimed");
        w.append_commit(&rec(41, 40, &[2])).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        let cp = out.checkpoint.expect("checkpoint survives");
        assert_eq!(cp.states, vec![(ObjectId(0), 40u64)]);
        assert_eq!(cp.base_records, 40);
        assert_eq!(out.records, vec![rec(41, 40, &[2])]);
        assert_eq!(out.txn_floor, 41);
        assert_eq!(out.next_exec_seq, 41);
        assert_eq!(out.stats.checkpoints, 1);
    }

    #[test]
    fn discarding_a_needed_checkpoint_fails_loudly() {
        let mut w = wal();
        for i in 0..40u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1])).unwrap();
        }
        assert!(
            w.write_checkpoint(&CheckpointImage {
                base_records: 40,
                txn_floor: 40,
                next_exec_seq: 40,
                states: vec![(ObjectId(0), 40u64)],
            })
            .unwrap()
                >= 1
        );
        // Simulate losing the checkpoint frame itself: delete every data
        // sector of the current segment, leaving only its header (which
        // carries requires_checkpoint). DiscardTail must refuse to start
        // cold — the truncated prefix is unrecoverable without the
        // checkpoint.
        let base = w.seg * w.cfg.seg_sectors + w.cfg.header_sectors();
        let doomed: Vec<u64> = w.disk.durable_sectors().filter(|&s| s >= base).collect();
        for s in doomed {
            w.disk.delete(s);
        }
        w.crash();
        let err = w.recover(TailPolicy::DiscardTail).unwrap_err();
        assert!(matches!(err.kind, StoreFailureKind::Corrupt { .. }));
        assert_eq!(err.report.damage, "missing-checkpoint");
    }

    /// `check_frame` as it was: copy the frame, zero the CRC field in the
    /// copy, checksum the copy.
    fn check_frame_by_copy(buf: &[u8]) -> Option<(u8, &[u8])> {
        if buf.len() < FRAME_OVERHEAD || buf[0..4] != MAGIC.to_le_bytes() {
            return None;
        }
        let kind = buf[4];
        if !(KIND_SEG_HEADER..=KIND_DECIDE).contains(&kind) {
            return None;
        }
        let len = u32::from_le_bytes(buf[5..9].try_into().unwrap()) as usize;
        let total = FRAME_OVERHEAD.checked_add(len).filter(|t| *t <= buf.len())?;
        let mut scratch = buf.to_vec();
        scratch[9..13].fill(0);
        if crc32(&scratch).to_le_bytes() != buf[9..13] {
            return None;
        }
        Some((kind, &buf[FRAME_OVERHEAD..total]))
    }

    #[test]
    fn check_frame_without_the_copy_judges_every_damaged_byte_alike() {
        let payload: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(29) ^ 0x5A).collect();
        let frame = build_frame(KIND_COMMIT, &payload, 32);
        assert_eq!(frame.len(), 64, "two sectors");
        assert_eq!(check_frame(&frame), Some((KIND_COMMIT, payload.as_slice())));
        assert_eq!(check_frame(&frame), check_frame_by_copy(&frame));
        let mut accepted = 0;
        for at in 0..frame.len() {
            for value in 0..=255u8 {
                let mut damaged = frame.clone();
                damaged[at] = value;
                let verdict = check_frame(&damaged);
                assert_eq!(verdict, check_frame_by_copy(&damaged), "byte {at} := {value:#04x}");
                accepted += usize::from(verdict.is_some());
            }
        }
        // Only the 64 rewrites of a byte with its own value pass.
        assert_eq!(accepted, frame.len());
        for len in 0..frame.len() {
            assert_eq!(check_frame(&frame[..len]), check_frame_by_copy(&frame[..len]), "cut {len}");
        }
    }

    /// At the 32-byte geometry, and at the benchmark's 512-byte one, where a
    /// frame is mostly padding the CRC folds in unread: a set bit anywhere
    /// in it must still be caught.
    #[test]
    fn every_single_bit_flip_is_detected_under_strict() {
        every_bit_flip_is_detected(WalConfig::default());
        every_bit_flip_is_detected(WalConfig { sector: 512, seg_sectors: 64 });
    }

    fn every_bit_flip_is_detected(cfg: WalConfig) {
        let mut w = Wal::new(cfg);
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_commit(&rec(2, 1, &[3, 4])).unwrap();
        w.write_checkpoint(&CheckpointImage {
            base_records: 2,
            txn_floor: 2,
            next_exec_seq: 3,
            states: vec![(ObjectId(0), 12u64)],
        })
        .unwrap();
        w.append_commit(&rec(3, 3, &[7])).unwrap();
        w.crash();
        let clean = w.recover(TailPolicy::Strict).unwrap();
        let bits = w.disk().durable_bits();
        assert!(bits > 0);
        let mut healed = clean.clone();
        for bit in 0..bits {
            assert!(w.disk_mut().flip_bit(bit));
            w.crash();
            let res = w.recover(TailPolicy::Strict);
            assert!(res.is_err(), "bit {bit}: flip recovered silently");
            assert_eq!(w.disk_mut().unflip_all(), 1);
            // Re-scan after the medium repair: detection + recovery, and the
            // detection counter is persisted by the successful scan.
            healed = w.recover(TailPolicy::Strict).unwrap();
            assert_eq!(healed.records, clean.records, "bit {bit}");
        }
        assert_eq!(healed.checkpoint, clean.checkpoint);
        // Most flips are CRC mismatches; a flip in a length field can
        // masquerade as a torn or reordered write instead. Every one of them
        // must have been detected as *something*.
        let detections = healed.stats.bitflips_detected
            + healed.stats.sector_tears
            + healed.stats.reordered_flushes;
        assert!(detections >= bits, "{detections} detections for {bits} flips");
        assert!(healed.stats.bitflips_detected > 0);
    }

    #[test]
    fn misdirected_commit_is_interior_corruption() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.disk_mut().arm_misdirect(4);
        w.append_commit(&rec(2, 1, &[3])).unwrap();
        w.crash();
        // The frame landed 4 sectors late: a hole where it should start,
        // with a valid frame beyond it — unrecoverable under any policy.
        for policy in [TailPolicy::Strict, TailPolicy::DiscardTail] {
            w.crash();
            let err = w.recover(policy).unwrap_err();
            assert!(matches!(err.kind, StoreFailureKind::Corrupt { .. }), "{policy:?}");
            assert_eq!(err.report.damage, "interior");
        }
    }

    #[test]
    fn group_flush_round_trips_in_commit_order() {
        let mut w = wal();
        let batch = vec![rec(1, 0, &[5]), rec(2, 1, &[3]), rec(3, 2, &[7])];
        w.append_commits(&batch).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, batch);
        assert_eq!(out.txn_floor, 3);
        assert_eq!(out.next_exec_seq, 3);
        assert_eq!(out.scan.damage, "clean");
        assert!(out.scan.detections.is_empty());
    }

    #[test]
    fn a_group_of_one_is_byte_identical_to_a_plain_commit() {
        let image = |grouped: bool| {
            let mut w = wal();
            if grouped {
                w.append_commits(&[rec(1, 0, &[5])]).unwrap();
            } else {
                w.append_commit(&rec(1, 0, &[5])).unwrap();
            }
            let d = &w.disk;
            d.durable_sectors().map(|s| (s, d.read(s).unwrap().to_vec())).collect::<Vec<_>>()
        };
        assert_eq!(image(true), image(false));
    }

    /// The bench's geometry: a group of 8 two-op bank commits is one
    /// frame, one flush and at most two sectors (it was 8 frames of one
    /// sector each).
    #[test]
    fn a_group_flush_is_one_frame_and_one_flush() {
        let mut w = Wal::new(WalConfig { sector: 512, seg_sectors: 64 });
        let group: Vec<_> = (0..8u32).map(|i| rec(i + 1, 2 * i as u64, &[1, 2])).collect();
        let (flushes, sectors) = (w.disk.stats().flushes, w.disk.stats().sectors_flushed);
        w.append_commits(&group).unwrap();
        assert_eq!(w.disk.stats().flushes - flushes, 1);
        assert!(w.disk.stats().sectors_flushed - sectors <= 2);
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, group);
        assert_eq!(out.scan.frames, 2, "the segment header and the group");
    }

    #[test]
    fn a_torn_group_flush_is_dropped_whole() {
        let group = [rec(2, 1, &[5]), rec(3, 2, &[3]), rec(4, 3, &[7])];
        let build = || {
            let mut w = wal();
            w.append_commit(&rec(1, 0, &[9])).unwrap();
            w.append_commits(&group).unwrap();
            w
        };
        let sectors = build().disk.last_flush_len();
        assert!(sectors > 2);
        for n in 1..sectors {
            let mut w = build();
            assert!(w.tear_last_flush(n));
            w.crash();
            let err = w.recover(TailPolicy::Strict).unwrap_err();
            assert_eq!(err.report.damage, "torn-tail", "tear {n}");
            let out = w.recover(TailPolicy::DiscardTail).unwrap();
            assert_eq!(out.records, vec![rec(1, 0, &[9])], "tear {n}");
            // The two scans re-detected the same tear: one count.
            assert_eq!(out.stats.sector_tears, 1);
            w.crash();
            assert_eq!(w.recover(TailPolicy::Strict).unwrap().scan.damage, "clean");
        }
        // A reordered flush loses the frame's first sector: a hole with
        // nothing valid beyond it.
        let mut w = build();
        assert!(w.reorder_last_flush());
        w.crash();
        let err = w.recover(TailPolicy::Strict).unwrap_err();
        assert_eq!(err.report.damage, "torn-tail");
        let out = w.recover(TailPolicy::DiscardTail).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[9])]);
        assert_eq!(out.stats.reordered_flushes, 1);
    }

    #[test]
    fn crc_damage_in_a_group_behind_an_intact_frame_stays_interior() {
        let mut w = wal();
        w.append_commits(&[rec(1, 0, &[5]), rec(2, 1, &[3]), rec(3, 2, &[7])]).unwrap();
        w.append_commit(&rec(4, 3, &[1])).unwrap();
        // Flip a payload bit of the group's frame (sector 3 of the image,
        // after the three header sectors). The commit behind it was
        // fsync-acknowledged, so no policy may discard it to "repair" the
        // group.
        assert!(w.disk_mut().flip_bit((3 * 32 + 20) * 8));
        for policy in [TailPolicy::Strict, TailPolicy::DiscardTail] {
            w.crash();
            let err = w.recover(policy).unwrap_err();
            assert!(matches!(err.kind, StoreFailureKind::Corrupt { .. }), "{policy:?}");
            assert_eq!(err.report.damage, "interior", "{policy:?}");
        }
    }

    #[test]
    fn group_flush_rolls_across_segments() {
        let mut w = wal();
        // Fill most of segment 0, then flush a batch too big for what's left.
        for i in 0..25u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1])).unwrap();
        }
        let batch: Vec<_> = (0..20u32).map(|i| rec(26 + i, 25 + i as u64, &[2])).collect();
        let (before, flushes, ops) = (w.clone(), w.disk.stats().flushes, w.disk.device_ops());
        w.append_commits(&batch).unwrap();
        // Killed at any device op of the append, the group recovers as a
        // prefix of itself: none, the part before the roll, or all.
        let mut kept = BTreeSet::new();
        for k in 0..=w.disk.device_ops() - ops {
            let mut killed = before.clone();
            killed.disk.arm_crash_at_op(k);
            let _ = killed.append_commits(&batch);
            killed.crash();
            let out = killed.recover(TailPolicy::DiscardTail).unwrap();
            assert_eq!(out.records[25..], batch[..out.records.len() - 25], "killed at op {k}");
            kept.insert(out.records.len() - 25);
        }
        assert_eq!(kept.len(), 3, "{kept:?}");
        assert!(w.seg > 0, "the batch must roll into a new segment");
        // The records that fit, the new segment's header, the rest.
        assert_eq!(w.disk.stats().flushes - flushes, 3);
        let mut torn = w.clone();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records.len(), 45);
        assert_eq!(out.records[25..], batch);
        assert_eq!(out.scan.damage, "clean");
        assert_eq!(out.scan.frames, 2 + 25 + 2, "two headers, 25 commits, the group in two");
        // A tear of the part after the roll keeps the part before it: a
        // prefix of the group.
        assert!(torn.tear_last_flush(1));
        torn.crash();
        let out = torn.recover(TailPolicy::DiscardTail).unwrap();
        assert!((26..45).contains(&out.records.len()), "{}", out.records.len());
        assert_eq!(out.records[25..], batch[..out.records.len() - 25]);
    }

    #[test]
    fn same_operations_produce_identical_images_and_reports() {
        let run = || {
            let mut w = wal();
            for i in 0..10u32 {
                w.append_commit(&rec(i + 1, i as u64, &[1, 2])).unwrap();
            }
            w.tear_last_flush(1);
            w.crash();
            let out = w.recover(TailPolicy::DiscardTail).unwrap();
            let image: Vec<(u64, Vec<u8>)> = {
                let d = &w.disk;
                d.durable_sectors().map(|s| (s, d.read(s).unwrap().to_vec())).collect()
            };
            (out.records, out.scan, image)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn transient_errors_are_retried_with_deterministic_backoff() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.disk_mut().arm_transient_errors(2);
        w.append_commit(&rec(2, 1, &[3])).unwrap();
        // Both armed errors hit the first checked op; the default policy
        // (base 2, doubling) absorbed them for 2 + 4 logical ticks.
        let retries = w.drain_retries();
        assert_eq!(retries, vec![RetryRecord { attempts: 2, backoff: 6, ok: true }]);
        assert!(w.drain_retries().is_empty(), "drain empties the buffer");
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5]), rec(2, 1, &[3])]);
    }

    #[test]
    fn exhausted_retries_surface_and_roll_back_the_append() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.disk_mut().arm_transient_errors(64);
        let err = w.append_commit(&rec(2, 1, &[3])).unwrap_err();
        assert_eq!(err.kind, StoreFailureKind::Device(DiskError::Transient));
        assert_eq!(err.report.damage, "device");
        let retries = w.drain_retries();
        assert_eq!(retries, vec![RetryRecord { attempts: 4, backoff: 30, ok: false }]);
        // The reported failure promised "nothing durable": after healing,
        // recovery sees only the first record, and appends work again.
        w.disk_mut().heal();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records, vec![rec(1, 0, &[5])]);
        w.append_commit(&rec(2, 1, &[3])).unwrap();
    }

    #[test]
    fn full_device_refuses_appends_until_healed() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.disk_mut().set_full(true);
        let err = w.append_commit(&rec(2, 1, &[3])).unwrap_err();
        assert_eq!(err.kind, StoreFailureKind::Device(DiskError::Full));
        // A full device fails fast — no retry can help, so none is spent.
        assert!(w.drain_retries().is_empty());
        // Recovery also refuses: its epoch-bump seal is a write. Healing
        // the device lets both recovery and appends through again.
        w.crash();
        let err = w.recover(TailPolicy::Strict).unwrap_err();
        assert_eq!(err.kind, StoreFailureKind::Device(DiskError::Full));
        w.disk_mut().heal();
        w.crash();
        assert_eq!(w.recover(TailPolicy::Strict).unwrap().records.len(), 1);
        w.append_commit(&rec(2, 1, &[3])).unwrap();
        w.crash();
        assert_eq!(w.recover(TailPolicy::Strict).unwrap().records.len(), 2);
    }

    #[test]
    fn convergence_probe_passes_on_clean_and_damaged_images() {
        let mut w = wal();
        for i in 0..6u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1, 2])).unwrap();
        }
        let report = w.check_recovery_convergence(TailPolicy::Strict).unwrap();
        assert!(report.device_ops > 0, "recovery must consume device ops");
        assert_eq!(report.trials, report.device_ops);
        // A torn tail converges under DiscardTail: a nested crash at any
        // device op still ends at the same repaired image.
        w.append_commit(&rec(7, 12, &[9])).unwrap();
        assert!(w.tear_last_flush(1));
        w.crash();
        let report = w.check_recovery_convergence(TailPolicy::DiscardTail).unwrap();
        assert!(report.trials > 0);
        // The probe leaves the backend recovered and usable.
        w.append_commit(&rec(8, 13, &[1])).unwrap();
        w.crash();
        let out = w.recover(TailPolicy::Strict).unwrap();
        assert_eq!(out.records.last(), Some(&rec(8, 13, &[1])));
    }

    #[test]
    fn convergence_probe_spans_checkpoint_truncation() {
        let mut w = wal();
        for i in 0..30u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1])).unwrap();
        }
        let truncated = w
            .write_checkpoint(&CheckpointImage {
                base_records: 30,
                txn_floor: 30,
                next_exec_seq: 30,
                states: vec![(ObjectId(0), 30u64)],
            })
            .unwrap();
        assert!(truncated >= 1, "30 commits must span a segment boundary");
        w.append_commit(&rec(31, 30, &[2])).unwrap();
        let report = w.check_recovery_convergence(TailPolicy::Strict).unwrap();
        assert!(report.trials > 0);
    }

    #[test]
    fn skipping_the_epoch_bump_is_caught_by_the_probe() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.set_skip_epoch_bump(true);
        let err = w.check_recovery_convergence(TailPolicy::Strict).unwrap_err();
        assert!(err.reason.contains("epoch"), "unexpected reason: {}", err.reason);
    }

    #[test]
    fn probe_refuses_an_unhealthy_device() {
        let mut w = wal();
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.disk_mut().set_full(true);
        let err = w.check_recovery_convergence(TailPolicy::Strict).unwrap_err();
        assert!(err.reason.contains("unhealthy"), "unexpected reason: {}", err.reason);
    }
}
