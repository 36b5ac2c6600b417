//! What a device image says the log is: the recovery decision, as data.
//!
//! One reading of the format in [`crate::wal`], in four steps. [`walk`]
//! reads the image up to its first damage [`Site`]; [`Scan::probe`] lists
//! the valid frames beyond it; [`Scan::plan`] is the pure judgement — the
//! damage class, the detections and the repairs a [`TailPolicy`] takes, up
//! to its first refusal; [`Scan::replay`] folds the replayable prefix into
//! the log a recovery hands back. The scan writes nothing and owns no
//! device access: its callers pass the sector reader. Recovery
//! (`WalBackend::recover`) passes the checked, retried read, so a
//! crash-at-op can kill a scan at any frame position, and *applies* the
//! plan; [`Scan::read_raw`] passes raw reads, ticks no device op, and
//! hands the plan to the inspector ([`crate::inspect`]), which *renders*
//! it, and to `WalBackend::read_log`, which *replays* it, repairing
//! nothing.
//!
//! # Recovery state machine
//!
//! The walk visits candidate segments (every distinct durable
//! `sector / seg_sectors`) in order, validates the header, then walks
//! sector-aligned frame positions. At each position:
//!
//! * absent sector → candidate log end. All later sectors of the segment
//!   must also be absent: a clean roll or clean tail leaves no data after
//!   the end. Data after a hole is the signature of a reordered flush
//!   ([`Detection::MissingData`]).
//! * frame extends into absent sectors → torn write
//!   ([`Detection::TornFrame`]).
//! * structurally complete frame with bad magic/len/CRC → bit rot
//!   ([`Detection::CrcMismatch`]).
//!
//! On damage the probe visits every later frame position; a valid frame
//! *after* the damage point makes the damage interior corruption
//! ([`Detection::InteriorFrame`]), which no policy may discard: that frame
//! was acknowledged. Otherwise the damage is a torn tail:
//! [`TailPolicy::Strict`] refuses and [`TailPolicy::DiscardTail`] deletes
//! the damaged suffix and recovers the valid prefix.
//!
//! A torn group flush is an ordinary torn tail. The whole group is one
//! commit frame under one CRC (`wal.rs`), so a tear or a reordered flush
//! leaves a frame that reads as torn or fails its check, and nothing of the
//! group valid beyond it: the discard drops the group whole, and none of
//! it was acknowledged. Recovery never rewrites a data sector; it only
//! deletes them.
//!
//! The newest valid checkpoint becomes the replay base; commit frames after
//! it are returned in commit order.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;

use ccr_core::adt::Adt;

use crate::backend::{
    CheckpointImage, CommitRecord, Detection, RecoveredLog, ScanReport, StoreFailureKind,
    StoreStats, TailPolicy,
};
use crate::codec::Persist;
use crate::disk::{SectorRead, SimDisk};
use crate::wal::{
    decode_checkpoint, decode_commit, decode_decide, decode_prepare, frame_crc_matches, frame_head,
    frame_payload, SegHeader, WalConfig, FRAME_OVERHEAD, KIND_CHECKPOINT, KIND_COMMIT, KIND_DECIDE,
    KIND_PREPARE, KIND_SEG_HEADER,
};

/// What one frame position holds.
enum FrameRead<'d> {
    /// No durable data at this position.
    Absent,
    /// A frame starts here but extends into absent sectors.
    Torn { expected: usize, found: usize },
    /// Durable data that is not a valid frame (bad magic, insane length, or
    /// CRC mismatch). `kind` is what the head claims, when it is a frame
    /// head at all.
    Corrupt { kind: Option<u8> },
    /// An intact frame: its stored bytes, at least through the payload, in
    /// place on the device unless it crosses a track boundary.
    Valid { kind: u8, frame: Cow<'d, [u8]>, sectors: u64 },
}

/// Classify the frame at `pos`, given the caller's read of its head sector
/// — the one device access of a frame position that is the caller's to
/// check, retry or count. A sector destroyed by a tear
/// ([`SectorRead::Torn`]) holds no durable data, exactly like one never
/// written — both read as `Absent` and the hole rules classify the damage.
/// The frame's interior sectors ride the head's physical request: they are
/// raw reads, never checked ops.
fn frame_at<'d>(
    disk: &'d SimDisk,
    cfg: &WalConfig,
    pos: u64,
    seg_end: u64,
    first: SectorRead<'d>,
) -> FrameRead<'d> {
    let SectorRead::Data(first) = first else { return FrameRead::Absent };
    let first = first.widened(FRAME_OVERHEAD);
    let Some((kind, len)) = frame_head(&first.bytes) else {
        return FrameRead::Corrupt { kind: None };
    };
    let corrupt = FrameRead::Corrupt { kind: Some(kind) };
    let Some(total) = FRAME_OVERHEAD.checked_add(len) else { return corrupt };
    let sectors = total.div_ceil(cfg.sector) as u64;
    if pos + sectors > seg_end {
        // The claimed length runs past the segment — a flipped length field.
        return corrupt;
    }
    match disk.read_run(pos, sectors).map(|run| run.widened(total)) {
        Err(found) => FrameRead::Torn { expected: sectors as usize, found },
        Ok(run) if frame_crc_matches(&run.bytes, run.zeros) => {
            FrameRead::Valid { kind, frame: run.bytes, sectors }
        }
        Ok(_) => corrupt,
    }
}

/// The segments that hold at least one durable sector, ascending. Jumps
/// from each hit to the start of the next segment, so the cost follows the
/// segments, not the sectors.
fn durable_segments(disk: &SimDisk, seg_sectors: u64) -> Vec<u64> {
    let mut segs = Vec::new();
    let mut from = Some(0u64);
    while let Some(s) = from.and_then(|from| disk.durable_in(from..).next()) {
        segs.push(s / seg_sectors);
        from = (s / seg_sectors + 1).checked_mul(seg_sectors);
    }
    segs
}

/// Something found at a frame position: its absolute start sector and its
/// sector footprint.
pub(crate) struct Placed<T> {
    pub at: u64,
    pub sectors: u64,
    pub item: T,
}

/// A decoded data frame of the replayable prefix.
pub(crate) enum Frame<A: Adt> {
    /// One commit, or a group flush's commits in commit order: where they
    /// lie in [`Scan::records`].
    Commit(Range<usize>),
    Checkpoint(CheckpointImage<A>),
    Prepare(u64, CommitRecord<A>),
    Decide(u64, bool),
}

impl<A> Frame<A>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    /// Decode a data frame; a commit frame's records go to `records`.
    fn decode(kind: u8, payload: &[u8], records: &mut Vec<CommitRecord<A>>) -> Option<Frame<A>> {
        match kind {
            KIND_COMMIT => {
                let start = records.len();
                decode_commit(payload, records).map(|()| Frame::Commit(start..records.len()))
            }
            KIND_CHECKPOINT => decode_checkpoint(payload).map(Frame::Checkpoint),
            KIND_PREPARE => decode_prepare(payload).map(|(gtid, rec)| Frame::Prepare(gtid, rec)),
            KIND_DECIDE => decode_decide(payload).map(|(gtid, commit)| Frame::Decide(gtid, commit)),
            // A header frame in the data area: structurally valid bytes in
            // the wrong place (misdirected write). Treat as corruption.
            _ => None,
        }
    }
}

/// What is wrong at a damage site.
pub(crate) enum Evidence {
    /// No data here, but durable data later in the segment: the flush
    /// persisted out of order.
    Hole,
    /// A frame that extends into absent sectors.
    Torn { expected: usize, found: usize },
    /// Durable bytes that are no frame: bad magic, length or CRC.
    Corrupt { kind: Option<u8> },
    /// An intact frame whose payload does not decode, or whose kind does
    /// not belong at its position.
    Undecodable { kind: u8, sectors: u64 },
}

/// The first damage the walk met — where it stopped.
pub(crate) struct Site {
    pub at: u64,
    /// Whether `at` is a segment-header position. A damaged header is
    /// unrecoverable under any policy: headers are fsynced in place, so a
    /// legitimate crash cannot tear them — only corruption explains one.
    pub header: bool,
    pub evidence: Evidence,
}

impl Site {
    pub(crate) fn detection(&self) -> Detection {
        match self.evidence {
            Evidence::Hole if !self.header => Detection::MissingData { sector: self.at },
            Evidence::Torn { .. } if !self.header => Detection::TornFrame { sector: self.at },
            _ => Detection::CrcMismatch { sector: self.at },
        }
    }

    /// How a strict scan refuses this site, the `record`-th of the log.
    fn strict(&self, record: usize) -> StoreFailureKind {
        match self.evidence {
            _ if self.header => StoreFailureKind::Corrupt { sector: self.at },
            Evidence::Hole => StoreFailureKind::Torn { record, expected: 1, found: 0 },
            Evidence::Torn { expected, found } => {
                StoreFailureKind::Torn { record, expected, found }
            }
            _ => StoreFailureKind::Corrupt { sector: self.at },
        }
    }
}

/// One reading of a device image.
pub(crate) struct Scan<A: Adt> {
    /// Candidate segments: every one that holds a durable sector, ascending.
    pub segs: Vec<u64>,
    /// Durable sectors in the image.
    pub sectors: u64,
    /// The valid headers of the segments walked, in order; the last governs.
    pub headers: Vec<Placed<SegHeader>>,
    /// The replayable prefix: every data frame before the log end or the
    /// damage site.
    pub frames: Vec<Placed<Frame<A>>>,
    /// The commit frames' records, in log order.
    pub records: Vec<CommitRecord<A>>,
    /// The log end, as (segment, sector within it): the clean tail, or the
    /// damage site.
    pub end: (u64, u64),
    pub site: Option<Site>,
    /// The kinds of the valid frames beyond the site, in probe order
    /// ([`Scan::probe`]).
    pub beyond: Vec<Placed<u8>>,
    seg_sectors: u64,
}

/// Read the image up to its first damage site. `read` is the caller's
/// sector reader, called once per frame position visited, in walk order.
pub(crate) fn walk<'d, A, E>(
    disk: &'d SimDisk,
    cfg: &WalConfig,
    mut read: impl FnMut(u64) -> Result<SectorRead<'d>, E>,
) -> Result<Scan<A>, E>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    let seg_sectors = cfg.seg_sectors;
    let segs = durable_segments(disk, seg_sectors);
    let mut scan = Scan {
        sectors: disk.durable_len(),
        headers: Vec::new(),
        frames: Vec::new(),
        records: Vec::new(),
        // Nothing durable at all is a cold start on a fresh medium.
        end: (segs.first().copied().unwrap_or(0), cfg.header_sectors()),
        site: None,
        beyond: Vec::new(),
        segs,
        seg_sectors,
    };
    for &seg_idx in &scan.segs {
        let base = seg_idx * seg_sectors;
        let seg_end = base + seg_sectors;
        let damaged = match frame_at(disk, cfg, base, seg_end, read(base)?) {
            FrameRead::Valid { kind: KIND_SEG_HEADER, frame, sectors } => {
                match SegHeader::decode(frame_payload(&frame)) {
                    Some(item) => {
                        scan.headers.push(Placed { at: base, sectors, item });
                        None
                    }
                    None => Some(Evidence::Undecodable { kind: KIND_SEG_HEADER, sectors }),
                }
            }
            FrameRead::Torn { expected, found } => Some(Evidence::Torn { expected, found }),
            _ => Some(Evidence::Corrupt { kind: None }),
        };
        if let Some(evidence) = damaged {
            scan.site = Some(Site { at: base, header: true, evidence });
            return Ok(scan);
        }

        let mut pos = base + cfg.header_sectors();
        while pos < seg_end {
            let evidence = match frame_at(disk, cfg, pos, seg_end, read(pos)?) {
                // Candidate end of log. A clean tail / clean roll leaves
                // nothing after it in this segment; data after a hole
                // means the flush persisted out of order.
                FrameRead::Absent if disk.durable_in(pos + 1..seg_end).next().is_some() => {
                    Evidence::Hole
                }
                FrameRead::Absent => {
                    // The log ends here, or rolled cleanly: frames continue
                    // in the next segment.
                    scan.end = (seg_idx, pos - base);
                    break;
                }
                FrameRead::Valid { kind, frame, sectors } => {
                    match Frame::decode(kind, frame_payload(&frame), &mut scan.records) {
                        Some(item) => {
                            scan.frames.push(Placed { at: pos, sectors, item });
                            pos += sectors;
                            scan.end = (seg_idx, pos - base);
                            continue;
                        }
                        None => Evidence::Undecodable { kind, sectors },
                    }
                }
                FrameRead::Torn { expected, found } => Evidence::Torn { expected, found },
                FrameRead::Corrupt { kind } => Evidence::Corrupt { kind },
            };
            scan.site = Some(Site { at: pos, header: false, evidence });
            scan.end = (seg_idx, pos - base);
            return Ok(scan);
        }
    }
    Ok(scan)
}

/// The repair one recovery takes and its first refusal: discard, then
/// `refuse` if set — so a tail discarded before a missing checkpoint is
/// noticed stays discarded.
pub(crate) struct Plan {
    /// The damage class of the image.
    pub damage: &'static str,
    /// Damage sites, in the order a scan meets them.
    pub detections: Vec<Detection>,
    /// Delete every durable sector from here on: the damaged suffix.
    pub discard_from: Option<u64>,
    /// Where this recovery ends, if not in a recovered log.
    pub refuse: Option<StoreFailureKind>,
}

impl Plan {
    fn refused(mut self, damage: &'static str, kind: StoreFailureKind) -> Plan {
        self.damage = damage;
        self.refuse = Some(kind);
        self
    }
}

impl<A> Scan<A>
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    /// Read the image over raw sectors — never a checked device op, so no
    /// device op is ticked, no armed fault consumed and no error possible —
    /// and judge it as a [`TailPolicy::DiscardTail`] recovery would.
    pub(crate) fn read_raw(disk: &SimDisk, cfg: &WalConfig) -> (Scan<A>, Plan) {
        let mut read = |sector| Ok::<_, Infallible>(disk.read_classified(sector));
        let Ok(mut scan) = walk::<A, _>(disk, cfg, &mut read);
        let Ok(()) = scan.probe(disk, cfg, &mut read);
        let plan = scan.plan(TailPolicy::DiscardTail);
        (scan, plan)
    }

    /// List the valid frames beyond the damage site: every sector-aligned
    /// position that could start a frame — the rest of the site's segment,
    /// then the whole area of every later candidate segment — through the
    /// caller's reader, one call per position. A damaged header is not
    /// probed: nothing beyond it can change its refusal.
    pub(crate) fn probe<'d, E>(
        &mut self,
        disk: &'d SimDisk,
        cfg: &WalConfig,
        mut read: impl FnMut(u64) -> Result<SectorRead<'d>, E>,
    ) -> Result<(), E> {
        let Some(at) = self.site.as_ref().filter(|s| !s.header).map(|s| s.at) else {
            return Ok(());
        };
        let seg_idx = at / self.seg_sectors;
        let span = |s: u64| (s * self.seg_sectors, (s + 1) * self.seg_sectors);
        let here = (at + 1, span(seg_idx).1);
        let later = self.segs.iter().filter(|&&s| s > seg_idx).map(|&s| span(s));
        for (from, seg_end) in std::iter::once(here).chain(later) {
            for p in from..seg_end {
                if let FrameRead::Valid { kind, sectors, .. } =
                    frame_at(disk, cfg, p, seg_end, read(p)?)
                {
                    self.beyond.push(Placed { at: p, sectors, item: kind });
                }
            }
        }
        Ok(())
    }

    /// What the image is, and what a recovery under `policy` does to it.
    /// Pure: reads only the walk and the probe.
    pub(crate) fn plan(&self, policy: TailPolicy) -> Plan {
        let mut plan =
            Plan { damage: "clean", detections: Vec::new(), discard_from: None, refuse: None };
        if let Some(site) = &self.site {
            plan.detections.push(site.detection());
            let strict = site.strict(self.frames.len());
            if site.header {
                return plan.refused("corrupt-header", strict);
            }
            if let Some(first) = self.beyond.first() {
                // Valid data beyond the damage that no interrupted flush
                // explains: interior corruption. Tail discard would lose
                // committed, fsynced records — refuse under every policy.
                plan.detections.push(Detection::InteriorFrame { sector: first.at });
                return plan.refused("interior", StoreFailureKind::Corrupt { sector: site.at });
            }
            plan.damage = "torn-tail";
            if policy == TailPolicy::Strict {
                plan.refuse = Some(strict);
                return plan;
            }
            plan.discard_from = Some(site.at);
        }

        let checkpointed = self.frames.iter().any(|f| matches!(f.item, Frame::Checkpoint(_)));
        if self.governing().requires_checkpoint && !checkpointed {
            // Truncation deleted segments that only a checkpoint can stand
            // in for; without one the log prefix is gone. Starting cold here
            // would silently drop committed state.
            let sector = self.end.0 * self.seg_sectors;
            return plan.refused("missing-checkpoint", StoreFailureKind::Corrupt { sector });
        }
        plan
    }

    /// The header of the last segment walked — the newest — or the header
    /// of a log never written, on an empty medium.
    pub(crate) fn governing(&self) -> SegHeader {
        self.headers.last().map(|h| h.item).unwrap_or_default()
    }

    /// What a scan of this image reports before any judgement of it.
    pub(crate) fn report(&self) -> ScanReport {
        ScanReport {
            segments: self.segs.len() as u64,
            frames: (self.headers.len() + self.frames.len()) as u64,
            sectors: self.sectors,
            ..ScanReport::default()
        }
    }

    /// Fold the replayable prefix into the log a recovery returns (`stats`
    /// and `scan` are the caller's to fill in). Replay base: the newest
    /// valid checkpoint wins; commit frames after it are the live log
    /// suffix. 2PC frames fold by presumed abort: a prepare is pending until
    /// its decide frame arrives; decide-commit moves the prepared record
    /// into the replay suffix *at the decide position* (replay order is
    /// decision order); decide-abort drops it. A prepare with no durable
    /// decide survives the fold as in-doubt — the caller resolves it against
    /// the coordinator or presumes abort.
    pub(crate) fn replay(self) -> RecoveredLog<A> {
        let governing = self.governing();
        let mut checkpoint: Option<CheckpointImage<A>> = None;
        let mut records: Vec<CommitRecord<A>> = Vec::with_capacity(self.records.len());
        let mut pending: BTreeMap<u64, CommitRecord<A>> = BTreeMap::new();
        let mut decisions: Vec<(u64, bool)> = Vec::new();
        let mut committed = self.records.into_iter();
        for f in self.frames {
            match f.item {
                Frame::Checkpoint(img) => {
                    // Checkpoints refuse to run while prepares are pending,
                    // so `pending` is empty here on any log we wrote; keep
                    // whatever is there anyway rather than silently losing
                    // an in-doubt transaction on a hand-damaged log.
                    checkpoint = Some(img);
                    records.clear();
                }
                Frame::Commit(range) => records.extend(committed.by_ref().take(range.len())),
                Frame::Prepare(gtid, rec) => {
                    pending.insert(gtid, rec);
                }
                Frame::Decide(gtid, commit) => {
                    decisions.push((gtid, commit));
                    if let Some(rec) = pending.remove(&gtid) {
                        if commit {
                            records.push(rec);
                        }
                    }
                }
            }
        }
        let in_doubt: Vec<(u64, CommitRecord<A>)> = pending.into_iter().collect();

        // Floors take the max over the replay suffix *and* the in-doubt set:
        // a decide-commit lands its record at the decide position carrying
        // its older prepare-time floor, so "last record" is no longer
        // necessarily the newest (floors are monotone in append order, not
        // decision order). On a log with no 2PC frames the max equals the
        // last record's floor.
        let txn_floor = records
            .iter()
            .map(|r| r.floor)
            .chain(in_doubt.iter().map(|(_, r)| r.floor))
            .max()
            .or_else(|| checkpoint.as_ref().map(|c| c.txn_floor))
            .unwrap_or(governing.txn_floor);
        let next_exec_seq = records
            .iter()
            .chain(in_doubt.iter().map(|(_, r)| r))
            .flat_map(|r| r.ops.iter())
            .map(|(s, _, _)| s + 1)
            .max()
            .or_else(|| checkpoint.as_ref().map(|c| c.next_exec_seq))
            .unwrap_or(governing.next_exec_seq);
        RecoveredLog {
            checkpoint,
            records,
            in_doubt,
            decisions,
            txn_floor,
            next_exec_seq,
            stats: StoreStats::default(),
            scan: ScanReport::default(),
        }
    }
}
