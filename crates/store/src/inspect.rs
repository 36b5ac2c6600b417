//! Offline WAL forensics: a read-only walk of a [`SimDisk`] image that
//! lists every segment and frame, re-derives the recovery scanner's damage
//! classification, and renders it all as deterministic JSON — without
//! mutating the image or ticking a single checked device op.
//!
//! [`inspect_wal`] mirrors the classification rules of
//! [`LogBackend::recover`](crate::LogBackend::recover) (see `wal.rs`) over
//! raw sector reads. The invariant the workload tests pin: for any device
//! image the simulator produces, `inspect_wal(...).damage` equals the
//! `ScanReport::damage` a `TailPolicy::DiscardTail` recovery of the same
//! image reports. (The inspector follows the repairing policy's flow — a
//! `Strict` scan refuses at the first damage classification and so never
//! reaches the missing-checkpoint judgement; `DiscardTail` agrees with it
//! everywhere else.) Where recovery stops decoding at the first damage
//! site, the inspector keeps walking and lists the frames *beyond* it too —
//! that forensic tail is exactly what the scanner's probe uses to tell a
//! torn group flush from interior corruption.

use std::collections::{BTreeMap, BTreeSet};

use ccr_core::adt::Adt;

use crate::backend::Detection;
use crate::codec::Persist;
use crate::disk::SimDisk;
use crate::wal::{
    decode_batch, decode_checkpoint, decode_commit, decode_decide, decode_prepare,
    durable_segments, frame_at, frame_payload, FrameRead, SegHeader, WalConfig, FRAME_OVERHEAD,
    HEADER_PAYLOAD, KIND_BATCH, KIND_CHECKPOINT, KIND_COMMIT, KIND_DECIDE, KIND_PREPARE,
    KIND_SEG_HEADER,
};

/// One frame (or damaged frame position) in the listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Absolute start sector.
    pub sector: u64,
    /// Sector footprint (0 when the frame is too damaged to size).
    pub sectors: u64,
    /// `"seg-header"`, `"commit"`, `"batch"`, `"checkpoint"`, `"prepare"`,
    /// `"decide"`, or `"unknown"` when the kind byte itself is unreadable.
    pub kind: &'static str,
    /// `"valid"`, `"torn"`, or `"corrupt"` — status per the scanner's rules.
    pub status: &'static str,
    /// Whether the frame lies beyond the first damage site (recovery never
    /// replays it; the probe uses it for classification only).
    pub beyond_damage: bool,
    /// Decoded summary (floors, op counts, batch id/pos/len, ...). ASCII
    /// `key=value` pairs only, safe to embed in JSON unescaped.
    pub detail: String,
}

/// One segment of the log: its decoded header (if intact) and its frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index (absolute sector / `seg_sectors`).
    pub index: u64,
    /// The decoded segment header, `None` when damaged.
    pub header: Option<SegHeader>,
    /// Frames in walk order, including any beyond the damage site.
    pub frames: Vec<FrameInfo>,
}

/// One group-commit batch seen in the replayable prefix: how many members
/// survived of the `len` the flush promised.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchRun {
    /// Epoch-salted flush id.
    pub id: u64,
    /// Members present in the walk.
    pub seen: u32,
    /// Members the batch headers promise.
    pub len: u32,
}

/// Everything the inspector derives from one device image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalInspection {
    /// Device sector size in bytes.
    pub sector_size: u64,
    /// Sectors per segment.
    pub seg_sectors: u64,
    /// Per-segment map with frame listings.
    pub segments: Vec<SegmentInfo>,
    /// Frames recovery would decode (headers + replayable data frames; the
    /// forensic tail beyond a damage site is excluded, matching
    /// `ScanReport::frames`).
    pub frames: u64,
    /// Durable sectors in the image (matches `ScanReport::sectors`).
    pub sectors: u64,
    /// Damage sites, in scan order (matches `ScanReport::detections`).
    pub detections: Vec<Detection>,
    /// The damage classification a recovery scan of this image reports.
    pub damage: &'static str,
    /// Whether a valid checkpoint frame survives in the replayable prefix.
    pub checkpoint: bool,
    /// Commit records recovery would replay (after the newest checkpoint).
    pub replay_records: u64,
    /// Transaction-id floor a successful recovery would resume from.
    pub txn_floor: u32,
    /// Execution-sequence floor a successful recovery would resume from.
    pub next_exec_seq: u64,
    /// Group-commit batch runs in the replayable prefix, in first-seen
    /// order.
    pub batches: Vec<BatchRun>,
    /// Gtids of prepared 2PC transactions with no durable decision in the
    /// replayable prefix — in doubt, sorted (matches the gtids of
    /// `RecoveredLog::in_doubt`).
    pub in_doubt: Vec<u64>,
    /// Durable 2PC decisions in append order, `true` = commit (matches
    /// `RecoveredLog::decisions`).
    pub decisions: Vec<(u64, bool)>,
}

fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_SEG_HEADER => "seg-header",
        KIND_COMMIT => "commit",
        KIND_CHECKPOINT => "checkpoint",
        KIND_BATCH => "batch",
        KIND_PREPARE => "prepare",
        KIND_DECIDE => "decide",
        _ => "unknown",
    }
}

/// Read the frame starting at `pos` exactly the way the recovery scanner
/// does, but over `read_classified` — never a checked device op.
fn read_frame_raw<'d>(disk: &'d SimDisk, cfg: &WalConfig, pos: u64, seg_end: u64) -> FrameRead<'d> {
    frame_at(disk, cfg, pos, seg_end, disk.read_classified(pos))
}

/// A decoded data frame of the replayable prefix (pre-damage walk only).
enum Decoded {
    Commit { floor: u32, max_seq: Option<u64>, batch: Option<(u64, u32, u32)> },
    Checkpoint { txn_floor: u32, next_exec_seq: u64 },
    Prepare { gtid: u64, floor: u32, max_seq: Option<u64> },
    Decide { gtid: u64, commit: bool },
}

/// Walk a WAL device image and derive the full forensic report. Read-only:
/// takes `&SimDisk`, never mutates, never ticks `device_ops`.
pub fn inspect_wal<A>(disk: &SimDisk, cfg: &WalConfig) -> WalInspection
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    let seg_sectors = cfg.seg_sectors;
    let header_sectors = (FRAME_OVERHEAD + HEADER_PAYLOAD).div_ceil(cfg.sector) as u64;
    let segs = durable_segments(disk, seg_sectors);

    let mut out = WalInspection {
        sector_size: cfg.sector as u64,
        seg_sectors,
        segments: Vec::new(),
        frames: 0,
        sectors: disk.durable_len(),
        detections: Vec::new(),
        damage: "clean",
        checkpoint: false,
        replay_records: 0,
        txn_floor: 0,
        next_exec_seq: 0,
        batches: Vec::new(),
        in_doubt: Vec::new(),
        decisions: Vec::new(),
    };
    if segs.is_empty() {
        return out;
    }

    let mut governing = SegHeader::default();
    let mut decoded: Vec<Decoded> = Vec::new();
    // First damage site: (absolute sector, whether a tear/hole rather than
    // CRC damage) — the tear-vs-corruption split steers the torn-batch rule.
    let mut damage: Option<(u64, bool)> = None;
    // Classification state of the forensic tail beyond the damage site:
    // batch ids seen, and whether any valid non-batch frame appears.
    let mut tail_batch_ids: BTreeSet<u64> = BTreeSet::new();
    let mut tail_non_batch = false;

    for &seg_idx in &segs {
        let base = seg_idx * seg_sectors;
        let seg_end = base + seg_sectors;
        let mut seg = SegmentInfo { index: seg_idx, header: None, frames: Vec::new() };

        // The header position. Beyond a damage site the walk degenerates to
        // the probe (sector-by-sector), which visits this position too.
        if damage.is_none() {
            match read_frame_raw(disk, cfg, base, seg_end) {
                FrameRead::Valid { kind: KIND_SEG_HEADER, frame, sectors } => {
                    match SegHeader::decode(frame_payload(&frame)) {
                        Some(h) => {
                            out.frames += 1;
                            seg.frames.push(FrameInfo {
                                sector: base,
                                sectors,
                                kind: "seg-header",
                                status: "valid",
                                beyond_damage: false,
                                detail: format!(
                                    "epoch={} seg={} requires_checkpoint={} floor={} seq={}",
                                    h.epoch,
                                    h.seg_index,
                                    h.requires_checkpoint,
                                    h.txn_floor,
                                    h.next_exec_seq
                                ),
                            });
                            seg.header = Some(h);
                            governing = h;
                        }
                        None => {
                            out.detections.push(Detection::CrcMismatch { sector: base });
                            out.damage = "corrupt-header";
                            seg.frames.push(FrameInfo {
                                sector: base,
                                sectors,
                                kind: "seg-header",
                                status: "corrupt",
                                beyond_damage: false,
                                detail: "undecodable header payload".to_string(),
                            });
                            out.segments.push(seg);
                            return finish(out, governing, decoded);
                        }
                    }
                }
                // Headers are fsynced in place; anything else here is
                // unrecoverable corruption, exactly as in the scanner.
                other => {
                    out.detections.push(Detection::CrcMismatch { sector: base });
                    out.damage = "corrupt-header";
                    let status = match other {
                        FrameRead::Torn { .. } => "torn",
                        _ => "corrupt",
                    };
                    seg.frames.push(FrameInfo {
                        sector: base,
                        sectors: 0,
                        kind: "seg-header",
                        status,
                        beyond_damage: false,
                        detail: "header position holds no valid header frame".to_string(),
                    });
                    out.segments.push(seg);
                    return finish(out, governing, decoded);
                }
            }
        }

        let mut pos = base + if damage.is_none() { header_sectors } else { 0 };
        while pos < seg_end {
            if damage.is_some() {
                // Probe mode: every sector position may start a frame; only
                // valid frames matter for classification, but list them all.
                if let FrameRead::Valid { kind, frame, sectors } =
                    read_frame_raw(disk, cfg, pos, seg_end)
                {
                    let batch = (kind == KIND_BATCH)
                        .then(|| decode_batch::<A>(frame_payload(&frame)))
                        .flatten();
                    let detail = match &batch {
                        Some((meta, rec)) => {
                            tail_batch_ids.insert(meta.id);
                            format!(
                                "batch_id={} pos={} len={} floor={} ops={}",
                                meta.id,
                                meta.pos,
                                meta.len,
                                rec.floor,
                                rec.ops.len()
                            )
                        }
                        None => {
                            tail_non_batch = true;
                            format!("kind={}", kind_name(kind))
                        }
                    };
                    seg.frames.push(FrameInfo {
                        sector: pos,
                        sectors,
                        kind: kind_name(kind),
                        status: "valid",
                        beyond_damage: true,
                        detail,
                    });
                }
                pos += 1;
                continue;
            }
            match read_frame_raw(disk, cfg, pos, seg_end) {
                FrameRead::Absent => {
                    // Candidate end of log: data after a hole in the same
                    // segment means the flush persisted out of order.
                    if disk.durable_in(pos + 1..seg_end).next().is_some() {
                        out.detections.push(Detection::MissingData { sector: pos });
                        damage = Some((pos, true));
                        seg.frames.push(FrameInfo {
                            sector: pos,
                            sectors: 0,
                            kind: "unknown",
                            status: "torn",
                            beyond_damage: false,
                            detail: "hole with surviving data after it".to_string(),
                        });
                        pos += 1;
                        continue;
                    }
                    // Clean tail (or clean roll into the next segment).
                    break;
                }
                FrameRead::Torn { expected, found } => {
                    out.detections.push(Detection::TornFrame { sector: pos });
                    damage = Some((pos, true));
                    seg.frames.push(FrameInfo {
                        sector: pos,
                        sectors: 0,
                        kind: "unknown",
                        status: "torn",
                        beyond_damage: false,
                        detail: format!("expected={expected} found={found}"),
                    });
                    pos += 1;
                }
                FrameRead::Corrupt { kind } => {
                    out.detections.push(Detection::CrcMismatch { sector: pos });
                    damage = Some((pos, false));
                    seg.frames.push(FrameInfo {
                        sector: pos,
                        sectors: 0,
                        kind: kind.map_or("unknown", kind_name),
                        status: "corrupt",
                        beyond_damage: false,
                        detail: "bad magic, length, or CRC".to_string(),
                    });
                    pos += 1;
                }
                FrameRead::Valid { kind, frame, sectors } => {
                    let payload = frame_payload(&frame);
                    let (dec, detail) = match kind {
                        KIND_COMMIT => match decode_commit::<A>(payload) {
                            Some(rec) => {
                                let max_seq = rec.ops.iter().map(|(s, _, _)| s + 1).max();
                                let detail = format!("floor={} ops={}", rec.floor, rec.ops.len());
                                (
                                    Some(Decoded::Commit {
                                        floor: rec.floor,
                                        max_seq,
                                        batch: None,
                                    }),
                                    detail,
                                )
                            }
                            None => (None, String::new()),
                        },
                        KIND_BATCH => match decode_batch::<A>(payload) {
                            Some((meta, rec)) => {
                                let max_seq = rec.ops.iter().map(|(s, _, _)| s + 1).max();
                                let detail = format!(
                                    "batch_id={} pos={} len={} floor={} ops={}",
                                    meta.id,
                                    meta.pos,
                                    meta.len,
                                    rec.floor,
                                    rec.ops.len()
                                );
                                (
                                    Some(Decoded::Commit {
                                        floor: rec.floor,
                                        max_seq,
                                        batch: Some((meta.id, meta.pos, meta.len)),
                                    }),
                                    detail,
                                )
                            }
                            None => (None, String::new()),
                        },
                        KIND_CHECKPOINT => match decode_checkpoint::<A>(payload) {
                            Some(img) => {
                                let detail = format!(
                                    "base_records={} floor={} seq={} states={}",
                                    img.base_records,
                                    img.txn_floor,
                                    img.next_exec_seq,
                                    img.states.len()
                                );
                                (
                                    Some(Decoded::Checkpoint {
                                        txn_floor: img.txn_floor,
                                        next_exec_seq: img.next_exec_seq,
                                    }),
                                    detail,
                                )
                            }
                            None => (None, String::new()),
                        },
                        KIND_PREPARE => match decode_prepare::<A>(payload) {
                            Some((gtid, rec)) => {
                                let max_seq = rec.ops.iter().map(|(s, _, _)| s + 1).max();
                                let detail = format!(
                                    "gtid={} floor={} ops={}",
                                    gtid,
                                    rec.floor,
                                    rec.ops.len()
                                );
                                (Some(Decoded::Prepare { gtid, floor: rec.floor, max_seq }), detail)
                            }
                            None => (None, String::new()),
                        },
                        KIND_DECIDE => match decode_decide(payload) {
                            Some((gtid, commit)) => {
                                let detail = format!("gtid={gtid} commit={commit}");
                                (Some(Decoded::Decide { gtid, commit }), detail)
                            }
                            None => (None, String::new()),
                        },
                        // A header frame in the data area: a misdirected
                        // write. The scanner classifies it as corruption.
                        _ => (None, String::new()),
                    };
                    match dec {
                        Some(d) => {
                            decoded.push(d);
                            out.frames += 1;
                            seg.frames.push(FrameInfo {
                                sector: pos,
                                sectors,
                                kind: kind_name(kind),
                                status: "valid",
                                beyond_damage: false,
                                detail,
                            });
                            pos += sectors;
                        }
                        None => {
                            out.detections.push(Detection::CrcMismatch { sector: pos });
                            damage = Some((pos, false));
                            seg.frames.push(FrameInfo {
                                sector: pos,
                                sectors,
                                kind: kind_name(kind),
                                status: "corrupt",
                                beyond_damage: false,
                                detail: "undecodable payload".to_string(),
                            });
                            pos += 1;
                        }
                    }
                }
            }
        }
        out.segments.push(seg);
    }

    // Classify what lies beyond a damage site, mirroring the scanner's
    // probe: nothing → torn tail; all-one-batch after a tear/hole → torn
    // group flush; anything else → interior corruption.
    if let Some((_, tearlike)) = damage {
        let first_valid = out
            .segments
            .iter()
            .flat_map(|s| s.frames.iter())
            .find(|f| f.beyond_damage && f.status == "valid")
            .map(|f| f.sector);
        out.damage = match first_valid {
            None => "torn-tail",
            Some(p) => {
                if tearlike && !tail_non_batch && tail_batch_ids.len() == 1 {
                    "torn-batch"
                } else {
                    out.detections.push(Detection::InteriorFrame { sector: p });
                    "interior"
                }
            }
        };
        return finish(out, governing, decoded);
    }

    // No physical damage: judge the trailing batch run for a frame-aligned
    // tear (a group flush whose final members never landed).
    let mut run: Option<(u64, u32, u32, bool)> = None; // (id, len, next, aligned)
    for d in &decoded {
        match d {
            Decoded::Commit { batch: Some((id, bpos, blen)), .. } => match &mut run {
                Some((rid, rlen, next, _)) if *id == *rid && *blen == *rlen && *bpos == *next => {
                    *next += 1;
                }
                _ => run = Some((*id, *blen, *bpos + 1, *bpos == 0)),
            },
            _ => run = None,
        }
    }
    if let Some((_, len, next, aligned)) = run {
        if !aligned {
            out.damage = "interior";
            return finish(out, governing, decoded);
        }
        if next < len {
            // The detection recovery counts sits at the log end — one past
            // the last decoded frame.
            let log_end = out
                .segments
                .iter()
                .flat_map(|s| s.frames.iter())
                .filter(|f| f.status == "valid" && !f.beyond_damage)
                .map(|f| f.sector + f.sectors)
                .max()
                .unwrap_or(0);
            out.detections.push(Detection::TornFrame { sector: log_end });
            out.damage = "torn-batch";
            return finish(out, governing, decoded);
        }
    }

    finish(out, governing, decoded)
}

/// Fold the decoded prefix into the replay summary (checkpoint base, record
/// suffix, floors, batch runs) and close the report — shared by every exit
/// path so damaged images still report what *would* replay.
fn finish(mut out: WalInspection, governing: SegHeader, decoded: Vec<Decoded>) -> WalInspection {
    let mut checkpoint: Option<(u32, u64)> = None;
    let mut records: Vec<(u32, Option<u64>)> = Vec::new();
    let mut batches: Vec<BatchRun> = Vec::new();
    // 2PC fold, mirroring the scanner: a prepare is pending until its decide
    // frame; decide-commit enters the replay suffix at the decide position;
    // leftovers are in doubt.
    let mut pending: BTreeMap<u64, (u32, Option<u64>)> = BTreeMap::new();
    let mut decisions: Vec<(u64, bool)> = Vec::new();
    for d in &decoded {
        match d {
            Decoded::Checkpoint { txn_floor, next_exec_seq } => {
                checkpoint = Some((*txn_floor, *next_exec_seq));
                records.clear();
            }
            Decoded::Commit { floor, max_seq, batch } => {
                records.push((*floor, *max_seq));
                if let Some((id, _, len)) = batch {
                    match batches.iter_mut().find(|b| b.id == *id) {
                        Some(b) => b.seen += 1,
                        None => batches.push(BatchRun { id: *id, seen: 1, len: *len }),
                    }
                }
            }
            Decoded::Prepare { gtid, floor, max_seq } => {
                pending.insert(*gtid, (*floor, *max_seq));
            }
            Decoded::Decide { gtid, commit } => {
                decisions.push((*gtid, *commit));
                if let Some(entry) = pending.remove(gtid) {
                    if *commit {
                        records.push(entry);
                    }
                }
            }
        }
    }
    // The missing-checkpoint judgement happens after damage repair in the
    // DiscardTail flow, so it overrides the repairable damage strings; the
    // refusal classifications (interior, corrupt-header) return before it.
    if governing.requires_checkpoint
        && checkpoint.is_none()
        && matches!(out.damage, "clean" | "torn-tail" | "torn-batch")
    {
        out.damage = "missing-checkpoint";
    }
    out.checkpoint = checkpoint.is_some();
    out.replay_records = records.len() as u64;
    // Floors mirror the scanner: max over the replay suffix *and* the
    // in-doubt set (a decide-commit carries its older prepare-time floor).
    out.txn_floor = records
        .iter()
        .map(|(f, _)| *f)
        .chain(pending.values().map(|(f, _)| *f))
        .max()
        .or(checkpoint.map(|(f, _)| f))
        .unwrap_or(governing.txn_floor);
    out.next_exec_seq = records
        .iter()
        .chain(pending.values())
        .filter_map(|(_, s)| *s)
        .max()
        .or(checkpoint.map(|(_, s)| s))
        .unwrap_or(governing.next_exec_seq);
    out.batches = batches;
    out.in_doubt = pending.into_keys().collect();
    out.decisions = decisions;
    out
}

impl WalInspection {
    /// Render the whole report as deterministic JSON: fixed key order, no
    /// floats, every string either a static token or inspector-built ASCII.
    pub fn to_json(&self) -> String {
        let mut segs = Vec::new();
        for s in &self.segments {
            let frames: Vec<String> = s
                .frames
                .iter()
                .map(|f| {
                    format!(
                        "{{\"sector\":{},\"sectors\":{},\"kind\":\"{}\",\"status\":\"{}\",\
                         \"beyond_damage\":{},\"detail\":\"{}\"}}",
                        f.sector, f.sectors, f.kind, f.status, f.beyond_damage, f.detail
                    )
                })
                .collect();
            let header = match &s.header {
                Some(h) => format!(
                    "{{\"epoch\":{},\"seg_index\":{},\"requires_checkpoint\":{},\
                     \"txn_floor\":{},\"next_exec_seq\":{}}}",
                    h.epoch, h.seg_index, h.requires_checkpoint, h.txn_floor, h.next_exec_seq
                ),
                None => "null".to_string(),
            };
            segs.push(format!(
                "{{\"index\":{},\"header\":{},\"frames\":[{}]}}",
                s.index,
                header,
                frames.join(",")
            ));
        }
        let detections: Vec<String> = self
            .detections
            .iter()
            .map(|d| {
                let kind = match d {
                    Detection::TornFrame { .. } => "torn-frame",
                    Detection::MissingData { .. } => "missing-data",
                    Detection::CrcMismatch { .. } => "crc-mismatch",
                    Detection::InteriorFrame { .. } => "interior-frame",
                };
                format!("{{\"kind\":\"{}\",\"sector\":{}}}", kind, d.sector())
            })
            .collect();
        let batches: Vec<String> = self
            .batches
            .iter()
            .map(|b| format!("{{\"id\":{},\"seen\":{},\"len\":{}}}", b.id, b.seen, b.len))
            .collect();
        let in_doubt: Vec<String> = self.in_doubt.iter().map(|g| g.to_string()).collect();
        let decisions: Vec<String> = self
            .decisions
            .iter()
            .map(|(g, c)| format!("{{\"gtid\":{g},\"commit\":{c}}}"))
            .collect();
        format!(
            "{{\"sector_size\":{},\"seg_sectors\":{},\"sectors\":{},\"frames\":{},\
             \"damage\":\"{}\",\"checkpoint\":{},\"replay_records\":{},\"txn_floor\":{},\
             \"next_exec_seq\":{},\"in_doubt\":[{}],\"decisions\":[{}],\"detections\":[{}],\
             \"batches\":[{}],\"segments\":[{}]}}",
            self.sector_size,
            self.seg_sectors,
            self.sectors,
            self.frames,
            self.damage,
            self.checkpoint,
            self.replay_records,
            self.txn_floor,
            self.next_exec_seq,
            in_doubt.join(","),
            decisions.join(","),
            detections.join(","),
            batches.join(","),
            segs.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CheckpointImage, CommitRecord, LogBackend, TailPolicy};
    use crate::wal::{WalBackend, WalConfig};
    use ccr_adt::bank::{BankAccount, BankInv, BankResp};
    use ccr_core::adt::Op;
    use ccr_core::ids::ObjectId;

    type Wal = WalBackend<BankAccount>;

    fn rec(floor: u32, seq0: u64, amounts: &[u64]) -> CommitRecord<BankAccount> {
        CommitRecord {
            floor,
            ops: amounts
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    (seq0 + i as u64, ObjectId(0), Op::new(BankInv::Deposit(a), BankResp::Ok))
                })
                .collect(),
        }
    }

    fn inspect(w: &Wal) -> WalInspection {
        inspect_wal::<BankAccount>(w.disk(), &w.config())
    }

    /// Inspection of `w`'s image must agree with a real recovery scan of a
    /// clone — damage string, detections, frame counts, floors — and must
    /// not tick checked device ops on the original.
    fn assert_agrees(w: &Wal, policy: TailPolicy) {
        let ops_before = w.disk().device_ops();
        let ins = inspect(w);
        assert_eq!(w.disk().device_ops(), ops_before, "inspect must not tick checked ops");
        let mut probe = w.clone();
        probe.crash();
        match probe.recover(policy) {
            Ok(out) => {
                assert_eq!(ins.damage, out.scan.damage, "damage must agree");
                assert_eq!(ins.frames, out.scan.frames, "frame counts must agree");
                assert_eq!(ins.sectors, out.scan.sectors, "sector counts must agree");
                assert_eq!(ins.detections, out.scan.detections, "detections must agree");
                assert_eq!(ins.txn_floor, out.txn_floor, "floors must agree");
                assert_eq!(ins.next_exec_seq, out.next_exec_seq);
                assert_eq!(ins.replay_records, out.records.len() as u64);
                let gtids: Vec<u64> = out.in_doubt.iter().map(|(g, _)| *g).collect();
                assert_eq!(ins.in_doubt, gtids, "in-doubt sets must agree");
                assert_eq!(ins.decisions, out.decisions, "decision logs must agree");
            }
            Err(fail) => {
                assert_eq!(ins.damage, fail.report.damage, "damage must agree on refusal");
                assert_eq!(ins.detections, fail.report.detections);
            }
        }
    }

    #[test]
    fn clean_log_inspects_clean_and_agrees_with_recovery() {
        let mut w = Wal::new(WalConfig::default());
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_commit(&rec(2, 1, &[3, 4])).unwrap();
        let ins = inspect(&w);
        assert_eq!(ins.damage, "clean");
        assert_eq!(ins.replay_records, 2);
        assert_eq!(ins.txn_floor, 2);
        assert_eq!(ins.next_exec_seq, 3);
        assert!(!ins.checkpoint);
        assert_eq!(ins.segments.len(), 1);
        let kinds: Vec<&str> = ins.segments[0].frames.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["seg-header", "commit", "commit"]);
        assert_agrees(&w, TailPolicy::Strict);
    }

    #[test]
    fn rolled_and_checkpointed_images_agree_with_recovery() {
        let mut w = Wal::new(WalConfig::default());
        for i in 0..40u32 {
            w.append_commit(&rec(i + 1, i as u64, &[1])).unwrap();
        }
        w.write_checkpoint(&CheckpointImage {
            base_records: 40,
            txn_floor: 40,
            next_exec_seq: 40,
            states: vec![(ObjectId(0), 40u64)],
        })
        .unwrap();
        w.append_commit(&rec(41, 40, &[2, 3])).unwrap();
        let ins = inspect(&w);
        assert_eq!(ins.damage, "clean");
        assert!(ins.checkpoint);
        assert_eq!(ins.replay_records, 1);
        assert_agrees(&w, TailPolicy::Strict);

        assert!(w.tear_last_flush(1));
        let ins = inspect(&w);
        assert_eq!(ins.damage, "torn-tail");
        assert_agrees(&w, TailPolicy::DiscardTail);
    }

    fn batched_wal() -> Wal {
        let mut w = Wal::new(WalConfig::default());
        w.append_commit(&rec(1, 0, &[9])).unwrap();
        w.append_commits(&[rec(2, 1, &[1]), rec(3, 2, &[2]), rec(4, 3, &[3])]).unwrap();
        w
    }

    #[test]
    fn torn_group_flush_classifies_as_torn_batch() {
        let mut w = batched_wal();
        let ins = inspect(&w);
        assert_eq!(ins.damage, "clean");
        assert_eq!(ins.batches.len(), 1);
        assert_eq!((ins.batches[0].seen, ins.batches[0].len), (3, 3));

        // A frame-aligned tear: the final batch member vanishes wholly, so
        // the walk sees a well-formed log whose trailing run stops short.
        let last = ins.segments.last().unwrap().frames.last().unwrap().sectors as usize;
        assert!(w.tear_last_flush(last));
        let ins = inspect(&w);
        assert_eq!(ins.damage, "torn-batch");
        assert_agrees(&w, TailPolicy::DiscardTail);

        // A sub-frame tear of the last member: nothing valid survives
        // beyond the torn frame, so the probe classifies a torn tail.
        let mut w = batched_wal();
        assert!(w.tear_last_flush(1));
        let ins = inspect(&w);
        assert_eq!(ins.damage, "torn-tail");
        assert_agrees(&w, TailPolicy::DiscardTail);

        // A reordered batch flush: a hole at one member with later members
        // of the same batch surviving — the probe's torn-batch case.
        let mut w = batched_wal();
        assert!(w.reorder_last_flush());
        let ins = inspect(&w);
        assert_eq!(ins.damage, "torn-batch");
        assert_agrees(&w, TailPolicy::DiscardTail);
    }

    #[test]
    fn prepare_and_decide_frames_list_and_agree_with_recovery() {
        let mut w = Wal::new(WalConfig::default());
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_prepare(7, &rec(2, 1, &[3])).unwrap();
        let ins = inspect(&w);
        assert_eq!(ins.damage, "clean");
        assert_eq!(ins.in_doubt, vec![7]);
        assert_eq!(ins.replay_records, 1, "an undecided prepare must not replay");
        let kinds: Vec<&str> = ins.segments[0].frames.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, vec!["seg-header", "commit", "prepare"]);
        assert_agrees(&w, TailPolicy::Strict);

        // The commit decision folds the prepared record into the replay
        // suffix at the decide position and clears the doubt.
        w.append_decision(7, true).unwrap();
        let ins = inspect(&w);
        assert!(ins.in_doubt.is_empty());
        assert_eq!(ins.decisions, vec![(7, true)]);
        assert_eq!(ins.replay_records, 2);
        assert_eq!(ins.txn_floor, 2);
        assert_eq!(ins.next_exec_seq, 2);
        assert_agrees(&w, TailPolicy::Strict);

        // An abort decision drops the prepared record entirely.
        let mut w = Wal::new(WalConfig::default());
        w.append_prepare(9, &rec(1, 0, &[4])).unwrap();
        w.append_decision(9, false).unwrap();
        let ins = inspect(&w);
        assert!(ins.in_doubt.is_empty());
        assert_eq!(ins.decisions, vec![(9, false)]);
        assert_eq!(ins.replay_records, 0);
        assert_agrees(&w, TailPolicy::Strict);
    }

    #[test]
    fn bit_flip_classifies_like_the_scanner_and_json_is_deterministic() {
        let mut w = Wal::new(WalConfig::default());
        w.append_commit(&rec(1, 0, &[5])).unwrap();
        w.append_commit(&rec(2, 1, &[3])).unwrap();
        assert!(w.flip_bit(700));
        assert_agrees(&w, TailPolicy::Strict);
        let a = inspect(&w).to_json();
        let b = inspect(&w).to_json();
        assert_eq!(a, b, "inspection must be byte-deterministic");
        assert!(a.starts_with("{\"sector_size\":32,"));
    }
}
