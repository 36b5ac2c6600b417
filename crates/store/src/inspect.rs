//! Offline WAL forensics: the crate's reading of a [`SimDisk`] image,
//! rendered. [`inspect_wal`] hands the scan that
//! [`LogBackend::recover`](crate::LogBackend::recover) runs a raw sector
//! reader, so the walk, the probe beyond a damage site and the verdict are
//! recovery's own — over reads that tick no checked device op, on an image
//! it never mutates — and lists every segment and frame the scan met as
//! deterministic JSON.
//!
//! The verdict is the one a
//! [`TailPolicy::DiscardTail`](crate::TailPolicy::DiscardTail) recovery of
//! the same image reports: the inspector renders the repairing policy's
//! plan (a `Strict` scan refuses at the first damage classification and so
//! never reaches the judgements behind it). Where recovery replays only the
//! prefix before the first damage site, the listing also shows the valid
//! frames *beyond* it — the forensic tail that tells a torn tail from
//! interior corruption.

use ccr_core::adt::Adt;

use crate::backend::Detection;
use crate::codec::Persist;
use crate::disk::SimDisk;
use crate::scan::{Evidence, Frame, Scan};
use crate::wal::{
    SegHeader, WalConfig, KIND_CHECKPOINT, KIND_COMMIT, KIND_DECIDE, KIND_PREPARE, KIND_SEG_HEADER,
};

/// One frame (or damaged frame position) in the listing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameInfo {
    /// Absolute start sector.
    pub sector: u64,
    /// Sector footprint (0 when the frame is too damaged to size).
    pub sectors: u64,
    /// `"seg-header"`, `"commit"`, `"checkpoint"`, `"prepare"`, `"decide"`,
    /// or `"unknown"` when the kind byte itself is unreadable.
    pub kind: &'static str,
    /// `"valid"`, `"torn"`, or `"corrupt"` — status per the scanner's rules.
    pub status: &'static str,
    /// Whether the frame lies beyond the first damage site (recovery never
    /// replays it; the probe uses it for classification only).
    pub beyond_damage: bool,
    /// Decoded summary (floors, op counts, ...; a commit frame's records
    /// separated by `, `). ASCII `key=value` pairs only, safe to embed in
    /// JSON unescaped.
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
        KIND_PREPARE => "prepare",
        KIND_DECIDE => "decide",
        _ => "unknown",
    }
}

/// Inspect a WAL device image and derive the full forensic report.
/// Read-only: takes `&SimDisk`, never mutates, never ticks `device_ops`.
pub fn inspect_wal<A>(disk: &SimDisk, cfg: &WalConfig) -> WalInspection
where
    A: Adt,
    A::Invocation: Persist,
    A::Response: Persist,
    A::State: Persist,
{
    let (scan, plan) = Scan::<A>::read_raw(disk, cfg);

    let info = |at, sectors, kind, status, beyond_damage, detail: String| FrameInfo {
        sector: at,
        sectors,
        kind,
        status,
        beyond_damage,
        detail,
    };
    let mut segments = Vec::new();
    for &index in &scan.segs {
        let span = index * cfg.seg_sectors..(index + 1) * cfg.seg_sectors;
        let header = scan.headers.iter().find(|h| h.at == span.start);
        let mut frames = Vec::new();
        if let Some(h) = header {
            let detail = format!(
                "epoch={} seg={} requires_checkpoint={} floor={} seq={}",
                h.item.epoch,
                h.item.seg_index,
                h.item.requires_checkpoint,
                h.item.txn_floor,
                h.item.next_exec_seq
            );
            frames.push(info(h.at, h.sectors, "seg-header", "valid", false, detail));
        }
        for f in scan.frames.iter().filter(|f| span.contains(&f.at)) {
            let (kind, detail) = match &f.item {
                Frame::Commit(range) => {
                    let each: Vec<String> = scan.records[range.clone()]
                        .iter()
                        .map(|rec| format!("floor={} ops={}", rec.floor, rec.ops.len()))
                        .collect();
                    (KIND_COMMIT, each.join(", "))
                }
                Frame::Checkpoint(img) => (
                    KIND_CHECKPOINT,
                    format!(
                        "base_records={} floor={} seq={} states={}",
                        img.base_records,
                        img.txn_floor,
                        img.next_exec_seq,
                        img.states.len()
                    ),
                ),
                Frame::Prepare(gtid, rec) => (
                    KIND_PREPARE,
                    format!("gtid={} floor={} ops={}", gtid, rec.floor, rec.ops.len()),
                ),
                Frame::Decide(gtid, commit) => {
                    (KIND_DECIDE, format!("gtid={gtid} commit={commit}"))
                }
            };
            frames.push(info(f.at, f.sectors, kind_name(kind), "valid", false, detail));
        }
        let site = scan.site.as_ref().filter(|s| span.contains(&s.at));
        if let Some(site) = site {
            let (sectors, kind, status, detail) = match site.evidence {
                Evidence::Undecodable { sectors, .. } if site.header => {
                    (sectors, "seg-header", "corrupt", "undecodable header payload".to_string())
                }
                _ if site.header => {
                    let status = if matches!(site.evidence, Evidence::Torn { .. }) {
                        "torn"
                    } else {
                        "corrupt"
                    };
                    let detail = "header position holds no valid header frame".to_string();
                    (0, "seg-header", status, detail)
                }
                Evidence::Hole => {
                    (0, "unknown", "torn", "hole with surviving data after it".to_string())
                }
                Evidence::Torn { expected, found } => {
                    (0, "unknown", "torn", format!("expected={expected} found={found}"))
                }
                Evidence::Corrupt { kind } => {
                    let detail = "bad magic, length, or CRC".to_string();
                    (0, kind.map_or("unknown", kind_name), "corrupt", detail)
                }
                Evidence::Undecodable { kind, sectors } => {
                    (sectors, kind_name(kind), "corrupt", "undecodable payload".to_string())
                }
            };
            frames.push(info(site.at, sectors, kind, status, false, detail));
        }
        for f in scan.beyond.iter().filter(|f| span.contains(&f.at)) {
            let kind = kind_name(f.item);
            frames.push(info(f.at, f.sectors, kind, "valid", true, format!("kind={kind}")));
        }
        segments.push(SegmentInfo { index, header: header.map(|h| h.item), frames });
        if site.is_some_and(|s| s.header) {
            // Nothing is read past a damaged header.
            break;
        }
    }

    let report = scan.report();
    // Damaged images still report what *would* replay.
    let log = scan.replay();
    WalInspection {
        sector_size: cfg.sector as u64,
        seg_sectors: cfg.seg_sectors,
        segments,
        frames: report.frames,
        sectors: report.sectors,
        detections: plan.detections,
        damage: plan.damage,
        checkpoint: log.checkpoint.is_some(),
        replay_records: log.records.len() as u64,
        txn_floor: log.txn_floor,
        next_exec_seq: log.next_exec_seq,
        in_doubt: log.in_doubt.iter().map(|(gtid, _)| *gtid).collect(),
        decisions: log.decisions,
    }
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
             \"segments\":[{}]}}",
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
    fn a_torn_group_flush_is_a_torn_tail() {
        let w = batched_wal();
        let ins = inspect(&w);
        assert_eq!(ins.damage, "clean");
        assert_eq!(ins.replay_records, 4);
        let group = ins.segments[0].frames.last().unwrap();
        assert_eq!(group.kind, "commit");
        assert_eq!(group.detail, "floor=2 ops=1, floor=3 ops=1, floor=4 ops=1");

        // Any tear of the group's frame, and a reorder of its flush, leave
        // nothing valid beyond the damage: a torn tail, discarded whole.
        for n in 1..group.sectors as usize {
            let mut w = batched_wal();
            assert!(w.tear_last_flush(n));
            let ins = inspect(&w);
            assert_eq!((ins.damage, ins.replay_records), ("torn-tail", 1), "tear {n}");
            assert_agrees(&w, TailPolicy::DiscardTail);
        }
        let mut w = batched_wal();
        assert!(w.reorder_last_flush());
        let ins = inspect(&w);
        assert_eq!((ins.damage, ins.replay_records), ("torn-tail", 1));
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
        assert!(w.disk_mut().flip_bit(700));
        assert_agrees(&w, TailPolicy::Strict);
        let a = inspect(&w).to_json();
        let b = inspect(&w).to_json();
        assert_eq!(a, b, "inspection must be byte-deterministic");
        assert!(a.starts_with("{\"sector_size\":32,"));
    }
}
