//! Property tests for the durable storage engine (`ccr-store`) as driven by
//! the runtime's `DurableSystem`:
//!
//! * **Checkpoint equivalence** — checkpointing (which folds the log prefix
//!   into a checkpoint image and truncates whole segments) must be invisible
//!   to recovery: for any workload, crash schedule and tail policy, a run
//!   that checkpoints recovers to exactly the state of the run that never
//!   does, under both the UIP and DU engine/conflict pairings.
//! * **Corruption exhaustion** — flipping *every single stable bit* of a
//!   small committed log image either leaves recovery unaffected (the bit
//!   was slack) or fails loudly with a CRC/torn-tail error. Silent
//!   divergence of the recovered state is the one outcome that must never
//!   happen.
//! * **Forensic agreement** — on hand-damaged images the simulator cannot
//!   draw, the offline inspector's verdict is the repairing recovery's.

use ccr::adt::bank::{bank_nfc, bank_nrbc, BankAccount, BankInv};
use ccr::core::conflict::FnConflict;
use ccr::core::ids::{ObjectId, TxnId};
use ccr::runtime::crash::{DurableSystem, RedoError, TornPolicy};
use ccr::runtime::engine::{DuEngine, RecoveryEngine, UipEngine};
use ccr::store::{LogBackend, WalBackend, WalConfig};
use proptest::prelude::*;

type Durable<E> = DurableSystem<BankAccount, E, FnConflict<BankAccount>, WalBackend<BankAccount>>;

const OBJECTS: u32 = 2;

#[derive(Clone, Debug)]
enum Ev {
    Begin(u8),
    Op(u8, u32, BankInv),
    Commit(u8),
    Abort(u8),
    Checkpoint,
    Crash,
}

fn events() -> impl Strategy<Value = Vec<Ev>> {
    let inv = prop_oneof![
        (1u64..=3).prop_map(BankInv::Deposit),
        (1u64..=3).prop_map(BankInv::Withdraw),
        Just(BankInv::Balance),
    ];
    let ev = prop_oneof![
        4 => (0u8..3).prop_map(Ev::Begin),
        8 => ((0u8..3), (0u32..OBJECTS), inv).prop_map(|(t, o, i)| Ev::Op(t, o, i)),
        4 => (0u8..3).prop_map(Ev::Commit),
        2 => (0u8..3).prop_map(Ev::Abort),
        2 => Just(Ev::Checkpoint),
        1 => Just(Ev::Crash),
    ];
    prop::collection::vec(ev, 1..48)
}

/// Drive `evs` through a fresh disk-backed system. `Checkpoint` events fire
/// only when `checkpoints` is set — the event stream is otherwise identical,
/// and since `checkpoint()` never touches transactional state the two runs
/// make the same commit decisions. Every crash (in-stream and the final one)
/// recovers under `policy`. Returns the recovered per-object state plus the
/// number of checkpoints actually written.
fn run<E: RecoveryEngine<BankAccount>>(
    conflict: FnConflict<BankAccount>,
    evs: &[Ev],
    checkpoints: bool,
    policy: TornPolicy,
) -> (Vec<u64>, u64) {
    let mut sys: Durable<E> = DurableSystem::with_backend(
        BankAccount::default(),
        OBJECTS,
        conflict,
        WalBackend::new(WalConfig::default()),
    );
    let mut slots: [Option<TxnId>; 3] = [None; 3];
    for ev in evs {
        match ev {
            Ev::Begin(s) => {
                if slots[*s as usize].is_none() {
                    slots[*s as usize] = Some(sys.begin());
                }
            }
            Ev::Op(s, o, inv) => {
                if let Some(t) = slots[*s as usize] {
                    // Refusals and conflict blocks are legal outcomes; the
                    // equivalence holds because both runs see the same ones.
                    let _ = sys.invoke(t, ObjectId(*o), inv.clone());
                }
            }
            Ev::Commit(s) => {
                if let Some(t) = slots[*s as usize].take() {
                    let _ = sys.commit(t);
                }
            }
            Ev::Abort(s) => {
                if let Some(t) = slots[*s as usize].take() {
                    let _ = sys.abort(t);
                }
            }
            Ev::Checkpoint => {
                if checkpoints {
                    sys.checkpoint();
                }
            }
            Ev::Crash => {
                sys.crash_and_recover_with(policy).expect("clean crash must recover");
                slots = [None; 3];
            }
        }
    }
    sys.crash_and_recover_with(policy).expect("final clean crash must recover");
    let states = (0..OBJECTS).map(|o| sys.committed_state(ObjectId(o))).collect();
    (states, sys.store_stats().checkpoints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (checkpoint + truncate + crash + recover) ≡ (no checkpoint + crash +
    /// recover), for both engine/conflict pairings and every tail policy.
    #[test]
    fn checkpointing_never_changes_the_recovered_state(evs in events()) {
        let wants_checkpoint = evs.iter().any(|e| matches!(e, Ev::Checkpoint));
        for policy in [TornPolicy::Strict, TornPolicy::DiscardTail] {
            let (uip_ck, ck_count) =
                run::<UipEngine<BankAccount>>(bank_nrbc(), &evs, true, policy);
            let (uip_no, no_count) =
                run::<UipEngine<BankAccount>>(bank_nrbc(), &evs, false, policy);
            prop_assert_eq!(&uip_ck, &uip_no, "UIP diverged under {:?}", policy);
            prop_assert_eq!(no_count, 0);
            // A checkpoint event after at least one commit really truncates.
            if wants_checkpoint {
                prop_assert!(ck_count >= u64::from(!uip_ck.iter().all(|&s| s == 0)));
            }

            let (du_ck, _) = run::<DuEngine<BankAccount>>(bank_nfc(), &evs, true, policy);
            let (du_no, _) = run::<DuEngine<BankAccount>>(bank_nfc(), &evs, false, policy);
            prop_assert_eq!(&du_ck, &du_no, "DU diverged under {:?}", policy);
        }
    }
}

/// Build a small deterministic committed image: three transactions over two
/// objects, mixing deposits and (sometimes refused) withdrawals.
fn committed_image() -> Durable<UipEngine<BankAccount>> {
    let mut sys: Durable<UipEngine<BankAccount>> = DurableSystem::with_backend(
        BankAccount::default(),
        OBJECTS,
        bank_nrbc(),
        WalBackend::new(WalConfig::default()),
    );
    for i in 0..3u32 {
        let t = sys.begin();
        sys.invoke(t, ObjectId(i % 2), BankInv::Deposit(5 + u64::from(i))).unwrap();
        sys.invoke(t, ObjectId((i + 1) % 2), BankInv::Withdraw(1)).unwrap();
        sys.commit(t).unwrap();
    }
    sys
}

/// Crash during a group flush: build one four-record batch made durable by
/// a single fsync, then exhaustively tear every sector position off the end
/// of that flush, and reorder it. The group is one commit frame, so strict
/// recovery refuses every such image loudly and `DiscardTail` recovers
/// *none* of the group, while the untorn frame recovers all of it: the
/// prefix of the batch that survives is all or nothing, under both the
/// update-in-place and deferred-update replayers. The discard only deletes:
/// every durable sector it leaves is unchanged, or a segment header (the
/// sealing fsync).
#[test]
fn torn_group_flush_recovers_a_prefix_under_both_replayers() {
    type Wal = WalBackend<BankAccount>;

    fn image<E: RecoveryEngine<BankAccount>>(
        conflict: FnConflict<BankAccount>,
    ) -> DurableSystem<BankAccount, E, FnConflict<BankAccount>, Wal> {
        let mut sys = DurableSystem::with_backend(
            BankAccount::default(),
            4,
            conflict,
            WalBackend::new(WalConfig::default()),
        );
        // Disjoint objects: txn i deposits 1<<i on object i, so the whole
        // batch and none of it recover to recognisable states.
        let txns: Vec<TxnId> = (0..4u32)
            .map(|i| {
                let t = sys.begin();
                sys.invoke(t, ObjectId(i), BankInv::Deposit(1 << i)).unwrap();
                t
            })
            .collect();
        for r in sys.commit_group(&txns) {
            r.unwrap();
        }
        sys
    }

    fn sectors(w: &Wal) -> Vec<(u64, Vec<u8>)> {
        let d = w.disk();
        d.durable_sectors().map(|s| (s, d.read(s).unwrap().to_vec())).collect()
    }

    /// Every sector a `DiscardTail` recovery leaves durable is one it found
    /// with the same bytes, or lies in a segment header.
    fn only_deletes(before: &[(u64, Vec<u8>)], after: &Wal, at: &str) {
        let ins = ccr::store::inspect_wal::<BankAccount>(after.disk(), &after.config());
        let header = |s: u64| {
            ins.segments
                .iter()
                .flat_map(|seg| &seg.frames)
                .any(|f| f.kind == "seg-header" && (f.sector..f.sector + f.sectors).contains(&s))
        };
        for (s, bytes) in sectors(after) {
            let kept = before.iter().any(|(b, old)| *b == s && *old == bytes);
            assert!(kept || header(s), "{at}: recovery wrote data sector {s}");
        }
    }

    fn sweep<E: RecoveryEngine<BankAccount>>(conflict: FnConflict<BankAccount>, name: &str) {
        let state = |sys: &mut DurableSystem<_, E, _, Wal>| -> Vec<u64> {
            (0..4).map(|o| sys.committed_state(ObjectId(o))).collect()
        };
        let mut whole = image::<E>(conflict.clone());
        whole.crash_and_recover_with(TornPolicy::Strict).unwrap();
        assert_eq!(state(&mut whole), [1, 2, 4, 8], "{name}: the whole frame recovers all");

        let mut damaged = 0;
        for n in 0usize.. {
            let mut sys = image::<E>(conflict.clone());
            let landed = match n {
                0 => sys.backend_mut().reorder_last_flush(),
                n => sys.backend_mut().tear_last_flush(n),
            };
            if !landed {
                // n reached the whole flush; the sweep is exhausted.
                break;
            }
            match sys.crash_and_recover_with(TornPolicy::Strict) {
                Err(RedoError::TornRecord { .. }) => {}
                other => panic!("{name}: damage {n}: strict recovery must refuse, got {other:?}"),
            }
            let before = sectors(sys.backend());
            sys.recover_with(TornPolicy::DiscardTail)
                .unwrap_or_else(|e| panic!("{name}: damage {n}: discard-tail must recover: {e:?}"));
            assert_eq!(sys.journal().len(), 0, "{name}: damage {n}: kept part of the group");
            assert_eq!(state(&mut sys), [0; 4], "{name}: damage {n}");
            only_deletes(&before, sys.backend(), &format!("{name}: damage {n}"));
            damaged += 1;
        }
        assert!(damaged >= 3, "{name}: the sweep must tear at several sectors (saw {damaged})");
    }

    sweep::<UipEngine<BankAccount>>(bank_nrbc(), "uip");
    sweep::<DuEngine<BankAccount>>(bank_nfc(), "du");
}

/// Satellite of the sharded 2PC work (DESIGN.md §15): a torn **or missing**
/// DECIDE record must resolve to presumed abort on *all* participants —
/// never a mixed outcome where the shard that saw the decision keeps the
/// commit while the others abort. The sweep prepares a two-shard global
/// transaction, journals the commit decision on shard 0 only (the
/// coordinator's own record is never made durable), then loses every
/// persisted prefix of that decide frame in turn: `n = 0` models the
/// decision missing outright (crash before phase two), `n >= 1` tears `n`
/// sectors off the decide flush. A deliberately small sector (16 bytes —
/// the scanner needs the 13-byte frame head in the first sector) makes the
/// 22-byte decide frame span two sectors, so the sweep exercises every
/// expressible persisted prefix of the record: none, and a CRC-torn half.
#[test]
fn torn_or_missing_decide_presumed_aborts_every_participant() {
    use ccr::runtime::{check_uniform_outcome, ShardedSystem};

    type Fleet = ShardedSystem<
        BankAccount,
        UipEngine<BankAccount>,
        FnConflict<BankAccount>,
        WalBackend<BankAccount>,
    >;

    /// Two shards, one global transaction touching both, fully prepared.
    fn prepared_fleet() -> (Fleet, u64) {
        let cfg = WalConfig { sector: 16, seg_sectors: 128 };
        let mut fleet = ShardedSystem::new_with(2, |_| {
            DurableSystem::with_backend(
                BankAccount::default(),
                2,
                bank_nrbc(),
                WalBackend::new(cfg),
            )
        });
        let g = fleet.begin_global();
        fleet.invoke_global(g, ObjectId(0), BankInv::Deposit(7)).unwrap();
        fleet.invoke_global(g, ObjectId(1), BankInv::Deposit(9)).unwrap();
        fleet.prepare_all(g).expect("both participants vote yes");
        (fleet, g)
    }

    let mut torn_positions = 0usize;
    for n in 0usize.. {
        let (mut fleet, g) = prepared_fleet();
        if n > 0 {
            fleet.resolve_participant(g, 0, true).expect("phase two applies on shard 0");
            assert_eq!(
                fleet.shard_mut(0).committed_state(ObjectId(0)),
                7,
                "tear {n}: shard 0 applied the commit before the tear"
            );
            if !fleet.shard_mut(0).backend_mut().tear_last_flush(n) {
                // n reached the whole decide flush; the sweep is exhausted
                // (losing the entire flush is the n == 0 missing case).
                break;
            }
            torn_positions += 1;
        }
        fleet.crash_subset(0b11).unwrap_or_else(|e| panic!("tear {n}: crash must recover: {e:?}"));
        fleet.crash_coordinator();
        assert_eq!(
            fleet.in_doubt(),
            vec![g],
            "tear {n}: the torn decide must put the transaction back in doubt"
        );
        let resolved = fleet.resolve_in_doubt();
        assert_eq!(resolved, 2, "tear {n}: both participants resolve");
        assert!(fleet.in_doubt().is_empty(), "tear {n}: nothing stays in doubt");
        let states: Vec<u64> =
            (0..2).map(|s| fleet.shard_mut(s).committed_state(ObjectId(s as u32))).collect();
        check_uniform_outcome(&[(g, vec![0, 1])], |_, s| states[s] != 0)
            .unwrap_or_else(|v| panic!("tear {n}: mixed outcome: {v:?}"));
        assert_eq!(
            states,
            vec![0, 0],
            "tear {n}: without a durable decision the outcome is presumed abort everywhere"
        );
    }
    assert!(
        torn_positions >= 1,
        "the decide frame must span multiple sectors so the sweep hits a real \
         torn prefix, not only the missing-record case (saw {torn_positions})"
    );
}

/// Exhaustive crash-at-every-device-op sweep during `write_checkpoint`: a
/// checkpoint is a multi-op sequence (image frames, header rewrite, segment
/// truncation) and a crash at any point must leave the replay base either
/// the *old* checkpoint (the journal suffix replays the post-checkpoint
/// commits) or the *new* one (nothing left to replay) — never a hybrid.
/// Either way the recovered state is the full committed state.
#[test]
fn checkpoint_crash_sweep_recovers_old_or_new_base_never_hybrid() {
    /// Three committed txns, a first checkpoint (the "old" base), then two
    /// more committed txns that only the log suffix carries.
    fn ckpt_image() -> Durable<UipEngine<BankAccount>> {
        let mut sys = committed_image();
        sys.checkpoint();
        for i in 0..2u32 {
            let t = sys.begin();
            sys.invoke(t, ObjectId(i % 2), BankInv::Deposit(100 + u64::from(i))).unwrap();
            sys.commit(t).unwrap();
        }
        sys
    }

    // Probe run: how many device ops does a clean second checkpoint take,
    // and what state must every trial recover to?
    let mut probe = ckpt_image();
    assert_eq!(probe.store_stats().checkpoints, 1, "the old base is durable");
    let ops_before = probe.backend_mut().disk_mut().device_ops();
    probe.checkpoint();
    let ckpt_ops = probe.backend_mut().disk_mut().device_ops() - ops_before;
    assert!(ckpt_ops > 0, "a checkpoint must touch the device");
    assert_eq!(probe.store_stats().checkpoints, 2);
    probe.crash_and_recover().expect("clean image recovers");
    let expect: Vec<u64> = (0..OBJECTS).map(|o| probe.committed_state(ObjectId(o))).collect();

    // One trial per device-op index: kill the checkpoint there, power-cycle,
    // and demand an old-XOR-new replay base with the full committed state.
    let mut base_counts = std::collections::BTreeSet::new();
    for i in 0..ckpt_ops {
        let mut sys = ckpt_image();
        sys.backend_mut().disk_mut().arm_crash_at_op(i);
        sys.checkpoint();
        assert!(
            !sys.backend_mut().disk_mut().is_tripped(),
            "op {i}: the runtime must power-cycle a tripped device"
        );
        assert!(!sys.is_degraded(), "op {i}: a crash is not a degradation");
        let got: Vec<u64> = (0..OBJECTS).map(|o| sys.committed_state(ObjectId(o))).collect();
        assert_eq!(got, expect, "op {i}: recovered state must be the full committed state");
        // `base_records` counts the commits folded into the replay base: 3
        // under the old checkpoint (the two later commits replay from the
        // log suffix), 5 under the new one (nothing left to replay).
        let base = sys.journal().base_records();
        assert!(
            base == 3 || base == 5,
            "op {i}: replay base must be the old checkpoint (3 folded records) \
             or the new one (5), got a hybrid of {base}"
        );
        base_counts.insert(base);
        // The survivor keeps working: one more commit and a clean recovery.
        let t = sys.begin();
        sys.invoke(t, ObjectId(0), BankInv::Deposit(1)).unwrap();
        sys.commit(t).unwrap();
        sys.crash_and_recover().unwrap_or_else(|e| panic!("op {i}: final recovery: {e:?}"));
    }
    assert!(
        base_counts.contains(&3),
        "early crashes must leave the old base (folded-record counts seen: {base_counts:?})"
    );
    assert!(
        base_counts.contains(&5),
        "late crashes must keep the new base (folded-record counts seen: {base_counts:?})"
    );
}

/// Satellite of the honesty model: flip every single stable bit of the
/// committed image. Recovery must either succeed with the untouched state
/// (the flip hit slack bytes) or refuse loudly with `CorruptRecord` /
/// `TornRecord`; after repairing the medium, a plain re-scan must recover
/// the original state. A recovered-but-different state is silent corruption
/// and fails the test.
#[test]
fn exhaustive_bit_flip_sweep_never_diverges_silently() {
    let mut clean = committed_image();
    clean.crash_and_recover().expect("clean image recovers");
    let expect: Vec<u64> = (0..OBJECTS).map(|o| clean.committed_state(ObjectId(o))).collect();
    let bits = clean.backend().disk().durable_bits();
    assert!(bits > 0, "image must occupy stable storage");
    assert!(bits < 64_000, "keep the exhaustive sweep small (got {bits} bits)");

    let mut detected = 0u64;
    for bit in 0..bits {
        let mut sys = committed_image();
        assert!(sys.backend_mut().disk_mut().flip_bit(bit), "bit {bit} must be flippable");
        match sys.crash_and_recover() {
            Ok(()) => {
                let got: Vec<u64> =
                    (0..OBJECTS).map(|o| sys.committed_state(ObjectId(o))).collect();
                assert_eq!(got, expect, "silent divergence after flipping bit {bit}");
            }
            Err(RedoError::CorruptRecord { .. }) | Err(RedoError::TornRecord { .. }) => {
                detected += 1;
                assert_eq!(
                    sys.backend_mut().disk_mut().unflip_all(),
                    1,
                    "exactly the injected flip is repaired"
                );
                sys.recover_with(TornPolicy::Strict)
                    .unwrap_or_else(|e| panic!("bit {bit}: repaired medium must recover: {e:?}"));
                let got: Vec<u64> =
                    (0..OBJECTS).map(|o| sys.committed_state(ObjectId(o))).collect();
                assert_eq!(got, expect, "bit {bit}: repaired recovery must match");
            }
            Err(e) => panic!("bit {bit}: unexpected redo error {e:?}"),
        }
    }
    assert!(detected > 0, "the CRC layer must detect at least the payload flips");
}

/// One frame of each data kind on a fresh WAL: a commit, a two-record group
/// flush, a PREPARE, its DECIDE and a checkpoint.
fn one_of_each_kind(cfg: WalConfig) -> WalBackend<BankAccount> {
    use ccr::adt::bank::BankResp;
    use ccr::core::adt::Op;
    use ccr::store::{CheckpointImage, CommitRecord};

    let rec = |floor: u32, seq: u64, amount: u64| CommitRecord::<BankAccount> {
        floor,
        ops: vec![(seq, ObjectId(1), Op::new(BankInv::Deposit(amount), BankResp::Ok))],
    };
    let mut w: WalBackend<BankAccount> = WalBackend::new(cfg);
    w.append_commit(&rec(1, 0, 5)).unwrap();
    w.append_commits(&[rec(2, 1, 6), rec(3, 2, 7)]).unwrap();
    w.append_prepare(0xABCD, &rec(4, 3, 8)).unwrap();
    w.append_decision(0xABCD, true).unwrap();
    w.write_checkpoint(&CheckpointImage {
        base_records: 4,
        txn_floor: 4,
        next_exec_seq: 4,
        states: vec![(ObjectId(0), 0u64), (ObjectId(1), 26)],
    })
    .unwrap();
    w
}

/// The exact bytes of one frame of each kind (1, 2, 3, 5, 6) and of a
/// two-record commit frame, as a `WalBackend` lays them down on the 32-byte
/// geometry. Round-trip tests pass whenever builder and checker drift
/// *together*; these bytes — header layout, payload encoding, zero padding
/// and the CRC of the padded extent — may not drift at all, because logs
/// written by an older build must still scan.
#[test]
fn one_frame_of_each_kind_is_pinned_byte_for_byte() {
    use ccr::store::inspect_wal;

    let w = one_of_each_kind(WalConfig::default());
    let ins = inspect_wal::<BankAccount>(w.disk(), &w.config());
    assert_eq!(ins.damage, "clean");
    let first_of = |name: &str| -> String {
        let mut frames = ins.segments[0].frames.iter();
        let f = match name {
            "group" => frames.filter(|f| f.kind == "commit").nth(1),
            kind => frames.find(|f| f.kind == kind),
        }
        .expect(name);
        (f.sector..f.sector + f.sectors)
            .flat_map(|s| w.disk().read(s).expect("a durable sector").to_vec())
            .map(|b| format!("{b:02x}"))
            .collect()
    };
    let pinned = [
        ("seg-header", 
            "4343524601450000000af32ed90000000000000000000000000000000000040000000400000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
        ),
        ("commit", 
            "43435246021e0000003794209d010000000100000000000000000000000100000000050000000000000000000000000000000000000000000000000000000000",
        ),
        ("checkpoint", 
            "434352460330000000ea8267b2040000000000000004000000040000000000000002000000000000000000000000000000010000001a00000000000000000000",
        ),
        ("group", 
            "43435246023c00000004b841e50200000001000000010000000000000001000000000600000000000000000300000001000000020000000000000001000000000700000000000000000000000000000000000000000000000000000000000000",
        ),
        ("prepare", 
            "4343524605260000001d3dd17acdab00000000000004000000010000000300000000000000010000000008000000000000000000000000000000000000000000",
        ),
        ("decide", "434352460609000000cf9088c8cdab0000000000000100000000000000000000"),
    ];
    for (kind, hex) in pinned {
        assert_eq!(first_of(kind), hex, "{kind}");
    }
}

/// `image_fingerprint` (what the model checker keys its states by) of the
/// history above at both geometries, clean, with one bit flipped in stored
/// bytes and one in a sector's zero tail, and repaired. How the medium keeps
/// its bytes may not move a state; the history's two-record group is one
/// commit frame.
#[test]
fn the_image_fingerprint_of_a_fixed_history_is_pinned() {
    let geometries = [
        (
            WalConfig::default(),
            [0x9113_58b9_bab4_c7a7_u64, 0x38e6_00dc_47ca_5044, 0x362c_8910_45ef_9c29],
        ),
        (
            WalConfig { sector: 512, seg_sectors: 64 },
            [0xe3a2_9df4_ade4_232c, 0xa23d_1cd6_702a_89e3, 0x0dac_17fc_76b1_08dd],
        ),
    ];
    for (cfg, pinned) in geometries {
        let mut w = one_of_each_kind(cfg);
        let clean = w.image_fingerprint();
        let bits = w.disk().durable_bits();
        // Bit 3 of the first sector's byte 2, then of the last sector's last
        // byte: past the checkpoint frame's end at both geometries.
        assert!(w.disk_mut().flip_bit(19));
        let data = w.image_fingerprint();
        assert!(w.disk_mut().flip_bit(bits - 5));
        let tail = w.image_fingerprint();
        assert_eq!(w.disk_mut().unflip_all(), 2);
        assert_eq!(w.image_fingerprint(), clean, "{cfg:?}: repaired");
        assert_eq!([clean, data, tail], pinned, "{cfg:?}");
    }
}

// ---------------------------------------------------------------------------
// The forensic leg on images the simulator cannot draw (DESIGN.md §13): the
// inspector's verdict is the repairing recovery's plan, also on frames
// written past the log end by hand.
// ---------------------------------------------------------------------------

mod forensic_leg {
    use ccr::adt::bank::{BankAccount, BankInv, BankResp};
    use ccr::core::adt::Op;
    use ccr::core::ids::ObjectId;
    use ccr::store::{
        build_frame, encode_commits, inspect_wal, CheckpointImage, CommitRecord, LogBackend,
        StoreFailureKind, TailPolicy, WalBackend, WalConfig,
    };

    type Wal = WalBackend<BankAccount>;
    type Rec = CommitRecord<BankAccount>;

    const SECTOR: usize = 32;

    fn rec(floor: u32, seq: u64, amount: u64) -> Rec {
        CommitRecord {
            floor,
            ops: vec![(seq, ObjectId(0), Op::new(BankInv::Deposit(amount), BankResp::Ok))],
        }
    }

    /// Write `members` as one commit frame from sector `at` on — a group
    /// flush no append put there — only its first sector landing when `tear`
    /// is set.
    fn write_group(w: &mut Wal, at: u64, members: &[Rec], tear: bool) {
        let frame = build_frame(2, &encode_commits(members), SECTOR);
        w.disk_mut().write(at, if tear { &frame[..SECTOR] } else { &frame });
        w.disk_mut().flush();
    }

    /// xorshift64*, and the floor of the last record drawn.
    struct Rng(u64, u32);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }

        fn rec(&mut self) -> Rec {
            self.1 += 1;
            rec(self.1, u64::from(self.1) - 1, 1 + self.below(9))
        }
    }

    /// A random log — 1–14 appends of every frame kind plus crash + recover,
    /// on 16- or 64-sector segments — then 0–3 random injuries, among them
    /// a group frame past the log end, which no fault arm of the simulator
    /// produces.
    fn damaged_image(rng: &mut Rng) -> Wal {
        let seg_sectors = if rng.below(2) == 0 { 16 } else { 64 };
        let mut w = Wal::new(WalConfig { sector: SECTOR, seg_sectors });
        rng.1 = 0;
        let mut prepared = Vec::new();
        for _ in 0..1 + rng.below(14) {
            match rng.below(10) {
                0..=2 => w.append_commit(&rng.rec()).unwrap(),
                3..=5 => {
                    let group: Vec<Rec> = (0..2 + rng.below(4)).map(|_| rng.rec()).collect();
                    w.append_commits(&group).unwrap();
                }
                6 => {
                    prepared.push(100 + rng.below(4));
                    w.append_prepare(*prepared.last().unwrap(), &rng.rec()).unwrap();
                }
                7 => {
                    let gtid = match prepared.len() as u64 {
                        0 => 100 + rng.below(4),
                        n => prepared[rng.below(n) as usize],
                    };
                    w.append_decision(gtid, rng.below(2) == 0).unwrap();
                }
                8 => {
                    let states = vec![(ObjectId(0), rng.below(50))];
                    let (txn_floor, next_exec_seq) = (rng.1, u64::from(rng.1));
                    let img = CheckpointImage { base_records: 0, txn_floor, next_exec_seq, states };
                    w.write_checkpoint(&img).unwrap();
                }
                _ => {
                    w.crash();
                    w.recover(TailPolicy::DiscardTail).unwrap();
                }
            }
        }
        for _ in 0..rng.below(4) {
            let durable: Vec<u64> = w.disk().durable_sectors().collect();
            let (pick, last) =
                (durable[rng.below(durable.len() as u64) as usize], durable[durable.len() - 1]);
            match rng.below(7) {
                0 => drop(w.tear_last_flush(1 + rng.below(6) as usize)),
                1 => drop(w.reorder_last_flush()),
                2 => drop(w.disk_mut().flip_bit(rng.below((last + 1) * SECTOR as u64 * 8))),
                3 => drop(w.disk_mut().delete(pick)),
                4 => {
                    let junk: Vec<u8> = (0..SECTOR).map(|_| rng.below(256) as u8).collect();
                    w.disk_mut().write(pick, &junk);
                    w.disk_mut().flush();
                }
                5 => {
                    let copy = w.disk().read(pick).unwrap().to_vec();
                    w.disk_mut().write(last + 1 + rng.below(3), &copy);
                    w.disk_mut().flush();
                }
                _ => {
                    let members: Vec<Rec> = (0..1 + rng.below(3)).map(|_| rng.rec()).collect();
                    write_group(&mut w, last + 1, &members, rng.below(2) == 0);
                }
            }
        }
        w
    }

    /// Per image: the inspector ticks no checked device op; the forensic leg
    /// agrees; recovery converges when crashed at any device op of its own;
    /// a repairing recovery leaves an image that scans clean to the same log;
    /// and a recovery killed at a device op and retried ends where the
    /// uninterrupted one does.
    #[test]
    fn inspector_and_recovery_agree_on_hand_damaged_images() {
        let mut rng = Rng(0x5EED_CC22, 0);
        let mut refused = 0;
        for image in 0..300 {
            let w = damaged_image(&mut rng);
            let ops = w.device_op_count();
            let seen = inspect_wal::<BankAccount>(w.disk(), &w.config()).damage;
            assert_eq!(w.device_op_count(), ops, "image {image}: the inspector ticked a device op");
            assert_eq!(w.inspection_agrees_with_recovery(), Some(Ok(())), "image {image}: {seen}");
            if let Err(e) = w.clone().check_recovery_convergence(TailPolicy::DiscardTail) {
                panic!("image {image}: {e}");
            }

            let mut first = w.clone();
            first.crash();
            let before = first.device_op_count();
            let Ok(out) = first.recover(TailPolicy::DiscardTail) else {
                refused += 1;
                continue;
            };
            let spent = first.device_op_count() - before;

            let mut killed = w.clone();
            killed.crash();
            killed.disk_mut().arm_crash_at_op(rng.below(spent));
            let died = killed.recover(TailPolicy::DiscardTail).unwrap_err();
            assert!(matches!(died.kind, StoreFailureKind::Device(_)), "image {image}: {died:?}");
            killed.crash();
            let retried = killed.recover(TailPolicy::DiscardTail).unwrap();
            let log = |o: &ccr::store::RecoveredLog<BankAccount>| {
                (
                    o.records.clone(),
                    o.txn_floor,
                    o.next_exec_seq,
                    o.in_doubt.clone(),
                    o.decisions.clone(),
                )
            };
            assert_eq!(log(&retried), log(&out), "image {image}: a killed recovery diverged");
            // A kill between a repair and the sealing header can cost the
            // detection its count (telemetry, DESIGN.md §11) — nothing else.
            if killed.stats() == first.stats() {
                assert_eq!(killed.image_fingerprint(), first.image_fingerprint(), "image {image}");
            }

            first.crash();
            let again = first.recover(TailPolicy::DiscardTail).unwrap();
            assert_eq!(
                again.scan.damage, "clean",
                "image {image}: a repaired image must scan clean"
            );
            assert_eq!(log(&again), log(&out), "image {image}: the second scan read another log");
        }
        assert!(
            (60..240).contains(&refused),
            "the mix must reach both outcomes: {refused} refused"
        );
    }
}

// ---------------------------------------------------------------------------
// Wire-format properties (DESIGN.md §9/§10): epoch headers and multi-record
// commit payloads round-trip exactly, a cut commit payload decodes only at a
// record boundary, and every single-byte corruption of a sector-aligned frame
// is detected by the same `check_frame` validation the recovery scanner runs.
// ---------------------------------------------------------------------------

mod wire_format {
    use ccr::adt::bank::{BankAccount, BankInv, BankResp};
    use ccr::core::adt::Op;
    use ccr::core::ids::ObjectId;
    use ccr::store::{
        build_frame, check_frame, decode_commit, encode_commits, CommitRecord, SegHeader,
        StoreStats,
    };
    use proptest::prelude::*;

    fn stats() -> impl Strategy<Value = StoreStats> {
        (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX)
            .prop_map(|(checkpoints, recoveries, sector_tears, reordered_flushes, bitflips)| {
                StoreStats {
                    checkpoints,
                    recoveries,
                    sector_tears,
                    reordered_flushes,
                    bitflips_detected: bitflips,
                }
            })
    }

    fn headers() -> impl Strategy<Value = SegHeader> {
        (0u64..=u64::MAX, 0u64..=u64::MAX, 0u8..=1, 0u32..=u32::MAX, 0u64..=u64::MAX, stats())
            .prop_map(|(epoch, seg_index, rc, txn_floor, next_exec_seq, stats)| SegHeader {
                epoch,
                seg_index,
                requires_checkpoint: rc != 0,
                txn_floor,
                next_exec_seq,
                stats,
            })
    }

    fn records() -> impl Strategy<Value = CommitRecord<BankAccount>> {
        let inv_resp = prop_oneof![
            (1u64..=9).prop_map(|i| (BankInv::Deposit(i), BankResp::Ok)),
            (1u64..=9).prop_map(|i| (BankInv::Withdraw(i), BankResp::Ok)),
            (1u64..=9).prop_map(|i| (BankInv::Withdraw(i), BankResp::No)),
            (0u64..=9).prop_map(|v| (BankInv::Balance, BankResp::Val(v))),
        ];
        let op = (0u64..=u64::MAX, 0u32..4, inv_resp)
            .prop_map(|(seq, obj, (inv, resp))| (seq, ObjectId(obj), Op::new(inv, resp)));
        (0u32..=u32::MAX, prop::collection::vec(op, 0..5))
            .prop_map(|(floor, ops)| CommitRecord { floor, ops })
    }

    /// What one commit frame holds: one to five records.
    fn groups() -> impl Strategy<Value = Vec<CommitRecord<BankAccount>>> {
        prop::collection::vec(records(), 1..6)
    }

    fn decoded(payload: &[u8]) -> Option<Vec<CommitRecord<BankAccount>>> {
        let mut out = Vec::new();
        decode_commit(payload, &mut out).map(|()| out)
    }

    proptest! {
        /// Any epoch header decodes back to an equal value.
        #[test]
        fn seg_header_round_trips(h in headers()) {
            prop_assert_eq!(SegHeader::decode(&h.encode()), Some(h));
        }

        /// A header payload with any byte appended or removed is refused:
        /// the fixed width is load-bearing.
        #[test]
        fn seg_header_rejects_wrong_width(h in headers(), junk in 0u8..=u8::MAX) {
            let enc = h.encode();
            let mut longer = enc.clone();
            longer.push(junk);
            prop_assert_eq!(SegHeader::decode(&longer), None);
            prop_assert_eq!(SegHeader::decode(&enc[..enc.len() - 1]), None);
        }

        /// Any group-commit batch round-trips through one commit payload.
        #[test]
        fn batch_frames_round_trip(group in groups()) {
            let enc = encode_commits(&group);
            prop_assert_eq!(decoded(&enc), Some(group));
        }

        /// A commit payload cut short decodes only where a record ends, and
        /// then to exactly the records before the cut; the empty payload is
        /// damage.
        #[test]
        fn a_cut_commit_payload_decodes_only_at_a_record_boundary(group in groups()) {
            let ends: Vec<usize> =
                (1..=group.len()).map(|k| encode_commits(&group[..k]).len()).collect();
            let enc = encode_commits(&group);
            for cut in 0..enc.len() {
                let expected = ends.iter().position(|&end| end == cut).map(|k| group[..=k].to_vec());
                prop_assert_eq!(decoded(&enc[..cut]), expected, "cut {}", cut);
            }
        }

        /// Exhaustive single-byte corruption of a framed header: for every
        /// byte position and every wrong value class, the recovery
        /// scanner's validation (`check_frame`) must classify the frame as
        /// corrupt — there is no byte whose damage goes unnoticed, because
        /// the CRC covers the whole sector-aligned extent including the
        /// padding.
        #[test]
        fn every_single_byte_corruption_of_a_header_frame_is_detected(
            h in headers(),
            delta in 1u8..=255,
        ) {
            let frame = build_frame(1, &h.encode(), 32);
            prop_assert!(check_frame(&frame).is_some(), "pristine frame must verify");
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] = bad[i].wrapping_add(delta);
                prop_assert_eq!(check_frame(&bad), None, "byte {} undetected", i);
            }
        }

        /// The same exhaustive corruption sweep over a framed group-commit
        /// batch, which also exercises variable-length payloads.
        #[test]
        fn every_single_byte_corruption_of_a_batch_frame_is_detected(
            group in groups(),
            delta in 1u8..=255,
        ) {
            let frame = build_frame(2, &encode_commits(&group), 32);
            prop_assert!(check_frame(&frame).is_some(), "pristine frame must verify");
            for i in 0..frame.len() {
                let mut bad = frame.clone();
                bad[i] = bad[i].wrapping_add(delta);
                prop_assert_eq!(check_frame(&bad), None, "byte {} undetected", i);
            }
        }

        /// What `check_frame` accepts it returns exactly: kind and payload
        /// of an intact frame come back unmodified for every frame kind.
        #[test]
        fn intact_frames_return_kind_and_payload(kind in 1u8..=5, group in groups()) {
            let kind = if kind < 4 { kind } else { kind + 1 };
            let payload = encode_commits(&group);
            let frame = build_frame(kind, &payload, 32);
            prop_assert_eq!(check_frame(&frame), Some((kind, payload.as_slice())));
        }
    }
}

// ---------------------------------------------------------------------------
// Device differential (DESIGN.md §16, "The durable write"): the track-backed
// `SimDisk` against the per-sector map it replaced, kept here as the
// reference model. Everything a caller can observe must agree after every
// step of any raw-operation sequence. The model stores every sector whole;
// the device keeps only the bytes written and reads the rest of a sector as
// zeros, so every read is compared zero-extended.
// ---------------------------------------------------------------------------

mod device_model {
    use std::collections::{BTreeMap, BTreeSet};

    use std::borrow::Cow;

    use ccr::store::{DiskStats, SectorRead, SimDisk, TRACK_SECTORS};

    /// The device as it was: one `Vec<u8>` per durable sector in a map, a
    /// set of tombstones, a list of pending sectors.
    #[derive(Clone, Default)]
    struct ModelDisk {
        durable: BTreeMap<u64, Vec<u8>>,
        torn: BTreeSet<u64>,
        pending: Vec<(u64, Vec<u8>)>,
        last_flush: Vec<u64>,
        flips: Vec<(u64, usize, u8)>,
        misdirect: Option<i64>,
        stats: DiskStats,
    }

    impl ModelDisk {
        fn write(&mut self, sector: u64, data: &[u8], size: usize) {
            let base = match self.misdirect.take() {
                Some(delta) => {
                    self.stats.misdirected_writes += 1;
                    sector.wrapping_add_signed(delta)
                }
                None => sector,
            };
            for (i, chunk) in data.chunks(size).enumerate() {
                let mut sector = chunk.to_vec();
                sector.resize(size, 0);
                self.pending.push((base + i as u64, sector));
            }
        }

        fn flush(&mut self) -> usize {
            if self.pending.is_empty() {
                return 0;
            }
            self.last_flush.clear();
            let pending = std::mem::take(&mut self.pending);
            self.stats.sectors_flushed += pending.len() as u64;
            self.stats.flushes += 1;
            for (idx, bytes) in &pending {
                self.durable.insert(*idx, bytes.clone());
                self.torn.remove(idx);
                self.last_flush.push(*idx);
            }
            pending.len()
        }

        fn crash(&mut self) {
            self.stats.lossy_crashes += u64::from(!self.pending.is_empty());
            self.pending.clear();
            self.misdirect = None;
        }

        fn lose(&mut self, idx: u64) {
            if self.durable.remove(&idx).is_some() {
                self.torn.insert(idx);
            }
        }

        fn tear(&mut self, keep: usize) -> bool {
            if self.last_flush.len() <= keep {
                return false;
            }
            for idx in self.last_flush.split_off(keep) {
                self.lose(idx);
                self.stats.torn_sectors += 1;
            }
            true
        }

        fn reorder(&mut self) -> bool {
            if self.last_flush.len() < 2 {
                return false;
            }
            let first = self.last_flush.remove(0);
            self.lose(first);
            self.stats.reordered_sectors += 1;
            true
        }

        fn bits(&self) -> u64 {
            self.durable.values().map(|v| v.len() as u64 * 8).sum()
        }

        fn flip(&mut self, bit: u64) -> bool {
            let total = self.bits();
            if total == 0 {
                return false;
            }
            let mut target = bit % total;
            for (&idx, bytes) in self.durable.iter_mut() {
                let here = bytes.len() as u64 * 8;
                if target < here {
                    let (byte, mask) = ((target / 8) as usize, 1u8 << (target % 8));
                    bytes[byte] ^= mask;
                    self.flips.push((idx, byte, mask));
                    self.stats.flipped_bits += 1;
                    return true;
                }
                target -= here;
            }
            unreachable!()
        }

        fn unflip_all(&mut self) -> usize {
            let mut repaired = 0;
            for (idx, byte, mask) in std::mem::take(&mut self.flips) {
                if let Some(bytes) = self.durable.get_mut(&idx) {
                    bytes[byte] ^= mask;
                    repaired += 1;
                }
            }
            self.stats.repaired_bits += repaired as u64;
            repaired
        }

        fn delete(&mut self, sector: u64) -> bool {
            self.torn.remove(&sector);
            self.durable.remove(&sector).is_some()
        }

        fn restore(&mut self, image: &(BTreeMap<u64, Vec<u8>>, BTreeSet<u64>)) {
            (self.durable, self.torn) = image.clone();
            self.pending.clear();
            self.last_flush.clear();
            self.flips.clear();
            self.misdirect = None;
        }

        fn classify(&self, sector: u64) -> Classified {
            match self.durable.get(&sector) {
                Some(bytes) => Classified::Data(bytes.clone()),
                None if self.torn.contains(&sector) => Classified::Torn,
                None => Classified::Absent,
            }
        }
    }

    /// A classified read with its bytes zero-extended.
    #[derive(Debug, PartialEq)]
    enum Classified {
        Data(Vec<u8>),
        Torn,
        Absent,
    }

    impl From<SectorRead<'_>> for Classified {
        fn from(read: SectorRead<'_>) -> Self {
            match read {
                SectorRead::Data(stored) => Classified::Data(stored.to_vec()),
                SectorRead::Torn => Classified::Torn,
                SectorRead::Absent => Classified::Absent,
            }
        }
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Everything observable, compared after every step.
    fn assert_same(disk: &SimDisk, model: &ModelDisk, touched: &BTreeSet<u64>, at: &str) {
        for &s in touched {
            let classified = Classified::from(disk.read_classified(s));
            assert_eq!(classified, model.classify(s), "{at}: sector {s}");
            let read = disk.read(s).map(|stored| stored.to_vec());
            assert_eq!(read.as_ref(), model.durable.get(&s), "{at}: read {s}");
        }
        let sectors: Vec<u64> = model.durable.keys().copied().collect();
        assert_eq!(disk.durable_sectors().collect::<Vec<_>>(), sectors, "{at}: durable order");
        assert_eq!(disk.durable_len(), sectors.len() as u64, "{at}: durable count");
        assert_eq!(disk.durable_bits(), model.bits(), "{at}: durable bits");
        assert_eq!(disk.last_flush_len(), model.last_flush.len(), "{at}: last flush");
        assert_eq!(disk.stats(), model.stats, "{at}: stats");
        // What the explorer's state fingerprint folds over.
        let image = disk.snapshot();
        let torn: Vec<u64> = model.torn.iter().copied().collect();
        assert_eq!(image.torn_sectors().collect::<Vec<_>>(), torn, "{at}: tombstones");
        let sectors = image.sectors().map(|(s, stored)| (s, stored.to_vec()));
        assert!(sectors.eq(model.durable.iter().map(|(s, b)| (*s, b.clone()))), "{at}");
    }

    /// One random raw-operation sequence; returns how many flips landed in
    /// a sector's implied zero tail.
    fn run(size: usize, seed: u64) -> u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut disk = SimDisk::new(size);
        let mut model = ModelDisk::default();
        let mut images = Vec::new();
        // Writes start just under the first track boundary, so multi-sector
        // writes straddle it; a misdirect throws some far away.
        let window = TRACK_SECTORS - 6..TRACK_SECTORS + 10;
        let mut touched: BTreeSet<u64> = (window.start - 2..window.end + 6).collect();
        let mut tail_flips = 0;
        for step in 0..400 {
            let at = format!("sector size {size}, seed {seed}, step {step}");
            match rng.below(16) {
                0..=4 => {
                    let sector = window.start + rng.below(window.end - window.start);
                    let n = 1 + rng.below(5);
                    // Most writes end inside their last sector, so a
                    // rewrite of a sector is as often shorter as longer;
                    // zero-heavy data ends some in zeros it did write.
                    let len = match rng.below(3) {
                        0 => n as usize * size,
                        _ => (n as usize - 1) * size + 1 + rng.below(size as u64) as usize,
                    };
                    let sparse = rng.below(2) == 0;
                    let data: Vec<u8> = (0..len)
                        .map(|_| rng.next() as u8)
                        .map(|b| if sparse && b & 3 != 0 { 0 } else { b })
                        .collect();
                    let landed = model.misdirect.map_or(sector, |d| sector.wrapping_add_signed(d));
                    touched.extend(landed..landed + n);
                    disk.write(sector, &data);
                    model.write(sector, &data, size);
                }
                5..=7 => assert_eq!(disk.flush(), model.flush(), "{at}"),
                8 => {
                    disk.crash();
                    model.crash();
                }
                9 => {
                    let keep = rng.below(4) as usize;
                    assert_eq!(disk.tear_last_flush(keep), model.tear(keep), "{at}");
                }
                10 => assert_eq!(disk.reorder_last_flush(), model.reorder(), "{at}"),
                11 => {
                    let bit = rng.next();
                    let flipped = model.flip(bit);
                    if let Some(&(idx, byte, _)) = model.flips.last().filter(|_| flipped) {
                        let stored = disk.read(idx).expect("a durable sector");
                        tail_flips += u64::from(byte >= stored.bytes.len());
                    }
                    assert_eq!(disk.flip_bit(bit), flipped, "{at}");
                    if rng.below(3) == 0 {
                        assert_eq!(disk.unflip_all(), model.unflip_all(), "{at}");
                    }
                }
                12 => {
                    let pick = rng.below(touched.len() as u64) as usize;
                    let sector = *touched.iter().nth(pick).expect("in range");
                    assert_eq!(disk.delete(sector), model.delete(sector), "{at}");
                }
                13 => {
                    let delta = [4, -3, TRACK_SECTORS as i64, 1_000_003][rng.below(4) as usize];
                    disk.arm_misdirect(delta);
                    model.misdirect = Some(delta);
                }
                14 => {
                    disk.discard_pending();
                    model.pending.clear();
                }
                _ => match rng.below(3) {
                    0 => {
                        images.push((disk.snapshot(), (model.durable.clone(), model.torn.clone())))
                    }
                    1 => {
                        if let Some((image, model_image)) = images.last() {
                            disk.restore(image);
                            model.restore(model_image);
                        }
                    }
                    // Carry on with a clone: it must hold the write cache,
                    // the flip journal and the armed misdirect too.
                    _ => disk = disk.clone(),
                },
            }
            assert_same(&disk, &model, &touched, &at);
            // The range query and the run read, against the model's map.
            let lo = window.start - 2 + rng.below(20);
            let hi = lo + rng.below(2 * TRACK_SECTORS);
            let want: Vec<u64> = model.durable.range(lo..hi).map(|(s, _)| *s).collect();
            assert_eq!(disk.durable_in(lo..hi).collect::<Vec<_>>(), want, "{at}: {lo}..{hi}");
            let n = 1 + rng.below(6);
            let run: Result<Vec<u8>, usize> =
                (lo..lo + n).enumerate().try_fold(Vec::new(), |mut run, (i, s)| {
                    run.extend_from_slice(model.durable.get(&s).ok_or(i)?);
                    Ok(run)
                });
            let got = disk.read_run(lo, n);
            if let Ok(stored) = &got {
                // A single sector is always read in place.
                assert!(n > 1 || matches!(stored.bytes, Cow::Borrowed(_)), "{at}: run {lo}");
                let len = stored.bytes.len() + stored.zeros;
                assert_eq!(len, n as usize * disk.sector_size(), "{at}: run {lo}+{n}");
            }
            assert_eq!(got.map(|stored| stored.to_vec()), run, "{at}: run {lo}+{n}");
        }
        tail_flips
    }

    #[test]
    fn track_backed_disk_matches_the_per_sector_map_it_replaced() {
        for size in [32, 512] {
            let tail_flips: u64 = (0..24).map(|seed| run(size, seed)).sum();
            assert!(tail_flips > 24, "sector size {size}: {tail_flips} flips in a zero tail");
        }
    }
}
