//! The metric names, units, directions and regression bounds — the single
//! table `BENCHMARK.json`, the run output and `repeat`'s gate are all
//! generated from (a unit test keeps the committed manifest in step).

use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one measured run is asked to take (`--seconds`).
pub const RUN_SECONDS: u64 = 12;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// What a user of the runtime sees, on every workload. Two numbers the issue
/// wanted here are reported but not gated: `failed_ratio` (it must stay 0,
/// and a gated metric may never read 0 — the result line's `failed` /
/// `attempted` carry it) and the checkpoint stall (per-layer: its
/// run-to-run spread on `hotspot_du`, about 20 %, is wider than any bound
/// that would mean something).
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("commit_tps", "1/s", "higher", 0.24),
    e2e("txn_latency_p50_us", "us", "lower", 0.24),
    e2e("txn_latency_p99_us", "us", "lower", 0.25),
    e2e("attempts_per_commit", "ratio", "lower", 0.02),
    e2e("flushes_per_commit", "ratio", "lower", 0.01),
    e2e("log_bytes_per_commit", "B", "lower", 0.01),
    e2e("recovery_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer numbers every workload's traced run reports: spans and counters
/// of the run itself, then the isolated probes (`layers.rs`). Spans that
/// exist on one workload only (`runtime.shard.*`) are printed there and
/// listed in the README, not here.
pub const PER_LAYER: [Layer; 43] = [
    layer("runtime.crash.invoke_busy_share", "ratio", "lower"),
    layer("runtime.crash.invoke_ns_p50", "ns", "lower"),
    layer("runtime.crash.commit_busy_share", "ratio", "lower"),
    layer("runtime.crash.commit_ns_p50", "ns", "lower"),
    layer("runtime.crash.commit_ns_p99", "ns", "lower"),
    layer("runtime.crash.checkpoint_busy_share", "ratio", "lower"),
    layer("runtime.crash.checkpoint_stall_ms", "ms", "lower"),
    layer("runtime.system.blocked_per_commit", "ratio", "lower"),
    layer("runtime.system.wounds_per_commit", "ratio", "lower"),
    layer("runtime.system.useful_invoke_ratio", "ratio", "higher"),
    layer("store.wal.device_ops_per_commit", "ratio", "lower"),
    layer("store.disk.sectors_per_flush", "ratio", "lower"),
    layer("runtime.crash.recover_scan_share", "ratio", "lower"),
    layer("runtime.crash.recover_replay_share", "ratio", "lower"),
    layer("driver.self_share", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("core.conflict.nrbc_ns", "ns", "lower"),
    layer("core.conflict.nfc_ns", "ns", "lower"),
    layer("adt.bank.step_ns", "ns", "lower"),
    layer("runtime.system.invoke_ns_held1", "ns", "lower"),
    layer("runtime.system.invoke_ns_held64", "ns", "lower"),
    layer("runtime.system.invoke_ns_held1024", "ns", "lower"),
    layer("runtime.system.commit_ns_obj64", "ns", "lower"),
    layer("runtime.system.commit_ns_obj4096", "ns", "lower"),
    layer("runtime.engine.uip_record_ns", "ns", "lower"),
    layer("runtime.engine.uip_abort_ns_log64", "ns", "lower"),
    layer("runtime.engine.uip_inverse_abort_ns_log64", "ns", "lower"),
    layer("runtime.engine.du_view_ns_int4", "ns", "lower"),
    layer("runtime.engine.du_validate_ns", "ns", "lower"),
    layer("store.codec.encode_ns_per_record", "ns", "lower"),
    layer("store.codec.bytes_per_record", "B", "lower"),
    layer("store.codec.decode_ns_per_record", "ns", "lower"),
    layer("store.wal.scan_us_per_record", "us", "lower"),
    layer("store.wal.append_us", "us", "lower"),
    layer("store.wal.append_batch8_us_per_record", "us", "lower"),
    layer("store.wal.sectors_per_record", "ratio", "lower"),
    layer("store.wal.prepare_us", "us", "lower"),
    layer("store.wal.decide_us", "us", "lower"),
    layer("store.wal.checkpoint_ms_obj4096", "ms", "lower"),
    layer("store.disk.write_flush_ns_per_sector", "ns", "lower"),
    layer("runtime.crash.replay_us_per_record_n500", "us", "lower"),
    layer("runtime.crash.replay_us_per_record_n2000", "us", "lower"),
    layer("obs.events_on_slowdown", "ratio", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest(), "regenerate with `-- manifest > BENCHMARK.json`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
