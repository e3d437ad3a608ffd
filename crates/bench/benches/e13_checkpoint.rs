//! E13 — checkpoint/restart cost: distribution-aware save, same-layout
//! restore, and redistribute-on-read.
//!
//! A checkpoint's file layout follows the array's distribution (each
//! rank's local segment stored contiguously with one checksum), so a save
//! is essentially one streaming pass over the payload and a restore into a
//! *different* live distribution is a restore plus an ordinary cached
//! redistribute plan.  The bench also times an in-process raw write plus
//! `sync_all` of the same bytes, the I/O floor of a durable save, and
//! reports `save_over_raw_sync` against it (reported, not guarded).
//! The guard checks the *byte accounting*, which is timing-noise-free:
//!
//! * `ckpt_bytes_written` per save and `ckpt_bytes_read` per restore must
//!   stay within **1.1×** the raw payload (n×8 bytes) plus a fixed
//!   manifest allowance — the format adds framing, not data copies;
//! * the redistribute leg of restore-into must charge exactly the
//!   modelled plan bytes (`CommPlan::bytes_for`).
//!
//! Custom harness (no criterion): emits `BENCH_e13.json`
//! (`VF_E13_BENCH_JSON` overrides the path) recording save/restore/
//! restore-redistribute times, the raw write + sync reference and the byte
//! ledger.  `VF_E13_SKIP_GUARD=1` skips the byte guard; the bitwise
//! correctness cross-checks always run.

use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vf_core::prelude::*;

const PROCS: usize = 8;
const REPS: usize = 7;
const N: usize = 262_144; // 2 MB of f64 payload
const MANIFEST_ALLOWANCE: usize = 4096;

fn time_min<R>(mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn main() {
    println!("# E13 — distribution-aware checkpoint/restart\n");
    let dir = std::env::temp_dir().join(format!("vf_bench_e13_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir);

    let file_dist = Distribution::new(
        DistType::block1d(),
        IndexDomain::d1(N),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    // Resume partition: a seed-derived INDIRECT map — the restore must
    // plan a full BLOCK → INDIRECT redistribute.
    let owners: Vec<usize> = (0..N).map(|i| (i * 2654435761) % PROCS).collect();
    let live_dist = Distribution::new(
        DistType::indirect1d(Arc::new(IndirectMap::new(owners).unwrap())),
        IndexDomain::d1(N),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let data: Vec<f64> = (0..N).map(|i| (i as f64 * 0.37).sin()).collect();
    let array = DistArray::from_dense("CK", file_dist.clone(), &data).unwrap();

    // Correctness cross-checks before timing: both restore paths are
    // bitwise, and the byte ledger balances.
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let cache = PlanCache::new();
    store.save(&array, 1, &tracker).unwrap();
    let written = tracker.snapshot().ckpt_bytes_written();
    let same = store.restore::<f64>(&tracker).unwrap();
    assert_eq!(
        same.array.to_dense(),
        data,
        "same-layout restore is bitwise"
    );
    let read_same = tracker.snapshot().ckpt_bytes_read();
    assert_eq!(read_same, written, "every byte written is read back");

    let redist_tracker = CommTracker::new(PROCS, CostModel::zero());
    let moved = store
        .restore_into::<f64, _>(&live_dist, &redist_tracker, &cache, &SerialExecutor)
        .unwrap();
    assert_eq!(
        moved.array.to_dense(),
        data,
        "redistribute-on-read is bitwise"
    );
    assert!(moved.array.dist().same_mapping(&live_dist));
    let plan = cache.redistribute_plan(&file_dist, &live_dist).unwrap();
    let plan_bytes = plan.bytes_for(8);
    let redist_stats = redist_tracker.snapshot();
    assert_eq!(
        redist_stats.total_bytes(),
        plan_bytes,
        "redistribute leg charges exactly the modelled plan bytes"
    );
    println!(
        "ledger cross-check ok: {written} bytes written, {read_same} read back, \
         {plan_bytes} moved by the BLOCK -> INDIRECT plan\n"
    );

    let save_ns = ns(time_min(|| {
        store.save(&array, 1, &tracker).unwrap();
    }));
    let restore_ns = ns(time_min(|| store.restore::<f64>(&tracker).unwrap()));
    let restore_redist_ns = ns(time_min(|| {
        store
            .restore_into::<f64, _>(&live_dist, &tracker, &cache, &SerialExecutor)
            .unwrap()
    }));
    // The I/O floor of a durable save: the same bytes written and synced.
    let generation = std::fs::read(&store.generation_paths()[0]).unwrap();
    let raw_path = dir.join("raw-write.bin");
    let raw_sync_ns = ns(time_min(|| {
        let mut file = std::fs::File::create(&raw_path).unwrap();
        file.write_all(&generation).unwrap();
        file.sync_all().unwrap();
    }));
    let save_over_raw_sync = save_ns / raw_sync_ns;

    println!("## 2 MB f64 payload, BLOCK over {PROCS} ranks\n");
    println!("| operation | time |");
    println!("|---|---|");
    println!("| save | {:.0} us |", save_ns / 1e3);
    println!("| restore (same layout) | {:.0} us |", restore_ns / 1e3);
    println!(
        "| restore + redistribute (BLOCK -> INDIRECT) | {:.0} us |",
        restore_redist_ns / 1e3
    );
    println!(
        "| raw write + sync_all (reference) | {:.0} us |",
        raw_sync_ns / 1e3
    );
    println!("\nsave / (raw write + sync_all) = {save_over_raw_sync:.2}x (reported, not guarded)");

    let payload = N * 8;
    let mut report = vf_bench::json::BenchReport::new();
    report.record("ckpt_save_2mb_block", save_ns, 0, written);
    report.record("ckpt_restore_2mb_same", restore_ns, 0, read_same);
    report.record(
        "ckpt_restore_2mb_redistribute",
        restore_redist_ns,
        plan.num_messages(),
        plan_bytes,
    );
    report.record("raw_write_sync_2mb", raw_sync_ns, 0, generation.len());
    report
        .entry("save_vs_raw")
        .ratio("save_over_raw_sync", save_over_raw_sync);
    report
        .entry("byte_ledger")
        .int("payload_bytes", payload)
        .int("ckpt_bytes_written", written)
        .int("ckpt_bytes_read", read_same)
        .int("redistribute_plan_bytes", plan_bytes)
        .ratio("write_overhead", written as f64 / payload as f64);
    report.write("BENCH_e13.json", "VF_E13_BENCH_JSON");

    if std::env::var_os("VF_E13_SKIP_GUARD").is_some() {
        println!("\nguard skipped (VF_E13_SKIP_GUARD set)");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let limit = (payload as f64 * 1.1) as usize + MANIFEST_ALLOWANCE;
    if written > limit || read_same > limit {
        eprintln!(
            "FAIL: checkpoint I/O exceeds 1.1x payload + manifest allowance: \
             wrote {written}, read {read_same}, limit {limit}"
        );
        std::process::exit(1);
    }
    println!(
        "\nguard ok: {written} bytes written / {read_same} read against a {limit}-byte bound \
         ({:.3}x payload)",
        written as f64 / payload as f64
    );
    let _ = std::fs::remove_dir_all(&dir);
}
