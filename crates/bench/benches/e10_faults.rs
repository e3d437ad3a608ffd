//! E10 — fault injection: checksum-framing overhead and chaos recovery.
//!
//! Two questions about the self-healing wire stack:
//!
//! 1. **What does framing cost when nothing fails?**  Every fused wire
//!    buffer carries a frame (sequence number, length, checksum); the
//!    checksum is the frame's only per-byte cost.  On the fault-free e8
//!    wire fixture (a 4-field stencil class, (:, BLOCK) over a 128x2048
//!    grid, 1-column halo faces) the framed exchange is timed, and so is
//!    [`wire_checksum`] over wires of exactly the exchange's per-pair
//!    sizes — the checksum's share of the rest of the exchange,
//!    `checksum / (framed − checksum)`, must stay **≤ 5%** (CI guard).
//! 2. **What does recovery cost when everything fails?**  The same fixture
//!    runs under a seeded all-kinds fault schedule (transient sends,
//!    delayed deliveries, corrupted wires, worker deaths, cancelled
//!    handles) through both the blocking and the split-phase streaming
//!    paths; the results must stay bitwise equal to the fault-free run and
//!    the tracker's fault counters must match the injector's record.
//!
//! Custom harness (no criterion): the run doubles as the CI overhead
//! guard and emits `BENCH_e10.json` (`VF_E10_BENCH_JSON` overrides the
//! path).  `VF_E10_SKIP_GUARD=1` skips the timing guard on hosts too noisy
//! to time 5% reliably; the bitwise-recovery asserts always run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_machine::{FaultInjector, FaultPlan};
use vf_runtime::ghost::{exchange_ghosts_fused_wire_split, exchange_ghosts_fused_wire_with};
use vf_runtime::wire_checksum;

const PROCS: usize = 8;
const WORKERS: usize = 4;
const REPS: usize = 9;
const WIDTHS: [(usize, usize); 2] = [(0, 0), (1, 1)];

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

fn write_json(timings: (f64, f64, f64), traffic: (usize, usize), chaos: (usize, usize, usize)) {
    let (framed_ns, checksum_ns, ratio) = timings;
    let (messages, bytes) = traffic;
    let (faults, retries, fallbacks) = chaos;
    let mut report = vf_bench::json::BenchReport::new();
    report.record("wire_framed_256k", framed_ns, messages, bytes);
    report.record("wire_checksum_256k", checksum_ns, messages, bytes);
    report.entry("framing_overhead").ratio("ratio", ratio);
    report
        .entry("chaos")
        .int("faults_injected", faults)
        .int("retries", retries)
        .int("fallbacks", fallbacks)
        .flag("bitwise_equal", true);
    report.write("BENCH_e10.json", "VF_E10_BENCH_JSON");
}

fn main() {
    println!("# E10 — wire framing overhead and chaos recovery\n");
    // The e8 wire fixture.
    let fields = 4usize;
    let dist = Distribution::new(
        DistType::columns(),
        IndexDomain::d2(128, 2048),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let arrays: Vec<DistArray<f64>> = (0..fields)
        .map(|k| {
            DistArray::from_fn(format!("F{k}"), dist.clone(), |pt| {
                (pt.coord(0) * 7 + pt.coord(1) * 3 + k as i64) as f64
            })
        })
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let cache = PlanCache::new();
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);

    // 1. Fault-free framing overhead, measured through the pooled
    // executor exactly as e8 measures the wire path.
    let (clean_regions, exec) =
        exchange_ghosts_fused_wire_with(&refs, &WIDTHS, &tracker, &cache, &pooled).unwrap();
    // One wire per communicating pair, sized as the exchange packs it.
    let plan = cache.ghost_plan(&dist, &WIDTHS).unwrap();
    let fused = FusedPlan::fuse(vec![plan; fields]).unwrap();
    let wires: Vec<Vec<f64>> = (0..PROCS)
        .flat_map(|s| (0..PROCS).map(move |d| (s, d)))
        .map(|(s, d)| fused.wire_slices(s, d).iter().map(|sl| sl.elements).sum())
        .filter(|&len: &usize| len > 0)
        .map(|len| (0..len).map(|i| i as f64 * 0.5).collect())
        .collect();
    assert_eq!(wires.len(), exec.messages, "one wire per message");
    assert_eq!(
        wires.iter().map(Vec::len).sum::<usize>() * 8,
        exec.bytes,
        "the wires carry the exchange's bytes"
    );
    let measure = || {
        let framed = ns(time_min(|| {
            exchange_ghosts_fused_wire_with(&refs, &WIDTHS, &tracker, &cache, &pooled).unwrap()
        }));
        let checksum = ns(time_min(|| {
            wires
                .iter()
                .map(|w| wire_checksum(w))
                .fold(0u64, |a, c| a ^ c)
        }));
        (framed, checksum, checksum / (framed - checksum).max(1.0))
    };
    let (mut framed_ns, mut checksum_ns, mut ratio) = measure();
    println!("## framing overhead, fault-free e8 wire path\n");
    println!("| measured | time | share of the rest |");
    println!("|---|---|---|");
    println!("| framed exchange | {:.1} us | |", framed_ns / 1e3);
    println!(
        "| checksum of its wires | {:.1} us | {:.3} |",
        checksum_ns / 1e3,
        ratio
    );

    // 2. Chaos recovery on the same fixture: every fault kind, rate 1.0,
    // through the blocking and the split streaming paths.
    let plan = FaultPlan::new(0xE10).with_rate(1.0).with_max_faults(64);
    let inj = Arc::new(FaultInjector::new(plan));
    let chaos = CommTracker::new(PROCS, CostModel::zero()).with_fault_injector(Arc::clone(&inj));
    let backend =
        ExecBackend::Threaded(ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0));
    let verify = |regions: &[vf_runtime::ghost::GhostRegion<f64>], ctx: &str| {
        for (k, array) in arrays.iter().enumerate() {
            for proc in array.dist().proc_ids() {
                for point in array.domain().iter() {
                    assert_eq!(
                        regions[k].get(*proc, &point),
                        clean_regions[k].get(*proc, &point),
                        "{ctx}: array {k} diverged at {point:?} on {proc:?}"
                    );
                }
            }
        }
    };
    let (faulted, _) =
        exchange_ghosts_fused_wire_with(&refs, &WIDTHS, &chaos, &cache, &SerialExecutor).unwrap();
    verify(&faulted, "blocking under faults");
    let split = exchange_ghosts_fused_wire_split(&refs, &WIDTHS, &chaos, &cache, &backend).unwrap();
    let (faulted, _) = split.wait(&chaos).unwrap();
    verify(&faulted, "split streaming under faults");

    let stats = chaos.snapshot();
    assert_eq!(stats.faults_injected(), inj.faults_injected());
    assert_eq!(stats.retries(), inj.expected_retries());
    assert_eq!(stats.fallbacks(), inj.expected_fallbacks());
    println!("\n## chaos recovery, seeded all-kinds schedule\n");
    println!(
        "faults injected {}, retries {}, fallbacks {} — results bitwise equal, counters match",
        stats.faults_injected(),
        stats.retries(),
        stats.fallbacks()
    );

    write_json(
        (framed_ns, checksum_ns, ratio),
        (exec.messages, exec.bytes),
        (stats.faults_injected(), stats.retries(), stats.fallbacks()),
    );

    // CI guard: checksum framing must cost ≤ 5% on the fault-free path.
    // Re-measure before declaring a regression on a noisy shared runner.
    if std::env::var_os("VF_E10_SKIP_GUARD").is_some() {
        println!("\nguard skipped (VF_E10_SKIP_GUARD set)");
        return;
    }
    for _ in 0..3 {
        if ratio <= 0.05 {
            break;
        }
        (framed_ns, checksum_ns, ratio) = measure();
    }
    if ratio > 0.05 {
        eprintln!(
            "FAIL: wire framing costs {:.1}% on the fault-free wire path (limit 5%; \
             checksum {checksum_ns:.0} ns of a {framed_ns:.0} ns exchange)",
            ratio * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "\nguard ok: framing overhead {:.1}% (limit 5%)",
        ratio * 100.0
    );
}
