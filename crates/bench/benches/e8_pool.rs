//! E8 — the persistent SPMD worker pool and the wire-buffer pack/unpack
//! executor.
//!
//! Three comparisons:
//!
//! 1. **dispatch latency**: executing a sub-cutoff plan through a
//!    bench-local fresh-spawn executor (a new `spmd::run` region per
//!    execute, destinations round-robin over its ranks) versus the
//!    persistent pool — the per-execute overhead the pool removes,
//! 2. **serial/pooled crossover sweep**: the same copy plan at growing
//!    sizes under the serial loop versus forced pooled dispatch — the
//!    measurement behind `ThreadedExecutor::DEFAULT_POOLED_CUTOFF_BYTES`,
//! 3. **wire-packed vs per-part fused ghost exchange** of a 4-field class
//!    on a 256k-element grid: one pool dispatch and one packed message per
//!    pair versus a bench-local per-part loop (one pooled `run_copies`
//!    dispatch per field, charging nothing) — with exact message/byte
//!    conservation asserted.
//!
//! Custom harness (no criterion) because the run doubles as two CI guards:
//! pooled dispatch must stay **≥ 10× faster** than the fresh-spawn baseline
//! at sub-cutoff plan sizes, and the wire-packed fused ghost exchange must
//! be **no slower** than the per-part loop at 256k elements — a regression
//! in either means the pool or the wire path silently stopped paying for
//! itself.  Set `VF_E8_SKIP_GUARD=1` to report without enforcing.
//!
//! Every measurement is also written to `BENCH_e8.json`
//! (`name → { ns_per_op, messages, bytes }`) so future changes can track
//! the perf trajectory machine-readably.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vf_core::prelude::*;
use vf_machine::pool::WorkerPool;
use vf_machine::spmd;
use vf_runtime::ghost::exchange_ghosts_fused_planned_wire_with;
use vf_runtime::{CommPlan, Transfer};

const PROCS: usize = 8;
const WORKERS: usize = 4;
const REPS: usize = 7;

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

/// The fresh-spawn dispatch baseline: every `run_copies` enters a new
/// `spmd::run` region of `workers` ranks (new OS threads, channels and a
/// barrier) and fills the destination buffers round-robin by destination
/// index — the harness setup a pool wake amortises away.
struct FreshSpawnExecutor {
    workers: usize,
}

impl PlanExecutor for FreshSpawnExecutor {
    fn name(&self) -> &'static str {
        "fresh-spawn"
    }

    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
    ) -> Vec<Vec<T>> {
        let items = dst_sizes.len();
        if items == 0 {
            return Vec::new();
        }
        let per_rank = spmd::run(self.workers.clamp(1, items), tracker, |ctx| {
            let mut out = Vec::new();
            let mut d = ctx.rank();
            while d < items {
                let mut buf = vec![T::default(); dst_sizes[d]];
                for t in transfers.iter().filter(|t| t.dst.0 == d) {
                    let from = &src[t.src.0];
                    for r in &t.runs {
                        buf[r.dst_start..r.dst_start + r.len]
                            .copy_from_slice(&from[r.src_start..r.src_start + r.len]);
                    }
                }
                out.push((d, buf));
                d += ctx.num_procs();
            }
            out
        });
        let mut bufs = vec![Vec::new(); items];
        for (d, buf) in per_rank.into_iter().flatten() {
            bufs[d] = buf;
        }
        bufs
    }
}

/// The per-part baseline: one pooled `run_copies` dispatch per field,
/// straight from that field's segments (`srcs[field]`) into its ghost
/// buffers.  It charges nothing, so it is never slower than a per-part
/// executor that also posts and settles the class's messages.
fn per_part_ghosts(
    fused: &FusedPlan,
    srcs: &[Vec<Vec<f64>>],
    ghost_sizes: &[Vec<usize>],
    tracker: &CommTracker,
    pooled: &ThreadedExecutor,
) -> Vec<Vec<Vec<f64>>> {
    fused
        .parts()
        .iter()
        .zip(srcs.iter().zip(ghost_sizes))
        .map(|(part, (src, sizes))| pooled.run_copies(part.transfers(), src, sizes, tracker))
        .collect()
}

/// One JSON record: `name → { ns_per_op, messages, bytes }`.
struct Record {
    name: &'static str,
    ns_per_op: f64,
    messages: usize,
    bytes: usize,
}

fn write_json(records: &[Record]) {
    let mut report = vf_bench::json::BenchReport::new();
    for r in records {
        report.record(r.name, r.ns_per_op, r.messages, r.bytes);
    }
    report.write("BENCH_e8.json", "VF_BENCH_JSON");
}

/// A shifted general-block repartition of `n` f64 elements, expressed as a
/// cached assignment `dst = src`: every pairwise overlap is one contiguous
/// run, the schedule is pre-planned into the cache, so each timed call is
/// exactly one executor pass over the runs — the dispatch cost plus the
/// memcpys, nothing else.
struct CopyFixture {
    src: DistArray<f64>,
    dst: DistArray<f64>,
    cache: PlanCache,
    plan: Arc<CommPlan>,
}

fn copy_fixture(n: usize) -> CopyFixture {
    let from = Distribution::new(
        DistType::block1d(),
        IndexDomain::d1(n),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let even = n / PROCS;
    let mut sizes = vec![even; PROCS];
    // Shift a half-share from each processor to its neighbour.
    for i in 0..PROCS - 1 {
        sizes[i] -= even / 2;
        sizes[i + 1] += even / 2;
    }
    sizes[PROCS - 1] += n - sizes.iter().sum::<usize>();
    let to = Distribution::new(
        DistType::gen_block1d(sizes),
        IndexDomain::d1(n),
        ProcessorView::linear(PROCS),
    )
    .unwrap();
    let cache = PlanCache::new();
    let plan = cache.redistribute_plan(&from, &to).unwrap();
    let src = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
    let dst: DistArray<f64> = DistArray::new("B", to);
    CopyFixture {
        src,
        dst,
        cache,
        plan,
    }
}

impl CopyFixture {
    fn run_ns<E: PlanExecutor>(&mut self, executor: &E, tracker: &CommTracker) -> f64 {
        let CopyFixture {
            src,
            dst,
            cache,
            plan: _,
        } = self;
        ns(time_min(|| {
            vf_runtime::assign::assign_cached_with(dst, src, tracker, cache, executor).unwrap()
        }))
    }
}

fn main() {
    println!("# E8 — persistent worker pool + wire-layout executor\n");
    let tracker = CommTracker::new(PROCS, CostModel::zero());
    let pool = Arc::new(WorkerPool::new(WORKERS));
    let spawn = FreshSpawnExecutor { workers: WORKERS };
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let mut records = Vec::new();

    // 1. Dispatch latency at sub-cutoff plan sizes.  The *dispatch
    // latency* of a harness is what executing through it costs beyond the
    // copies themselves, so each ratio subtracts the serial time of the
    // identical plan (the pure memcpy work) from both sides.
    println!("## dispatch latency, fresh-spawn vs pooled ({WORKERS} workers)\n");
    println!("| plan bytes | serial (work) | fresh-spawn | pooled | dispatch ratio |");
    println!("|---|---|---|---|---|");
    let dispatch_ratio = |fx: &mut CopyFixture, tracker: &CommTracker| {
        let t_serial = fx.run_ns(&SerialExecutor, tracker);
        let t_spawn = fx.run_ns(&spawn, tracker);
        let before = pool.jobs_dispatched();
        let t_pool = fx.run_ns(&pooled, tracker);
        // The denominator clamp below protects against division by ~zero;
        // this assert protects against the clamp masking a backend that
        // silently stopped dispatching to the pool at all.
        assert!(
            pool.jobs_dispatched() > before,
            "the pooled executor did not dispatch to the pool"
        );
        let ratio = (t_spawn - t_serial).max(1.0) / (t_pool - t_serial).max(1.0);
        (t_serial, t_spawn, t_pool, ratio)
    };
    let mut guard_ratio = 0.0f64;
    for (label, n) in [("16 KiB", 2048usize), ("64 KiB", 8192)] {
        let mut fx = copy_fixture(n);
        let bytes = fx.plan.bytes_for(8);
        let messages = fx.plan.num_messages();
        let (t_serial, t_spawn, t_pool, ratio) = dispatch_ratio(&mut fx, &tracker);
        println!("| {label} | {t_serial:.0} ns | {t_spawn:.0} ns | {t_pool:.0} ns | {ratio:.1}x |");
        if n == 2048 {
            guard_ratio = ratio;
        }
        records.push(Record {
            name: if n == 2048 {
                "dispatch_spawn_16k"
            } else {
                "dispatch_spawn_64k"
            },
            ns_per_op: t_spawn,
            messages,
            bytes,
        });
        records.push(Record {
            name: if n == 2048 {
                "dispatch_pooled_16k"
            } else {
                "dispatch_pooled_64k"
            },
            ns_per_op: t_pool,
            messages,
            bytes,
        });
    }

    // 2. Serial vs pooled crossover sweep (informs the pooled cutoff
    // default; the crossover depends on core count, so no guard).
    println!("\n## serial vs pooled copy crossover\n");
    println!("| plan bytes | serial | pooled | pooled/serial |");
    println!("|---|---|---|---|");
    for n in [2048usize, 8192, 32768, 131072] {
        let mut fx = copy_fixture(n);
        let t_serial = fx.run_ns(&SerialExecutor, &tracker);
        let t_pool = fx.run_ns(&pooled, &tracker);
        println!(
            "| {} KiB | {t_serial:.0} ns | {t_pool:.0} ns | {:.2} |",
            n * 8 / 1024,
            t_pool / t_serial
        );
        if n == 32768 {
            records.push(Record {
                name: "crossover_serial_256k",
                ns_per_op: t_serial,
                messages: fx.plan.num_messages(),
                bytes: fx.plan.bytes_for(8),
            });
            records.push(Record {
                name: "crossover_pooled_256k",
                ns_per_op: t_pool,
                messages: fx.plan.num_messages(),
                bytes: fx.plan.bytes_for(8),
            });
        }
    }

    // 3. Wire-packed vs per-part fused ghost exchange: a class of 4
    // stencil fields on a 2048x128 grid (256k elements), row layout so the
    // per-pair faces are compact and the class exchange is
    // dispatch-dominated — the case the wire path exists for: one pool
    // dispatch and one packed message per pair instead of one dispatch per
    // field.
    let fields = 4usize;
    // (:, BLOCK) over a 128x2048 grid: each halo face is one whole
    // neighbour column — a single contiguous run of 128 elements — so the
    // comparison isolates the wire path's dispatch saving rather than
    // per-run walking overhead.
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
    let widths = [(0, 0), (1, 1)];
    let plan = cache.ghost_plan(&dist, &widths).unwrap();
    let fused = FusedPlan::fuse(vec![plan; fields]).unwrap();
    println!(
        "\n## fused class ghost exchange, per-part vs wire-packed ({} elements, {fields} fields)\n",
        dist.domain().size()
    );
    let (r_wire, exec_wire) =
        exchange_ghosts_fused_planned_wire_with(&refs, &fused, &tracker, &pooled).unwrap();
    // The per-part loop reads plain per-field segment copies and fills
    // buffers sized like the wire path's ghost regions.
    let srcs: Vec<Vec<Vec<f64>>> = arrays
        .iter()
        .map(|a| (0..PROCS).map(|q| a.local(ProcId(q)).to_vec()).collect())
        .collect();
    let ghost_sizes: Vec<Vec<usize>> = r_wire
        .iter()
        .map(|r| (0..PROCS).map(|q| r.len(ProcId(q))).collect())
        .collect();
    let r_parts = per_part_ghosts(&fused, &srcs, &ghost_sizes, &tracker, &pooled);
    // Conservation is exact, not statistical: one message per communicating
    // pair, every moved byte charged once, identical ghost slot counts.
    assert_eq!(
        exec_wire.messages,
        fused.num_messages(),
        "wire path must charge exactly one message per communicating pair"
    );
    assert_eq!(exec_wire.bytes, fused.bytes_for(8), "bytes not conserved");
    for (a, b) in r_parts.iter().zip(&r_wire) {
        for proc in dist.proc_ids() {
            assert_eq!(a[proc.0].len(), b.len(*proc), "ghost slot counts differ");
        }
    }
    let t_parts = ns(time_min(|| {
        per_part_ghosts(&fused, &srcs, &ghost_sizes, &tracker, &pooled)
    }));
    let t_wire = ns(time_min(|| {
        exchange_ghosts_fused_planned_wire_with(&refs, &fused, &tracker, &pooled).unwrap()
    }));
    println!(
        "per-part: {t_parts:.0} ns/step; wire-packed: {t_wire:.0} ns/step ({:.2}x)",
        t_wire / t_parts
    );
    println!(
        "messages/step: {} (pairs: {}), bytes/step: {}",
        exec_wire.messages,
        fused.num_messages(),
        exec_wire.bytes
    );
    records.push(Record {
        name: "ghost_fused_per_part_256k",
        ns_per_op: t_parts,
        // The baseline copies the same bytes but charges no messages.
        messages: 0,
        bytes: fused.bytes_for(8),
    });
    records.push(Record {
        name: "ghost_fused_wire_256k",
        ns_per_op: t_wire,
        messages: exec_wire.messages,
        bytes: exec_wire.bytes,
    });

    write_json(&records);

    // CI guards.
    if std::env::var_os("VF_E8_SKIP_GUARD").is_some() {
        println!("\nguards skipped (VF_E8_SKIP_GUARD set)");
        return;
    }
    // Re-measure before declaring a regression on a noisy shared runner.
    let mut ratio = guard_ratio;
    for _ in 0..3 {
        if ratio >= 10.0 {
            break;
        }
        let mut fx = copy_fixture(2048);
        ratio = dispatch_ratio(&mut fx, &tracker).3;
    }
    if ratio < 10.0 {
        eprintln!(
            "FAIL: pooled dispatch latency is only {ratio:.1}x lower than the fresh-spawn baseline at 16 KiB (limit 10x)"
        );
        std::process::exit(1);
    }
    println!("\nguard ok: pooled dispatch latency {ratio:.0}x lower than fresh-spawn at sub-cutoff sizes (limit 10x)");

    let mut wire_ratio = t_wire / t_parts;
    for _ in 0..3 {
        if wire_ratio <= 1.0 {
            break;
        }
        let t_parts = ns(time_min(|| {
            per_part_ghosts(&fused, &srcs, &ghost_sizes, &tracker, &pooled)
        }));
        let t_wire = ns(time_min(|| {
            exchange_ghosts_fused_planned_wire_with(&refs, &fused, &tracker, &pooled).unwrap()
        }));
        wire_ratio = t_wire / t_parts;
    }
    if wire_ratio > 1.0 {
        eprintln!(
            "FAIL: wire-packed fused ghost exchange is {wire_ratio:.2}x the per-part time at 256k elements (must be no slower)"
        );
        std::process::exit(1);
    }
    println!(
        "guard ok: wire-packed fused ghost exchange no slower than per-part at 256k elements ({wire_ratio:.2}x)"
    );
}
