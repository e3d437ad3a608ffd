//! Per-layer probes of the traced run.  Each probe times the benchmark's
//! calls into one layer's public functions, at the size the workload that
//! stresses the layer uses, under a benchmark span named
//! `layer.function`.  Every probe also checks what it computed, so a
//! layer metric never comes from a wrong answer.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vf_apps::smoothing;
use vf_core::prelude::*;
use vf_machine::pool;
use vf_runtime::ghost::{exchange_ghosts_cached_with, get_with_ghosts};
use vf_runtime::plan::plan_redistribute;
use vf_runtime::{decode_slice, encode_slice};

use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{
    same_bits, value, Checkpoint, RedistSharded, RedistShared, Smooth, Workload, CLASS_N, PROCS,
    SMOOTH_N, SMOOTH_STEPS,
};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`layer.quantity`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Collects metrics and the probes' correctness failures.
#[derive(Default)]
pub struct Report {
    /// Metrics in reporting order.
    pub metrics: Vec<Metric>,
    /// Every probe check that failed.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed probe check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// The value of a metric already added.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not measured yet"))
            .value
    }
}

/// Median duration in ms of the spans named `name`.
fn median_ms(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations(name)) / 1e6
}

/// Repetitions of the probes around a single heavy call.
const REPS: usize = 5;

/// `host.seq_ref_ms`: the sequential smoothing reference at the `smooth`
/// size — the single-thread floor of that workload and a host-speed
/// reference reported with every run.
pub fn seq_ref_ms(tracer: &Tracer, smooth: &Smooth) -> f64 {
    let mut times = Vec::new();
    for _ in 0..21 {
        let start = Instant::now();
        {
            let _s = tracer.span("host.sequential_reference");
            black_box(smoothing::sequential_reference(
                SMOOTH_N,
                SMOOTH_STEPS,
                black_box(smooth.initial()),
            ));
        }
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Grid side of the host-speed kernel timed next to every op.
const HOST_KERNEL_N: usize = 256;

/// A fixed single-thread kernel (the sequential smoothing reference on a
/// 256² grid, under a millisecond) timed before every op of the timed
/// loop, so its median covers the same stretch of host time as the ops'.
/// The op's median over the kernel's median is the op's cost in host-speed
/// units: on a shared host whose speed drifts by half within minutes, it
/// moves with the program and far less with the host.
pub struct HostKernel {
    field: Vec<f64>,
}

impl HostKernel {
    /// The kernel's median wall time on the 2-core reference VM, in ms:
    /// the speed that set-up times are scaled to.
    pub const REFERENCE_MS: f64 = 0.4;

    /// The kernel's fixed input.
    pub fn new() -> Self {
        let n = HOST_KERNEL_N * HOST_KERNEL_N;
        HostKernel {
            field: (0..n).map(|i| value(0, 99, i as u64)).collect(),
        }
    }

    /// Runs the kernel once; returns its wall time in ms.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        black_box(smoothing::sequential_reference(
            HOST_KERNEL_N,
            SMOOTH_STEPS,
            black_box(&self.field),
        ));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// `checkpoint.raw_write_ms`: a plain `fs::write` of the newest checkpoint
/// generation's bytes into the store's directory — the I/O floor of a save
/// and a host-speed reference reported with every run.
pub fn raw_write_ms(tracer: &Tracer, ckpt: &Checkpoint) -> Result<f64, String> {
    let newest = ckpt
        .store()
        .generation_paths()
        .into_iter()
        .filter_map(|p| std::fs::metadata(&p).ok().map(|m| (m.modified().ok(), p)))
        .max()
        .ok_or("no checkpoint generation to copy")?
        .1;
    let bytes = std::fs::read(&newest).map_err(|e| e.to_string())?;
    let target = ckpt.store().dir().join("raw-write.bin");
    let mut times = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        {
            let _s = tracer.span("host.fs_write");
            std::fs::write(&target, &bytes).map_err(|e| e.to_string())?;
        }
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&target);
    Ok(median(&times))
}

/// Both host-speed references, each on a freshly built fixture.
pub fn host_reference(seed: u64, dir: &Path) -> Result<(f64, f64), String> {
    let tracer = Tracer::off();
    let smooth = Smooth::setup(seed, dir)?;
    let mut ckpt = Checkpoint::setup(seed, dir)?;
    let out = ckpt.op(&tracer)?;
    ckpt.check(&out)?;
    Ok((seq_ref_ms(&tracer, &smooth), raw_write_ms(&tracer, &ckpt)?))
}

/// Runs every probe under `tracer` (which must be on) and reports every
/// per-layer metric except the `trace.*` pair, which comes from the
/// workload's own traced loop.  `loop_hit_ratio` is the plan-cache hit
/// ratio of that loop, when the workload owns a cache; `smooth` builds its
/// cache inside `smoothing::run` and reports the ghost probe's instead.
pub fn probe_all(
    tracer: &Tracer,
    seed: u64,
    dir: &Path,
    loop_hit_ratio: Option<f64>,
    report: &mut Report,
) -> Result<(), String> {
    let ghost_hit_ratio = probe_smooth(tracer, seed, dir, report)?;
    report.add(
        "plan.hit_ratio",
        loop_hit_ratio.unwrap_or(ghost_hit_ratio),
        "ratio",
    );
    probe_plan(tracer, report)?;
    probe_redistribute(tracer, seed, report)?;
    probe_class(tracer, seed, dir, report)?;
    probe_pool(tracer, report);
    probe_shard(tracer, seed, dir, report)?;
    probe_element(tracer, report);
    probe_checkpoint(tracer, seed, dir, report)?;
    Ok(())
}

/// `apps`, `host`, `dist` and `ghost` on the `smooth` grid.  Returns the
/// hit ratio of the ghost probe's plan cache.
fn probe_smooth(
    tracer: &Tracer,
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<f64, String> {
    let mut smooth = Smooth::setup(seed, dir)?;
    // Ops: the program's InteriorCompute spans inside smoothing::run.
    tracer.set_program_tracing(true);
    for _ in 0..REPS {
        let out = smooth.op(tracer);
        tracer.absorb_program_spans();
        report.check("smooth op", out.and_then(|o| smooth.check(&o)));
    }
    tracer.set_program_tracing(false);
    let (interior_ns, _) = tracer.total("program.interior-compute");
    let (_, ops) = tracer.total("apps.smoothing_run");
    let interior_points = ops * (SMOOTH_STEPS * (SMOOTH_N - 2) * (SMOOTH_N - 2)) as u64;
    report.add(
        "apps.interior_ms",
        interior_ns as f64 / ops as f64 / 1e6,
        "ms",
    );
    report.add(
        "apps.ns_per_point",
        interior_ns as f64 / interior_points as f64,
        "ns",
    );
    report.add("host.seq_ref_ms", seq_ref_ms(tracer, &smooth), "ms");

    let machine = Machine::with_procs(PROCS);
    let dist = smoothing::grid_distribution(smooth.config().layout, SMOOTH_N, &machine);
    let points: Vec<Point> = dist.domain().iter().collect();
    let locator = dist.locator();
    for _ in 0..REPS {
        let _s = tracer.span_n("dist.locate", points.len() as u64);
        for pt in &points {
            black_box(locator.locate(black_box(pt)).map_err(|e| e.to_string())?);
        }
    }
    report.add("dist.locate_ns", tracer.ns_per_call("dist.locate"), "ns");
    for _ in 0..REPS {
        let _s = tracer.span_n("dist.local_points", PROCS as u64);
        for &p in dist.proc_ids() {
            black_box(dist.local_points(p));
        }
    }
    report.add(
        "dist.local_points_us",
        tracer.ns_per_call("dist.local_points") / 1e3,
        "us",
    );

    let array =
        DistArray::from_dense("U", dist.clone(), smooth.initial()).map_err(|e| e.to_string())?;
    let tracker = machine.tracker();
    let cache = PlanCache::new();
    let executor = ExecBackend::auto();
    let widths = [(1, 1), (1, 1)];
    let exchange = || {
        exchange_ghosts_cached_with(&array, &widths, &tracker, &cache, &executor)
            .map_err(|e| e.to_string())
    };
    let (ghosts, _) = exchange()?;
    for _ in 0..50 {
        let _s = tracer.span("ghost.exchange_ghosts_cached_with");
        black_box(exchange()?);
    }
    report.add(
        "ghost.exchange_us",
        median_ms(tracer, "ghost.exchange_ghosts_cached_with") * 1e3,
        "us",
    );
    // Every off-processor neighbour read of the interior stencil.
    let mut halo: Vec<(ProcId, Point)> = Vec::new();
    let n = SMOOTH_N as i64;
    for &p in dist.proc_ids() {
        for pt in dist.local_points(p) {
            let (i, j) = (pt.coord(0), pt.coord(1));
            if i == 1 || i == n || j == 1 || j == n {
                continue;
            }
            for q in [
                pt.offset(0, -1),
                pt.offset(0, 1),
                pt.offset(1, -1),
                pt.offset(1, 1),
            ] {
                if !dist.is_local(p, &q) {
                    halo.push((p, q));
                }
            }
        }
    }
    let mut got = Vec::with_capacity(halo.len());
    for rep in 0..REPS {
        let _s = tracer.span_n("ghost.get_with_ghosts", halo.len() as u64);
        for (p, q) in &halo {
            let v =
                get_with_ghosts(&array, &ghosts, *p, black_box(q)).map_err(|e| e.to_string())?;
            if rep == 0 {
                got.push(v);
            }
        }
    }
    let want: Vec<f64> = halo
        .iter()
        .map(|(_, q)| array.get(q).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    report.check("halo reads", same_bits("ghost values", &got, &want));
    report.add(
        "ghost.get_ns",
        tracer.ns_per_call("ghost.get_with_ghosts"),
        "ns",
    );
    let stats = cache.stats();
    Ok(stats.hits as f64 / (stats.hits + stats.misses) as f64)
}

fn class_dists() -> Result<(Distribution, Distribution), String> {
    let make = |t: DistType| {
        Distribution::new(
            t,
            IndexDomain::d2(CLASS_N, CLASS_N),
            ProcessorView::linear(PROCS),
        )
        .map_err(|e| e.to_string())
    };
    Ok((make(DistType::columns())?, make(DistType::rows())?))
}

/// `plan`: a cold cols → rows plan and a resident-pair cache hit at 1024².
fn probe_plan(tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let (cols, rows) = class_dists()?;
    let mut bytes = 0;
    for _ in 0..3 {
        let _s = tracer.span("plan.plan_redistribute");
        let plan = plan_redistribute(&cols, &rows).map_err(|e| e.to_string())?;
        bytes = plan.bytes_for(8);
        black_box(plan);
    }
    // cols → rows over 2 processors moves half of the array.
    let expect = CLASS_N * CLASS_N / 2 * 8;
    report.check(
        "cold plan",
        if bytes == expect {
            Ok(())
        } else {
            Err(format!("plans {bytes} bytes, expected {expect}"))
        },
    );
    report.add(
        "plan.redistribute_cold_ms",
        median_ms(tracer, "plan.plan_redistribute"),
        "ms",
    );

    let cache = PlanCache::new();
    cache
        .redistribute_plan(&cols, &rows)
        .map_err(|e| e.to_string())?;
    let lookups = 10_000;
    {
        let _s = tracer.span_n("plan.redistribute_plan", lookups);
        for _ in 0..lookups {
            black_box(
                cache
                    .redistribute_plan(black_box(&cols), &rows)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    report.add(
        "plan.hit_ns",
        tracer.ns_per_call("plan.redistribute_plan"),
        "ns",
    );
    Ok(())
}

/// `redistribute`: one 1024² array, cols ↔ rows, on the default backend
/// and on the serial executor.
fn probe_redistribute(tracer: &Tracer, seed: u64, report: &mut Report) -> Result<(), String> {
    let (cols, rows) = class_dists()?;
    let mut array = DistArray::from_fn("R", cols.clone(), |pt| {
        value(
            seed,
            11,
            (pt.coord(0) + pt.coord(1) * CLASS_N as i64) as u64,
        )
    });
    let initial: Vec<Vec<f64>> = (0..PROCS)
        .map(|p| array.local(ProcId(p)).to_vec())
        .collect();
    let name = "redistribute.redistribute_cached_with";
    let bytes = round_trips(tracer, name, &mut array, &rows, &cols, &ExecBackend::auto())?;
    round_trips(
        tracer,
        "redistribute.serial",
        &mut array,
        &rows,
        &cols,
        &SerialExecutor,
    )?;
    for (p, want) in initial.iter().enumerate() {
        report.check(
            "redistribute",
            same_bits("round trips", array.local(ProcId(p)), want),
        );
    }
    let (ns, _) = tracer.total(name);
    report.add("redistribute.ms", median_ms(tracer, name), "ms");
    report.add(
        "redistribute.serial_ms",
        median_ms(tracer, "redistribute.serial"),
        "ms",
    );
    report.add(
        "redistribute.gbps_computed",
        bytes as f64 / ns as f64,
        "GB/s",
    );
    Ok(())
}

/// Redistributes `array` there and back `REPS` times on `executor`, each
/// call under a span named `name`, after one untimed round trip that plans
/// both directions.  Returns the bytes the timed calls moved.
fn round_trips<E: PlanExecutor>(
    tracer: &Tracer,
    name: &'static str,
    array: &mut DistArray<f64>,
    there: &Distribution,
    back: &Distribution,
    executor: &E,
) -> Result<u64, String> {
    let tracker = Machine::with_procs(PROCS).tracker();
    let cache = PlanCache::new();
    let opts = RedistOptions::default();
    let mut bytes = 0;
    for rep in 0..=REPS {
        for target in [there, back] {
            let _s = (rep > 0).then(|| tracer.span(name));
            let r =
                redistribute_cached_with(array, target.clone(), &tracker, &opts, &cache, executor)
                    .map_err(|e| e.to_string())?;
            if rep > 0 {
                bytes += r.bytes as u64;
            }
        }
    }
    Ok(bytes)
}

/// `scope` and the class half of `ghost`: the `redist_shared` class on the
/// default backend.
fn probe_class(tracer: &Tracer, seed: u64, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mut class = RedistShared::setup(seed, dir)?;
    // The set-up op plans every pair the probe then replays.
    let warm = class.op(&Tracer::off())?;
    report.check("class op", class.check(&warm));
    let (mut bytes, mut messages) = (0, 0);
    for _ in 0..REPS {
        let out = class.op(tracer)?;
        report.check("class op", class.check(&out));
        bytes += out.statements.iter().map(|r| r.bytes()).sum::<usize>();
        messages += out.statements.iter().map(|r| r.messages()).sum::<usize>();
    }
    report.add("redistribute.bytes_per_op", (bytes / REPS) as f64, "bytes");
    report.add(
        "redistribute.messages_per_op",
        (messages / REPS) as f64,
        "count",
    );
    let distribute_ms = median_ms(tracer, "scope.distribute");
    report.add("scope.distribute_ms", distribute_ms, "ms");
    report.add(
        "scope.overhead_ms",
        distribute_ms - 3.0 * report.get("redistribute.ms"),
        "ms",
    );
    report.add(
        "ghost.class_exchange_us",
        median_ms(tracer, "scope.exchange_class_ghosts") * 1e3,
        "us",
    );
    Ok(())
}

/// `pool`: an empty job on the global worker pool.
fn probe_pool(tracer: &Tracer, report: &mut Report) {
    let pool = pool::global();
    let jobs = 2_000;
    {
        let _s = tracer.span_n("pool.run", jobs);
        for _ in 0..jobs {
            pool.run(&|rank| {
                black_box(rank);
            });
        }
    }
    report.add(
        "pool.dispatch_us",
        tracer.ns_per_call("pool.run") / 1e3,
        "us",
    );
}

/// `shard`, `spmd` and the channel counters of `redist_sharded`.
fn probe_shard(tracer: &Tracer, seed: u64, dir: &Path, report: &mut Report) -> Result<(), String> {
    let (cols, rows) = class_dists()?;
    let tracker = Machine::with_procs(PROCS).tracker();
    let cache = PlanCache::new();
    let exec = ShardedExecutor::new();
    let mut array = DistArray::from_fn("S", cols.clone(), |pt| {
        value(
            seed,
            13,
            (pt.coord(0) + pt.coord(1) * CLASS_N as i64) as u64,
        )
    });
    let initial: Vec<Vec<f64>> = (0..PROCS)
        .map(|p| array.local(ProcId(p)).to_vec())
        .collect();
    for rep in 0..=REPS {
        for target in [&rows, &cols] {
            // The first round trip plans; the rest are timed.
            let _s = (rep > 0).then(|| tracer.span("shard.redistribute_sharded"));
            redistribute_sharded(&mut array, target, &tracker, &cache, &exec)
                .map_err(|e| e.to_string())?;
        }
    }
    for (p, want) in initial.iter().enumerate() {
        report.check(
            "sharded round trip",
            same_bits("round trip", array.local(ProcId(p)), want),
        );
    }
    report.add(
        "shard.redistribute_ms",
        median_ms(tracer, "shard.redistribute_sharded"),
        "ms",
    );

    let mut target = DistArray::new("T", cols.clone());
    for _ in 0..REPS {
        let shards = {
            let _s = tracer.span("shard.scatter");
            ShardedArray::scatter(&array)
        };
        let _s = tracer.span("shard.gather_into");
        shards.gather_into(&mut target);
    }
    for (p, want) in initial.iter().enumerate() {
        report.check(
            "scatter/gather",
            same_bits("gathered", target.local(ProcId(p)), want),
        );
    }
    report.add("shard.scatter_ms", median_ms(tracer, "shard.scatter"), "ms");
    report.add(
        "shard.gather_ms",
        median_ms(tracer, "shard.gather_into"),
        "ms",
    );

    for _ in 0..50 {
        let _s = tracer.span("spmd.run_region");
        exec.run_region(PROCS, &tracker, |ctx| black_box(ctx.rank()));
    }
    report.add(
        "spmd.region_us",
        median_ms(tracer, "spmd.run_region") * 1e3,
        "us",
    );
    // Barriers are timed on rank 0 inside one region.
    let barriers = 1_000u32;
    let waits = exec.run_region(PROCS, &tracker, |ctx| {
        let start = Instant::now();
        for _ in 0..barriers {
            ctx.barrier();
        }
        start.elapsed()
    });
    tracer.record("spmd.barrier", waits[0], barriers.into());
    report.add(
        "spmd.barrier_us",
        tracer.ns_per_call("spmd.barrier") / 1e3,
        "us",
    );

    let mut class = RedistSharded::setup(seed, dir)?;
    let warm = class.op(&Tracer::off())?;
    report.check("sharded class op", class.check(&warm));
    let (mut channel_bytes, mut channel_msgs, mut model_bytes) = (0, 0, 0);
    for _ in 0..3 {
        let out = class.op(&Tracer::off())?;
        report.check("sharded class op", class.check(&out));
        channel_bytes += out.stats.channel_bytes();
        channel_msgs += out.stats.channel_messages();
        model_bytes += out.bytes();
    }
    report.add(
        "shard.channel_bytes_per_op",
        (channel_bytes / 3) as f64,
        "bytes",
    );
    report.add(
        "shard.channel_msgs_per_op",
        (channel_msgs / 3) as f64,
        "count",
    );
    report.add(
        "shard.channel_vs_model",
        channel_bytes as f64 / model_bytes as f64,
        "ratio",
    );
    Ok(())
}

/// `element`: the per-element wire codec on 1 MiB of f64.
fn probe_element(tracer: &Tracer, report: &mut Report) {
    let values: Vec<f64> = (0..(1 << 17)).map(|i| value(17, 0, i)).collect();
    let mb = (values.len() * 8) as f64 / 1e6;
    let mut decoded = Vec::new();
    for _ in 0..20 {
        let bytes = {
            let _s = tracer.span("element.encode_slice");
            encode_slice(black_box(&values))
        };
        let _s = tracer.span("element.decode_slice");
        decoded = decode_slice::<f64>(black_box(&bytes));
    }
    report.check("codec", same_bits("decoded", &decoded, &values));
    report.add(
        "element.encode_ms_per_mb",
        tracer.ns_per_call("element.encode_slice") / 1e6 / mb,
        "ms/MB",
    );
    report.add(
        "element.decode_ms_per_mb",
        tracer.ns_per_call("element.decode_slice") / 1e6 / mb,
        "ms/MB",
    );
}

/// `checkpoint`: save, same-layout restore, and redistribute-on-read of
/// the INDIRECT mesh array.  The redistribute leg is the difference of a
/// `restore_into` and the `restore` right after it, so both see the same
/// host speed.
fn probe_checkpoint(
    tracer: &Tracer,
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut ckpt = Checkpoint::setup(seed, dir)?;
    let warm = ckpt.op(&Tracer::off())?;
    report.check("checkpoint op", ckpt.check(&warm));
    let (mut written, mut on_read_ms) = (0, Vec::new());
    for _ in 0..2 * REPS - 1 {
        let out = ckpt.op(tracer)?;
        report.check("checkpoint op", ckpt.check(&out));
        written += out.stats.ckpt_bytes_written();
        let restored = {
            let _s = tracer.span("checkpoint.restore");
            ckpt.store()
                .restore::<f64>(ckpt.tracker())
                .map_err(|e| e.to_string())?
        };
        report.check(
            "same-layout restore",
            same_bits(
                "restored",
                &restored.array.to_dense(),
                &ckpt.array().to_dense(),
            ),
        );
        let last = |name| tracer.durations(name).last().copied().unwrap_or(0.0);
        on_read_ms.push((last("checkpoint.restore_into") - last("checkpoint.restore")) / 1e6);
    }
    report.add(
        "checkpoint.save_ms",
        median_ms(tracer, "checkpoint.save"),
        "ms",
    );
    report.add(
        "checkpoint.restore_ms",
        median_ms(tracer, "checkpoint.restore"),
        "ms",
    );
    report.add(
        "checkpoint.redistribute_on_read_ms",
        median(&on_read_ms),
        "ms",
    );
    let payload = ckpt.array().domain().size() * 8;
    let saves = tracer.durations("checkpoint.save").len();
    report.add(
        "checkpoint.write_ratio",
        written as f64 / (saves * payload) as f64,
        "ratio",
    );
    report.add(
        "checkpoint.raw_write_ms",
        raw_write_ms(tracer, &ckpt)?,
        "ms",
    );
    Ok(())
}
