//! Differential tests for the persistent SPMD worker pool and the
//! wire-layout fused executors: pooled dispatch must be **bitwise
//! indistinguishable** from serial execution across every communication
//! path (values, reports and tracker snapshots), the wire-packed fused
//! executors must match the unfused per-array oracle exactly (identical
//! buffers, the same bytes in one message per pair), one pool must be
//! reused across repeated `DISTRIBUTE` statements, and a panicking worker
//! must leave the pool usable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use vf_core::prelude::*;
use vf_integration::{dist_1d, dist_2d, locals_of, zero_machine};
use vf_runtime::ghost::{
    exchange_ghosts_cached_with, exchange_ghosts_fused_planned_wire_with,
    exchange_ghosts_planned_with,
};
use vf_runtime::parti::{execute_gather_with, execute_scatter_with, inspector};
use vf_runtime::plan::plan_redistribute;

/// The two executors every path is run under: the serial baseline and the
/// pooled threaded backend, the latter forced onto the parallel path
/// (cutoff 0) with more workers than this host may have cores.
fn executors() -> (SerialExecutor, ThreadedExecutor, Arc<WorkerPool>) {
    let pool = Arc::new(WorkerPool::new(3));
    (
        SerialExecutor,
        ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0),
        pool,
    )
}

fn tracker(p: usize) -> CommTracker {
    CommTracker::new(p, CostModel::from_alpha_beta(1.0, 0.25))
}

#[test]
fn pooled_spawn_serial_identical_for_redistribute() {
    let n = 256usize;
    let p = 4usize;
    let (serial, pooled, pool) = executors();
    let from = dist_1d(DistType::cyclic1d(3), n, p);
    let to = dist_1d(DistType::gen_block1d(vec![13, 101, 80, 62]), n, p);
    let run = |executor: &dyn Fn(&mut DistArray<f64>, &CommTracker) -> RedistReport| {
        let mut a = DistArray::from_fn("A", from.clone(), |pt| (pt.coord(0) as f64).sin());
        let t = tracker(p);
        let report = executor(&mut a, &t);
        (a.to_dense(), report, t.snapshot())
    };
    let base = run(&|a, t| {
        redistribute_with(a, to.clone(), t, &RedistOptions::default(), &serial).unwrap()
    });
    let pooled_r = run(&|a, t| {
        redistribute_with(a, to.clone(), t, &RedistOptions::default(), &pooled).unwrap()
    });
    assert_eq!(base, pooled_r, "pooled differs from serial");
    assert!(pool.jobs_dispatched() > 0, "the pooled run used the pool");
}

#[test]
fn pooled_spawn_serial_identical_for_ghost_exchange() {
    let n = 16usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let dist = dist_2d(DistType::blocks2d(), n, n, p);
    let a = DistArray::from_fn("U", dist, |pt| (pt.coord(0) * 100 + pt.coord(1)) as f64);
    let widths = [(1, 1), (1, 1)];
    let run = |e: &dyn PlanExecutor2| {
        let t = tracker(p);
        let cache = PlanCache::new();
        let (g, rep) = e.ghost(&a, &widths, &cache, &t);
        (ghost_values(&a, &g), rep, t.snapshot())
    };
    let base = run(&serial);
    assert_eq!(base, run(&pooled), "pooled ghost exchange differs");
}

/// Flattens every processor's view of every ghost point for comparison.
fn ghost_values(a: &DistArray<f64>, g: &vf_runtime::ghost::GhostRegion<f64>) -> Vec<Option<f64>> {
    let mut out = Vec::new();
    for proc in a.dist().proc_ids() {
        for point in a.domain().iter() {
            out.push(g.get(*proc, &point));
        }
    }
    out
}

#[test]
fn pooled_spawn_serial_identical_for_gather_and_assign() {
    let n = 128usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let dist = dist_1d(DistType::cyclic1d(1), n, p);
    let a = DistArray::from_fn("X", dist.clone(), |pt| pt.coord(0) as f64 * 0.5);
    // Every processor reads a strided window of remote elements.
    let accesses: Vec<(ProcId, Point)> = (0..n)
        .map(|i| (ProcId((i * 7) % p), Point::d1((i % n) as i64 + 1)))
        .collect();
    let schedule = inspector(a.dist(), &accesses).unwrap();
    let gather_under = |e: &dyn PlanExecutor2| {
        let t = tracker(p);
        let g = e.gather(&a, &schedule, &t);
        let mut vals = Vec::new();
        for (q, pt) in &accesses {
            vals.push(g.get(*q, a.dist(), pt));
        }
        (vals, t.snapshot())
    };
    let base = gather_under(&serial);
    assert_eq!(base, gather_under(&pooled), "pooled gather differs");

    // Assignment between different layouts.
    let rows = dist_2d(DistType::rows(), 32, 32, p);
    let cols = dist_2d(DistType::columns(), 32, 32, p);
    let src = DistArray::from_fn("S", cols, |pt| (pt.coord(0) * 31 + pt.coord(1)) as f64);
    let assign_under = |e: &dyn PlanExecutor2| {
        let mut dst: DistArray<f64> = DistArray::new("D", rows.clone());
        let t = tracker(p);
        let rep = e.assign(&mut dst, &src, &t);
        (dst.to_dense(), rep, t.snapshot())
    };
    let base = assign_under(&serial);
    assert_eq!(base, assign_under(&pooled), "pooled assign differs");
}

/// Object-safe adapter so the same closure body can run under both
/// backends (the `PlanExecutor` trait itself has generic methods).
trait PlanExecutor2 {
    fn gather(
        &self,
        a: &DistArray<f64>,
        s: &vf_runtime::parti::CommSchedule,
        t: &CommTracker,
    ) -> vf_runtime::parti::GatherResult<f64>;
    fn assign(
        &self,
        dst: &mut DistArray<f64>,
        src: &DistArray<f64>,
        t: &CommTracker,
    ) -> vf_runtime::assign::AssignReport;
    fn ghost(
        &self,
        a: &DistArray<f64>,
        widths: &[(usize, usize)],
        cache: &PlanCache,
        t: &CommTracker,
    ) -> (
        vf_runtime::ghost::GhostRegion<f64>,
        vf_runtime::ghost::GhostReport,
    );
}

impl<E: PlanExecutor> PlanExecutor2 for E {
    fn gather(
        &self,
        a: &DistArray<f64>,
        s: &vf_runtime::parti::CommSchedule,
        t: &CommTracker,
    ) -> vf_runtime::parti::GatherResult<f64> {
        execute_gather_with(a, s, t, self).unwrap()
    }
    fn assign(
        &self,
        dst: &mut DistArray<f64>,
        src: &DistArray<f64>,
        t: &CommTracker,
    ) -> vf_runtime::assign::AssignReport {
        vf_runtime::assign::assign_with(dst, src, t, self).unwrap()
    }
    fn ghost(
        &self,
        a: &DistArray<f64>,
        widths: &[(usize, usize)],
        cache: &PlanCache,
        t: &CommTracker,
    ) -> (
        vf_runtime::ghost::GhostRegion<f64>,
        vf_runtime::ghost::GhostReport,
    ) {
        exchange_ghosts_cached_with(a, widths, t, cache, self).unwrap()
    }
}

#[test]
fn pooled_scatter_matches_serial_with_order_sensitive_combine() {
    let n = 96usize;
    let p = 4usize;
    let (_, pooled, _pool) = executors();
    let dist = dist_1d(DistType::cyclic1d(2), n, p);
    let combine = |a: f64, b: f64| a * 0.5 + b; // neither commutative nor associative
    let updates: Vec<(ProcId, Point, f64)> = (0..3 * n)
        .map(|k| {
            (
                ProcId(k % p),
                Point::d1((k % n) as i64 + 1),
                (k as f64).cos(),
            )
        })
        .collect();
    let mut serial_arr = DistArray::from_fn("S", dist.clone(), |pt| pt.coord(0) as f64);
    let t1 = tracker(p);
    let m1 = vf_runtime::parti::execute_scatter(&mut serial_arr, &updates, &t1, combine).unwrap();
    let mut pooled_arr = DistArray::from_fn("S", dist, |pt| pt.coord(0) as f64);
    let t2 = tracker(p);
    let m2 = execute_scatter_with(&mut pooled_arr, &updates, &t2, &pooled, combine).unwrap();
    assert_eq!(m1, m2);
    assert_eq!(serial_arr.to_dense(), pooled_arr.to_dense());
    assert_eq!(t1.snapshot(), t2.snapshot());
}

#[test]
fn wire_packed_fused_ghost_matches_per_part_with_identical_traffic() {
    let n = 12usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let dist = dist_2d(DistType::blocks2d(), n, n, p);
    let a = DistArray::from_fn("A", dist.clone(), |pt| {
        (pt.coord(0) * 17 + pt.coord(1)) as f64
    });
    let b = DistArray::from_fn("B", dist.clone(), |pt| -(pt.coord(1) as f64) * 3.0);
    let c = DistArray::from_fn("C", dist.clone(), |pt| (pt.coord(0) + pt.coord(1)) as f64);
    let widths = [(1, 1), (1, 1)];
    let cache = PlanCache::new();
    let plan = cache.ghost_plan(&dist, &widths).unwrap();
    let fused = FusedPlan::fuse(vec![
        Arc::clone(&plan),
        Arc::clone(&plan),
        Arc::clone(&plan),
    ])
    .unwrap();
    let arrays = [&a, &b, &c];

    // The unfused per-array oracle: each array exchanged on its own part.
    let t_parts = tracker(p);
    let mut per_part = Vec::new();
    let mut part_messages = 0usize;
    let mut part_bytes = 0usize;
    for (array, part) in arrays.iter().zip(fused.parts()) {
        let (region, report) =
            exchange_ghosts_planned_with(array, part, &t_parts, &serial).unwrap();
        part_messages += report.messages;
        part_bytes += report.bytes;
        per_part.push(region);
    }
    let mut snapshots = Vec::new();
    for (name, executor) in [
        ("serial", &serial as &dyn WireGhost),
        ("pooled", &pooled as &dyn WireGhost),
    ] {
        let t_wire = tracker(p);
        let (wire, exec_wire) = executor.wire(&arrays, &fused, &t_wire);
        // Exactly one message per communicating pair for the class, bytes
        // conserved against the per-array exchanges, and the tracker saw
        // exactly that.
        assert_eq!(exec_wire.messages, fused.num_messages(), "{name}");
        assert_eq!(3 * exec_wire.messages, part_messages, "{name}");
        assert_eq!(exec_wire.bytes, fused.bytes_for(8), "{name}");
        assert_eq!(exec_wire.bytes, part_bytes, "{name}");
        let stats = t_wire.snapshot();
        assert_eq!(stats.total_messages(), exec_wire.messages, "{name}");
        assert_eq!(stats.total_bytes(), t_parts.snapshot().total_bytes());
        snapshots.push(stats);
        // Region values are the per-array execution bitwise.
        for (idx, array) in arrays.iter().enumerate() {
            for proc in array.dist().proc_ids() {
                for point in array.domain().iter() {
                    assert_eq!(
                        per_part[idx].get(*proc, &point),
                        wire[idx].get(*proc, &point),
                        "{name}: array {idx} at {point:?} on {proc:?}"
                    );
                }
            }
        }
    }
    assert_eq!(snapshots[0], snapshots[1], "serial and pooled charge alike");
}

/// Object-safe adapter for the wire ghost exchange under both backends.
trait WireGhost {
    fn wire(
        &self,
        arrays: &[&DistArray<f64>; 3],
        fused: &FusedPlan,
        t: &CommTracker,
    ) -> (Vec<vf_runtime::ghost::GhostRegion<f64>>, ExecReport);
}

impl<E: PlanExecutor> WireGhost for E {
    fn wire(
        &self,
        arrays: &[&DistArray<f64>; 3],
        fused: &FusedPlan,
        t: &CommTracker,
    ) -> (Vec<vf_runtime::ghost::GhostRegion<f64>>, ExecReport) {
        exchange_ghosts_fused_planned_wire_with(&arrays[..], fused, t, self).unwrap()
    }
}

#[test]
fn wire_packed_fused_redistribute_matches_per_part() {
    let n = 64usize;
    let p = 4usize;
    let (serial, pooled, _pool) = executors();
    let from = dist_1d(DistType::block1d(), n, p);
    let to = dist_1d(DistType::cyclic1d(1), n, p);
    let plan = Arc::new(plan_redistribute(&from, &to).unwrap());
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan), Arc::clone(&plan)]).unwrap();
    let build = || {
        (
            DistArray::from_fn("A", from.clone(), |pt| pt.coord(0) as f64),
            DistArray::from_fn("B", from.clone(), |pt| (pt.coord(0) as f64).powi(2)),
        )
    };
    // The unfused per-array oracle.
    let (mut a1, mut b1) = build();
    let t1 = tracker(p);
    let r1: Vec<RedistReport> = [&mut a1, &mut b1]
        .into_iter()
        .map(|a| {
            vf_runtime::execute_redistribute_with(a, &plan, &t1, &RedistOptions::default(), &serial)
                .unwrap()
        })
        .collect();
    let (mut a2, mut b2) = build();
    let t2 = tracker(p);
    let (r2, e2) =
        execute_redistribute_fused_wire(&mut [&mut a2, &mut b2], &fused, &t2, &pooled).unwrap();
    assert_eq!(locals_of(&a1), locals_of(&a2));
    assert_eq!(locals_of(&b1), locals_of(&b2));
    assert_eq!(a1.to_dense(), a2.to_dense());
    assert_eq!(b1.to_dense(), b2.to_dense());
    assert_eq!(r1, r2);
    // One message per pair for the pair of arrays, the same bytes.
    assert_eq!(e2.messages, fused.num_messages());
    assert_eq!(
        2 * e2.messages,
        r1.iter().map(|r| r.messages).sum::<usize>()
    );
    assert_eq!(e2.bytes, r1.iter().map(|r| r.bytes).sum::<usize>());
    assert_eq!(t1.snapshot().total_bytes(), t2.snapshot().total_bytes());
    assert_eq!(t2.snapshot().total_messages(), e2.messages);
}

#[test]
fn scope_reuses_one_pool_across_repeated_distributes() {
    let p = 4usize;
    let pool = Arc::new(WorkerPool::new(3));
    let mut scope: VfScope<f64> = VfScope::new(zero_machine(p));
    scope.set_executor(ExecBackend::Threaded(
        ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0),
    ));
    let held = Arc::clone(scope.worker_pool().expect("threaded backend has a pool"));
    assert!(
        Arc::ptr_eq(&held, &pool),
        "the scope holds the pool it was given"
    );

    scope
        .declare_dynamic(DynamicDecl::new("B", IndexDomain::d1(64)).initial(DistType::block1d()))
        .unwrap();
    scope
        .declare_secondary(SecondaryDecl::extraction("A", IndexDomain::d1(64), "B"))
        .unwrap();
    for i in 1..=64i64 {
        scope
            .array_mut("B")
            .unwrap()
            .set(&Point::d1(i), i as f64)
            .unwrap();
        scope
            .array_mut("A")
            .unwrap()
            .set(&Point::d1(i), -(i as f64))
            .unwrap();
    }
    let mut dispatched = pool.jobs_dispatched();
    for (round, t) in [
        DistType::cyclic1d(1),
        DistType::block1d(),
        DistType::cyclic1d(2),
    ]
    .into_iter()
    .enumerate()
    {
        scope.distribute(DistributeStmt::new("B", t)).unwrap();
        let now = pool.jobs_dispatched();
        assert!(
            now > dispatched,
            "round {round}: DISTRIBUTE did not dispatch to the persistent pool"
        );
        dispatched = now;
        // Same pool instance throughout — no respawn between statements.
        assert!(Arc::ptr_eq(
            scope.worker_pool().expect("still threaded"),
            &pool
        ));
    }
    // Values survived every pooled round trip.
    for i in 1..=64i64 {
        assert_eq!(
            scope.array("B").unwrap().get(&Point::d1(i)).unwrap(),
            i as f64
        );
        assert_eq!(
            scope.array("A").unwrap().get(&Point::d1(i)).unwrap(),
            -(i as f64)
        );
    }
}

#[test]
fn worker_panic_leaves_the_pool_usable_for_executors() {
    let p = 4usize;
    let pool = Arc::new(WorkerPool::new(2));
    // Inject a panic into one pool worker's job.
    let t = CommTracker::new(p, CostModel::zero());
    let boom = catch_unwind(AssertUnwindSafe(|| {
        pool.run_partitioned(&t, 2, |_, item| {
            assert!(item != 1, "injected worker failure");
            item
        })
    }));
    assert!(
        boom.is_err(),
        "the worker panic propagates to the submitter"
    );

    // The same pool then executes a real plan correctly.
    let pooled = ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0);
    let from = dist_1d(DistType::block1d(), 64, p);
    let to = dist_1d(DistType::cyclic1d(1), 64, p);
    let mut a = DistArray::from_fn("A", from, |pt| pt.coord(0) as f64);
    let expect = a.to_dense();
    let tr = tracker(p);
    redistribute_with(&mut a, to, &tr, &RedistOptions::default(), &pooled).unwrap();
    assert_eq!(a.to_dense(), expect, "data intact after the poisoned job");
}

#[test]
fn worker_panic_leaves_the_pool_usable_for_streaming_split_phase() {
    // Panic containment extended to the streaming unpack path: after a
    // poisoned job, the same pool must still stream a split-phase ghost
    // exchange to completion — bitwise equal to the blocking wire path,
    // with no array left partially unpacked and identical tracker charges.
    let n = 16usize;
    let p = 4usize;
    let pool = Arc::new(WorkerPool::new(3));
    let t0 = CommTracker::new(p, CostModel::zero());
    let boom = catch_unwind(AssertUnwindSafe(|| {
        pool.run_partitioned(&t0, 3, |_, item| {
            assert!(item != 2, "injected worker failure");
            item
        })
    }));
    assert!(
        boom.is_err(),
        "the worker panic propagates to the submitter"
    );

    let dist = dist_2d(DistType::blocks2d(), n, n, p);
    let arrays: Vec<DistArray<f64>> = (0..2)
        .map(|k| {
            DistArray::from_fn("P", dist.clone(), |pt| {
                (pt.coord(0) * 100 + pt.coord(1)) as f64 * (k + 1) as f64
            })
        })
        .collect();
    let refs: Vec<&DistArray<f64>> = arrays.iter().collect();
    let widths = [(1, 1), (1, 1)];

    let t_block = tracker(p);
    let (blocking, _) =
        vf_runtime::ghost::exchange_ghosts_fused_wire(&refs, &widths, &t_block, &PlanCache::new())
            .unwrap();

    let backend =
        ExecBackend::Threaded(ThreadedExecutor::with_pool(Arc::clone(&pool)).with_serial_cutoff(0));
    let t_split = tracker(p);
    let split = vf_runtime::ghost::exchange_ghosts_fused_wire_split(
        &refs,
        &widths,
        &t_split,
        &PlanCache::new(),
        &backend,
    )
    .unwrap();
    assert!(split.is_streaming(), "the poisoned pool still streams");
    let (regions, _) = split.wait(&t_split).unwrap();
    for (k, array) in arrays.iter().enumerate() {
        for proc in array.dist().proc_ids() {
            for point in array.domain().iter() {
                assert_eq!(
                    regions[k].get(*proc, &point),
                    blocking[k].get(*proc, &point),
                    "array {k} at {point:?} on {proc:?}"
                );
            }
        }
    }
    assert_eq!(t_split.snapshot().per_proc(), t_block.snapshot().per_proc());
}

#[test]
fn zero_width_halo_posts_no_messages_through_the_wire_path() {
    let p = 4usize;
    let (_, pooled, _pool) = executors();
    let dist = dist_2d(DistType::columns(), 8, 8, p);
    let a = DistArray::from_fn("Z", dist.clone(), |pt| pt.coord(0) as f64);
    let cache = PlanCache::new();
    let plan = cache.ghost_plan(&dist, &[(0, 0), (0, 0)]).unwrap();
    let fused = FusedPlan::fuse(vec![Arc::clone(&plan), plan]).unwrap();
    let t = tracker(p);
    let (regions, exec) =
        exchange_ghosts_fused_planned_wire_with(&[&a, &a], &fused, &t, &pooled).unwrap();
    assert_eq!(exec.messages, 0);
    assert_eq!(exec.bytes, 0);
    assert_eq!(
        t.snapshot().total_messages(),
        0,
        "no zero-byte messages posted"
    );
    for r in &regions {
        for proc in a.dist().proc_ids() {
            assert!(r.is_empty(*proc));
        }
    }
}
