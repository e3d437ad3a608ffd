//! Checkpoint/restart suite: distribution-aware serialization must
//! round-trip bitwise under every distribution shape, redistribute-on-read
//! must be transparent, every corruption (torn write, flipped byte,
//! truncated segment) must be detected — falling back to the previous
//! generation, never returning damaged data — and the driver-level crash
//! recovery must reproduce a fault-free run bit-for-bit after an injected
//! rank death.
//!
//! Like the chaos suite, crash tests arm machines explicitly with
//! [`Machine::with_fault_plan`] (which overrides any `VF_FAULT_SEED` in
//! the environment), so the suite is deterministic both standalone and
//! under the CI chaos-restart job.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vf_apps::mesh::{
    run_sweep, run_sweep_with_restart, unstructured_mesh, MeshPartition, MeshSweepConfig,
};
use vf_apps::smoothing::{
    recover_and_resume_with, run_sharded, run_sharded_checkpointed_with, SmoothingConfig,
    SmoothingLayout,
};
use vf_apps::workloads;
use vf_core::prelude::*;
use vf_integration::{dist_1d, zero_machine};
use vf_machine::{FaultKind, FaultPlan};
use vf_runtime::checkpoint::file_hash;
use vf_runtime::RuntimeError;

static STORE_ID: AtomicUsize = AtomicUsize::new(0);

/// A unique, empty store directory per call (tests share one process).
fn fresh_store(tag: &str) -> CheckpointStore {
    let id = STORE_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("vf_ckpt_suite_{}_{tag}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir)
}

fn drop_store(store: &CheckpointStore) {
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A deterministic 1-D distribution of one of three shapes: `BLOCK`,
/// `CYCLIC(k)`, or `INDIRECT` with seed-derived owners.
fn make_dist(kind: usize, n: usize, p: usize, seed: u64) -> Distribution {
    let t = match kind % 3 {
        0 => DistType::block1d(),
        1 => DistType::cyclic1d((seed as usize % 3) + 1),
        _ => {
            let owners: Vec<usize> = (0..n)
                .map(|i| ((seed >> (i % 48)) as usize).wrapping_add(i * 7) % p)
                .collect();
            DistType::indirect1d(Arc::new(
                IndirectMap::new(owners).expect("owners are valid"),
            ))
        }
    };
    dist_1d(t, n, p)
}

fn payload(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64) * 0.7 + (seed % 1024) as f64 * 0.013).sin())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Save under a random distribution, restore both into the same
    /// distribution and into an independently random live one: bitwise in
    /// both directions, and every checkpoint byte written is read back.
    #[test]
    fn round_trips_bitwise_across_random_distributions(
        n in 8usize..48,
        p in 2usize..5,
        seed in 0u64..u64::MAX,
        file_kind in 0usize..3,
        live_kind in 0usize..3,
        step in 0u64..1000,
    ) {
        let data = payload(n, seed);
        let file_dist = make_dist(file_kind, n, p, seed);
        let live_dist = make_dist(live_kind, n, p, seed ^ 0x5DEECE66D);
        let tracker = CommTracker::new(p, CostModel::zero());
        let array = DistArray::from_dense("P", file_dist, &data).unwrap();
        let store = fresh_store("prop");
        store.save(&array, step, &tracker).unwrap();

        let same = store.restore::<f64>(&tracker).unwrap();
        prop_assert_eq!(same.step, step);
        prop_assert_eq!(same.array.to_dense(), data.clone());
        prop_assert!(same.array.dist().same_mapping(array.dist()));
        let stats = tracker.snapshot();
        prop_assert!(stats.ckpt_bytes_written() > 0);
        prop_assert_eq!(stats.ckpt_bytes_read(), stats.ckpt_bytes_written());

        let cache = PlanCache::new();
        let moved = store
            .restore_into::<f64, _>(&live_dist, &tracker, &cache, &SerialExecutor)
            .unwrap();
        prop_assert_eq!(moved.step, step);
        prop_assert!(moved.array.dist().same_mapping(&live_dist));
        prop_assert_eq!(moved.array.to_dense(), data);
        drop_store(&store);
    }

    /// Any single flipped byte or truncation of the newest generation is
    /// detected, and restore falls back to the intact previous generation
    /// bitwise — damaged data is never returned.
    #[test]
    fn corruption_is_detected_and_falls_back_a_generation(
        n in 8usize..40,
        p in 2usize..5,
        seed in 0u64..u64::MAX,
        kind in 0usize..3,
        damage_at in 0usize..1_000_000,
        flip in 1u8..255,
        truncate in (0usize..2).prop_map(|b| b == 1),
    ) {
        let dist = make_dist(kind, n, p, seed);
        let old_data = payload(n, seed);
        let new_data = payload(n, seed ^ 0xABCD);
        let tracker = CommTracker::new(p, CostModel::zero());
        let store = fresh_store("corrupt");
        let old = DistArray::from_dense("C", dist.clone(), &old_data).unwrap();
        store.save(&old, 1, &tracker).unwrap();
        let new = DistArray::from_dense("C", dist, &new_data).unwrap();
        let newest = store.save(&new, 2, &tracker).unwrap();

        let mut bytes = std::fs::read(&newest).unwrap();
        if truncate {
            bytes.truncate(damage_at % (bytes.len() - 1));
        } else {
            let at = damage_at % bytes.len();
            bytes[at] ^= flip;
        }
        std::fs::write(&newest, &bytes).unwrap();

        let restored = store.restore::<f64>(&tracker).unwrap();
        prop_assert_eq!(restored.step, 1, "fell back to the previous generation");
        prop_assert_eq!(restored.array.to_dense(), old_data);
        drop_store(&store);
    }
}

#[test]
fn corrupting_both_generations_reports_the_store() {
    let n = 16;
    let p = 2;
    let dist = make_dist(0, n, p, 3);
    let tracker = CommTracker::new(p, CostModel::zero());
    let store = fresh_store("both_bad");
    let array = DistArray::from_dense("B", dist, &payload(n, 3)).unwrap();
    store.save(&array, 1, &tracker).unwrap();
    store.save(&array, 2, &tracker).unwrap();
    for path in store.generation_paths() {
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
    }
    match store.restore::<f64>(&tracker) {
        Err(RuntimeError::CorruptCheckpoint { .. }) => {}
        other => panic!("expected CorruptCheckpoint for the whole store, got {other:?}"),
    }
    drop_store(&store);
}

/// Recomputes the trailer after a deliberate edit, so that only the checks
/// inside the file can catch it.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let trailer = file_hash(&bytes[..body]);
    bytes[body..].copy_from_slice(&trailer.to_le_bytes());
}

/// Byte offset of the first manifest field after the name: magic, step,
/// element width and name length are one word each.
fn after_name(name: &str) -> usize {
    4 * 8 + name.len()
}

/// Saves one generation of a 1-D array and returns its file's bytes.
fn saved_generation(store: &CheckpointStore, dist: Distribution, data: &[f64]) -> Vec<u8> {
    let tracker = CommTracker::new(dist.num_procs(), CostModel::zero());
    let array = DistArray::from_dense("H", dist, data).unwrap();
    let path = store.save(&array, 1, &tracker).unwrap();
    std::fs::read(path).unwrap()
}

/// Rewrites the store's only generation and expects its restore to fail
/// with a store-level `CorruptCheckpoint` whose reason contains `expect`.
fn assert_rejected(store: &CheckpointStore, bytes: &[u8], p: usize, expect: &str) {
    std::fs::write(&store.generation_paths()[0], bytes).unwrap();
    let tracker = CommTracker::new(p, CostModel::zero());
    match store.restore::<f64>(&tracker) {
        Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
            assert!(reason.contains(expect), "{expect:?} not in {reason:?}")
        }
        other => panic!("expected CorruptCheckpoint ({expect}), got {other:?}"),
    }
}

#[test]
fn a_flipped_payload_word_is_caught_by_its_segment_checksum() {
    let store = fresh_store("payload_word");
    let data = payload(16, 9);
    let mut bytes = saved_generation(&store, make_dist(0, 16, 2, 9), &data);
    let word = data[11].to_le_bytes();
    let at = bytes
        .windows(8)
        .position(|w| w == word)
        .expect("payload is stored");
    bytes[at..at + 8].copy_from_slice(&(-data[11]).to_le_bytes());
    reseal(&mut bytes);
    assert_rejected(&store, &bytes, 2, "fails its checksum");
    drop_store(&store);
}

#[test]
fn swapped_rank_segments_are_caught() {
    let store = fresh_store("segment_swap");
    // BLOCK 16 over 2: both segments hold 8 elements, so the lengths match
    // after the swap and only the rank-keyed checksums can tell.
    let mut bytes = saved_generation(&store, make_dist(0, 16, 2, 4), &payload(16, 4));
    let segment = 16 + 8 * 8;
    let second = bytes.len() - 8 - segment;
    let first = second - segment;
    let (head, tail) = bytes.split_at_mut(second);
    head[first..].swap_with_slice(&mut tail[..segment]);
    reseal(&mut bytes);
    assert_rejected(&store, &bytes, 2, "fails its checksum");
    drop_store(&store);
}

#[test]
fn a_version_one_file_is_a_bad_magic_error() {
    let store = fresh_store("v1_magic");
    let mut bytes = saved_generation(&store, make_dist(0, 16, 2, 1), &payload(16, 1));
    bytes[..8].copy_from_slice(b"VFCKPT01");
    reseal(&mut bytes);
    assert_rejected(&store, &bytes, 2, "bad magic");
    drop_store(&store);
}

/// An INDIRECT owner count of 2^31 must be refused from the bytes left in
/// the file, not attempted as a 16 GiB allocation.
#[test]
fn a_crafted_owner_count_is_refused_without_allocating() {
    let store = fresh_store("owner_count");
    let mut bytes = saved_generation(&store, make_dist(2, 16, 2, 5), &payload(16, 5));
    // rank, one (lower, upper) pair, nprocs, then the INDIRECT tag.
    let count_at = after_name("H") + 8 + 16 + 8 + 8;
    assert_eq!(bytes[count_at..count_at + 8], 16u64.to_le_bytes());
    bytes[count_at..count_at + 8].copy_from_slice(&(1u64 << 31).to_le_bytes());
    reseal(&mut bytes);
    assert_rejected(&store, &bytes, 2, "indirect map length");
    drop_store(&store);
}

/// A 2^60-element domain with a matching fingerprint must be refused by
/// the segment-length check before the array is allocated.
#[test]
fn a_crafted_domain_is_refused_before_allocating() {
    let store = fresh_store("huge_domain");
    let mut bytes = saved_generation(&store, make_dist(0, 16, 2, 6), &payload(16, 6));
    let upper_at = after_name("H") + 8 + 8;
    assert_eq!(bytes[upper_at..upper_at + 8], 16i64.to_le_bytes());
    let huge = 1usize << 60;
    bytes[upper_at..upper_at + 8].copy_from_slice(&(huge as i64).to_le_bytes());
    let fingerprint_at = upper_at + 8 + 8 + 8;
    let forged = dist_1d(DistType::block1d(), huge, 2).fingerprint();
    bytes[fingerprint_at..fingerprint_at + 8].copy_from_slice(&forged.to_le_bytes());
    reseal(&mut bytes);
    assert_rejected(&store, &bytes, 2, "rank 0 stores 8 elements");
    drop_store(&store);
}

/// A save that cannot rename into its slot reports the failure and leaves
/// no temporary file behind.
#[test]
fn a_failed_save_removes_its_temporary() {
    let store = fresh_store("blocked_slot");
    std::fs::create_dir_all(&store.generation_paths()[0]).unwrap();
    let tracker = CommTracker::new(2, CostModel::zero());
    let array = DistArray::from_dense("T", make_dist(0, 16, 2, 2), &payload(16, 2)).unwrap();
    match store.save(&array, 1, &tracker) {
        Err(RuntimeError::CorruptCheckpoint { .. }) => {}
        other => panic!("expected CorruptCheckpoint, got {other:?}"),
    }
    let leftovers: Vec<_> = std::fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(".tmp-"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temporaries left behind: {leftovers:?}"
    );
    assert_eq!(tracker.snapshot().ckpt_bytes_written(), 0);
    drop_store(&store);
}

/// An armed rank death makes the checkpointed sharded run fail with a
/// structured channel error — bounded by the receive timeout, no hang, no
/// panic.
#[test]
fn injected_rank_death_degrades_structured_and_bounded() {
    let n = 16;
    let initial = workloads::initial_grid(n, 5);
    let plan = FaultPlan::new(41)
        .with_rate(1.0)
        .with_kinds(&[FaultKind::RankDeath])
        .with_max_faults(1);
    let machine = zero_machine(4).with_fault_plan(plan);
    let store = fresh_store("degrade");
    let executor = ShardedExecutor::new().with_timeout(Duration::from_millis(500));
    let start = std::time::Instant::now();
    let result = run_sharded_checkpointed_with(
        &SmoothingConfig {
            n,
            steps: 4,
            layout: SmoothingLayout::Columns,
        },
        &machine,
        &initial,
        &store,
        2,
        &executor,
    );
    let elapsed = start.elapsed();
    match result {
        Err(RuntimeError::Channel(_)) => {}
        other => panic!("expected a structured channel failure, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(10),
        "failed region must return promptly, took {elapsed:?}"
    );
    drop_store(&store);
}

/// The full recovery ladder for the sharded smoothing kernel: a rank dies
/// mid-run, the driver restores the last good generation and resumes, and
/// the final field is bitwise identical to a fault-free run.
#[test]
fn smoothing_crash_recovery_is_bitwise_identical() {
    let n = 16;
    let steps = 8;
    let initial = workloads::initial_grid(n, 29);
    for layout in [SmoothingLayout::Columns, SmoothingLayout::Blocks2D] {
        let clean = run_sharded(
            &SmoothingConfig { n, steps, layout },
            &zero_machine(4),
            &initial,
        );
        let plan = FaultPlan::new(131)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::RankDeath])
            .with_max_faults(1);
        let machine = zero_machine(4).with_fault_plan(plan);
        let store = fresh_store("recover");
        let executor = ShardedExecutor::new().with_timeout(Duration::from_millis(500));
        let recovered = recover_and_resume_with(
            &SmoothingConfig { n, steps, layout },
            &machine,
            &initial,
            &store,
            3,
            4,
            &executor,
        )
        .expect("one injected rank death is recoverable");
        assert_eq!(
            recovered.restarts, 1,
            "{layout:?}: exactly one region crashed"
        );
        assert_eq!(
            recovered.result.field, clean.field,
            "{layout:?}: recovered field diverges from the fault-free run"
        );
        drop_store(&store);
    }
}

/// Mid-run repartition, checkpoint under the post-repartition `INDIRECT`
/// distribution, restore through redistribute-on-read into a different
/// partition, finish the sweep: bitwise identical to an uninterrupted run.
#[test]
fn mesh_restart_with_repartition_matches_uninterrupted() {
    let mesh = unstructured_mesh(12, 8, 17);
    let machine = || zero_machine(4);
    let config = MeshSweepConfig {
        steps: 6,
        partition: MeshPartition::Block,
        repartition_at: Some(2),
    };
    let uninterrupted = run_sweep(&mesh, &config, &machine());
    for resume in [MeshPartition::Block, MeshPartition::Coordinate] {
        let store = fresh_store("mesh");
        let restarted = run_sweep_with_restart(&mesh, &config, &machine(), 4, resume, &store)
            .expect("checkpoint/restart round-trips");
        assert_eq!(
            restarted.values, uninterrupted.values,
            "restart into {resume:?} diverges from the uninterrupted sweep"
        );
        assert_eq!(store.latest_step(), Some(4));
        drop_store(&store);
    }
}
