//! Distributed-memory execution: rank-local shards over real SPMD channels.
//!
//! Every other executor in this crate is a *shared-memory simulation*: all
//! per-processor segments live in one `DistArray` and "communication" is a
//! memcpy through process memory, with traffic charged to the
//! [`CommTracker`]'s cost model.  This module is the distributed-memory
//! backend the model describes: each rank of an [`vf_machine::spmd`]
//! region holds **only its own shard** of every distributed array, and the
//! fused wire buffers of the redistribute / ghost / gather paths are
//! packed, **sent over a real channel** as a framed message
//! ([`vf_machine::WireFrameMsg`]), received, validated and unpacked by the
//! destination rank.
//!
//! Two invariants tie the backend to the rest of the engine:
//!
//! * **Bitwise oracle** — gathering the rank-local shards back into a
//!   `DistArray` produces buffers bit-identical to what the shared-memory
//!   executors compute for the same plan.  The sharded path reuses the
//!   exact pack/unpack run lists of [`FusedPlan`], so this holds by
//!   construction and is pinned by differential tests.
//! * **Model ≡ wire** — the modelled message/byte charges are issued in
//!   the same order and with the same values as the shared wire path
//!   (`charge_directory` → `post_many` → settle with copy credit), while
//!   the *real* channel traffic is counted separately in
//!   [`vf_machine::CommStats::channel_messages`] /
//!   [`vf_machine::CommStats::channel_bytes`].  For a wire-fused exchange
//!   the two byte counts are equal: what the model says crosses the
//!   network is exactly what crossed the channels.
//!
//! Failure degrades instead of aborting: a dead peer, a receive timeout or
//! a truncated payload surfaces as [`RuntimeError::Channel`] from the
//! exchange, after the posted model charges are settled.

use crate::element::WireSum;
use crate::exec::{
    finish_with_copy_credit, next_wire_seq_block, part_major, wire_copy_seconds, ExecReport,
    FusedPlan, PlanExecutor, SerialExecutor,
};
use crate::plan::{PlanKind, Transfer};
use crate::{decode_slice, encode_slice, DistArray, Element, Result, RuntimeError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use vf_dist::{Distribution, ProcId};
use vf_machine::spmd::{self, ProcCtx, WIRE_TAG};
use vf_machine::{trace, CommTracker, WorkerPool};

/// A distributed array scattered into rank-private shards.
///
/// Each shard is owned by exactly one rank for the duration of an SPMD
/// region: the rank [`take`](ShardedArray::take)s it on entry and
/// [`put`](ShardedArray::put)s it back before returning, so no rank can
/// read another rank's segment through shared memory — any cross-rank
/// element flow must go over a channel.  The `Mutex<Option<..>>` per shard
/// is the enforcement mechanism, not a synchronisation point: a well-formed
/// region locks each slot exactly twice, uncontended.
#[derive(Debug)]
pub struct ShardedArray<T> {
    name: String,
    dist: Distribution,
    shards: Vec<Mutex<Option<Vec<T>>>>,
}

impl<T: Element> ShardedArray<T> {
    /// Scatters `array` into per-rank shards (one per modelled processor,
    /// cloned from the canonical local segments).
    pub fn scatter(array: &DistArray<T>) -> Self {
        Self {
            name: array.name().to_string(),
            dist: array.dist().clone(),
            shards: array
                .locals()
                .iter()
                .map(|l| Mutex::new(Some(l.clone())))
                .collect(),
        }
    }

    /// The array name the shards were scattered from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The distribution the shards follow.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// Number of shards (one per modelled processor).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Takes rank `rank`'s shard out of the array.  Panics if the shard
    /// was already taken — each rank owns exactly its own shard.
    pub fn take(&self, rank: usize) -> Vec<T> {
        self.shards[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("shard already taken: each rank must take only its own shard, once")
    }

    /// Returns rank `rank`'s shard after the region's work on it is done.
    pub fn put(&self, rank: usize, shard: Vec<T>) {
        *self.shards[rank]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(shard);
    }

    /// Gathers every shard back into `(distribution, per-rank locals)` —
    /// the verification step that lets callers compare a sharded run
    /// against the shared-memory oracle bit for bit.  Panics if any shard
    /// is still taken.
    pub fn gather(self) -> (Distribution, Vec<Vec<T>>) {
        let locals = self
            .shards
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("shard still taken: the SPMD region must put every shard back")
            })
            .collect();
        (self.dist, locals)
    }

    /// Gathers the shards into `array` (which must model the same number
    /// of processors), making it the canonical global view again.
    pub fn gather_into(self, array: &mut DistArray<T>) {
        let (dist, locals) = self.gather();
        array.replace(dist, locals);
        array.broadcast_canonical();
    }
}

/// The distributed-memory backend handle: where its SPMD regions run and
/// how long a rank waits on a channel before declaring a peer lost.
///
/// As a [`PlanExecutor`] it behaves exactly like [`SerialExecutor`] — the
/// non-channel phases (unfused per-array copies, scatter updates) have no
/// wire representation and stay on the shared-memory oracle.  The
/// channel-backed entry points ([`crate::redistribute_sharded`],
/// [`crate::exchange_ghosts_fused_sharded`],
/// [`crate::execute_gather_sharded`]) take the executor explicitly.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    pool: Option<Arc<WorkerPool>>,
    timeout: Duration,
}

impl ShardedExecutor {
    /// Default bound on how long a rank blocks in a channel receive before
    /// reporting [`vf_machine::SpmdError::RecvTimeout`].
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// A poolless executor (each exchange spawns its region's rank
    /// threads fresh) with the [`ShardedExecutor::DEFAULT_TIMEOUT`]
    /// receive bound; tune it with [`ShardedExecutor::with_timeout`] (or
    /// `VF_SHARD_TIMEOUT` through [`crate::ExecBackend::auto`]).
    pub fn new() -> Self {
        Self {
            pool: None,
            timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// An executor whose SPMD regions run on `pool`'s persistent workers
    /// (falling back to fresh threads when the pool is narrower than the
    /// region — see [`spmd::run_on_pool`]).
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self {
            pool: Some(pool),
            ..Self::new()
        }
    }

    /// Overrides the channel receive bound.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// The channel receive bound.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// The worker pool hosting SPMD regions, if any.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Runs `body` as an SPMD region of `num_procs` ranks — on the
    /// persistent pool when one is attached, on fresh threads otherwise.
    /// Application workloads use this to keep shards rank-resident across
    /// many time steps (one region for the whole run).
    ///
    /// If the tracker carries a [`vf_machine::FaultInjector`] whose plan
    /// enables [`vf_machine::FaultKind::RankDeath`], the injector is polled
    /// *here*, on the caller thread (honouring the injector's
    /// caller-thread-only determinism contract), and an armed death is
    /// carried into the region as data: after its operation fuse burns
    /// down, the victim rank's channel endpoints drop mid-region and the
    /// survivors surface structured errors instead of hanging.
    pub fn run_region<R, F>(&self, num_procs: usize, tracker: &CommTracker, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut ProcCtx) -> R + Sync,
    {
        let death = tracker
            .fault_injector()
            .and_then(|inj| inj.rank_death(num_procs));
        if death.is_some() {
            tracker.record_fault();
        }
        match &self.pool {
            Some(pool) => spmd::run_on_pool_with_death(pool, num_procs, tracker, death, body),
            None => spmd::run_with_death(num_procs, tracker, death, body),
        }
    }
}

impl Default for ShardedExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanExecutor for ShardedExecutor {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn run_copies<T: Element>(
        &self,
        transfers: &[Transfer],
        src: &[Vec<T>],
        dst_sizes: &[usize],
        tracker: &CommTracker,
    ) -> Vec<Vec<T>> {
        SerialExecutor.run_copies(transfers, src, dst_sizes, tracker)
    }
}

/// One rank's half of a fused wire exchange, run *inside* an SPMD region.
///
/// `my` is the rank's shard of each fused part.  The rank first serves its
/// own local (stay-at-home) runs, then packs and sends one framed wire
/// message per outgoing crossing pair, then receives, validates and
/// unpacks every arriving pair.  Send-before-receive is deadlock-free
/// because the channels are unbounded; the per-tag FIFO pending queue
/// keeps out-of-order arrivals cheap.
///
/// Unlike the shared wire path — which skips receiver-side checksums
/// unless a fault injector is armed, because its "wire" never leaves
/// process memory — the sharded receiver *always* validates the frame:
/// the payload crossed a serialisation boundary, so length, element count
/// and checksum are all checked before any element reaches a destination
/// buffer.
fn rank_exchange<T: Element>(
    fused: &FusedPlan,
    ctx: &mut ProcCtx,
    my: &[&[T]],
    dst_len: &(dyn Fn(usize, usize) -> usize + Sync),
    seq_base: u64,
    timeout: Duration,
) -> Result<Vec<Vec<T>>> {
    let r = ctx.rank();
    // This rank's shards are the only source segments it can read.
    let src = |idx: usize, _proc: usize| my[idx];
    // Elements that stay on `r` never touch a channel.
    let mut bufs = fused.local_buffers(r, |idx| dst_len(idx, r), src);
    // Outgoing pairs: pack this rank's crossing payloads and put them on
    // the wire.
    for pi in fused.sent_by(r) {
        let ((_, d), total) = fused.pair(pi);
        let pack = trace::OpenSpan::begin_with(trace::Phase::WirePack, || {
            format!("p{r} -> p{d}: {total} elements")
        });
        let wire = fused.pack(pi, src);
        let frame = fused.seal(pi, seq_base, WireSum::of(&wire));
        pack.end();
        ctx.send_wire(d, WIRE_TAG, frame, &encode_slice(&wire))?;
    }
    // Arriving pairs, in the same per-destination order the shared wire
    // path unpacks them.  The channel's per-tag queue matches by sender,
    // so arrival order across senders doesn't matter.  A payload of the
    // wrong byte length decodes to an empty wire, which the check rejects.
    for &pi in fused.arriving(r) {
        let ((s, _), total) = fused.pair(pi);
        let (_, frame, payload) = ctx.recv_wire(Some(s), WIRE_TAG, timeout)?;
        let wire: Vec<T> = if payload.len() == total * T::BYTES {
            decode_slice(&payload)
        } else {
            Vec::new()
        };
        fused.check(pi, WireSum::of(&wire), &frame)?;
        let _unpack = trace::OpenSpan::begin_dest(trace::Phase::Unpack, r);
        fused.unpack(pi, &wire, &mut bufs);
    }
    Ok(bufs)
}

/// The sharded counterpart of [`crate::exec::execute_fused_wire`]: charges
/// the model identically (directory → single-message-per-pair post →
/// settle with the pack/unpack copy credit in `copy_secs`), but moves the
/// data through an SPMD region in which each rank holds only its shards
/// and the wire buffers travel over real channels.
///
/// Returns per-part, per-processor destination buffers and the modelled
/// report; the *channel* traffic lands in the tracker's
/// [`vf_machine::CommStats::channel_messages`] /
/// [`vf_machine::CommStats::channel_bytes`] counters.
///
/// # Errors
/// [`RuntimeError::Channel`] if a rank's send or receive failed (dead
/// peer, timeout, truncation), [`RuntimeError::CorruptMessage`] if a frame
/// failed validation.  The posted charges are settled before any error
/// propagates, and every shard a failing rank took is returned on its
/// error path only if the rank reached its put — callers must treat a
/// failed exchange as fatal for the sharded arrays involved.
pub(crate) fn sharded_fused_exchange<T: Element>(
    fused: &FusedPlan,
    tracker: &CommTracker,
    exec: &ShardedExecutor,
    srcs: &[&ShardedArray<T>],
    dst_len: &(dyn Fn(usize, usize) -> usize + Sync),
    copy_secs: &[f64],
) -> Result<(Vec<Vec<Vec<T>>>, ExecReport)> {
    debug_assert_eq!(
        srcs.len(),
        fused.parts().len(),
        "one sharded array per part"
    );
    let (pending, report) = fused.post(tracker, T::BYTES);
    let seq_base = next_wire_seq_block(fused.num_messages() as u64);
    let procs = tracker.num_procs();
    let timeout = exec.timeout();
    let per_rank: Vec<Result<Vec<Vec<T>>>> = exec.run_region(procs, tracker, |ctx| {
        let r = ctx.rank();
        let my: Vec<Vec<T>> = srcs.iter().map(|sa| sa.take(r)).collect();
        let my_refs: Vec<&[T]> = my.iter().map(|v| v.as_slice()).collect();
        let out = rank_exchange(fused, ctx, &my_refs, dst_len, seq_base, timeout);
        for (sa, shard) in srcs.iter().zip(my) {
            sa.put(r, shard);
        }
        out
    });
    // Settle the posted batch before any `?` — model charges must never
    // leak on a channel-failure path.
    let wait = trace::OpenSpan::begin(trace::Phase::Wait);
    finish_with_copy_credit(tracker, pending, copy_secs);
    wait.end();
    let per_rank = per_rank.into_iter().collect::<Result<Vec<_>>>()?;
    Ok((part_major(per_rank, &vec![procs; srcs.len()]), report))
}

/// A reusable rank-level halo exchange for SPMD application loops: the
/// caller builds the fused ghost plan once, enters **one** SPMD region for
/// the whole workload, and calls [`exchange_on_rank`] once per time step
/// from every rank — shards never leave their rank between steps.
///
/// The modelled charges of each step are *not* issued by the ranks (that
/// would charge the batch once per rank): the designated charging rank —
/// conventionally rank 0, between two barriers — calls [`post`] before
/// and [`settle`] after the step's exchanges, reproducing the shared wire
/// path's charge order exactly.
///
/// [`exchange_on_rank`]: ShardedHaloExchange::exchange_on_rank
/// [`post`]: ShardedHaloExchange::post
/// [`settle`]: ShardedHaloExchange::settle
pub struct ShardedHaloExchange {
    fused: FusedPlan,
    timeout: Duration,
}

impl ShardedHaloExchange {
    /// Wraps a fused ghost plan for in-region use.
    ///
    /// # Errors
    /// [`RuntimeError::FusionMismatch`] when `fused` is not a ghost
    /// fusion.
    pub fn new(fused: FusedPlan, timeout: Duration) -> Result<Self> {
        if fused.kind() != PlanKind::Ghost {
            return Err(RuntimeError::FusionMismatch {
                reason: format!(
                    "ShardedHaloExchange needs Ghost parts, got {:?}",
                    fused.kind()
                ),
            });
        }
        Ok(Self { fused, timeout })
    }

    /// The fused plan driving the exchange.
    pub fn fused(&self) -> &FusedPlan {
        &self.fused
    }

    /// Charges one step's modelled traffic (directory + message batch).
    /// Call from exactly one rank per step, before any rank sends.
    pub fn post(&self, tracker: &CommTracker, elem_bytes: usize) -> vf_machine::PendingSends {
        self.fused.post(tracker, elem_bytes).0
    }

    /// Completes one step's modelled traffic with the wire pack/unpack
    /// copy credit.  Call from the same rank that [`post`]ed, after every
    /// rank's exchange of the step returned.
    ///
    /// [`post`]: ShardedHaloExchange::post
    pub fn settle(
        &self,
        tracker: &CommTracker,
        pending: vf_machine::PendingSends,
        elem_bytes: usize,
    ) {
        finish_with_copy_credit(
            tracker,
            pending,
            &wire_copy_seconds(&self.fused, elem_bytes, tracker),
        );
    }

    /// One rank's halo exchange: `my` is the rank's shard of each fused
    /// array; returns the rank's filled ghost buffer per array (sized by
    /// each part's ghost length for this rank).  Wire sequence numbers are
    /// drawn fresh from the global counter per call, so frames stay
    /// globally identifiable across steps and ranks.
    ///
    /// # Errors
    /// As [`sharded_fused_exchange`]'s rank half: channel failures and
    /// frame validation failures.
    pub fn exchange_on_rank<T: Element>(
        &self,
        ctx: &mut ProcCtx,
        my: &[&[T]],
    ) -> Result<Vec<Vec<T>>> {
        let seq_base = next_wire_seq_block(self.fused.num_messages() as u64);
        rank_exchange(
            &self.fused,
            ctx,
            my,
            &|idx, r| self.fused.parts()[idx].ghost_len(ProcId(r)),
            seq_base,
            self.timeout,
        )
    }

    /// Wraps one rank's exchanged ghost buffer (part `part` of the result
    /// of [`exchange_on_rank`]) as a [`crate::ghost::GhostRegion`] so the
    /// rank can resolve halo reads through the plan's slot index.  Only
    /// `rank`'s slots are populated — exactly the rank-locality the
    /// distributed backend enforces.
    ///
    /// [`exchange_on_rank`]: ShardedHaloExchange::exchange_on_rank
    pub fn ghost_region_on_rank<T: Element>(
        &self,
        part: usize,
        rank: usize,
        buf: Vec<T>,
    ) -> crate::ghost::GhostRegion<T> {
        let plan = &self.fused.parts()[part];
        let mut values = vec![Vec::new(); plan.total_procs()];
        if rank < values.len() {
            values[rank] = buf;
        }
        crate::ghost::GhostRegion::from_parts(Arc::clone(plan), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_redistribute, PlanCache};
    use vf_dist::{DistType, Distribution, ProcessorView};
    use vf_index::{IndexDomain, Point};
    use vf_machine::CostModel;

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn scatter_take_put_gather_round_trip() {
        let dist = dist_1d(DistType::block1d(), 17, 4);
        let data: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let array = DistArray::from_dense("A", dist, &data).unwrap();
        let shards = ShardedArray::scatter(&array);
        assert_eq!(shards.num_shards(), 4);
        assert_eq!(shards.name(), "A");
        let s2 = shards.take(2);
        shards.put(2, s2);
        let mut back = DistArray::new("A", shards.dist().clone());
        shards.gather_into(&mut back);
        assert_eq!(back.to_dense(), data);
    }

    #[test]
    fn sharded_redistribute_matches_shared_oracle() {
        let n = 61;
        let data: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.5).collect();
        for procs in [1usize, 3, 4] {
            let from = dist_1d(DistType::block1d(), n, procs);
            let to = dist_1d(DistType::cyclic1d(1), n, procs);

            // Shared-memory oracle.
            let oracle_tracker = CommTracker::new(procs, CostModel::zero());
            let mut oracle = DistArray::from_dense("A", from.clone(), &data).unwrap();
            let fused =
                FusedPlan::fuse(vec![Arc::new(plan_redistribute(&from, &to).unwrap())]).unwrap();
            let (oracle_reports, oracle_exec) = crate::exec::execute_redistribute_fused_wire(
                &mut [&mut oracle],
                &fused,
                &oracle_tracker,
                &SerialExecutor,
            )
            .unwrap();

            // Sharded run over real channels.
            let tracker = CommTracker::new(procs, CostModel::zero());
            let mut array = DistArray::from_dense("A", from.clone(), &data).unwrap();
            let exec = ShardedExecutor::new();
            let (reports, exec_report) =
                crate::redistribute_impl::execute_redistribute_fused_sharded(
                    &mut [&mut array],
                    &fused,
                    &tracker,
                    &exec,
                )
                .unwrap();

            assert_eq!(array.to_dense(), oracle.to_dense(), "{procs} procs");
            assert_eq!(reports, oracle_reports);
            assert_eq!(exec_report, oracle_exec);

            // Modelled charges identical to the oracle; channel traffic
            // identical to the modelled wire traffic.
            let shared = oracle_tracker.snapshot();
            let stats = tracker.snapshot();
            assert_eq!(stats.total_messages(), shared.total_messages());
            assert_eq!(stats.total_bytes(), shared.total_bytes());
            assert_eq!(stats.channel_messages(), exec_report.messages);
            assert_eq!(stats.channel_bytes(), exec_report.bytes);
            assert_eq!(
                shared.channel_messages(),
                0,
                "oracle never touches a channel"
            );
        }
    }

    #[test]
    fn sharded_ghost_exchange_matches_shared_oracle() {
        let n = 40;
        let procs = 4;
        let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let dist = dist_1d(DistType::block1d(), n, procs);

        let oracle_tracker = CommTracker::new(procs, CostModel::zero());
        let oracle_arr = DistArray::from_dense("G", dist.clone(), &data).unwrap();
        let cache = PlanCache::new();
        let (oracle_regions, oracle_exec) = crate::ghost::exchange_ghosts_fused_wire_with(
            &[&oracle_arr],
            &[(1, 1)],
            &oracle_tracker,
            &cache,
            &SerialExecutor,
        )
        .unwrap();

        let tracker = CommTracker::new(procs, CostModel::zero());
        let arr = DistArray::from_dense("G", dist, &data).unwrap();
        let cache2 = PlanCache::new();
        let exec = ShardedExecutor::new();
        let (regions, exec_report) = crate::ghost::exchange_ghosts_fused_sharded(
            &[&arr],
            &[(1, 1)],
            &tracker,
            &cache2,
            &exec,
        )
        .unwrap();

        assert_eq!(exec_report, oracle_exec);
        for p in 0..procs {
            assert_eq!(regions[0].len(ProcId(p)), oracle_regions[0].len(ProcId(p)));
            for i in 0..n {
                let pt = Point::d1(i as i64);
                assert_eq!(
                    regions[0].get(ProcId(p), &pt),
                    oracle_regions[0].get(ProcId(p), &pt),
                    "ghost mismatch at proc {p} index {i}"
                );
            }
        }
        let stats = tracker.snapshot();
        let shared = oracle_tracker.snapshot();
        assert_eq!(stats.total_messages(), shared.total_messages());
        assert_eq!(stats.total_bytes(), shared.total_bytes());
        assert_eq!(stats.channel_messages(), exec_report.messages);
        assert_eq!(stats.channel_bytes(), exec_report.bytes);
    }

    #[test]
    fn sharded_executor_defaults() {
        let exec = ShardedExecutor::new();
        assert_eq!(exec.name(), "sharded");
        assert!(exec.pool().is_none());
        assert!(exec.timeout() > Duration::ZERO);
        let tuned = exec.with_timeout(Duration::from_millis(5));
        assert_eq!(tuned.timeout(), Duration::from_millis(5));
    }

    #[test]
    fn dead_rank_region_returns_within_twice_the_timeout() {
        use vf_machine::{FaultInjector, FaultKind, FaultPlan, SpmdError};
        let timeout = Duration::from_millis(500);
        let plan = FaultPlan::new(9)
            .with_rate(1.0)
            .with_kinds(&[FaultKind::RankDeath])
            .with_max_faults(1);
        let tracker = CommTracker::new(4, CostModel::zero())
            .with_fault_injector(Arc::new(FaultInjector::new(plan)));
        let exec = ShardedExecutor::new().with_timeout(timeout);
        let start = std::time::Instant::now();
        // Enough checked barriers that the victim's fuse (< 8 channel ops)
        // always burns down mid-region.
        let results: Vec<std::result::Result<(), SpmdError>> =
            exec.run_region(4, &tracker, |ctx| {
                for _ in 0..10 {
                    ctx.barrier_checked(timeout)?;
                }
                Ok(())
            });
        let elapsed = start.elapsed();
        assert!(
            elapsed < timeout * 2,
            "region with a dead rank took {elapsed:?} against a {timeout:?} receive bound"
        );
        let killed = results
            .iter()
            .filter(|r| matches!(r, Err(SpmdError::RankKilled { .. })))
            .count();
        assert_eq!(killed, 1, "exactly one rank dies: {results:?}");
        assert!(
            results.iter().all(|r| r.is_err()),
            "no rank silently completes a broken region: {results:?}"
        );
    }
}
