//! The four workloads.  Each builds its inputs from a seed, runs one
//! operation ("op") per call, and checks the op's output against a simple
//! oracle.

use std::path::{Path, PathBuf};
use vf_apps::{mesh, smoothing};
use vf_core::prelude::*;
use vf_machine::CommStats;
use vf_runtime::checkpoint::RestoredCheckpoint;

use crate::spans::Tracer;

/// Simulated processors.  Equal to the reference host's core count, so the
/// pool runs 2 workers and each sharded region 2 rank threads.
pub const PROCS: usize = 2;
/// Grid side of the `smooth` workload.
pub const SMOOTH_N: usize = 128;
/// Relaxation steps per `smooth` op.
pub const SMOOTH_STEPS: usize = 4;
/// Side of the square arrays of the `redist_*` connect class.
pub const CLASS_N: usize = 1024;
/// Halo widths of the class ghost exchange.
pub const CLASS_WIDTHS: [(usize, usize); 2] = [(1, 1), (1, 1)];
/// Mesh shape of the `checkpoint` workload (nodes = product).
pub const MESH_SHAPE: (usize, usize) = (256, 256);

/// A workload: inputs built from a seed, one op, and the op's oracle.
pub trait Workload: Sized {
    /// What an op hands to the oracle.
    type Out;
    /// Generates the inputs and makes the declarations (no op runs).
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;
    /// Runs one op, with a benchmark span around each layer call.
    fn op(&mut self, tracer: &Tracer) -> Result<Self::Out, String>;
    /// Checks an op's output against the oracle.
    fn check(&self, out: &Self::Out) -> Result<(), String>;
    /// Plan-cache lookups of the workload so far, when it owns a cache:
    /// `(hits, lookups)`.
    fn plan_lookups(&self) -> Option<(u64, u64)>;
}

/// A deterministic value stream: splitmix64 of `(seed, a, b)`, mapped to
/// `[-1, 1)`.
pub fn value(seed: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// `Ok` when the two buffers hold the same bits.
pub fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {}, expected {}",
            got[i], want[i]
        )),
    }
}

/// A fault-free run must not retry, fall back or see an injected fault.
pub fn fault_free(stats: &CommStats) -> Result<(), String> {
    let (r, f, x) = (stats.retries(), stats.fallbacks(), stats.faults_injected());
    if r + f + x == 0 {
        Ok(())
    } else {
        Err(format!(
            "{r} retries, {f} fallbacks, {x} injected faults in a fault-free run"
        ))
    }
}

fn machine() -> Machine {
    Machine::with_procs(PROCS)
}

// ---------------------------------------------------------------------------
// smooth
// ---------------------------------------------------------------------------

/// One `smoothing::run` solve on the default backend, checked against the
/// sequential reference.
pub struct Smooth {
    machine: Machine,
    config: smoothing::SmoothingConfig,
    initial: Vec<f64>,
    reference: Vec<f64>,
}

impl Smooth {
    /// The solve's configuration.
    pub fn config(&self) -> &smoothing::SmoothingConfig {
        &self.config
    }

    /// The initial field (dense, column-major).
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }
}

impl Workload for Smooth {
    type Out = smoothing::SmoothingResult;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let n = SMOOTH_N;
        let initial: Vec<f64> = (0..n * n).map(|i| value(seed, 0, i as u64)).collect();
        let reference = smoothing::sequential_reference(n, SMOOTH_STEPS, &initial);
        Ok(Smooth {
            machine: machine(),
            config: smoothing::SmoothingConfig {
                n,
                steps: SMOOTH_STEPS,
                layout: smoothing::SmoothingLayout::Blocks2D,
            },
            initial,
            reference,
        })
    }

    fn op(&mut self, tracer: &Tracer) -> Result<Self::Out, String> {
        let _s = tracer.span("apps.smoothing_run");
        Ok(smoothing::run(&self.config, &self.machine, &self.initial))
    }

    fn check(&self, out: &Self::Out) -> Result<(), String> {
        same_bits("smoothed field", &out.field, &self.reference)?;
        fault_free(&out.stats)
    }

    fn plan_lookups(&self) -> Option<(u64, u64)> {
        None
    }
}

// ---------------------------------------------------------------------------
// redist_shared / redist_sharded
// ---------------------------------------------------------------------------

/// Names of the connect class: the primary and its two secondaries.
pub const CLASS: [&str; 3] = ["B", "A1", "A2"];

/// Fig. 1's ADI communication without the sweeps: a `DYNAMIC` 1024²
/// primary with two `CONNECT`ed secondaries, redistributed rows ↔ columns
/// with a class ghost exchange after each `DISTRIBUTE`; on the default
/// backend (`redist_shared`) or the sharded one (`redist_sharded`).
pub struct Redist<const SHARDED: bool> {
    scope: VfScope<f64>,
    /// The declared `(:, BLOCK)` distribution every op returns to.
    home: Distribution,
    /// Initial local segments of each class member, by processor.
    initial: Vec<Vec<Vec<f64>>>,
}

/// What one `redist_*` op did.
pub struct RedistOut {
    /// Communication charged during the op.
    pub stats: CommStats,
    /// The two `DISTRIBUTE` statements' reports.
    pub statements: Vec<DistributeReport>,
    /// The two class ghost exchanges' reports.
    pub exchanges: Vec<ExecReport>,
}

impl RedistOut {
    /// Modelled messages of the whole op.
    pub fn messages(&self) -> usize {
        self.statements.iter().map(|r| r.messages()).sum::<usize>()
            + self.exchanges.iter().map(|r| r.messages).sum::<usize>()
    }

    /// Modelled bytes of the whole op.
    pub fn bytes(&self) -> usize {
        self.statements.iter().map(|r| r.bytes()).sum::<usize>()
            + self.exchanges.iter().map(|r| r.bytes).sum::<usize>()
    }
}

/// The `redist_shared` workload.
pub type RedistShared = Redist<false>;
/// The `redist_sharded` workload.
pub type RedistSharded = Redist<true>;

impl<const SHARDED: bool> Redist<SHARDED> {
    /// The scope holding the class.
    #[cfg(test)]
    pub fn scope(&mut self) -> &mut VfScope<f64> {
        &mut self.scope
    }
}

impl<const SHARDED: bool> Workload for Redist<SHARDED> {
    type Out = RedistOut;

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let err = |e: CoreError| e.to_string();
        let domain = IndexDomain::d2(CLASS_N, CLASS_N);
        let mut scope: VfScope<f64> = VfScope::new(machine());
        scope
            .declare_dynamic(
                DynamicDecl::new(CLASS[0], domain.clone())
                    .range([
                        DistPattern::exact(&DistType::rows()),
                        DistPattern::exact(&DistType::columns()),
                    ])
                    .initial(DistType::columns()),
            )
            .map_err(err)?;
        for name in &CLASS[1..] {
            scope
                .declare_secondary(SecondaryDecl::extraction(*name, domain.clone(), CLASS[0]))
                .map_err(err)?;
        }
        let mut initial = Vec::with_capacity(CLASS.len());
        for (k, name) in CLASS.iter().enumerate() {
            let array = scope.array_mut(name).map_err(err)?;
            let n = CLASS_N as u64;
            array.map_all_owned(|_, pt, _| {
                let (i, j) = (pt.coord(0) as u64, pt.coord(1) as u64);
                value(seed, k as u64 + 1, i + j * n)
            });
            initial.push(
                (0..PROCS)
                    .map(|p| array.local(ProcId(p)).to_vec())
                    .collect(),
            );
        }
        let home = scope.array(CLASS[0]).map_err(err)?.dist().clone();
        if SHARDED {
            scope.set_executor(ExecBackend::Sharded(ShardedExecutor::new()));
        }
        scope.take_stats();
        Ok(Redist {
            scope,
            home,
            initial,
        })
    }

    fn op(&mut self, tracer: &Tracer) -> Result<Self::Out, String> {
        let err = |e: CoreError| e.to_string();
        let (mut statements, mut exchanges) = (Vec::new(), Vec::new());
        for target in [DistType::rows(), DistType::columns()] {
            let report = {
                let _s = tracer.span("scope.distribute");
                self.scope
                    .distribute(DistributeStmt::new(CLASS[0], target))
                    .map_err(err)?
            };
            let (_ghosts, exec) = {
                let _s = tracer.span("scope.exchange_class_ghosts");
                self.scope
                    .exchange_class_ghosts(CLASS[0], &CLASS_WIDTHS)
                    .map_err(err)?
            };
            statements.push(report);
            exchanges.push(exec);
        }
        Ok(RedistOut {
            stats: self.scope.take_stats(),
            statements,
            exchanges,
        })
    }

    fn check(&self, out: &Self::Out) -> Result<(), String> {
        for (name, initial) in CLASS.iter().zip(&self.initial) {
            let array = self.scope.array(name).map_err(|e| e.to_string())?;
            if !array.dist().same_mapping(&self.home) {
                return Err(format!(
                    "{name} did not return to its declared distribution"
                ));
            }
            for (p, want) in initial.iter().enumerate() {
                same_bits(&format!("{name} on P{p}"), array.local(ProcId(p)), want)?;
            }
        }
        fault_free(&out.stats)?;
        if SHARDED {
            let (msgs, bytes) = (out.stats.channel_messages(), out.stats.channel_bytes());
            if (msgs, bytes) != (out.messages(), out.bytes()) {
                return Err(format!(
                    "channels carried {msgs} messages / {bytes} bytes, the model {} / {}",
                    out.messages(),
                    out.bytes()
                ));
            }
        }
        Ok(())
    }

    fn plan_lookups(&self) -> Option<(u64, u64)> {
        let s = self.scope.plan_cache().stats();
        Some((s.hits, s.hits + s.misses))
    }
}

// ---------------------------------------------------------------------------
// checkpoint
// ---------------------------------------------------------------------------

/// `VAL` over an unstructured mesh, distributed `INDIRECT` through the
/// greedy partitioner; an op saves it and restores it into `BLOCK`.
pub struct Checkpoint {
    tracker: CommTracker,
    cache: PlanCache,
    executor: ExecBackend,
    store: CheckpointStore,
    array: DistArray<f64>,
    live: Distribution,
    /// The values every restore must bring back, as `BLOCK` locals.
    expected: Vec<Vec<f64>>,
    step: u64,
}

/// What one `checkpoint` op did.
pub struct CheckpointOut {
    /// The restored array and step.
    pub restored: RestoredCheckpoint<f64>,
    /// The step the op saved.
    pub saved_step: u64,
    /// Checkpoint I/O and communication charged during the op.
    pub stats: CommStats,
}

impl Checkpoint {
    /// The saved (INDIRECT) array.
    pub fn array(&self) -> &DistArray<f64> {
        &self.array
    }

    /// The store the op writes to.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The tracker the op charges.
    pub fn tracker(&self) -> &CommTracker {
        &self.tracker
    }
}

impl Workload for Checkpoint {
    type Out = CheckpointOut;

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let store_dir = dir.join("ckpt");
        // Every set-up starts from an empty store.
        let _ = std::fs::remove_dir_all(&store_dir);
        let mesh = mesh::unstructured_mesh(MESH_SHAPE.0, MESH_SHAPE.1, seed);
        let n = mesh.num_nodes();
        let owners = mesh::partition_greedy(&mesh, PROCS);
        let map = IndirectMap::new(owners).map_err(|e| err(&e))?;
        let procs = ProcessorView::linear(PROCS);
        let file_dist = Distribution::new(
            DistType::indirect1d(std::sync::Arc::new(map)),
            IndexDomain::d1(n),
            procs.clone(),
        )
        .map_err(|e| err(&e))?;
        let live = Distribution::new(DistType::block1d(), IndexDomain::d1(n), procs)
            .map_err(|e| err(&e))?;
        let values: Vec<f64> = (0..n).map(|u| value(seed, 7, u as u64)).collect();
        let array = DistArray::from_dense("VAL", file_dist, &values).map_err(|e| err(&e))?;
        let expected_array =
            DistArray::from_dense("VAL", live.clone(), &values).map_err(|e| err(&e))?;
        let expected = (0..PROCS)
            .map(|p| expected_array.local(ProcId(p)).to_vec())
            .collect();
        Ok(Checkpoint {
            tracker: machine().tracker(),
            cache: PlanCache::new(),
            executor: ExecBackend::auto(),
            store: CheckpointStore::new(store_dir),
            array,
            live,
            expected,
            step: 0,
        })
    }

    fn op(&mut self, tracer: &Tracer) -> Result<Self::Out, String> {
        let err = |e: vf_runtime::RuntimeError| e.to_string();
        self.step += 1;
        {
            let _s = tracer.span("checkpoint.save");
            self.store
                .save(&self.array, self.step, &self.tracker)
                .map_err(err)?;
        }
        let restored = {
            let _s = tracer.span("checkpoint.restore_into");
            self.store
                .restore_into::<f64, _>(&self.live, &self.tracker, &self.cache, &self.executor)
                .map_err(err)?
        };
        Ok(CheckpointOut {
            restored,
            saved_step: self.step,
            stats: self.tracker.take(),
        })
    }

    fn check(&self, out: &Self::Out) -> Result<(), String> {
        if out.restored.step != out.saved_step {
            return Err(format!(
                "restored step {}, saved step {}",
                out.restored.step, out.saved_step
            ));
        }
        let array = &out.restored.array;
        if !array.dist().same_mapping(&self.live) {
            return Err("the restore did not land in the live BLOCK distribution".into());
        }
        for (p, want) in self.expected.iter().enumerate() {
            same_bits(
                &format!("restored VAL on P{p}"),
                array.local(ProcId(p)),
                want,
            )?;
        }
        fault_free(&out.stats)
    }

    fn plan_lookups(&self) -> Option<(u64, u64)> {
        let s = self.cache.stats();
        Some((s.hits, s.hits + s.misses))
    }
}

/// A fresh per-run scratch directory inside the benchmark's own directory;
/// removed again when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<benchmark dir>/.scratch/<tag>-<pid>`.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one op and counts it the way the timed loop does.
    fn failed_after<W: Workload>(w: &mut W, corrupt: impl FnOnce(&mut W, &mut W::Out)) -> bool {
        let tracer = Tracer::off();
        let mut out = w.op(&tracer).expect("op runs");
        assert!(w.check(&out).is_ok(), "a clean op passes its oracle");
        corrupt(w, &mut out);
        w.check(&out).is_err()
    }

    fn flip(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }

    #[test]
    fn a_flipped_bit_fails_the_smooth_oracle() {
        let dir = ScratchDir::new("test-smooth").unwrap();
        let mut w = Smooth::setup(3, dir.path()).unwrap();
        assert!(failed_after(&mut w, |_, out| flip(
            &mut out.field[SMOOTH_N + 1]
        )));
    }

    #[test]
    fn a_flipped_bit_fails_the_redist_oracle() {
        let dir = ScratchDir::new("test-redist").unwrap();
        let mut w = RedistShared::setup(3, dir.path()).unwrap();
        assert!(failed_after(&mut w, |w, _| {
            let a = w.scope().array_mut("A2").unwrap();
            flip(&mut a.local_mut(ProcId(1))[12345]);
        }));
    }

    #[test]
    fn a_model_mismatch_fails_the_sharded_oracle() {
        let dir = ScratchDir::new("test-sharded").unwrap();
        let mut w = RedistSharded::setup(3, dir.path()).unwrap();
        assert!(failed_after(&mut w, |_, out| out.exchanges[0].bytes ^= 1));
    }

    #[test]
    fn a_flipped_bit_fails_the_checkpoint_oracle() {
        let dir = ScratchDir::new("test-ckpt").unwrap();
        let mut w = Checkpoint::setup(3, dir.path()).unwrap();
        assert!(failed_after(&mut w, |_, out| {
            flip(&mut out.restored.array.local_mut(ProcId(0))[7]);
        }));
    }

    #[test]
    fn a_retry_fails_every_oracle() {
        let mut stats = CommStats::new(PROCS);
        assert!(fault_free(&stats).is_ok());
        stats.record_retries(1);
        assert!(fault_free(&stats).is_err());
    }

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(value(1, 2, 3).to_bits(), value(1, 2, 3).to_bits());
        assert_ne!(value(1, 2, 3).to_bits(), value(2, 2, 3).to_bits());
        assert!((-1.0..1.0).contains(&value(9, 9, 9)));
    }
}
