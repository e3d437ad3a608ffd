//! Distribution-aware checkpoint/restart.
//!
//! The paper makes distributions first-class, dynamic runtime objects — so
//! a checkpoint is not an opaque memory dump but a *distributed* object:
//! each rank's shard is written as checksummed segments laid out by the
//! distribution's [`local_linear_runs`](Distribution::local_linear_runs),
//! and the file carries a manifest (distribution descriptor, `INDIRECT`
//! maps, step counter, fingerprints) sufficient to rebuild the on-disk
//! distribution from nothing.  Restoring into a *different* live
//! distribution is then just a redistribute from the "file distribution"
//! to the live one through the ordinary [`PlanCache`]/executor stack —
//! the ViPIOS redistribute-on-read idea for Vienna Fortran parallel I/O.
//!
//! # File format (all integers little-endian)
//!
//! ```text
//! magic      8 bytes  "VFCKPT01"
//! step       u64      application step the snapshot was taken at
//! elem_bytes u64      element width (must match the restoring T)
//! name       u64 len + bytes (UTF-8 array name)
//! rank       u64; per dim: lower i64, upper i64 (index-domain bounds)
//! nprocs     u64      processors of the target view (rebuilt linear)
//! per dim    dist descriptor: 0=BLOCK · 1=CYCLIC(k) · 2=GEN_BLOCK(sizes)
//!            · 3=INDIRECT(owners) · 4=":"
//! fingerprint u64     structural fingerprint of the saved distribution
//! per proc   u64 run count; per run: local_start u64, global_start u64,
//!            len u64, checksum u64 (the wire checksum of the run's
//!            elements), payload (len · elem_bytes bytes)
//! trailer    u64      FNV-1a 64 over every preceding byte
//! ```
//!
//! # Torn-write safety and generations
//!
//! A save encodes to a temporary file in the store directory and
//! [`std::fs::rename`]s it into one of **two** generation slots
//! (`gen0.vfck` / `gen1.vfck`), always overwriting the *older* slot.  A
//! crash mid-write therefore leaves at worst a stale temporary plus two
//! intact generations; a corrupt or truncated generation fails validation
//! (magic, structure, per-run checksums, whole-file checksum) and restore
//! falls back to the other generation before reporting
//! [`RuntimeError::CorruptCheckpoint`] for the store.
//!
//! All checkpoint I/O is charged to the tracker
//! ([`CommTracker::record_ckpt_write`] / [`CommTracker::record_ckpt_read`])
//! and wrapped in [`trace::Phase::CkptWrite`] / [`trace::Phase::CkptRead`]
//! spans, so persistence traffic shows up in the drift guard next to
//! communication traffic.
//!
//! # Limitations
//!
//! The processor view is rebuilt as [`ProcessorView::linear`] over the
//! stored processor count; a checkpoint of an array distributed onto a
//! non-trivial processor subset fails the fingerprint cross-check at
//! restore rather than silently rebinding ranks.

use crate::element::wire_checksum;
use crate::plan::PlanCache;
use crate::redistribute_impl::{redistribute_cached_with, RedistOptions};
use crate::{DistArray, Element, PlanExecutor, Result, RuntimeError};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vf_dist::{DimDist, DistType, Distribution, IndirectMap, ProcId, ProcessorView};
use vf_index::IndexDomain;
use vf_machine::{trace, CommTracker};

const MAGIC: &[u8; 8] = b"VFCKPT01";
const GEN_FILES: [&str; 2] = ["gen0.vfck", "gen1.vfck"];
const TAG_BLOCK: u64 = 0;
const TAG_CYCLIC: u64 = 1;
const TAG_GEN_BLOCK: u64 = 2;
const TAG_INDIRECT: u64 = 3;
const TAG_NOT_DISTRIBUTED: u64 = 4;

/// A two-generation checkpoint store rooted at one directory.
///
/// One store holds the checkpoint history of one array (or one connect
/// class saved as its lead array); concurrent saves to the same directory
/// are not synchronised.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// A checkpoint brought back to life: the rebuilt array and the step it
/// was saved at.
#[derive(Debug)]
pub struct RestoredCheckpoint<T: Element> {
    /// The restored array (under the file distribution, or the live one
    /// after [`CheckpointStore::restore_into`]).
    pub array: DistArray<T>,
    /// The application step recorded in the manifest.
    pub step: u64,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on the first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The two generation slots, oldest-agnostic (slot order is fixed;
    /// which slot is newest depends on the stored step counters).
    pub fn generation_paths(&self) -> [PathBuf; 2] {
        [self.dir.join(GEN_FILES[0]), self.dir.join(GEN_FILES[1])]
    }

    /// The step of the newest restorable generation, if any survives
    /// validation.
    pub fn latest_step(&self) -> Option<u64> {
        self.scan_generations()
            .into_iter()
            .flatten()
            .map(|(step, _)| step)
            .max()
    }

    /// Saves `array` at `step` into the older generation slot
    /// (write-new + atomic rename), charging the written bytes to
    /// `tracker`.  Returns the path of the generation written.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptCheckpoint`] when the store directory or the
    /// file cannot be written (the I/O error is carried in the reason).
    pub fn save<T: Element>(
        &self,
        array: &DistArray<T>,
        step: u64,
        tracker: &CommTracker,
    ) -> Result<PathBuf> {
        let span = trace::OpenSpan::begin_with(trace::Phase::CkptWrite, || {
            format!("{} step {step}", array.name())
        });
        let bytes = encode_checkpoint(array, step);
        let target = self.save_slot();
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            target.file_name().and_then(|n| n.to_str()).unwrap_or("gen")
        ));
        let io = |e: std::io::Error, what: &str| corrupt(&target, format!("{what}: {e}"));
        std::fs::create_dir_all(&self.dir).map_err(|e| io(e, "create store dir"))?;
        std::fs::write(&tmp, &bytes).map_err(|e| io(e, "write temporary"))?;
        std::fs::rename(&tmp, &target).map_err(|e| io(e, "rename into generation"))?;
        tracker.record_ckpt_write(bytes.len());
        span.end();
        Ok(target)
    }

    /// Restores the newest valid generation under its *file* distribution.
    /// A generation that fails validation is skipped in favour of the
    /// previous one.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptCheckpoint`] when no generation validates,
    /// [`RuntimeError::TrackerMismatch`] when the file's processor count
    /// differs from the tracker's.
    pub fn restore<T: Element>(&self, tracker: &CommTracker) -> Result<RestoredCheckpoint<T>> {
        let span = trace::OpenSpan::begin_with(trace::Phase::CkptRead, || {
            format!("restore from {}", self.dir.display())
        });
        // Newest first, falling back across generations only on
        // *corruption* — a structural mismatch against the live machine
        // (wrong element width, wrong processor count) is a caller error
        // every generation shares, so it propagates immediately.
        let mut candidates: Vec<(u64, PathBuf, Vec<u8>)> = self
            .scan_generations()
            .into_iter()
            .flatten()
            .map(|(step, (path, bytes))| (step, path, bytes))
            .collect();
        candidates.sort_by_key(|(step, _, _)| std::cmp::Reverse(*step));
        let mut last_err: Option<RuntimeError> = None;
        for (_, path, bytes) in candidates {
            match decode_checkpoint::<T>(&bytes, &path, tracker) {
                Ok(restored) => {
                    tracker.record_ckpt_read(bytes.len());
                    span.end();
                    return Ok(restored);
                }
                Err(e @ RuntimeError::CorruptCheckpoint { .. }) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            corrupt(
                &self.dir,
                "no restorable checkpoint generation in the store",
            )
        }))
    }

    /// Restores the newest valid generation and redistributes it into the
    /// `live` distribution through `cache`/`executor` — the
    /// redistribute-on-read path.  When the file distribution already
    /// matches `live`, no communication is planned at all.
    ///
    /// # Errors
    /// As [`CheckpointStore::restore`], plus any planning/execution error
    /// of the redistribute.
    pub fn restore_into<T: Element, E: PlanExecutor>(
        &self,
        live: &Distribution,
        tracker: &CommTracker,
        cache: &PlanCache,
        executor: &E,
    ) -> Result<RestoredCheckpoint<T>> {
        let mut restored = self.restore::<T>(tracker)?;
        if !restored.array.dist().same_mapping(live) {
            redistribute_cached_with(
                &mut restored.array,
                live.clone(),
                tracker,
                &RedistOptions::default(),
                cache,
                executor,
            )?;
        }
        Ok(restored)
    }

    /// Reads and structurally validates both generation slots; `None` for
    /// a missing or invalid slot.
    #[allow(clippy::type_complexity)]
    fn scan_generations(&self) -> [Option<(u64, (PathBuf, Vec<u8>))>; 2] {
        self.generation_paths().map(|path| {
            let bytes = std::fs::read(&path).ok()?;
            let step = validate_structure(&bytes, &path).ok()?;
            Some((step, (path, bytes)))
        })
    }

    /// The slot a save overwrites: an empty/invalid slot first, otherwise
    /// the one holding the older generation.
    fn save_slot(&self) -> PathBuf {
        let scans = self.scan_generations();
        let paths = self.generation_paths();
        match (&scans[0], &scans[1]) {
            (None, _) => paths.into_iter().next().expect("two slots"),
            (Some(_), None) => paths.into_iter().nth(1).expect("two slots"),
            (Some((a, _)), Some((b, _))) => {
                let older = if a <= b { 0 } else { 1 };
                paths.into_iter().nth(older).expect("two slots")
            }
        }
    }
}

fn corrupt(path: &Path, reason: impl Into<String>) -> RuntimeError {
    RuntimeError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

/// FNV-1a 64 — position-sensitive (unlike a plain xor), so truncations,
/// byte swaps and torn tails all change the trailer.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes the whole checkpoint (manifest, per-rank segments, trailer).
fn encode_checkpoint<T: Element>(array: &DistArray<T>, step: u64) -> Vec<u8> {
    let dist = array.dist();
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, step);
    put_u64(&mut buf, T::BYTES as u64);
    put_u64(&mut buf, array.name().len() as u64);
    buf.extend_from_slice(array.name().as_bytes());
    let domain = dist.domain();
    put_u64(&mut buf, domain.rank() as u64);
    for d in 0..domain.rank() {
        put_i64(&mut buf, domain.dim(d).lower());
        put_i64(&mut buf, domain.dim(d).upper());
    }
    let nprocs = dist.num_procs();
    put_u64(&mut buf, nprocs as u64);
    for dim in dist.dist_type().dims() {
        match dim {
            DimDist::Block => put_u64(&mut buf, TAG_BLOCK),
            DimDist::Cyclic(k) => {
                put_u64(&mut buf, TAG_CYCLIC);
                put_u64(&mut buf, *k as u64);
            }
            DimDist::GenBlock(sizes) => {
                put_u64(&mut buf, TAG_GEN_BLOCK);
                put_u64(&mut buf, sizes.len() as u64);
                for &s in sizes {
                    put_u64(&mut buf, s as u64);
                }
            }
            DimDist::Indirect(map) => {
                put_u64(&mut buf, TAG_INDIRECT);
                put_u64(&mut buf, map.len() as u64);
                for owner in map.owners() {
                    put_u64(&mut buf, owner as u64);
                }
            }
            DimDist::NotDistributed => put_u64(&mut buf, TAG_NOT_DISTRIBUTED),
        }
    }
    put_u64(&mut buf, dist.fingerprint());
    for p in 0..nprocs {
        let runs = dist.local_linear_runs(ProcId(p));
        let local = array.local(ProcId(p));
        put_u64(&mut buf, runs.len() as u64);
        for run in &runs {
            let elems = &local[run.local_start..run.local_start + run.len];
            put_u64(&mut buf, run.local_start as u64);
            put_u64(&mut buf, run.global_start as u64);
            put_u64(&mut buf, run.len as u64);
            put_u64(&mut buf, wire_checksum(elems));
            for e in elems {
                e.write_bytes(&mut buf);
            }
        }
    }
    let trailer = fnv1a(&buf);
    put_u64(&mut buf, trailer);
    buf
}

/// A little-endian cursor over a checkpoint file that turns every overrun
/// into a structured corruption error.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(self.path, format!("truncated while reading {what}")))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        let b = self.take(8, what)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn usize(&mut self, what: &str, limit: usize) -> Result<usize> {
        let v = self.u64(what)?;
        if v > limit as u64 {
            return Err(corrupt(
                self.path,
                format!("{what} {v} exceeds the sanity bound {limit}"),
            ));
        }
        Ok(v as usize)
    }
}

/// The decoded manifest: everything before the per-rank segments.
struct Manifest {
    step: u64,
    elem_bytes: usize,
    name: String,
    bounds: Vec<(i64, i64)>,
    nprocs: usize,
    dims: Vec<DimDist>,
    fingerprint: u64,
}

/// Parses manifest fields and leaves the reader positioned at the first
/// per-rank segment.
fn parse_manifest<'a>(reader: &mut Reader<'a>) -> Result<Manifest> {
    let path = reader.path;
    let magic = reader.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(corrupt(path, "bad magic (not a VFCKPT01 file)"));
    }
    let step = reader.u64("step")?;
    let elem_bytes = reader.usize("element width", 64)?;
    if elem_bytes == 0 {
        return Err(corrupt(path, "element width 0"));
    }
    let name_len = reader.usize("name length", 4096)?;
    let name = std::str::from_utf8(reader.take(name_len, "name")?)
        .map_err(|_| corrupt(path, "array name is not UTF-8"))?
        .to_string();
    let rank = reader.usize("domain rank", 16)?;
    if rank == 0 {
        return Err(corrupt(path, "domain rank 0"));
    }
    let mut bounds = Vec::with_capacity(rank);
    for _ in 0..rank {
        let lower = reader.i64("domain lower bound")?;
        let upper = reader.i64("domain upper bound")?;
        bounds.push((lower, upper));
    }
    let nprocs = reader.usize("processor count", 1 << 20)?;
    if nprocs == 0 {
        return Err(corrupt(path, "processor count 0"));
    }
    let mut dims = Vec::with_capacity(rank);
    for d in 0..rank {
        let tag = reader.u64("distribution tag")?;
        let dim = match tag {
            TAG_BLOCK => DimDist::block(),
            TAG_CYCLIC => DimDist::cyclic_k(reader.usize("cyclic width", 1 << 32)?),
            TAG_GEN_BLOCK => {
                let count = reader.usize("general-block count", 1 << 20)?;
                let mut sizes = Vec::with_capacity(count);
                for _ in 0..count {
                    sizes.push(reader.usize("general-block size", 1 << 40)?);
                }
                DimDist::gen_block(sizes)
            }
            TAG_INDIRECT => {
                let count = reader.usize("indirect map length", 1 << 32)?;
                let mut owners = Vec::with_capacity(count);
                for _ in 0..count {
                    owners.push(reader.usize("indirect owner", 1 << 20)?);
                }
                DimDist::indirect(Arc::new(
                    IndirectMap::new(owners)
                        .map_err(|e| corrupt(path, format!("invalid indirect map: {e}")))?,
                ))
            }
            TAG_NOT_DISTRIBUTED => DimDist::not_distributed(),
            other => {
                return Err(corrupt(
                    path,
                    format!("unknown distribution tag {other} in dimension {d}"),
                ))
            }
        };
        dims.push(dim);
    }
    let fingerprint = reader.u64("distribution fingerprint")?;
    Ok(Manifest {
        step,
        elem_bytes,
        name,
        bounds,
        nprocs,
        dims,
        fingerprint,
    })
}

/// Validates everything that does not need the element type: trailer
/// checksum, magic, manifest structure and segment framing.  Returns the
/// manifest step.
fn validate_structure(bytes: &[u8], path: &Path) -> Result<u64> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(corrupt(path, "file shorter than magic + trailer"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte slice"));
    if fnv1a(body) != stored {
        return Err(corrupt(path, "whole-file checksum mismatch (torn write?)"));
    }
    let mut reader = Reader {
        bytes: body,
        pos: 0,
        path,
    };
    let manifest = parse_manifest(&mut reader)?;
    for p in 0..manifest.nprocs {
        let run_count = reader.usize("segment run count", 1 << 32)?;
        for _ in 0..run_count {
            let _local_start = reader.u64("run local start")?;
            let _global_start = reader.u64("run global start")?;
            let len = reader.usize("run length", 1 << 40)?;
            let _checksum = reader.u64("run checksum")?;
            reader.take(len * manifest.elem_bytes, "run payload")?;
        }
        let _ = p;
    }
    if reader.pos != body.len() {
        return Err(corrupt(
            path,
            format!(
                "{} trailing bytes after the last segment",
                body.len() - reader.pos
            ),
        ));
    }
    Ok(manifest.step)
}

/// Rebuilds the distribution described by a manifest (linear processor
/// view; the fingerprint cross-check catches anything the descriptor
/// cannot represent).
fn rebuild_distribution(manifest: &Manifest, path: &Path) -> Result<Distribution> {
    let domain = IndexDomain::of_bounds(&manifest.bounds)
        .map_err(|e| corrupt(path, format!("invalid stored domain: {e}")))?;
    let dist = Distribution::new(
        DistType::new(manifest.dims.clone()),
        domain,
        ProcessorView::linear(manifest.nprocs),
    )
    .map_err(|e| corrupt(path, format!("stored distribution does not rebuild: {e}")))?;
    if dist.fingerprint() != manifest.fingerprint {
        return Err(corrupt(
            path,
            format!(
                "rebuilt distribution fingerprint {:#x} differs from stored {:#x} \
                 (non-linear processor view, or a corrupted descriptor)",
                dist.fingerprint(),
                manifest.fingerprint
            ),
        ));
    }
    Ok(dist)
}

/// Fully decodes one validated generation into a typed array.
fn decode_checkpoint<T: Element>(
    bytes: &[u8],
    path: &Path,
    tracker: &CommTracker,
) -> Result<RestoredCheckpoint<T>> {
    validate_structure(bytes, path)?;
    let body = &bytes[..bytes.len() - 8];
    let mut reader = Reader {
        bytes: body,
        pos: 0,
        path,
    };
    let manifest = parse_manifest(&mut reader)?;
    if manifest.elem_bytes != T::BYTES {
        return Err(corrupt(
            path,
            format!(
                "element width mismatch: file has {}-byte elements, restoring {}-byte",
                manifest.elem_bytes,
                T::BYTES
            ),
        ));
    }
    if manifest.nprocs != tracker.num_procs() {
        return Err(RuntimeError::TrackerMismatch {
            tracker_procs: tracker.num_procs(),
            dist_procs: manifest.nprocs,
        });
    }
    let dist = rebuild_distribution(&manifest, path)?;
    let mut array = DistArray::<T>::new(manifest.name.clone(), dist.clone());
    for p in 0..manifest.nprocs {
        let expected = dist.local_linear_runs(ProcId(p));
        let run_count = reader.usize("segment run count", 1 << 32)?;
        if run_count != expected.len() {
            return Err(corrupt(
                path,
                format!(
                    "rank {p} has {run_count} stored runs but the distribution lays out {}",
                    expected.len()
                ),
            ));
        }
        let local = &mut array.locals_mut()[p];
        for run in &expected {
            let local_start = reader.usize("run local start", 1 << 40)?;
            let global_start = reader.usize("run global start", 1 << 40)?;
            let len = reader.usize("run length", 1 << 40)?;
            if (local_start, global_start, len) != (run.local_start, run.global_start, run.len) {
                return Err(corrupt(
                    path,
                    format!(
                        "rank {p} segment ({local_start}, {global_start}, {len}) does not match \
                         the distribution's run ({}, {}, {})",
                        run.local_start, run.global_start, run.len
                    ),
                ));
            }
            let checksum = reader.u64("run checksum")?;
            let payload = reader.take(len * T::BYTES, "run payload")?;
            let elems: Vec<T> = crate::decode_slice(payload);
            if wire_checksum(&elems) != checksum {
                return Err(corrupt(
                    path,
                    format!("rank {p} segment at local offset {local_start} fails its checksum"),
                ));
            }
            local[local_start..local_start + len].copy_from_slice(&elems);
        }
    }
    array.broadcast_canonical();
    Ok(RestoredCheckpoint {
        array,
        step: manifest.step,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vf_machine::CostModel;

    fn store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("vf_ckpt_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    fn dist_1d(t: DistType, n: usize, p: usize) -> Distribution {
        Distribution::new(t, IndexDomain::d1(n), ProcessorView::linear(p)).unwrap()
    }

    #[test]
    fn save_restore_round_trips_bitwise() {
        let store = store("roundtrip");
        let dist = dist_1d(DistType::block1d(), 23, 4);
        let data: Vec<f64> = (0..23).map(|i| (i as f64 * 0.37).sin()).collect();
        let array = DistArray::from_dense("A", dist, &data).unwrap();
        let tracker = CommTracker::new(4, CostModel::zero());
        let path = store.save(&array, 7, &tracker).unwrap();
        assert!(path.ends_with(GEN_FILES[0]));
        assert_eq!(store.latest_step(), Some(7));
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(restored.step, 7);
        assert_eq!(restored.array.name(), "A");
        assert_eq!(restored.array.to_dense(), data);
        assert!(restored.array.dist().same_mapping(array.dist()));
        // Every byte written is read back, and the counters say so.
        let stats = tracker.snapshot();
        assert!(stats.ckpt_bytes_written() > 23 * 8);
        assert_eq!(stats.ckpt_bytes_read(), stats.ckpt_bytes_written());
    }

    #[test]
    fn generations_rotate_and_fall_back() {
        let store = store("generations");
        let dist = dist_1d(DistType::block1d(), 16, 2);
        let tracker = CommTracker::new(2, CostModel::zero());
        let mk = |v: f64| DistArray::from_dense("G", dist.clone(), &[v; 16]).unwrap();
        let p0 = store.save(&mk(1.0), 1, &tracker).unwrap();
        let p1 = store.save(&mk(2.0), 2, &tracker).unwrap();
        assert_ne!(p0, p1, "second save must land in the other slot");
        let p2 = store.save(&mk(3.0), 3, &tracker).unwrap();
        assert_eq!(p2, p0, "third save overwrites the oldest generation");
        assert_eq!(store.latest_step(), Some(3));
        // Corrupt the newest generation: restore falls back to step 2.
        let mut bytes = std::fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&p2, &bytes).unwrap();
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(restored.step, 2);
        assert_eq!(restored.array.to_dense(), vec![2.0; 16]);
        // Corrupt the survivor too: the store reports corruption.
        let mut bytes = std::fs::read(&p1).unwrap();
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&p1, &bytes).unwrap();
        match store.restore::<f64>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { .. }) => {}
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
    }

    #[test]
    fn restore_into_redistributes_to_the_live_distribution() {
        let store = store("redist");
        let n = 31;
        let data: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.25).collect();
        let file_dist = dist_1d(DistType::block1d(), n, 4);
        let live = dist_1d(DistType::cyclic1d(1), n, 4);
        let array = DistArray::from_dense("R", file_dist, &data).unwrap();
        let tracker = CommTracker::new(4, CostModel::zero());
        store.save(&array, 5, &tracker).unwrap();
        let cache = PlanCache::new();
        let restored = store
            .restore_into::<f64, _>(&live, &tracker, &cache, &crate::SerialExecutor)
            .unwrap();
        assert_eq!(restored.step, 5);
        assert!(restored.array.dist().same_mapping(&live));
        assert_eq!(restored.array.to_dense(), data);
    }

    #[test]
    fn indirect_distribution_round_trips() {
        let n = 24;
        let owners: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 3).collect();
        let map = Arc::new(IndirectMap::new(owners).unwrap());
        let dist = dist_1d(DistType::new(vec![DimDist::indirect(map)]), n, 3);
        let data: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let array = DistArray::from_dense("I", dist, &data).unwrap();
        let store = store("indirect");
        let tracker = CommTracker::new(3, CostModel::zero());
        store.save(&array, 11, &tracker).unwrap();
        // Same-distribution restore is bitwise.
        let restored = store.restore::<f64>(&tracker).unwrap();
        assert_eq!(restored.array.to_dense(), data);
        assert!(restored.array.dist().same_mapping(array.dist()));
        // INDIRECT → BLOCK redistribute-on-read is bitwise too.
        let live = dist_1d(DistType::block1d(), n, 3);
        let cache = PlanCache::new();
        let re = store
            .restore_into::<f64, _>(&live, &tracker, &cache, &crate::SerialExecutor)
            .unwrap();
        assert_eq!(re.array.to_dense(), data);
    }

    #[test]
    fn wrong_element_width_and_procs_are_structural_errors() {
        let store = store("structural");
        let dist = dist_1d(DistType::block1d(), 8, 2);
        let array = DistArray::from_dense("S", dist, &[0.5f64; 8]).unwrap();
        let tracker = CommTracker::new(2, CostModel::zero());
        store.save(&array, 1, &tracker).unwrap();
        match store.restore::<f32>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("element width mismatch"))
            }
            other => panic!("expected width mismatch, got {other:?}"),
        }
        let narrow = CommTracker::new(3, CostModel::zero());
        match store.restore::<f64>(&narrow) {
            Err(RuntimeError::TrackerMismatch {
                tracker_procs: 3,
                dist_procs: 2,
            }) => {}
            other => panic!("expected TrackerMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_store_reports_corruption() {
        let store = store("empty");
        let tracker = CommTracker::new(2, CostModel::zero());
        match store.restore::<f64>(&tracker) {
            Err(RuntimeError::CorruptCheckpoint { reason, .. }) => {
                assert!(reason.contains("no restorable"))
            }
            other => panic!("expected CorruptCheckpoint, got {other:?}"),
        }
        assert_eq!(store.latest_step(), None);
    }
}
