//! Distribution-aware checkpoint/restart.
//!
//! The paper makes distributions first-class, dynamic runtime objects — so
//! a checkpoint is not an opaque memory dump but a *distributed* object:
//! each rank's local segment is written contiguously, in local order, with
//! a checksum, and the file carries a manifest (distribution descriptor,
//! `INDIRECT` maps, step counter, fingerprint) sufficient to rebuild the
//! on-disk distribution from nothing.  The rebuilt distribution defines
//! where every stored element lives, so the file needs no run table.
//! Restoring into a *different* live distribution is then just a
//! redistribute from the "file distribution" to the live one through the
//! ordinary [`PlanCache`]/executor stack — the ViPIOS redistribute-on-read
//! idea for Vienna Fortran parallel I/O.
//!
//! # File format (all integers little-endian)
//!
//! ```text
//! magic      8 bytes  "VFCKPT02"
//! step       u64      application step the snapshot was taken at
//! elem_bytes u64      element width (must match the restoring T)
//! name       u64 len + bytes (UTF-8 array name)
//! rank       u64; per dim: lower i64, upper i64 (index-domain bounds)
//! nprocs     u64      processors of the target view (rebuilt linear)
//! per dim    dist descriptor: 0=BLOCK · 1=CYCLIC(k) · 2=GEN_BLOCK(sizes)
//!            · 3=INDIRECT(owners) · 4=":"
//! fingerprint u64     structural fingerprint of the saved distribution
//! per proc   len u64 (local element count), checksum u64 (the wire
//!            checksum of the whole local segment, keyed by the rank so
//!            segments cannot trade places), payload (len · elem_bytes)
//! trailer    u64      file_hash over every preceding byte
//! ```
//!
//! Every count read from a file is bounded by the bytes left after it, and
//! every segment length must equal its rank's local size under the rebuilt
//! distribution before anything is allocated for the payload, so a crafted
//! file cannot size an allocation beyond its own length.
//!
//! # Hash
//!
//! [`file_hash`] consumes the file eight bytes at a time into four
//! independent lanes.  Each step is a bijection of its input word, so any
//! change confined to one word always changes the result; the lanes make
//! it position-sensitive, and the length is folded in last, so truncation
//! and zero-extension change it too.  The hash runs at memory speed, and
//! each file read is hashed exactly once.
//!
//! # Durability and generations
//!
//! A save encodes into a buffer sized once, writes it to a temporary file
//! in the store directory, `sync_all`s it, [`std::fs::rename`]s it into one
//! of **two** generation slots (`gen0.vfck` / `gen1.vfck`) and then syncs
//! the directory (on Unix), so a returned save survives power loss and not
//! only a process crash.  A failed save removes its temporary.  The slot
//! rule: an empty or invalid slot is overwritten first, otherwise the one
//! holding the older generation — a save reads and validates both slots
//! once each to decide.
//!
//! A restore orders the slots by the step in their header and reads,
//! validates and decodes only the newest; the other is read only when the
//! newest fails.  Corruption (trailer, magic, structure, fingerprint,
//! segment lengths or checksums) falls back a generation; a mismatch with
//! the restoring side (element width, processor count) is shared by every
//! generation and propagates at once.  When nothing validates, the error is
//! a [`RuntimeError::CorruptCheckpoint`] naming the store.
//!
//! All checkpoint I/O is charged to the tracker
//! ([`CommTracker::record_ckpt_write`] / [`CommTracker::record_ckpt_read`])
//! and wrapped in [`trace::Phase::CkptWrite`] / [`trace::Phase::CkptRead`]
//! spans, with the two syncs of a save in nested [`trace::Phase::CkptSync`]
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
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use vf_dist::{DimDist, DistType, Distribution, IndirectMap, ProcId, ProcessorView};
use vf_index::IndexDomain;
use vf_machine::{trace, CommTracker};

const MAGIC: &[u8; 8] = b"VFCKPT02";
const GEN_FILES: [&str; 2] = ["gen0.vfck", "gen1.vfck"];
const TAG_BLOCK: u64 = 0;
const TAG_CYCLIC: u64 = 1;
const TAG_GEN_BLOCK: u64 = 2;
const TAG_INDIRECT: u64 = 3;
const TAG_NOT_DISTRIBUTED: u64 = 4;
/// A segment's `len` and `checksum` words.
const SEGMENT_HEADER_BYTES: usize = 16;
const TRAILER_BYTES: usize = 8;
/// Odd, so multiplying by it is a bijection on `u64`.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

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
        self.newest_first().into_iter().find_map(|path| {
            let bytes = std::fs::read(&path).ok()?;
            validate(&bytes, &path).ok().map(|m| m.step)
        })
    }

    /// Saves `array` at `step` into the older generation slot
    /// (write-new, sync, atomic rename, sync the directory), charging the
    /// written bytes to `tracker`.  Returns the path of the generation
    /// written.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptCheckpoint`] when the store directory or the
    /// file cannot be written or synced (the I/O error is carried in the
    /// reason); the temporary file is removed.
    pub fn save<T: Element>(
        &self,
        array: &DistArray<T>,
        step: u64,
        tracker: &CommTracker,
    ) -> Result<PathBuf> {
        let span = trace::OpenSpan::begin_with(trace::Phase::CkptWrite, || {
            format!("{} step {step}", array.name())
        });
        let target = self.save_slot();
        let bytes = encode_checkpoint(array, step);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            target.file_name().and_then(|n| n.to_str()).unwrap_or("gen")
        ));
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| corrupt(&target, format!("create store dir: {e}")))?;
        if let Err((what, e)) = self.write_durably(&tmp, &target, &bytes) {
            // The write's error is the one to report; a temporary that is
            // already gone is not a second failure.
            let _ = std::fs::remove_file(&tmp);
            return Err(corrupt(&target, format!("{what}: {e}")));
        }
        tracker.record_ckpt_write(bytes.len());
        span.end();
        Ok(target)
    }

    /// Restores the newest valid generation under its *file* distribution.
    /// A generation that fails validation is skipped in favour of the
    /// previous one.
    ///
    /// # Errors
    /// [`RuntimeError::CorruptCheckpoint`] when no generation validates (or
    /// the file's element width differs from `T`'s),
    /// [`RuntimeError::TrackerMismatch`] when the file's processor count
    /// differs from the tracker's.
    pub fn restore<T: Element>(&self, tracker: &CommTracker) -> Result<RestoredCheckpoint<T>> {
        let span = trace::OpenSpan::begin_with(trace::Phase::CkptRead, || {
            format!("restore from {}", self.dir.display())
        });
        let mut failures = Vec::new();
        for path in self.newest_first() {
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    failures.push(corrupt(&path, format!("read: {e}")).to_string());
                    continue;
                }
            };
            let manifest = match validate(&bytes, &path) {
                Ok(manifest) => manifest,
                Err(e) => {
                    failures.push(e.to_string());
                    continue;
                }
            };
            // A mismatch with the restoring side is a caller error every
            // generation shares, so it propagates instead of falling back.
            manifest.check_restorable::<T>(&path, tracker)?;
            match decode_checkpoint::<T>(&manifest, &path) {
                Ok(restored) => {
                    tracker.record_ckpt_read(bytes.len());
                    span.end();
                    return Ok(restored);
                }
                Err(e) => failures.push(e.to_string()),
            }
        }
        let mut reason = String::from("no restorable checkpoint generation in the store");
        if !failures.is_empty() {
            reason = format!("{reason} ({})", failures.join("; "));
        }
        Err(corrupt(&self.dir, reason))
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

    /// The generation slots present on disk, newest first by the step in
    /// their header.  Only the header is read; a slot whose header cannot
    /// be read sorts last, since it can only fail validation.
    fn newest_first(&self) -> Vec<PathBuf> {
        let mut slots: Vec<(Option<u64>, PathBuf)> = self
            .generation_paths()
            .into_iter()
            .filter(|path| path.exists())
            .map(|path| (header_step(&path), path))
            .collect();
        slots.sort_by_key(|(step, _)| std::cmp::Reverse(*step));
        slots.into_iter().map(|(_, path)| path).collect()
    }

    /// The slot a save overwrites: an empty/invalid slot first, otherwise
    /// the one holding the older generation.  Reads and validates each
    /// slot once.
    fn save_slot(&self) -> PathBuf {
        let [first, second] = self.generation_paths().map(|path| {
            let step = std::fs::read(&path)
                .ok()
                .and_then(|bytes| validate(&bytes, &path).ok().map(|m| m.step));
            (path, step)
        });
        match (first.1, second.1) {
            (Some(a), Some(b)) if a > b => second.0,
            (Some(_), None) => second.0,
            _ => first.0,
        }
    }

    /// Writes `bytes` to `tmp`, syncs it, renames it over `target` and
    /// syncs the store directory, so the new generation is on stable
    /// storage when this returns.  Errors carry the step that failed.
    fn write_durably(
        &self,
        tmp: &Path,
        target: &Path,
        bytes: &[u8],
    ) -> std::result::Result<(), (&'static str, std::io::Error)> {
        let mut file = std::fs::File::create(tmp).map_err(|e| ("create temporary", e))?;
        file.write_all(bytes).map_err(|e| ("write temporary", e))?;
        {
            let _sync = trace::OpenSpan::begin_static(trace::Phase::CkptSync, "temporary");
            file.sync_all().map_err(|e| ("sync temporary", e))?;
        }
        drop(file);
        std::fs::rename(tmp, target).map_err(|e| ("rename into generation", e))?;
        let _sync = trace::OpenSpan::begin_static(trace::Phase::CkptSync, "store directory");
        sync_dir(&self.dir).map_err(|e| ("sync store directory", e))
    }
}

/// Makes a rename inside `dir` durable.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing here; the file itself was
/// synced before the rename.
#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> std::io::Result<()> {
    Ok(())
}

/// The step stored in a generation's header, without validating the file.
fn header_step(path: &Path) -> Option<u64> {
    let mut header = [0u8; 16];
    std::fs::File::open(path)
        .ok()?
        .read_exact(&mut header)
        .ok()?;
    Some(le_u64(&header[MAGIC.len()..]))
}

fn corrupt(path: &Path, reason: impl Into<String>) -> RuntimeError {
    RuntimeError::CorruptCheckpoint {
        path: path.display().to_string(),
        reason: reason.into(),
    }
}

fn le_u64(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("an 8-byte word"))
}

/// One lane step: a bijection of `word` for a fixed lane, and of the lane
/// for a fixed word.
#[inline]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MUL).rotate_left(29)
}

/// A bijective finaliser: an odd multiply, then an xor-shift.
#[inline]
fn mix(h: u64) -> u64 {
    let h = h.wrapping_mul(MUL);
    h ^ (h >> 32)
}

/// The checkpoint trailer hash: word-at-a-time and position-sensitive.
///
/// Word `i` (little-endian, the last one zero-padded) feeds lane `i % 4`;
/// the lanes are folded in order and the byte length last.  Every step is
/// a bijection of the word it consumes and of the state it carries, so a
/// change confined to one word always changes the result, and a change of
/// length with the same words (zero-extension) does too.
pub fn file_hash(bytes: &[u8]) -> u64 {
    const LANES: usize = 4;
    let mut lanes: [u64; LANES] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, le_u64(word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = lane_step(*lane, u64::from_le_bytes(padded));
    }
    let h = lanes.into_iter().fold(0, |h, lane| mix(h ^ lane));
    mix(h ^ bytes.len() as u64)
}

/// A segment's stored checksum: the wire checksum of its elements, keyed by
/// its rank so that two segments of equal length cannot trade places.
fn segment_checksum<T: Element>(rank: usize, local: &[T]) -> u64 {
    wire_checksum(local) ^ (rank as u64 + 1).wrapping_mul(MUL)
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes the whole checkpoint (manifest, per-rank segments, trailer)
/// into a buffer allocated once at its final size.
fn encode_checkpoint<T: Element>(array: &DistArray<T>, step: u64) -> Vec<u8> {
    let dist = array.dist();
    let domain = dist.domain();
    let nprocs = dist.num_procs();
    let dims = dist.dist_type().dims();
    let descriptor_words: usize = dims
        .iter()
        .map(|dim| match dim {
            DimDist::Block | DimDist::NotDistributed => 1,
            DimDist::Cyclic(_) => 2,
            DimDist::GenBlock(sizes) => 2 + sizes.len(),
            DimDist::Indirect(map) => 2 + map.len(),
        })
        .sum();
    let segment_bytes: usize = (0..nprocs)
        .map(|p| SEGMENT_HEADER_BYTES + array.local(ProcId(p)).len() * T::BYTES)
        .sum();
    // magic; step, width, name length; name; rank; bounds; nprocs;
    // descriptors; fingerprint; segments; trailer.
    let size = MAGIC.len()
        + 8 * 3
        + array.name().len()
        + 8
        + 16 * domain.rank()
        + 8
        + 8 * descriptor_words
        + 8
        + segment_bytes
        + TRAILER_BYTES;
    let mut buf = Vec::with_capacity(size);
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, step);
    put_u64(&mut buf, T::BYTES as u64);
    put_u64(&mut buf, array.name().len() as u64);
    buf.extend_from_slice(array.name().as_bytes());
    put_u64(&mut buf, domain.rank() as u64);
    for d in 0..domain.rank() {
        buf.extend_from_slice(&domain.dim(d).lower().to_le_bytes());
        buf.extend_from_slice(&domain.dim(d).upper().to_le_bytes());
    }
    put_u64(&mut buf, nprocs as u64);
    for dim in dims {
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
        let local = array.local(ProcId(p));
        put_u64(&mut buf, local.len() as u64);
        put_u64(&mut buf, segment_checksum(p, local));
        for e in local {
            e.write_bytes(&mut buf);
        }
    }
    let trailer = file_hash(&buf);
    put_u64(&mut buf, trailer);
    debug_assert_eq!(buf.len(), size, "the size computation matches the encoding");
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
    fn new(bytes: &'a [u8], path: &'a Path) -> Self {
        Self {
            bytes,
            pos: 0,
            path,
        }
    }

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
        self.take(8, what).map(le_u64)
    }

    fn i64(&mut self, what: &str) -> Result<i64> {
        self.u64(what).map(|v| v as i64)
    }

    /// A value with a fixed sanity bound.
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

    /// A count of items of `unit` bytes each, which the rest of the file
    /// must still hold — so no count read from a file can size an
    /// allocation beyond the file itself.
    fn count(&mut self, what: &str, unit: usize) -> Result<usize> {
        let v = self.u64(what)?;
        let left = self.bytes.len() - self.pos;
        if v > (left / unit) as u64 {
            return Err(corrupt(
                self.path,
                format!("{what} {v} exceeds what the {left} bytes left can hold"),
            ));
        }
        Ok(v as usize)
    }
}

/// One dimension descriptor as stored, its tables left as file bytes.
enum StoredDim<'a> {
    Block,
    Cyclic(usize),
    GenBlock(&'a [u8]),
    Indirect(&'a [u8]),
    NotDistributed,
}

fn read_dim<'a>(reader: &mut Reader<'a>, d: usize) -> Result<StoredDim<'a>> {
    Ok(match reader.u64("distribution tag")? {
        TAG_BLOCK => StoredDim::Block,
        TAG_CYCLIC => StoredDim::Cyclic(reader.usize("cyclic width", 1 << 32)?),
        TAG_GEN_BLOCK => {
            let count = reader.count("general-block count", 8)?;
            StoredDim::GenBlock(reader.take(8 * count, "general-block sizes")?)
        }
        TAG_INDIRECT => {
            let count = reader.count("indirect map length", 8)?;
            StoredDim::Indirect(reader.take(8 * count, "indirect owners")?)
        }
        TAG_NOT_DISTRIBUTED => StoredDim::NotDistributed,
        other => {
            return Err(corrupt(
                reader.path,
                format!("unknown distribution tag {other} in dimension {d}"),
            ))
        }
    })
}

/// One rank's segment: its element count, stored checksum and payload.
fn read_segment<'a>(reader: &mut Reader<'a>, elem_bytes: usize) -> Result<(usize, u64, &'a [u8])> {
    let len = reader.count("segment length", elem_bytes)?;
    let checksum = reader.u64("segment checksum")?;
    let payload = reader.take(len * elem_bytes, "segment payload")?;
    Ok((len, checksum, payload))
}

/// A generation that passed [`validate`]: the manifest fields, with the
/// variable-length parts left as ranges of the file.
struct Manifest<'a> {
    step: u64,
    elem_bytes: usize,
    name: &'a str,
    nprocs: usize,
    /// `rank` pairs of (lower, upper) bounds.
    bounds: &'a [u8],
    /// `rank` dimension descriptors.
    dims: &'a [u8],
    fingerprint: u64,
    /// `nprocs` segments.
    segments: &'a [u8],
}

impl Manifest<'_> {
    /// Checks what every generation of a store shares with the restoring
    /// side: the element width and the processor count.
    fn check_restorable<T: Element>(&self, path: &Path, tracker: &CommTracker) -> Result<()> {
        if self.elem_bytes != T::BYTES {
            return Err(corrupt(
                path,
                format!(
                    "element width mismatch: file has {}-byte elements, restoring {}-byte",
                    self.elem_bytes,
                    T::BYTES
                ),
            ));
        }
        if self.nprocs != tracker.num_procs() {
            return Err(RuntimeError::TrackerMismatch {
                tracker_procs: tracker.num_procs(),
                dist_procs: self.nprocs,
            });
        }
        Ok(())
    }
}

/// Validates everything that does not need the element type — trailer
/// hash, magic, manifest structure and segment framing — in one hash pass
/// and one walk that allocates nothing.
fn validate<'a>(bytes: &'a [u8], path: &'a Path) -> Result<Manifest<'a>> {
    if bytes.len() < MAGIC.len() + TRAILER_BYTES {
        return Err(corrupt(path, "file shorter than magic + trailer"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_BYTES);
    if file_hash(body) != le_u64(trailer) {
        return Err(corrupt(path, "whole-file checksum mismatch (torn write?)"));
    }
    let mut reader = Reader::new(body, path);
    if reader.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(corrupt(path, "bad magic (not a VFCKPT02 file)"));
    }
    let step = reader.u64("step")?;
    let elem_bytes = reader.usize("element width", 64)?;
    if elem_bytes == 0 {
        return Err(corrupt(path, "element width 0"));
    }
    let name_len = reader.count("name length", 1)?;
    let name = std::str::from_utf8(reader.take(name_len, "name")?)
        .map_err(|_| corrupt(path, "array name is not UTF-8"))?;
    let rank = reader.count("domain rank", 16)?;
    if rank == 0 {
        return Err(corrupt(path, "domain rank 0"));
    }
    let bounds = reader.take(16 * rank, "domain bounds")?;
    let nprocs = reader.count("processor count", SEGMENT_HEADER_BYTES)?;
    if nprocs == 0 {
        return Err(corrupt(path, "processor count 0"));
    }
    let dims_start = reader.pos;
    for d in 0..rank {
        read_dim(&mut reader, d)?;
    }
    let dims = &body[dims_start..reader.pos];
    let fingerprint = reader.u64("distribution fingerprint")?;
    let segments_start = reader.pos;
    for _ in 0..nprocs {
        read_segment(&mut reader, elem_bytes)?;
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
    Ok(Manifest {
        step,
        elem_bytes,
        name,
        nprocs,
        bounds,
        dims,
        fingerprint,
        segments: &body[segments_start..],
    })
}

/// The stored index domain, rejecting bounds whose extents or element
/// count overflow.
fn stored_domain(bounds: &[u8], path: &Path) -> Result<IndexDomain> {
    let mut reader = Reader::new(bounds, path);
    let mut pairs = Vec::with_capacity(bounds.len() / 16);
    let mut size = 1usize;
    while reader.pos < bounds.len() {
        let (lower, upper) = (reader.i64("lower bound")?, reader.i64("upper bound")?);
        size = upper
            .checked_sub(lower)
            .and_then(|d| d.checked_add(1))
            .filter(|_| lower > i64::MIN)
            .and_then(|extent| usize::try_from(extent).ok())
            .and_then(|extent| size.checked_mul(extent))
            .ok_or_else(|| {
                corrupt(
                    path,
                    format!("stored domain bound {lower}:{upper} is out of range"),
                )
            })?;
        pairs.push((lower, upper));
    }
    IndexDomain::of_bounds(&pairs).map_err(|e| corrupt(path, format!("invalid stored domain: {e}")))
}

fn gen_block_sizes(bytes: &[u8], path: &Path) -> Result<Vec<usize>> {
    let mut sizes = Vec::with_capacity(bytes.len() / 8);
    let mut total = 0usize;
    for word in bytes.chunks_exact(8) {
        let size = usize::try_from(le_u64(word))
            .ok()
            .filter(|&s| total.checked_add(s).is_some())
            .ok_or_else(|| corrupt(path, "general-block sizes overflow"))?;
        total += size;
        sizes.push(size);
    }
    Ok(sizes)
}

fn indirect_map(bytes: &[u8], nprocs: usize, path: &Path) -> Result<IndirectMap> {
    let mut owners = Vec::with_capacity(bytes.len() / 8);
    for word in bytes.chunks_exact(8) {
        let owner = le_u64(word);
        if owner >= nprocs as u64 {
            return Err(corrupt(
                path,
                format!("indirect owner {owner} is not below the processor count {nprocs}"),
            ));
        }
        owners.push(owner as usize);
    }
    IndirectMap::new(owners).map_err(|e| corrupt(path, format!("invalid indirect map: {e}")))
}

/// Rebuilds the distribution described by a manifest (linear processor
/// view; the fingerprint cross-check catches anything the descriptor
/// cannot represent).
fn rebuild_distribution(manifest: &Manifest, path: &Path) -> Result<Distribution> {
    let domain = stored_domain(manifest.bounds, path)?;
    let mut reader = Reader::new(manifest.dims, path);
    let dims = (0..domain.rank())
        .map(|d| {
            Ok(match read_dim(&mut reader, d)? {
                StoredDim::Block => DimDist::block(),
                StoredDim::Cyclic(k) => DimDist::cyclic_k(k),
                StoredDim::GenBlock(sizes) => DimDist::gen_block(gen_block_sizes(sizes, path)?),
                StoredDim::Indirect(owners) => {
                    DimDist::indirect(Arc::new(indirect_map(owners, manifest.nprocs, path)?))
                }
                StoredDim::NotDistributed => DimDist::not_distributed(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let dist = Distribution::new(
        DistType::new(dims),
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

/// Decodes a validated generation whose element width is `T`'s straight
/// into the locals of a new array.
fn decode_checkpoint<T: Element>(
    manifest: &Manifest,
    path: &Path,
) -> Result<RestoredCheckpoint<T>> {
    let dist = rebuild_distribution(manifest, path)?;
    // Every segment must hold exactly its rank's local elements before
    // anything is allocated for them.
    let mut reader = Reader::new(manifest.segments, path);
    for p in 0..manifest.nprocs {
        let (len, _, _) = read_segment(&mut reader, T::BYTES)?;
        let expected = dist.local_size(ProcId(p));
        if len != expected {
            return Err(corrupt(
                path,
                format!("rank {p} stores {len} elements but the distribution gives it {expected}"),
            ));
        }
    }
    let mut array = DistArray::<T>::new(manifest.name, dist);
    let mut reader = Reader::new(manifest.segments, path);
    for p in 0..manifest.nprocs {
        let (_, checksum, payload) = read_segment(&mut reader, T::BYTES)?;
        let local = array.local_mut(ProcId(p));
        for (value, bytes) in local.iter_mut().zip(payload.chunks_exact(T::BYTES)) {
            *value = T::read_bytes(bytes);
        }
        if segment_checksum(p, local) != checksum {
            return Err(corrupt(
                path,
                format!("rank {p} segment fails its checksum"),
            ));
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

    /// A deterministic 67-byte buffer: eight full words and a 3-byte tail.
    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37) ^ 0x5a)
            .collect()
    }

    #[test]
    fn file_hash_detects_every_single_bit_flip() {
        let bytes = sample(67);
        let h = file_hash(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(file_hash(&flipped), h, "bit {bit} flip undetected");
        }
    }

    #[test]
    fn file_hash_detects_truncation_and_zero_extension() {
        let bytes = sample(67);
        let h = file_hash(&bytes);
        for cut in 1..=8 {
            assert_ne!(file_hash(&bytes[..67 - cut]), h, "truncation by {cut}");
        }
        for extra in 1..=9 {
            let mut extended = bytes.clone();
            extended.resize(67 + extra, 0);
            assert_ne!(file_hash(&extended), h, "zero-extension by {extra}");
        }
    }

    #[test]
    fn file_hash_detects_swapped_words_within_and_across_lanes() {
        let bytes = sample(67);
        let h = file_hash(&bytes);
        // Words 0 and 4 share lane 0; words 0 and 1 sit in different lanes.
        for (a, b) in [(0, 4), (0, 1), (3, 7)] {
            assert_ne!(bytes[8 * a..8 * a + 8], bytes[8 * b..8 * b + 8]);
            let mut swapped = bytes.clone();
            for i in 0..8 {
                swapped.swap(8 * a + i, 8 * b + i);
            }
            assert_ne!(file_hash(&swapped), h, "swap of words {a} and {b}");
        }
    }
}
