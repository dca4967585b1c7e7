//! Disk-persistent layer under the in-memory result caches.
//!
//! Entries are addressed by the same stable 128-bit content keys the
//! in-memory [`MemoCache`](crate::cache::MemoCache)s use, in two namespaces:
//! `results` holds analysis outcomes keyed by content hash × registry key
//! × parameter digest, `identity` holds the job-recipe → content-hash memo
//! (including "the generator declined this sample"). Because keys are
//! content hashes, entries never go stale with respect to their inputs;
//! the only invalidation is the format version in each record's namespace
//! tag, which a newer build bumps to orphan (never misread) old entries.
//!
//! Layout under the cache directory:
//!
//! ```text
//! <dir>/CURRENT            names the live generation (absent: gen-0)
//! <dir>/gen-<n>/log        append-only records, one per entry written
//! <dir>/gen-<n>/index      slot index: key → (offset, len, check)
//! ```
//!
//! Each record is a `hetrta-fault` record line
//! ([`hetrta_fault::encode`]) whose payload is `<ns>.v2 <key:032x>
//! <value>`. The index is a sparse file of levels: level `L` holds
//! `LEVEL0_WINDOWS · 4^L` windows of 16 32-byte slots, and a key hashes to
//! one window per level. A lookup reads its level-0 window and goes on to
//! the next level only while the window it read is full without holding
//! the key, then reads the record and verifies its checksum, namespace
//! and key — two positioned reads in the common case, and opening a
//! handle reads nothing in proportion to the directory.
//!
//! A write stages its record line in the handle, and the handle's own
//! reads see it at once. A commit takes one exclusive lock on the index
//! file, appends every staged line with one write and claims one slot per
//! record (a fresh one, or the key's own when it is rewritten), so every
//! process sharing the directory takes its turn once per batch. A handle
//! commits when a write finds 64 KiB staged or its oldest staged record a
//! second old, on [`DiskCache::flush`], before gc and when it drops; an
//! engine flushes at the end of every run. Other handles see a record
//! once it is committed. Reads never wait for a commit: a record on its
//! way to the log reads as a miss. Nothing is fsynced: a lost entry,
//! staged or committed, is only a miss.
//!
//! Robustness contract: a corrupt, truncated, stale-versioned, or
//! concurrently half-written entry **reads as a miss** (the engine
//! recomputes and rewrites it), and write failures are counted, never
//! fatal — a full disk degrades to an in-memory-only engine.
//!
//! [`DiskCache::gc`] compacts the live generation into a fresh one and
//! publishes it by renaming `CURRENT`. Nothing rewrites a live generation,
//! so a handle still reading a retired one stays correct (its open files
//! outlive the directory) and follows the flip on its next commit, or
//! within a second otherwise.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError, RwLock};
use std::time::Instant;

use hetrta_api::wire::fnv64;
use hetrta_api::AnalysisOutcome;
use hetrta_fault::FaultPlan;
use hetrta_obs::{span, Counter, MetricsRegistry, NoopRecorder, Recorder};

use crate::cache::CacheCounters;

/// Identity-entry value for a declined sample.
const SKIP: &str = "skip";

/// Bytes per index slot: key (16), record offset (8), record length (4),
/// check (4).
const SLOT: usize = 32;

/// Slots per probe window (one positioned read).
const WINDOW_SLOTS: usize = 16;

/// Bytes per probe window.
const WINDOW: usize = SLOT * WINDOW_SLOTS;

/// Windows in level 0 of the index (2 MiB of sparse file); each further
/// level has four times as many.
const LEVEL0_WINDOWS: u64 = 4096;

/// Levels an index may grow to: `LEVEL0_WINDOWS · 16 · (4^16 − 1) / 3`
/// slots, far beyond any directory a disk can hold.
const MAX_LEVELS: u32 = 16;

/// Longest record a slot may point at (a defect guard, far above any
/// encoded outcome).
const MAX_RECORD: u32 = 1 << 26;

/// How often a handle that only reads checks whether gc retired its
/// generation.
const FOLLOW_EVERY_MS: u64 = 1000;

/// Staged bytes at which a write commits the batch.
const BATCH_BYTES: usize = 64 * 1024;

/// Age of the oldest staged record at which a write commits the batch,
/// so that slow sweeps do not keep results from other processes for long.
const BATCH_MS: u128 = 1000;

/// The two entry namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ns {
    Results,
    Identity,
}

impl Ns {
    /// Span detail name.
    fn name(self) -> &'static str {
        match self {
            Ns::Results => "results",
            Ns::Identity => "identity",
        }
    }

    /// Record tag: the namespace and the format version. Bumping the
    /// version makes every older record fail verification.
    fn tag(self) -> &'static str {
        match self {
            Ns::Results => "results.v2",
            Ns::Identity => "identity.v2",
        }
    }

    fn from_tag(tag: &str) -> Option<Ns> {
        [Ns::Results, Ns::Identity]
            .into_iter()
            .find(|ns| ns.tag() == tag)
    }
}

/// One record's payload, `<tag> <key:032x> <value>`.
fn record_payload(ns: Ns, key: u128, value: &str) -> String {
    format!("{} {key:032x} {value}", ns.tag())
}

/// Splits a verified record payload into namespace, key and value.
fn parse_payload(payload: &str) -> Option<(Ns, u128, &str)> {
    let (tag, rest) = payload.split_once(' ')?;
    let (key, value) = rest.split_once(' ')?;
    let key = (key.len() == 32)
        .then(|| u128::from_str_radix(key, 16).ok())
        .flatten()?;
    Some((Ns::from_tag(tag)?, key, value))
}

/// Where a record sits in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: u128,
    offset: u64,
    len: u32,
}

impl Slot {
    fn encode(self, ns: Ns) -> [u8; SLOT] {
        let mut bytes = [0u8; SLOT];
        bytes[..16].copy_from_slice(&self.key.to_le_bytes());
        bytes[16..24].copy_from_slice(&self.offset.to_le_bytes());
        bytes[24..28].copy_from_slice(&self.len.to_le_bytes());
        let check = slot_check(ns, &bytes[..28]);
        bytes[28..].copy_from_slice(&check.to_le_bytes());
        bytes
    }

    /// The slot's contents when it holds `key` and its check verifies for
    /// `ns`; empty, torn, other-key and other-namespace slots are `None`.
    /// The key is compared first, so another key's slot costs no hash.
    fn decode(bytes: &[u8], ns: Ns, key: u128) -> Option<Slot> {
        if bytes[..16] != key.to_le_bytes() {
            return None;
        }
        let check = u32::from_le_bytes(bytes[28..32].try_into().ok()?);
        (check != 0 && check == slot_check(ns, &bytes[..28])).then(|| Slot {
            key,
            offset: u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
            len: u32::from_le_bytes(bytes[24..28].try_into().expect("4 bytes")),
        })
    }
}

/// Never zero, so a zero check marks an empty slot.
fn slot_check(ns: Ns, body: &[u8]) -> u32 {
    let mut bytes = [0u8; 29];
    bytes[0] = ns as u8 + 1;
    bytes[1..].copy_from_slice(body);
    let sum = fnv64(&bytes);
    ((sum ^ (sum >> 32)) as u32).max(1)
}

/// `true` when a slot was never claimed.
fn slot_is_empty(bytes: &[u8]) -> bool {
    bytes[28..32] == [0; 4]
}

/// Byte offset of the first window of `level`.
fn level_base(level0: u64, level: u32) -> u64 {
    level0 * ((1u64 << (2 * level)) - 1) / 3 * WINDOW as u64
}

/// Byte offset of `key`'s probe window in `level`.
fn window_offset(level0: u64, level: u32, ns: Ns, key: u128) -> u64 {
    let mut z =
        (key as u64) ^ ((key >> 64) as u64).rotate_left(29) ^ (u64::from(level) << 56) ^ ns as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    level_base(level0, level) + (z % (level0 << (2 * level))) * WINDOW as u64
}

/// One generation's open files.
#[derive(Debug)]
struct Generation {
    name: String,
    log: File,
    index: File,
}

impl Generation {
    /// Opens (creating if needed) the generation directory `name`.
    fn open(root: &Path, name: String) -> std::io::Result<Generation> {
        let dir = root.join(&name);
        std::fs::create_dir_all(&dir)?;
        let log = File::options()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join("log"))?;
        let index = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("index"))?;
        Ok(Generation { name, log, index })
    }

    /// One probe window; bytes past the end of the sparse index read as
    /// empty slots.
    fn window(&self, offset: u64) -> std::io::Result<[u8; WINDOW]> {
        let mut window = [0u8; WINDOW];
        read_at(&self.index, &mut window, offset)?;
        Ok(window)
    }

    /// The slot holding `key`, walking levels while windows are full.
    fn find(&self, level0: u64, ns: Ns, key: u128) -> std::io::Result<Option<Slot>> {
        for level in 0..MAX_LEVELS {
            let window = self.window(window_offset(level0, level, ns, key))?;
            for bytes in window.chunks_exact(SLOT) {
                if slot_is_empty(bytes) {
                    return Ok(None);
                }
                if let Some(slot) = Slot::decode(bytes, ns, key) {
                    return Ok(Some(slot));
                }
            }
        }
        Ok(None)
    }

    /// Points `slot.key`'s index entry at `slot`: its own slot when the
    /// key is already indexed, else the first empty slot on its probe
    /// path. The caller holds the index lock.
    fn claim(&self, level0: u64, ns: Ns, slot: Slot) -> std::io::Result<()> {
        for level in 0..MAX_LEVELS {
            let at = window_offset(level0, level, ns, slot.key);
            let window = self.window(at)?;
            for (i, bytes) in window.chunks_exact(SLOT).enumerate() {
                let ours = Slot::decode(bytes, ns, slot.key).is_some();
                if ours || slot_is_empty(bytes) {
                    return write_at(&self.index, &slot.encode(ns), at + (i * SLOT) as u64);
                }
            }
        }
        Err(std::io::Error::other("cache index full"))
    }

    /// Reads the record `slot` points at and returns its value when the
    /// record verifies (see [`verify_record`]).
    fn record(
        &self,
        ns: Ns,
        key: u128,
        slot: Slot,
        flip: impl FnOnce() -> Option<u64>,
    ) -> Option<String> {
        if slot.len > MAX_RECORD {
            return None;
        }
        let mut bytes = vec![0u8; slot.len as usize];
        read_exact_at(&self.log, &mut bytes, slot.offset).ok()?;
        verify_record(bytes, ns, key, flip)
    }
}

/// The value of one record line, from the log or the staging buffer, when
/// it verifies for `ns` and `key`. `flip` injects read corruption
/// (`disk.read.bitflip`) before verification.
fn verify_record(
    mut bytes: Vec<u8>,
    ns: Ns,
    key: u128,
    flip: impl FnOnce() -> Option<u64>,
) -> Option<String> {
    if let (Some(bits), false) = (flip(), bytes.is_empty()) {
        let index = (bits as usize) % bytes.len();
        bytes[index] ^= 1 << ((bits >> 32) % 8);
    }
    let payload = hetrta_fault::verify(bytes.strip_suffix(b"\n")?)?;
    let (found_ns, found_key, value) = parse_payload(payload)?;
    (found_ns == ns && found_key == key).then(|| value.to_owned())
}

/// The record lines a handle wrote but has not committed, back to back as
/// they will sit in the log, and one slot per record whose offset is
/// relative to the start of the batch.
#[derive(Debug, Default)]
struct Staged {
    bytes: Vec<u8>,
    records: Vec<(Ns, Slot)>,
    /// When the oldest staged record was staged.
    since: Option<Instant>,
}

impl Staged {
    fn push(&mut self, ns: Ns, key: u128, line: &[u8], len: u32) {
        let offset = self.bytes.len() as u64;
        self.bytes.extend_from_slice(line);
        self.records.push((ns, Slot { key, offset, len }));
        self.since.get_or_insert_with(Instant::now);
    }

    /// `true` once the batch is large or old enough to commit.
    fn due(&self) -> bool {
        self.bytes.len() >= BATCH_BYTES
            || self
                .since
                .is_some_and(|t| t.elapsed().as_millis() >= BATCH_MS)
    }

    /// The newest staged line of `key` in `ns`.
    fn line(&self, ns: Ns, key: u128) -> Option<&[u8]> {
        let (_, slot) = self
            .records
            .iter()
            .rev()
            .find(|(n, slot)| *n == ns && slot.key == key)?;
        let start = slot.offset as usize;
        Some(&self.bytes[start..start + slot.len as usize])
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::unix::fs::FileExt::read_at(file, buf, offset)
}

#[cfg(windows)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<usize> {
    std::os::windows::fs::FileExt::seek_read(file, buf, offset)
}

fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    while !buf.is_empty() {
        match read_at(file, buf, offset)? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(windows)]
fn write_at(file: &File, mut buf: &[u8], mut offset: u64) -> std::io::Result<()> {
    while !buf.is_empty() {
        let n = std::os::windows::fs::FileExt::seek_write(file, buf, offset)?;
        buf = &buf[n..];
        offset += n as u64;
    }
    Ok(())
}

/// `true` when gc has removed the generation this file belongs to.
#[cfg(unix)]
fn unlinked(meta: &std::fs::Metadata) -> bool {
    std::os::unix::fs::MetadataExt::nlink(meta) == 0
}

#[cfg(not(unix))]
fn unlinked(_meta: &std::fs::Metadata) -> bool {
    false
}

/// The generation `CURRENT` names (`gen-0` while no gc has run).
fn current_name(root: &Path) -> String {
    std::fs::read_to_string(root.join("CURRENT"))
        .ok()
        .and_then(|text| generation_number(text.trim()).map(|n| format!("gen-{n}")))
        .unwrap_or_else(|| "gen-0".to_owned())
}

/// Parses `gen-<n>` into `n`.
fn generation_number(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

/// Opens the live generation. A gc may retire the generation `CURRENT`
/// named between reading it and opening the files, and remove its
/// directory mid-open, so the name is read again afterwards and the open
/// retried when it moved, whether or not the open succeeded.
fn open_current(root: &Path) -> std::io::Result<Generation> {
    let mut name = current_name(root);
    for _ in 0..8 {
        let opened = Generation::open(root, name.clone());
        let live = current_name(root);
        match opened {
            Ok(generation) if generation.name == live => return Ok(generation),
            Err(error) if name == live => return Err(error),
            _ => name = live,
        }
    }
    Generation::open(root, name)
}

/// Holds an index file's exclusive lock until dropped.
struct IndexLock<'a>(&'a File);

impl<'a> IndexLock<'a> {
    fn acquire(index: &'a File) -> std::io::Result<IndexLock<'a>> {
        index.lock()?;
        Ok(IndexLock(index))
    }
}

impl Drop for IndexLock<'_> {
    fn drop(&mut self) {
        let _ = self.0.unlock();
    }
}

/// A disk-persistent, content-addressed cache directory shared by every
/// engine (and every process) pointed at it.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    generation: RwLock<Arc<Generation>>,
    /// Records written but not yet committed; its lock covers a push, a
    /// scan or taking the batch, never I/O.
    staged: Mutex<Staged>,
    /// Serializes this handle's commits and gc: the index lock is per
    /// open file, so threads sharing a handle need this as well.
    committer: Mutex<()>,
    /// Windows in the index's level 0 ([`LEVEL0_WINDOWS`]; smaller in
    /// unit tests, to reach deep levels with few entries).
    level0: u64,
    opened: Instant,
    /// Milliseconds after `opened` of the last retirement check.
    checked_ms: AtomicU64,
    hits: Counter,
    misses: Counter,
    write_errors: Counter,
    recorder: Arc<dyn Recorder>,
    /// Deterministic fault injection (`--chaos`): `disk.write.enospc`,
    /// `disk.write.torn` and `disk.read.bitflip` sites. `None` in
    /// production.
    fault: Option<Arc<FaultPlan>>,
    /// Emits the operator-facing degradation warning once per handle.
    write_warn: Once,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory. Reads at most the
    /// `CURRENT` pointer: nothing in proportion to the entries held.
    ///
    /// # Errors
    ///
    /// A human-readable message when the directory or its live
    /// generation cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, String> {
        DiskCache::open_with_level0(dir.into(), LEVEL0_WINDOWS)
    }

    fn open_with_level0(root: PathBuf, level0: u64) -> Result<DiskCache, String> {
        let generation = open_current(&root)
            .map_err(|e| format!("cannot create cache dir {}: {e}", root.display()))?;
        Ok(DiskCache {
            root,
            generation: RwLock::new(Arc::new(generation)),
            staged: Mutex::new(Staged::default()),
            committer: Mutex::new(()),
            level0,
            opened: Instant::now(),
            checked_ms: AtomicU64::new(0),
            hits: Counter::detached(),
            misses: Counter::detached(),
            write_errors: Counter::detached(),
            recorder: Arc::new(NoopRecorder),
            fault: None,
            write_warn: Once::new(),
        })
    }

    /// Rebinds this cache's counters onto `metrics` (as `disk.hits`,
    /// `disk.misses`, `disk.write_failed`) and routes `disk.read` /
    /// `disk.write` / `disk.commit` / `disk.gc` spans to `recorder`.
    ///
    /// Called by the engine builder before the cache is shared; counts
    /// are zero at that point, so the swap is lossless.
    pub(crate) fn bind_observability(
        &mut self,
        metrics: &MetricsRegistry,
        recorder: Arc<dyn Recorder>,
    ) {
        self.hits = metrics.counter("disk.hits");
        self.misses = metrics.counter("disk.misses");
        self.write_errors = metrics.counter("disk.write_failed");
        self.recorder = recorder;
    }

    /// Arms deterministic fault injection on this cache's read and write
    /// paths (sites `disk.write.enospc`, `disk.write.torn`,
    /// `disk.read.bitflip`). Wired by
    /// [`EngineBuilder::with_fault_plan`](crate::EngineBuilder::with_fault_plan).
    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }

    /// The directory this cache persists into.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Hit/miss counters of disk probes (lifetime of this handle).
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Entries that failed to persist (full disk, permissions); reads are
    /// unaffected and the engine falls through to in-memory results —
    /// mirrored as the `disk.write_failed` metric.
    #[must_use]
    pub fn write_failed(&self) -> u64 {
        self.write_errors.get()
    }

    /// The generation this handle reads, switching to the live one first
    /// when the last check is a second old and gc has moved `CURRENT`.
    fn generation(&self) -> Arc<Generation> {
        let current = Arc::clone(&self.generation.read().expect("disk generation"));
        let now = self.opened.elapsed().as_millis() as u64;
        let last = self.checked_ms.load(Ordering::Relaxed);
        let due = now >= last + FOLLOW_EVERY_MS
            && self
                .checked_ms
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        if due && current_name(&self.root) != current.name {
            return self.follow(&current).unwrap_or(current);
        }
        current
    }

    /// Switches from the retired generation `stale` to the live one.
    fn follow(&self, stale: &Arc<Generation>) -> std::io::Result<Arc<Generation>> {
        let live = Arc::new(open_current(&self.root)?);
        let mut slot = self.generation.write().expect("disk generation");
        if Arc::ptr_eq(&slot, stale) {
            *slot = Arc::clone(&live);
        }
        Ok(Arc::clone(&slot))
    }

    /// Runs `op` on the live generation under its index lock, with the
    /// log's length, following a flip that happened while waiting for the
    /// lock. Commits detect a retired generation by its removed log;
    /// `strict` (gc) also checks that `CURRENT` still names it. The
    /// caller holds the commit lock.
    fn locked<T>(
        &self,
        strict: bool,
        mut op: impl FnMut(&Generation, u64) -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut generation = self.generation();
        for _ in 0..8 {
            let lock = IndexLock::acquire(&generation.index)?;
            let log = generation.log.metadata()?;
            if !unlinked(&log) && (!strict || current_name(&self.root) == generation.name) {
                return op(&generation, log.len());
            }
            drop(lock);
            generation = self.follow(&generation)?;
        }
        Err(std::io::Error::other("cache generation keeps moving"))
    }

    /// This handle's staged records, locked. A panic mid-update leaves
    /// at worst a staged line no slot will point at, which commits as an
    /// unindexed record, so a poisoned lock is taken over rather than
    /// fatal: [`Drop`] commits through it too.
    fn staged(&self) -> MutexGuard<'_, Staged> {
        self.staged.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This handle's commit lock; a commit that panicked leaves nothing
    /// behind it, so a poisoned lock is taken over.
    fn committer(&self) -> MutexGuard<'_, ()> {
        self.committer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the staged batch and commits it: one index lock, one log
    /// write, one slot claim per record. Batches commit in the order they
    /// were taken, because the caller holds the commit lock. A failure
    /// counts every record of the batch; the batch is dropped either way.
    fn commit(&self) {
        let batch = std::mem::take(&mut *self.staged());
        if batch.records.is_empty() {
            return;
        }
        let records = batch.records.len() as u64;
        let _span = span!(self.recorder.as_ref(), "disk.commit", records = records);
        let committed = self.locked(false, |generation, end| {
            (&generation.log).write_all(&batch.bytes)?;
            for &(ns, slot) in &batch.records {
                let offset = end + slot.offset;
                generation.claim(self.level0, ns, Slot { offset, ..slot })?;
            }
            Ok(())
        });
        if let Err(error) = committed {
            self.count_failed(records, &error);
        }
    }

    /// Counts `records` entries that did not persist, and warns once.
    fn count_failed(&self, records: u64, error: &std::io::Error) {
        self.write_errors.add(records);
        let _span = span!(
            self.recorder.as_ref(),
            "disk.write_failed",
            records = records
        );
        self.write_warn.call_once(|| {
            eprintln!(
                "hetrta: disk cache write failed ({error}) at {}; \
                 continuing with in-memory results (disk.write_failed counts)",
                self.root.display()
            );
        });
    }

    /// Commits the records this handle has staged, so that other handles,
    /// in this process or another, read them. A handle also commits on
    /// its own when a write finds 64 KiB staged or the oldest staged
    /// record a second old, before [`DiskCache::gc`] and when it drops,
    /// and an engine flushes its cache at the end of every run. A failed
    /// commit counts each of its records in `disk.write_failed`.
    pub fn flush(&self) {
        let _commit = self.committer();
        self.commit();
    }

    /// Reads and verifies one entry's value; `None` on any defect.
    ///
    /// Does **not** count: a checksum-valid value can still fail to
    /// decode, so hit/miss accounting happens in the typed loaders once
    /// the full decode has succeeded or failed.
    fn read_value(&self, ns: Ns, key: u128) -> Option<String> {
        let _span = span!(self.recorder.as_ref(), "disk.read", ns = ns.name());
        // Injected read corruption flips one bit of the record before
        // verification — it must read as a miss, never as data.
        let flip = || {
            self.fault
                .as_deref()
                .and_then(|p| p.fires("disk.read.bitflip"))
        };
        // A staged record is newer than anything committed for its key. A
        // record taken by a commit in flight reads as a miss until its
        // slot is claimed.
        let staged = self.staged().line(ns, key).map(<[u8]>::to_vec);
        if let Some(line) = staged {
            return verify_record(line, ns, key, flip);
        }
        let generation = self.generation();
        let slot = generation.find(self.level0, ns, key).ok()??;
        generation.record(ns, key, slot, flip)
    }

    /// Stages one entry, committing the batch once it holds
    /// [`BATCH_BYTES`] or is [`BATCH_MS`] old; failures are counted and
    /// swallowed.
    fn write_value(&self, ns: Ns, key: u128, value: &str) {
        let due = {
            let _span = span!(self.recorder.as_ref(), "disk.write", ns = ns.name());
            let mut line = hetrta_fault::encode(&record_payload(ns, key, value)).into_bytes();
            // Injected torn write: stage a truncated record, as a crash
            // mid-append could leave one — it must read as a miss and be
            // recomputed, never misread.
            if let Some(bits) = self
                .fault
                .as_deref()
                .and_then(|p| p.fires("disk.write.torn"))
            {
                line.truncate(1 + (bits as usize) % line.len());
            }
            let len = if self
                .fault
                .as_deref()
                .is_some_and(|p| p.fires("disk.write.enospc").is_some())
            {
                Err(std::io::Error::other("injected ENOSPC (chaos)"))
            } else {
                u32::try_from(line.len()).map_err(std::io::Error::other)
            };
            let len = match len {
                Ok(len) => len,
                Err(error) => return self.count_failed(1, &error),
            };
            let mut staged = self.staged();
            staged.push(ns, key, &line, len);
            staged.due()
        };
        // The commit is a span of its own, outside the `disk.write` one.
        if due {
            self.flush();
        }
    }

    /// Loads a persisted analysis outcome, or `None` (miss / unreadable /
    /// corrupt / stale format).
    #[must_use]
    pub fn load_result(&self, key: u128) -> Option<AnalysisOutcome> {
        let decoded = self
            .read_value(Ns::Results, key)
            .and_then(|value| AnalysisOutcome::decode(&value));
        if decoded.is_some() {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
        decoded
    }

    /// Persists one analysis outcome. This handle reads it back at once;
    /// other handles read it once it is committed (see
    /// [`DiskCache::flush`]).
    pub fn store_result(&self, key: u128, outcome: &AnalysisOutcome) {
        self.write_value(Ns::Results, key, &outcome.encode());
    }

    /// Loads a persisted identity entry: `Some(None)` for a memoized
    /// declined sample, `Some(Some(content))` for a content hash, `None`
    /// for a miss.
    #[must_use]
    pub fn load_identity(&self, key: u128) -> Option<Option<u128>> {
        let decoded = self.read_value(Ns::Identity, key).and_then(|value| {
            if value == SKIP {
                return Some(None);
            }
            match u128::from_str_radix(&value, 16) {
                Ok(content) if value.len() == 32 => Some(Some(content)),
                _ => None,
            }
        });
        if decoded.is_some() {
            self.hits.incr();
        } else {
            self.misses.incr();
        }
        decoded
    }

    /// Persists one identity entry. Like [`DiskCache::store_result`], it
    /// reaches other handles once it is committed.
    pub fn store_identity(&self, key: u128, content: Option<u128>) {
        let value = match content {
            None => SKIP.to_owned(),
            Some(c) => format!("{c:032x}"),
        };
        self.write_value(Ns::Identity, key, &value);
    }

    /// Compacts the cache into a fresh generation of at most
    /// (approximately) `max_bytes` of records: every identity record,
    /// then the **newest result records** that fit the rest of the bound.
    /// Only the latest verified record of each key is carried over, so
    /// rewritten, torn and corrupt records go too.
    ///
    /// The identity memo is never dropped: its records are a few dozen
    /// bytes each, and dropping one mid-sweep would force a running
    /// engine to regenerate an input it believes is memoized. When the
    /// identity records alone exceed the bound, gc reports
    /// `remaining_bytes > max_bytes` instead of violating that invariant.
    ///
    /// This handle's staged records are committed first, so they are
    /// compacted too. The new generation is published by an atomic rename
    /// of `CURRENT`, then the old one, generations a crashed gc left
    /// behind, and a format-v1 tree (`results/`, `identity/`) are removed.
    /// Compaction holds the old generation's index lock throughout, so no
    /// commit to it is lost; commits waiting on the lock continue in the
    /// new generation, and readers of the old one keep their open files.
    ///
    /// # Errors
    ///
    /// A human-readable message when the old generation cannot be read
    /// or the new one cannot be written and published.
    pub fn gc(&self, max_bytes: u64) -> Result<GcStats, String> {
        let _span = span!(self.recorder.as_ref(), "disk.gc", max_bytes = max_bytes);
        let _commit = self.committer();
        self.commit();
        let (stats, live) = self
            .locked(true, |old, scanned| self.compact(old, scanned, max_bytes))
            .map_err(|e| format!("cache gc in {}: {e}", self.root.display()))?;
        *self.generation.write().expect("disk generation") = Arc::new(live);
        Ok(stats)
    }

    /// Writes the compacted copy of `old` as the next generation,
    /// publishes it and removes everything else. The caller holds `old`'s
    /// index lock.
    fn compact(
        &self,
        old: &Generation,
        scanned: u64,
        max_bytes: u64,
    ) -> std::io::Result<(GcStats, Generation)> {
        let mut log = vec![0u8; usize::try_from(scanned).map_err(std::io::Error::other)?];
        read_exact_at(&old.log, &mut log, 0)?;

        // The latest verified record of each (namespace, key), in log
        // order. A torn record shares its line with the record appended
        // after it, so a line that fails is retried from each later
        // start; a final line without its newline is a torn tail.
        let mut latest: HashMap<(Ns, u128), usize> = HashMap::new();
        let mut records: Vec<Record> = Vec::new();
        for line in log.split_inclusive(|&b| b == b'\n') {
            let Some(body) = line.strip_suffix(b"\n") else {
                continue;
            };
            let found = (0..body.len()).find_map(|start| {
                let payload = hetrta_fault::verify(&body[start..])?;
                Some((parse_payload(payload)?, &line[start..]))
            });
            if let Some(((ns, key, _), line)) = found {
                latest.insert((ns, key), records.len());
                records.push(Record { ns, key, line });
            }
        }
        let (identity, results): (Vec<Record>, Vec<Record>) = records
            .iter()
            .enumerate()
            .filter(|(i, r)| latest[&(r.ns, r.key)] == *i)
            .map(|(_, r)| *r)
            .partition(|r| r.ns == Ns::Identity);
        // Newest results first, while they fit what identity leaves.
        let identity_bytes: u64 = identity.iter().map(|r| r.line.len() as u64).sum();
        let mut budget = max_bytes.saturating_sub(identity_bytes);
        let mut kept_from = results.len();
        while let Some(rest) = kept_from
            .checked_sub(1)
            .and_then(|i| budget.checked_sub(results[i].line.len() as u64))
        {
            budget = rest;
            kept_from -= 1;
        }

        let next = std::fs::read_dir(&self.root)?
            .flatten()
            .filter_map(|entry| generation_number(entry.file_name().to_str()?))
            .max()
            .unwrap_or(0)
            + 1;
        let name = format!("gen-{next}");
        let fresh = Generation::open(&self.root, name.clone())?;
        let mut bytes = Vec::new();
        for record in identity.iter().chain(&results[kept_from..]) {
            let slot = Slot {
                key: record.key,
                offset: bytes.len() as u64,
                len: u32::try_from(record.line.len()).map_err(std::io::Error::other)?,
            };
            bytes.extend_from_slice(record.line);
            fresh.claim(self.level0, record.ns, slot)?;
        }
        (&fresh.log).write_all(&bytes)?;

        // Publish, then clear out everything that is not the new
        // generation: the old one (its readers keep their open files),
        // leftovers of crashed runs, and a v1 tree.
        let tmp = self
            .root
            .join(format!("CURRENT.tmp.{}", std::process::id()));
        std::fs::write(&tmp, format!("{name}\n"))?;
        std::fs::rename(&tmp, self.root.join("CURRENT"))?;
        for entry in std::fs::read_dir(&self.root)?.flatten() {
            let file_name = entry.file_name();
            let file_name = file_name.to_string_lossy();
            let stale = matches!(&*file_name, "results" | "identity")
                || file_name.starts_with("CURRENT.tmp.")
                || (generation_number(&file_name).is_some() && file_name != name);
            if stale {
                let path = entry.path();
                let _ = std::fs::remove_dir_all(&path).or_else(|_| std::fs::remove_file(&path));
            }
        }
        let remaining = bytes.len() as u64;
        let stats = GcStats {
            scanned_bytes: scanned,
            deleted_entries: kept_from as u64,
            deleted_bytes: scanned - remaining,
            remaining_bytes: remaining,
        };
        Ok((stats, fresh))
    }
}

impl Drop for DiskCache {
    /// Commits what the handle still stages.
    fn drop(&mut self) {
        self.flush();
    }
}

/// One verified record line of a log being compacted.
#[derive(Debug, Clone, Copy)]
struct Record<'a> {
    ns: Ns,
    key: u128,
    line: &'a [u8],
}

/// What one [`DiskCache::gc`] compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Bytes of the compacted generation's log (every record, including
    /// superseded, torn and corrupt ones).
    pub scanned_bytes: u64,
    /// Result entries not carried over.
    pub deleted_entries: u64,
    /// Log bytes reclaimed.
    pub deleted_bytes: u64,
    /// Log bytes of the new generation.
    pub remaining_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetrta_api::SimOutcome;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hetrta-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn outcome() -> AnalysisOutcome {
        AnalysisOutcome::Sim(SimOutcome {
            makespan: 17,
            transformed_makespan: Some(12),
        })
    }

    /// The live generation's log bytes.
    fn log_of(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(current_name(dir)).join("log")).unwrap()
    }

    impl DiskCache {
        /// Stages one raw (possibly defective) record line for `key` and
        /// commits it on the path every write takes.
        fn commit_line(&self, ns: Ns, key: u128, line: &[u8]) {
            let failed = self.write_failed();
            self.staged().push(ns, key, line, line.len() as u32);
            self.flush();
            assert_eq!(self.write_failed(), failed, "the line committed");
        }
    }

    #[test]
    fn result_roundtrip_across_handles() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load_result(42), None);
        cache.store_result(42, &outcome());
        assert_eq!(cache.load_result(42), Some(outcome()));
        // A second handle on the same directory (≈ a second process)
        // reads the record once the writer commits it.
        let other = DiskCache::open(&dir).unwrap();
        assert_eq!(other.load_result(42), None, "still staged");
        cache.flush();
        assert_eq!(other.load_result(42), Some(outcome()));
        assert_eq!(other.counters(), CacheCounters { hits: 1, misses: 1 });
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_roundtrip_including_skips() {
        let dir = temp_dir("identity");
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load_identity(7), None);
        cache.store_identity(7, Some(0xFEED_F00D));
        cache.store_identity(8, None);
        assert_eq!(cache.load_identity(7), Some(Some(0xFEED_F00D)));
        assert_eq!(cache.load_identity(8), Some(None));
        // One key, two namespaces: neither reads the other's record.
        assert_eq!(cache.load_result(7), None);
        // The same from the log and the index, once committed.
        cache.flush();
        assert_eq!(cache.load_identity(7), Some(Some(0xFEED_F00D)));
        assert_eq!(cache.load_identity(8), Some(None));
        assert_eq!(cache.load_result(7), None);
        assert_eq!(cache.counters(), CacheCounters { hits: 4, misses: 3 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_and_stale_versions_read_as_misses() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let good = record_payload(Ns::Results, 1, &outcome().encode());
        let write = |line: &str| cache.commit_line(Ns::Results, 1, line.as_bytes());

        // Flipped value byte: the checksum rejects it.
        write(&hetrta_fault::encode(&good).replace("17", "99"));
        assert_eq!(cache.load_result(1), None);

        // Torn record.
        let line = hetrta_fault::encode(&good);
        write(&line[..line.len() / 2]);
        assert_eq!(cache.load_result(1), None);

        // Stale format version, checksum-valid.
        write(&hetrta_fault::encode(
            &good.replace("results.v2", "results.v1"),
        ));
        assert_eq!(cache.load_result(1), None);

        // Garbage.
        write("\u{0}\u{7f} not a cache entry\n");
        assert_eq!(cache.load_result(1), None);

        // A checksum-valid record of another key.
        write(&hetrta_fault::encode(&record_payload(
            Ns::Results,
            2,
            &outcome().encode(),
        )));
        assert_eq!(cache.load_result(1), None);

        // Checksum-valid but grammatically stale value.
        write(&hetrta_fault::encode(&record_payload(
            Ns::Results,
            1,
            "frobnicate 1 2 3",
        )));
        assert_eq!(cache.load_result(1), None);
        assert_eq!(cache.counters().hits, 0, "no defect may count as a hit");

        // Rewriting repairs the entry, staged and committed.
        cache.store_result(1, &outcome());
        assert_eq!(cache.load_result(1), Some(outcome()));
        cache.flush();
        assert_eq!(cache.load_result(1), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_respects_the_bound_and_spares_the_identity_memo() {
        let dir = temp_dir("gc");
        let cache = DiskCache::open(&dir).unwrap();
        // Identity memo entries (must survive any compaction) …
        cache.store_identity(1, Some(0xAA));
        cache.store_identity(2, None);
        // … and ten result entries, written oldest-first.
        for key in 0..10u128 {
            cache.store_result(key << 96 | 0x100 | key, &outcome());
        }
        let before = cache.gc(u64::MAX).unwrap();
        assert_eq!(before.deleted_entries, 0, "roomy bound deletes nothing");
        assert_eq!(before.remaining_bytes, before.scanned_bytes);
        let entry_bytes = before.scanned_bytes / 12; // rough per-entry size

        // Bound to roughly half: the oldest results go until the total
        // fits, and the bound holds afterwards.
        let bound = before.scanned_bytes / 2;
        let stats = cache.gc(bound).unwrap();
        assert!(stats.deleted_entries > 0);
        assert!(
            stats.remaining_bytes <= bound,
            "remaining {} > bound {bound}",
            stats.remaining_bytes
        );
        assert_eq!(
            stats.remaining_bytes,
            before.scanned_bytes - stats.deleted_bytes
        );
        assert_eq!(stats.remaining_bytes, log_of(&dir).len() as u64);
        // Oldest result entries went first; the newest still loads.
        assert_eq!(cache.load_result(9 << 96 | 0x100 | 9), Some(outcome()));
        assert_eq!(cache.load_result(0x100), None, "oldest entry swept");
        // The identity memo is untouched even by a zero-byte bound.
        let zero = cache.gc(0).unwrap();
        assert_eq!(cache.load_identity(1), Some(Some(0xAA)));
        assert_eq!(cache.load_identity(2), Some(None));
        assert!(
            zero.remaining_bytes >= 2 * entry_bytes / 2,
            "identity bytes remain counted"
        );
        // So does a fresh handle, on the one generation left.
        let generations: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_dir())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(generations, vec![current_name(&dir)]);
        let fresh = DiskCache::open(&dir).unwrap();
        assert_eq!(fresh.load_identity(1), Some(Some(0xAA)));
        assert_eq!(fresh.load_result(9 << 96 | 0x100 | 9), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_superseded_torn_and_corrupt_records() {
        let dir = temp_dir("gc-garbage");
        let cache = DiskCache::open(&dir).unwrap();
        let record =
            |key| hetrta_fault::encode(&record_payload(Ns::Results, key, &outcome().encode()));
        cache.store_result(1, &outcome());
        cache.store_result(1, &outcome());
        let torn = record(2);
        cache.commit_line(Ns::Results, 2, &torn.as_bytes()[..40]);
        cache.store_result(3, &outcome());
        cache.commit_line(Ns::Results, 4, b"0123 torn tail");
        let stats = cache.gc(u64::MAX).unwrap();
        assert_eq!(stats.deleted_entries, 0, "only valid, distinct keys count");
        assert_eq!(
            log_of(&dir),
            format!("{}{}", record(1), record(3)).into_bytes()
        );
        assert_eq!(cache.load_result(1), Some(outcome()));
        assert_eq!(cache.load_result(3), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_directory_reads_as_misses_and_gc_removes_it() {
        // Per-entry files as the one-file-per-entry format wrote them,
        // with valid checksums.
        let dir = temp_dir("v1");
        let payload = outcome().encode();
        let v1 = format!(
            "hetrta-cache v1\n{payload}\n{:016x}\n",
            fnv64(payload.as_bytes())
        );
        for (namespace, text) in [
            ("results", v1.as_str()),
            ("identity", "hetrta-cache v1\nskip\n0\n"),
        ] {
            let shard = dir.join(namespace).join("00");
            std::fs::create_dir_all(&shard).unwrap();
            std::fs::write(shard.join(format!("{:032x}", 5u128)), text).unwrap();
        }
        let cache = DiskCache::open(&dir).unwrap();
        assert_eq!(cache.load_result(5), None);
        assert_eq!(cache.load_identity(5), None);
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 2 });
        cache.gc(u64::MAX).unwrap();
        assert!(!dir.join("results").exists());
        assert!(!dir.join("identity").exists());
        // The directory works as a v2 cache.
        cache.store_result(5, &outcome());
        cache.flush();
        assert_eq!(
            DiskCache::open(&dir).unwrap().load_result(5),
            Some(outcome())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_handle_keeps_its_generation_through_gc_and_writes_into_the_next() {
        let dir = temp_dir("flip");
        let reader = DiskCache::open(&dir).unwrap();
        reader.store_result(1, &outcome());
        reader.store_identity(2, Some(0xBB));
        // Committed now, so the reads below come from the log, not from
        // the staged batch.
        reader.flush();
        let operator = DiskCache::open(&dir).unwrap();
        operator.gc(0).unwrap();
        assert_ne!(current_name(&dir), "gen-0");
        assert_eq!(operator.load_result(1), None, "compacted away");
        // The old handle still answers from its (removed) generation.
        assert_eq!(reader.load_result(1), Some(outcome()));
        // Its next commit lands in the live generation.
        reader.store_result(3, &outcome());
        reader.flush();
        assert_eq!(operator.load_result(3), Some(outcome()));
        assert_eq!(
            DiskCache::open(&dir).unwrap().load_result(3),
            Some(outcome())
        );
        assert_eq!(reader.load_identity(2), Some(Some(0xBB)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_follow_a_flip_within_a_second() {
        let dir = temp_dir("follow");
        let reader = DiskCache::open(&dir).unwrap();
        let writer = DiskCache::open(&dir).unwrap();
        writer.gc(0).unwrap();
        writer.store_result(4, &outcome());
        writer.flush();
        assert_eq!(
            reader.load_result(4),
            None,
            "still on the retired generation"
        );
        std::thread::sleep(std::time::Duration::from_millis(FOLLOW_EVERY_MS + 50));
        assert_eq!(reader.load_result(4), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_handles_fill_shared_windows_and_every_key_reads_back() {
        // A one-window level 0 puts every key on the same probe path, so
        // four writers contend for the same windows and spill through
        // seven levels.
        let dir = temp_dir("contend");
        let per_thread = 5_000u128;
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4u128)
            .map(|t| {
                let (dir, start) = (dir.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let cache = DiskCache::open_with_level0(dir, 1).unwrap();
                    start.wait();
                    for i in 0..per_thread {
                        cache.store_identity(t << 64 | i, Some(i));
                    }
                    cache.flush();
                    assert_eq!(cache.write_failed(), 0);
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        let cache = DiskCache::open_with_level0(dir.clone(), 1).unwrap();
        for t in 0..4u128 {
            for i in 0..per_thread {
                assert_eq!(cache.load_identity(t << 64 | i), Some(Some(i)), "{t}/{i}");
            }
        }
        let index_len = cache.generation().index.metadata().unwrap().len();
        assert!(index_len > level_base(1, 5), "entries spilled to level 5");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_fails_open() {
        let err = DiskCache::open("/proc/definitely-not-writable/hetrta").unwrap_err();
        assert!(err.contains("cannot create cache dir"), "{err}");
    }

    #[test]
    fn injected_write_failure_degrades_gracefully() {
        let dir = temp_dir("enospc");
        let mut cache = DiskCache::open(&dir).unwrap();
        // Every write hits an injected ENOSPC; reads stay healthy.
        cache.set_fault_plan(Arc::new(
            FaultPlan::with_rate(0xE205, 1, 1).restrict_to(["disk.write.enospc"]),
        ));
        cache.store_result(42, &outcome());
        cache.store_identity(7, Some(0xFEED));
        assert_eq!(cache.write_failed(), 2, "every failure is counted");
        assert_eq!(cache.load_result(42), None, "nothing was persisted");
        assert_eq!(cache.load_identity(7), None);
        // Nothing half-written survives a failed write.
        assert!(log_of(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_write_reads_as_a_miss() {
        let dir = temp_dir("torn");
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.set_fault_plan(Arc::new(
            FaultPlan::with_rate(0x70B2, 1, 1).restrict_to(["disk.write.torn"]),
        ));
        cache.store_result(42, &outcome());
        // The torn record is stored (no write error) but must never
        // decode, staged or committed; the engine recomputes and rewrites.
        assert_eq!(cache.load_result(42), None, "from the staged batch");
        cache.flush();
        assert_eq!(cache.write_failed(), 0);
        assert!(!log_of(&dir).is_empty(), "the torn record committed");
        assert_eq!(cache.load_result(42), None, "from the log");
        assert_eq!(cache.counters(), CacheCounters { hits: 0, misses: 2 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_bitflip_reads_as_a_miss() {
        let dir = temp_dir("bitflip");
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.store_result(42, &outcome());
        assert_eq!(cache.load_result(42), Some(outcome()), "healthy first");
        cache.set_fault_plan(Arc::new(
            FaultPlan::with_rate(0xB17F, 1, 1).restrict_to(["disk.read.bitflip"]),
        ));
        // A flipped bit fails the checksum of a staged record and of a
        // committed one alike.
        assert_eq!(cache.load_result(42), None, "from the staged batch");
        cache.flush();
        assert_eq!(cache.load_result(42), None, "from the log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_a_handle_commits_its_staged_records() {
        let dir = temp_dir("drop");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_result(1, &outcome());
        cache.store_identity(2, None);
        assert!(log_of(&dir).is_empty(), "staged, not committed");
        drop(cache);
        let other = DiskCache::open(&dir).unwrap();
        assert_eq!(other.load_result(1), Some(outcome()));
        assert_eq!(other.load_identity(2), Some(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_commits_staged_records_first() {
        let dir = temp_dir("gc-staged");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_identity(1, Some(0xAA));
        cache.store_result(2, &outcome());
        let stats = cache.gc(u64::MAX).unwrap();
        assert!(stats.scanned_bytes > 0, "the staged records were compacted");
        assert_eq!(stats.remaining_bytes, stats.scanned_bytes);
        let other = DiskCache::open(&dir).unwrap();
        assert_eq!(other.load_identity(1), Some(Some(0xAA)));
        assert_eq!(other.load_result(2), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_batch_past_the_threshold_commits_without_a_flush() {
        let dir = temp_dir("threshold");
        let recorder = Arc::new(hetrta_obs::TraceRecorder::new());
        let mut cache = DiskCache::open(&dir).unwrap();
        cache.bind_observability(&MetricsRegistry::new(), Arc::clone(&recorder) as _);
        let other = DiskCache::open(&dir).unwrap();
        let line = hetrta_fault::encode(&record_payload(Ns::Results, 0, &outcome().encode()));
        let batch = BATCH_BYTES.div_ceil(line.len()) as u128;
        for key in 0..batch - 1 {
            cache.store_result(key, &outcome());
        }
        assert_eq!(other.load_result(0), None, "below the threshold");
        cache.store_result(batch - 1, &outcome());
        assert_eq!(
            log_of(&dir).len(),
            batch as usize * line.len(),
            "one commit"
        );
        assert_eq!(other.load_result(0), Some(outcome()));
        assert_eq!(other.load_result(batch - 1), Some(outcome()));
        // One commit span for the batch, outside every `disk.write` span.
        let spans = recorder.spans();
        let commits: Vec<_> = spans.iter().filter(|s| s.name == "disk.commit").collect();
        assert_eq!(commits.len(), 1);
        assert_eq!(commits[0].detail, Some(format!("records={batch}")));
        assert_eq!(commits[0].depth, 0, "not nested in a write span");
        let writes = spans.iter().filter(|s| s.name == "disk.write").count();
        assert_eq!(writes as u128, batch, "one write span per record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_commits_once_the_oldest_staged_record_is_a_second_old() {
        let dir = temp_dir("age");
        let cache = DiskCache::open(&dir).unwrap();
        let other = DiskCache::open(&dir).unwrap();
        cache.store_result(1, &outcome());
        std::thread::sleep(std::time::Duration::from_millis(BATCH_MS as u64 + 50));
        assert_eq!(other.load_result(1), None, "no write, no commit");
        cache.store_result(2, &outcome());
        assert_eq!(other.load_result(1), Some(outcome()));
        assert_eq!(other.load_result(2), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_do_not_wait_for_a_commit() {
        let dir = temp_dir("no-wait");
        let cache = Arc::new(DiskCache::open(&dir).unwrap());
        cache.store_result(1, &outcome());
        // Another handle's index lock (an operator's gc, say) holds the
        // commit back once it has taken the batch.
        let operator = DiskCache::open(&dir).unwrap();
        let generation = operator.generation();
        let lock = IndexLock::acquire(&generation.index).unwrap();
        let committing = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.flush())
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(staged) = cache.staged.try_lock() {
                if staged.records.is_empty() {
                    break;
                }
            }
            assert!(
                Instant::now() < deadline,
                "the commit holds the staging lock"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        cache.store_result(2, &outcome());
        assert_eq!(
            cache.load_result(2),
            Some(outcome()),
            "staged after the take"
        );
        assert_eq!(cache.load_result(1), None, "on its way to the log");
        drop(lock);
        committing.join().unwrap();
        assert_eq!(cache.load_result(1), Some(outcome()), "committed");
        cache.flush();
        assert_eq!(operator.load_result(2), Some(outcome()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_key_staged_twice_reads_back_its_latest_value() {
        let dir = temp_dir("twice");
        let cache = DiskCache::open(&dir).unwrap();
        let latest = AnalysisOutcome::Sim(SimOutcome {
            makespan: 18,
            transformed_makespan: None,
        });
        cache.store_result(9, &outcome());
        cache.store_result(9, &latest);
        assert_eq!(cache.load_result(9), Some(latest.clone()), "staged");
        cache.flush();
        assert_eq!(cache.load_result(9), Some(latest.clone()), "committed");
        let other = DiskCache::open(&dir).unwrap();
        assert_eq!(other.load_result(9), Some(latest));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_failed_commit_counts_every_record_of_its_batch() {
        let dir = temp_dir("failed-commit");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store_result(1, &outcome());
        cache.store_identity(2, Some(0xCC));
        cache.store_result(3, &outcome());
        // A file replaces the directory: the commit finds its generation
        // removed and cannot open a live one.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"").unwrap();
        cache.flush();
        assert_eq!(cache.write_failed(), 3, "every record of the batch");
        assert_eq!(cache.load_result(1), None, "the batch is dropped");
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn engine_falls_through_to_memory_when_every_write_fails() {
        use crate::spec::{GeneratorPreset, SweepSpec};
        use crate::EngineBuilder;

        let dir = temp_dir("fall-through");
        let plan = Arc::new(FaultPlan::with_rate(0xDE6A, 1, 1).restrict_to(["disk.write.enospc"]));
        let engine = EngineBuilder::new()
            .threads(2)
            .with_cache_dir(&dir)
            .with_fault_plan(Arc::clone(&plan))
            .build()
            .unwrap();
        let spec = SweepSpec::fractions(GeneratorPreset::Small, vec![2], vec![0.2], 3, 5);
        let out = engine.run(&spec).unwrap();
        // The sweep succeeded purely in memory, failures were counted
        // and surfaced through both the metric and the fault counters.
        let healthy = crate::Engine::new(2).run(&spec).unwrap();
        assert_eq!(out.aggregate, healthy.aggregate);
        let snapshot = engine.metrics().snapshot();
        let failed = snapshot.counter("disk.write_failed").unwrap_or(0);
        assert!(failed > 0, "writes must have failed");
        assert_eq!(
            snapshot.counter("fault.disk.write.enospc"),
            Some(failed),
            "every failure was an injected one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
