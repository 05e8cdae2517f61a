//! Snapshot serialisation ([`write_snapshot`]) and the open path
//! ([`Snapshot::open`]).
//!
//! ## Payload layout
//!
//! The fixed header of [`crate::format`] is followed by one payload
//! shape: metadata and segment data are separate regions, so the open
//! path is O(metadata) —
//!
//! ```text
//! payload      u64 meta_len, metadata, zero padding to SEGMENT_ALIGN,
//!              data blocks (each SEGMENT_ALIGN-aligned), index blocks
//!
//! metadata     u32 num_consts, then num_consts × string
//!              u32 class count, then count × dirent(arity = 1)
//!              u32 property count, then count × dirent(arity = 2)
//!
//! dirent       string predicate name        (resolved by name on open)
//!              u64 num_rows
//!              u64 data offset              (absolute file offset,
//!                                            SEGMENT_ALIGN-aligned)
//!              u64 data checksum            (verified at hydration)
//!              arity × u64 distinct         (FLAG_STATS)
//!              arity × (u64 offset, u64 len, u64 checksum)
//!                                           (FLAG_INDEXES)
//!
//! data block   num_rows × arity × u32 LE, row-major interleaved —
//!              exactly the in-memory arena of
//!              [`Relation::from_shared`], so a memory-mapped
//!              block is served zero-copy
//!
//! index block  u32 num_keys, num_keys × u32 keys (strictly ascending),
//!              (num_keys+1) × u32 starts, num_rows × u32 row ids —
//!              the CSR form of [`ColumnIndex::from_csr`]
//! ```
//!
//! Segments are written in predicate-name order with their rows sorted
//! lexicographically, so the same instance always serialises to the same
//! bytes; hydration verifies strict ascending order, which doubles as a
//! distinctness proof for the no-dedup bulk load.
//!
//! ## Lazy hydration
//!
//! [`Snapshot::open`] decodes *only* the metadata: every relation enters
//! the [`Database`] as a [`LazyRelation`] whose hydrator holds the
//! shared [`Mapping`] and its directory entry. The first touch of a
//! predicate faults in exactly its own pages — checksum, dictionary
//! range and sort order are verified then, stats and persisted indexes
//! are preset then. A violation is returned by the hydrator as a typed
//! [`StoreError`]: a request hydrates its predicates through
//! [`Database::hydrate`] before it plans or evaluates, so a corrupt
//! block reaches the caller as a store error, and the failed slot stays
//! pending so the next request verifies the block again.

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::format::{
    checksum64, parse_file, Reader, Writer, FLAG_INDEXES, FLAG_STATS, HEADER_LEN, SEGMENT_ALIGN,
};
use crate::map::Mapping;
use obda_budget::Budget;
use obda_ndl::storage::{ArenaWords, ColumnIndex, Database, LazyRelation, Relation};
use obda_owlql::abox::{ConstId, DataInstance};
use obda_owlql::util::{FxHashMap, FxHashSet};
use obda_owlql::vocab::{ClassId, PropId, Vocab};
use obda_telemetry::{Span, Telemetry};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One relation segment as reported by [`SnapshotInfo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationInfo {
    /// The predicate name (class or property).
    pub name: String,
    /// 1 for classes, 2 for properties.
    pub arity: usize,
    /// Number of rows in the segment.
    pub rows: u64,
}

/// Structural metadata of a snapshot: everything `obda dbinfo` prints.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    /// Format version from the header.
    pub version: u32,
    /// Header flag bits (see [`crate::format::flag_names`]).
    pub flags: u32,
    /// Total file size in bytes (header + payload).
    pub file_bytes: u64,
    /// Payload size in bytes.
    pub payload_bytes: u64,
    /// Word-folded FNV-1a 64 checksum of the metadata region.
    pub checksum: u64,
    /// Number of dictionary entries (constants).
    pub num_consts: usize,
    /// Bytes of the dictionary section.
    pub dict_bytes: u64,
    /// Total atoms across all relation segments.
    pub num_atoms: u64,
    /// Whether the bytes behind the opened snapshot are genuinely
    /// memory-mapped (always `false` for [`read_info`], which never
    /// maps).
    pub mmapped: bool,
    /// Per-relation name, arity and row count, in file order.
    pub relations: Vec<RelationInfo>,
}

/// Hydration progress shared between a [`Snapshot`] and its lazy
/// hydrators: columns and bytes actually decoded so far.
#[derive(Debug, Default)]
struct HydrationCounters {
    columns: AtomicU64,
    bytes: AtomicU64,
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// One relation ready for serialisation: rows sorted lexicographically,
/// words row-major interleaved (the arena layout), distinct counts per
/// column.
struct SegmentBuild {
    name: String,
    arity: usize,
    rows: usize,
    words: Vec<u32>,
    distinct: Vec<u64>,
}

/// A placed data block (and its index blocks) in the data region, all
/// offsets relative to the region start.
struct Placed {
    seg_rel: u64,
    seg_check: u64,
    indexes: Vec<(u64, u64, u64)>,
}

/// One decoded directory entry. `seg_off`/index offsets are absolute
/// file offsets.
#[derive(Debug, Clone)]
struct SegmentMeta {
    name: String,
    arity: usize,
    rows: u64,
    seg_off: u64,
    seg_check: u64,
    distinct: Vec<u64>,
    indexes: Vec<(u64, u64, u64)>,
}

/// Collects `data`'s relations into name-sorted [`SegmentBuild`]s
/// (classes, then properties).
fn collect_segments(vocab: &Vocab, data: &DataInstance) -> (Vec<SegmentBuild>, Vec<SegmentBuild>) {
    let mut classes: Vec<SegmentBuild> = data
        .members_by_class()
        .into_iter()
        .map(|(c, members)| {
            let mut col: Vec<u32> = members.into_iter().map(|a| a.0).collect();
            col.sort_unstable();
            let rows = col.len();
            SegmentBuild {
                name: vocab.class_name(c).to_owned(),
                arity: 1,
                rows,
                // Class columns are strictly ascending, so every value
                // is distinct.
                distinct: vec![rows as u64],
                words: col,
            }
        })
        .collect();
    classes.sort_unstable_by(|a, b| a.name.cmp(&b.name));

    let mut props: Vec<SegmentBuild> = data
        .pairs_by_prop()
        .into_iter()
        .map(|(p, pairs)| {
            let mut rows: Vec<(u32, u32)> = pairs.into_iter().map(|(a, b)| (a.0, b.0)).collect();
            rows.sort_unstable();
            // Distinct col 0 counts runs (rows are lex-sorted); col 1
            // needs a hash pass.
            let mut d0 = 0u64;
            let mut prev = None;
            for &(a, _) in &rows {
                if prev != Some(a) {
                    d0 += 1;
                    prev = Some(a);
                }
            }
            let d1: FxHashSet<u32> = rows.iter().map(|&(_, b)| b).collect();
            SegmentBuild {
                name: vocab.prop_name(p).to_owned(),
                arity: 2,
                rows: rows.len(),
                distinct: vec![d0, d1.len() as u64],
                words: rows.into_iter().flat_map(|(a, b)| [a, b]).collect(),
            }
        })
        .collect();
    props.sort_unstable_by(|a, b| a.name.cmp(&b.name));

    (classes, props)
}

/// Serialises the CSR index block of one column: row ids grouped by
/// value, values ascending, row ids ascending within a value — exactly
/// the probe order of a lazily built hash index.
fn csr_block(words: &[u32], arity: usize, col: usize, rows: usize) -> Vec<u8> {
    let mut pairs: Vec<(u32, u32)> =
        (0..rows).map(|i| (words[i * arity + col], i as u32)).collect();
    pairs.sort_unstable();
    let mut keys: Vec<u32> = Vec::new();
    let mut starts: Vec<u32> = Vec::new();
    let mut rowids: Vec<u32> = Vec::with_capacity(rows);
    for (v, r) in pairs {
        if keys.last() != Some(&v) {
            keys.push(v);
            starts.push(rowids.len() as u32);
        }
        rowids.push(r);
    }
    starts.push(rowids.len() as u32);
    let mut out = Vec::with_capacity(4 * (1 + keys.len() + starts.len() + rowids.len()));
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for v in keys.iter().chain(&starts).chain(&rowids) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Lays out the data region: every data block padded to a
/// [`SEGMENT_ALIGN`]-relative boundary (the region itself starts at an
/// aligned file offset, so relative alignment is absolute alignment),
/// then all index blocks packed behind them (u32-granular, so always
/// 4-byte aligned).
fn place_region(segs: &[&SegmentBuild]) -> (Vec<u8>, Vec<Placed>) {
    let mut region: Vec<u8> = Vec::new();
    let mut placed: Vec<Placed> = Vec::with_capacity(segs.len());
    for seg in segs {
        region.resize(region.len().next_multiple_of(SEGMENT_ALIGN as usize), 0);
        let seg_rel = region.len() as u64;
        for &wd in &seg.words {
            region.extend_from_slice(&wd.to_le_bytes());
        }
        let seg_check = checksum64(&region[seg_rel as usize..]);
        placed.push(Placed { seg_rel, seg_check, indexes: Vec::new() });
    }
    for (seg, p) in segs.iter().zip(&mut placed) {
        for c in 0..seg.arity {
            let block = csr_block(&seg.words, seg.arity, c, seg.rows);
            p.indexes.push((region.len() as u64, block.len() as u64, checksum64(&block)));
            region.extend_from_slice(&block);
        }
    }
    (region, placed)
}

/// Absolute-offset directory entries for freshly placed segments:
/// region-relative offsets shifted by the region's file offset `base`.
fn metas_from(segs: &[&SegmentBuild], placed: &[Placed], base: u64) -> Vec<SegmentMeta> {
    segs.iter()
        .zip(placed)
        .map(|(seg, p)| SegmentMeta {
            name: seg.name.clone(),
            arity: seg.arity,
            rows: seg.rows as u64,
            seg_off: base + p.seg_rel,
            seg_check: p.seg_check,
            distinct: seg.distinct.clone(),
            indexes: p.indexes.iter().map(|&(o, l, c)| (base + o, l, c)).collect(),
        })
        .collect()
}

/// Encodes the metadata region: dictionary, class directory, property
/// directory.
fn encode_meta(w: &mut Writer, dict: &[&str], classes: &[SegmentMeta], props: &[SegmentMeta]) {
    w.put_u32(dict.len() as u32);
    for name in dict {
        w.put_str(name);
    }
    for group in [classes, props] {
        w.put_u32(group.len() as u32);
        for s in group {
            w.put_str(&s.name);
            w.put_u64(s.rows);
            w.put_u64(s.seg_off);
            w.put_u64(s.seg_check);
            for &v in &s.distinct {
                w.put_u64(v);
            }
            for &(o, l, c) in &s.indexes {
                w.put_u64(o);
                w.put_u64(l);
                w.put_u64(c);
            }
        }
    }
}

/// Serialises `data` into `.obdb` file bytes (in memory): persisted
/// statistics and per-column index blocks (`FLAG_STATS | FLAG_INDEXES`)
/// in the one layout of [`crate::format`]. Relations are exported by
/// *name* through `vocab`, rows sorted lexicographically, segments sorted
/// by predicate name — the encoding is deterministic.
pub fn snapshot_bytes(vocab: &Vocab, data: &DataInstance) -> Vec<u8> {
    let (classes, props) = collect_segments(vocab, data);
    let segs: Vec<&SegmentBuild> = classes.iter().chain(&props).collect();
    let (region, placed) = place_region(&segs);
    let dict: Vec<&str> = data.constant_names().collect();
    let nc = classes.len();

    // The metadata length is offset-independent (offsets are fixed
    // width u64), so a dry encode with base 0 sizes it exactly.
    let metas0 = metas_from(&segs, &placed, 0);
    let (cm0, pm0) = metas0.split_at(nc);
    let mut dry = Writer::new();
    encode_meta(&mut dry, &dict, cm0, pm0);
    let meta_len = dry.position();
    let base = if region.is_empty() {
        0
    } else {
        (HEADER_LEN as u64 + 8 + meta_len).next_multiple_of(SEGMENT_ALIGN)
    };
    let metas = metas_from(&segs, &placed, base);
    let (cm, pm) = metas.split_at(nc);
    let mut w = Writer::new();
    w.put_u64(meta_len);
    encode_meta(&mut w, &dict, cm, pm);
    debug_assert_eq!(w.position(), 8 + meta_len);
    if !region.is_empty() {
        let at = w.pad_to_file_alignment(SEGMENT_ALIGN);
        debug_assert_eq!(at, base);
        w.put_bytes(&region);
    }
    let meta_end = 8 + meta_len as usize;
    w.into_file_bytes(FLAG_STATS | FLAG_INDEXES, 0..meta_end)
}

/// Serialises `data` to an `.obdb` file at `path`, returning the written
/// snapshot's [`SnapshotInfo`]. See [`snapshot_bytes`] for the encoding.
///
/// The write is **atomic**: the bytes go to a temporary file in the
/// target directory first, are fsynced, and only then renamed over
/// `path`. A crash (or fault) at any point mid-write leaves either the
/// old snapshot or the new one — never a torn `.obdb`. The temporary
/// file is removed on every failure path.
pub fn write_snapshot(
    path: &Path,
    vocab: &Vocab,
    data: &DataInstance,
) -> Result<SnapshotInfo, StoreError> {
    let bytes = snapshot_bytes(vocab, data);
    let tmp = temp_sibling(path);
    let write_and_rename = || -> Result<(), StoreError> {
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, &bytes)?;
            // The rename must never publish a file whose bytes are still
            // in the page cache only; fsync before the rename makes the
            // temp durable, so the renamed snapshot is too.
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Best effort: persist the directory entry as well, so the rename
        // itself survives a crash (ignored where directories cannot be
        // fsynced, e.g. some non-Unix filesystems).
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    };
    if let Err(e) = write_and_rename() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    info_from_bytes(&bytes)
}

/// The temporary-file path `write_snapshot` stages into: a dotted
/// sibling in the same directory (so the final rename never crosses a
/// filesystem), keyed by process id so concurrent builders of *different*
/// snapshots in one directory cannot collide with each other.
pub fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp.{}", std::process::id()))
}

// ---------------------------------------------------------------------
// Metadata decoding and validation
// ---------------------------------------------------------------------

/// Decodes the metadata region into the dictionary and the segment
/// directory, ticking `budget` per entry. Returns the dictionary, the
/// directory (classes first, then properties, in file order) and the
/// dictionary's byte length. The open path deliberately does *not*
/// build a name→id interner — rendering answers only ever goes id→name,
/// and the lazy [`DataInstance`] view re-interns for the one caller (the
/// chase oracle) that needs the reverse direction.
fn decode_meta(
    meta: &[u8],
    budget: &mut Budget,
) -> Result<(Vec<String>, Vec<SegmentMeta>, u64), StoreError> {
    let mut r = Reader::new(meta);
    let num_consts = r.get_u32()? as usize;
    let mut raw = Vec::with_capacity(num_consts);
    for _ in 0..num_consts {
        budget.tick()?;
        raw.push(r.get_str()?);
    }
    let mut seen = FxHashSet::default();
    seen.reserve(num_consts);
    for &name in &raw {
        if !seen.insert(name) {
            return Err(StoreError::Malformed("duplicate dictionary entries".to_owned()));
        }
    }
    let dict_bytes = r.position();
    let mut segs = Vec::new();
    for arity in [1usize, 2] {
        let count = r.get_u32()?;
        for _ in 0..count {
            budget.tick()?;
            let name = r.get_str()?.to_owned();
            let rows = r.get_u64()?;
            let seg_off = r.get_u64()?;
            let seg_check = r.get_u64()?;
            let mut distinct = Vec::with_capacity(arity);
            for _ in 0..arity {
                distinct.push(r.get_u64()?);
            }
            let mut indexes = Vec::with_capacity(arity);
            for _ in 0..arity {
                indexes.push((r.get_u64()?, r.get_u64()?, r.get_u64()?));
            }
            segs.push(SegmentMeta { name, arity, rows, seg_off, seg_check, distinct, indexes });
        }
    }
    if r.position() != meta.len() as u64 {
        return Err(StoreError::Malformed(format!(
            "{} trailing bytes after the segment directory",
            meta.len() as u64 - r.position()
        )));
    }
    Ok((raw.into_iter().map(str::to_owned).collect(), segs, dict_bytes))
}

/// SIGBUS avoidance: every byte range the directory declares must lie
/// inside the mapped file *before* any page is dereferenced, and data
/// blocks must honour the alignment contract so zero-copy `u32` views
/// are sound. Violations are typed errors at open time, never a fault
/// at hydration time.
fn validate_ranges(segs: &[SegmentMeta], file_len: u64) -> Result<(), StoreError> {
    for s in segs {
        if s.seg_off % SEGMENT_ALIGN != 0 {
            return Err(StoreError::Malformed(format!(
                "segment '{}' data offset {} is not {SEGMENT_ALIGN}-byte aligned",
                s.name, s.seg_off
            )));
        }
        let bytes = s
            .rows
            .checked_mul(4 * s.arity as u64)
            .ok_or_else(|| StoreError::Malformed(format!("segment '{}' row overflow", s.name)))?;
        let end = s.seg_off.checked_add(bytes).ok_or_else(|| {
            StoreError::Malformed(format!("segment '{}' offset overflow", s.name))
        })?;
        if end > file_len {
            return Err(StoreError::Truncated { needed: end, available: file_len });
        }
        for (c, &(off, len, _)) in s.indexes.iter().enumerate() {
            if off % 4 != 0 {
                return Err(StoreError::Malformed(format!(
                    "segment '{}' column {c} index offset {off} is not 4-byte aligned",
                    s.name
                )));
            }
            let end = off.checked_add(len).ok_or_else(|| {
                StoreError::Malformed(format!("segment '{}' index overflow", s.name))
            })?;
            if end > file_len {
                return Err(StoreError::Truncated { needed: end, available: file_len });
            }
        }
    }
    Ok(())
}

/// Parses the structural metadata of snapshot `bytes` without resolving
/// any predicate against a vocabulary (and without building relations).
fn info_from_bytes(bytes: &[u8]) -> Result<SnapshotInfo, StoreError> {
    let parsed = parse_file(bytes)?;
    let header = parsed.header;
    let (dict, segs, dict_bytes) = decode_meta(parsed.meta, &mut Budget::unlimited())?;
    Ok(SnapshotInfo {
        version: header.version,
        flags: header.flags,
        file_bytes: bytes.len() as u64,
        payload_bytes: header.payload_len,
        checksum: header.checksum,
        num_consts: dict.len(),
        dict_bytes,
        num_atoms: segs.iter().map(|s| s.rows).sum(),
        mmapped: false,
        relations: segs
            .into_iter()
            .map(|s| RelationInfo { name: s.name, arity: s.arity, rows: s.rows })
            .collect(),
    })
}

/// Reads the structural metadata of the snapshot at `path` (the `obda
/// dbinfo` path): header fields, dictionary size, per-relation row
/// counts. Requires no ontology — predicates stay names.
pub fn read_info(path: &Path) -> Result<SnapshotInfo, StoreError> {
    info_from_bytes(&std::fs::read(path)?)
}

/// The deterministic fault-injection point of the open path. A transient
/// injected fault is mapped to the typed [`StoreError::Injected`] right
/// here at the store boundary; a deliberate injected *panic* (the
/// escaped-panic stand-in) is re-raised so the isolation boundaries
/// above the store are exercised exactly as for any other substrate.
fn open_injection_point() -> Result<(), StoreError> {
    match std::panic::catch_unwind(|| crate::fault::inject(crate::fault::site::STORE_OPEN)) {
        Ok(()) => Ok(()),
        Err(payload) => {
            #[cfg(feature = "faults")]
            if let Some(fault) = payload.downcast_ref::<obda_faults::FaultError>() {
                return Err(StoreError::Injected { site: fault.site.to_owned() });
            }
            std::panic::resume_unwind(payload)
        }
    }
}

fn fail_span<T>(span: Span<'_>, e: StoreError) -> Result<T, StoreError> {
    span.error(&e.to_string());
    Err(e)
}

// ---------------------------------------------------------------------
// Hydration
// ---------------------------------------------------------------------

/// A zero-copy relation arena backed by a mapped segment data block:
/// the words live in the snapshot file's pages, shared for as long as
/// any relation references them.
struct SegmentArena {
    mapping: Arc<Mapping>,
    byte_off: usize,
    words: usize,
}

impl ArenaWords for SegmentArena {
    // The one panic of this crate's library code, on an invariant rather
    // than on file contents: the arena is built only after this very view
    // succeeded at hydration, and the mapping is immutable and lives as
    // long as the arena, so the view cannot fail here. `words` returns a
    // slice, so it has no error path — and fabricating data would be
    // worse than stopping.
    #[allow(clippy::panic)]
    fn words(&self) -> &[u32] {
        match self.mapping.u32_view(self.byte_off, self.words) {
            Some(w) => w,
            None => panic!("snapshot segment view invalidated"),
        }
    }
}

/// Verifies a hydrated block's words: every value a dictionary id,
/// rows strictly lex-ascending (the distinctness proof the no-dedup
/// bulk load relies on).
fn validate_words(
    words: &[u32],
    name: &str,
    arity: usize,
    rows: usize,
    num_consts: u32,
) -> Result<(), StoreError> {
    // One vectorisable max pass; only a corrupt block pays a second
    // scan to name the offending value.
    if words.iter().copied().max().is_some_and(|max| max >= num_consts) {
        let bad = words.iter().copied().find(|&v| v >= num_consts).unwrap_or(u32::MAX);
        return Err(StoreError::Malformed(format!(
            "segment '{name}' references constant {bad} outside the dictionary of {num_consts}"
        )));
    }
    let sorted = match arity {
        0 | 1 => words.windows(2).all(|w| w[0] < w[1]),
        2 => (1..rows)
            .all(|i| (words[2 * i - 2], words[2 * i - 1]) < (words[2 * i], words[2 * i + 1])),
        _ => {
            (1..rows).all(|i| words[(i - 1) * arity..i * arity] < words[i * arity..(i + 1) * arity])
        }
    };
    if !sorted {
        let row = (1..rows)
            .find(|&i| words[(i - 1) * arity..i * arity] >= words[i * arity..(i + 1) * arity])
            .unwrap_or(0);
        return Err(StoreError::Malformed(format!(
            "segment '{name}' rows not strictly sorted at row {row}"
        )));
    }
    Ok(())
}

/// Decodes one segment from the mapping: verifies the block
/// checksum, dictionary range and sort order, serves the words
/// zero-copy from the mapped pages where possible (little-endian,
/// aligned) and by a decoding copy otherwise, presets persisted stats
/// and index blocks, and accounts the touched columns/bytes.
fn hydrate_segment(
    mapping: &Arc<Mapping>,
    seg: &SegmentMeta,
    num_consts: u32,
    counters: &HydrationCounters,
) -> Result<Relation, StoreError> {
    let overflow = || StoreError::Malformed(format!("segment '{}' row overflow", seg.name));
    let rows = usize::try_from(seg.rows).map_err(|_| overflow())?;
    let words = rows.checked_mul(seg.arity).ok_or_else(overflow)?;
    let nbytes = words.checked_mul(4).ok_or_else(overflow)?;
    let off = usize::try_from(seg.seg_off).map_err(|_| overflow())?;
    let end = off.checked_add(nbytes).ok_or_else(overflow)?;
    let block = mapping
        .bytes()
        .get(off..end)
        .ok_or(StoreError::Truncated { needed: end as u64, available: mapping.len() as u64 })?;
    let actual = checksum64(block);
    if actual != seg.seg_check {
        return Err(StoreError::ChecksumMismatch { expected: seg.seg_check, actual });
    }
    let mut touched = nbytes as u64;
    let rel = match mapping.u32_view(off, words) {
        Some(view) => {
            validate_words(view, &seg.name, seg.arity, rows, num_consts)?;
            let arena = SegmentArena { mapping: Arc::clone(mapping), byte_off: off, words };
            Relation::from_shared(seg.arity, rows, Arc::new(arena))
        }
        None => {
            // Big-endian target or misaligned block: pay one decoding
            // copy; the relation then owns its arena.
            let decoded: Vec<u32> = block
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            validate_words(&decoded, &seg.name, seg.arity, rows, num_consts)?;
            Relation::from_shared(seg.arity, rows, Arc::new(decoded))
        }
    };
    rel.preset_stats(seg.distinct.clone(), true);
    for (col, &(ioff, ilen, icheck)) in seg.indexes.iter().enumerate() {
        let bad = || {
            StoreError::Malformed(format!(
                "segment '{}' column {col} carries an invalid index block",
                seg.name
            ))
        };
        let ioff_u = usize::try_from(ioff).map_err(|_| bad())?;
        let ilen_u = usize::try_from(ilen).map_err(|_| bad())?;
        let iend = ioff_u.checked_add(ilen_u).ok_or_else(bad)?;
        let iblock = mapping.bytes().get(ioff_u..iend).ok_or(StoreError::Truncated {
            needed: iend as u64,
            available: mapping.len() as u64,
        })?;
        let actual = checksum64(iblock);
        if actual != icheck {
            return Err(StoreError::ChecksumMismatch { expected: icheck, actual });
        }
        let mut r = Reader::new(iblock);
        let num_keys = r.get_u32()? as usize;
        let keys = r.get_u32_column(num_keys)?;
        let starts = r.get_u32_column(num_keys.checked_add(1).ok_or_else(bad)?)?;
        let rowids = r.get_u32_column(rows)?;
        if r.position() != iblock.len() as u64 {
            return Err(bad());
        }
        let idx = ColumnIndex::from_csr(keys, starts, rowids).ok_or_else(bad)?;
        rel.preset_index(col, idx);
        touched += ilen;
    }
    counters.columns.fetch_add(seg.arity as u64, Ordering::Relaxed);
    counters.bytes.fetch_add(touched, Ordering::Relaxed);
    Ok(rel)
}

/// A loaded snapshot: the constant dictionary plus the [`Database`],
/// sharing the evaluators' hot path with the in-memory backend.
/// Relations hydrate from the mapped file on first touch; the
/// [`DataInstance`] view (needed only by the chase oracle) is
/// materialised on first use.
pub struct Snapshot {
    dict: Vec<String>,
    database: Database,
    info: SnapshotInfo,
    counters: Arc<HydrationCounters>,
    instance: OnceLock<DataInstance>,
}

impl Snapshot {
    /// Opens the snapshot at `path` against `vocab` (untraced, unlimited
    /// budget).
    pub fn open(path: &Path, vocab: &Vocab) -> Result<Self, StoreError> {
        Self::open_budgeted(path, vocab, &mut Budget::unlimited(), Telemetry::disabled())
    }

    /// The open path: maps the file, verifies the header and metadata
    /// checksum, decodes the dictionary and segment directory,
    /// pre-validates every declared byte range against the mapped
    /// length, resolves every predicate by name, and hands each relation
    /// to the [`Database`] as a slot hydrated on first touch. Ticks
    /// `budget` while decoding so a pipeline deadline interrupts the open
    /// with a typed error. Records a `load_data` span with `open` (map +
    /// header and checksum), `dict` and `segments` children, observes the
    /// `store_open_seconds` histogram and sets the `store_bytes` gauge.
    pub fn open_budgeted(
        path: &Path,
        vocab: &Vocab,
        budget: &mut Budget,
        telem: Telemetry<'_>,
    ) -> Result<Self, StoreError> {
        let start = Instant::now();
        let load = telem.span("load_data");
        load.attr_str("backend", "snapshot");
        let t = telem.under(&load);

        // open: map + header and metadata-checksum verification.
        let open_span = t.span("open");
        let mapping = match Mapping::open(path) {
            Ok(m) => Arc::new(m),
            Err(e) => return fail_span(open_span, e),
        };
        open_span.attr("file_bytes", mapping.len() as u64);
        open_span.attr_str("map", if mapping.is_mmapped() { "mmap" } else { "heap" });
        let parsed = match parse_file(mapping.bytes()) {
            Ok(p) => p,
            Err(e) => return fail_span(open_span, e),
        };
        let header = parsed.header;
        if let Err(e) = open_injection_point() {
            return fail_span(open_span, e);
        }
        open_span.end();

        let dict_span = t.span("dict");
        let (dict, segs, dict_bytes) = match decode_meta(parsed.meta, budget) {
            Ok(out) => out,
            Err(e) => return fail_span(dict_span, e),
        };
        dict_span.attr("consts", dict.len() as u64);
        dict_span.end();

        let seg_span = t.span("segments");
        if let Err(e) = validate_ranges(&segs, mapping.len() as u64) {
            return fail_span(seg_span, e);
        }
        let num_consts = dict.len() as u32;
        let counters = Arc::new(HydrationCounters::default());
        let mut classes: FxHashMap<ClassId, LazyRelation> = FxHashMap::default();
        let mut props: FxHashMap<PropId, LazyRelation> = FxHashMap::default();
        let mut relations = Vec::with_capacity(segs.len());
        let mut num_atoms = 0u64;
        enum Slot {
            C(ClassId),
            P(PropId),
        }
        for seg in segs {
            num_atoms += seg.rows;
            relations.push(RelationInfo {
                name: seg.name.clone(),
                arity: seg.arity,
                rows: seg.rows,
            });
            let slot = if seg.arity == 1 {
                vocab.get_class(&seg.name).map(Slot::C)
            } else {
                vocab.get_prop(&seg.name).map(Slot::P)
            };
            let Some(slot) = slot else {
                let kind = if seg.arity == 1 { "class" } else { "property" };
                let e = StoreError::UnknownPredicate { kind, name: seg.name.clone() };
                return fail_span(seg_span, e);
            };
            let m = Arc::clone(&mapping);
            let c = Arc::clone(&counters);
            let lazy = LazyRelation::lazy(move || {
                hydrate_segment(&m, &seg, num_consts, &c).map_err(Into::into)
            });
            match slot {
                Slot::C(c) => {
                    classes.insert(c, lazy);
                }
                Slot::P(p) => {
                    props.insert(p, lazy);
                }
            }
        }

        // The universe (⊤) is the whole dictionary: ConstId(0)..ConstId(n),
        // trivially all-distinct and sorted — always hydrated.
        let universe = Relation::from_sorted_columns(1, &[(0..num_consts).collect()]);
        universe.preset_stats(vec![num_consts as u64], true);
        let atoms = match usize::try_from(num_atoms) {
            Ok(n) => n,
            Err(_) => {
                return fail_span(seg_span, StoreError::Malformed("atom count overflow".into()))
            }
        };
        let database = Database::from_lazy_relations(classes, props, universe, atoms);
        seg_span.attr("relations", relations.len() as u64);
        seg_span.attr("atoms", num_atoms);
        seg_span.end();
        load.end();

        if let Some(metrics) = telem.metrics {
            metrics.histogram("store_open_seconds").observe(start.elapsed());
            metrics.gauge("store_bytes").set(mapping.len() as i64);
        }

        Ok(Snapshot {
            info: SnapshotInfo {
                version: header.version,
                flags: header.flags,
                file_bytes: mapping.len() as u64,
                payload_bytes: header.payload_len,
                checksum: header.checksum,
                num_consts: dict.len(),
                dict_bytes,
                num_atoms,
                mmapped: mapping.is_mmapped(),
                relations,
            },
            dict,
            database,
            counters,
            instance: OnceLock::new(),
        })
    }

    /// The database, sharing the in-memory backend's eval hot path.
    /// Relations hydrate on first touch; [`Database::hydrate`] hydrates a
    /// predicate set up front and reports a corrupt segment as the typed
    /// [`StoreError`] (recovered with `StoreError::from`).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Structural metadata of the opened snapshot.
    pub fn info(&self) -> &SnapshotInfo {
        &self.info
    }

    /// Columns hydrated so far.
    pub fn columns_touched(&self) -> u64 {
        self.counters.columns.load(Ordering::Relaxed)
    }

    /// Data + index bytes hydrated so far — the store's contribution to
    /// the resident set.
    pub fn bytes_touched(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// The name of a constant (dictionary lookup).
    ///
    /// # Panics
    /// Panics if `c` is not a dictionary id, mirroring
    /// [`DataInstance::constant_name`].
    pub fn constant_name(&self, c: ConstId) -> &str {
        &self.dict[c.0 as usize]
    }

    /// The instance view, materialised from the loaded relations on first
    /// use (only the chase oracle needs it; the hot path never does).
    /// Hydrates — and so verifies — every segment first: a corrupt one is
    /// the typed error.
    pub fn data_instance(&self) -> Result<&DataInstance, StoreError> {
        if let Some(data) = self.instance.get() {
            return Ok(data);
        }
        self.database.hydrate_all()?;
        Ok(self.instance.get_or_init(|| {
            let mut data = DataInstance::from_dictionary(self.dict.iter().map(String::as_str));
            for (c, rel) in self.database.class_relations() {
                for row in rel.rows() {
                    data.add_class_atom(c, ConstId(row[0]));
                }
            }
            for (p, rel) in self.database.prop_relations() {
                for row in rel.rows() {
                    data.add_prop_atom(p, ConstId(row[0]), ConstId(row[1]));
                }
            }
            data
        }))
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("consts", &self.info.num_consts)
            .field("atoms", &self.info.num_atoms)
            .field("file_bytes", &self.info.file_bytes)
            .field("bytes_touched", &self.bytes_touched())
            .finish_non_exhaustive()
    }
}

impl StorageBackend for Snapshot {
    fn database(&self) -> &Database {
        Snapshot::database(self)
    }

    fn constant_name(&self, c: ConstId) -> &str {
        Snapshot::constant_name(self, c)
    }

    fn kind(&self) -> &'static str {
        "snapshot"
    }

    fn resident_bytes(&self) -> Option<u64> {
        Some(self.bytes_touched())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::format::FORMAT_VERSION;
    use obda_ndl::program::PredKind;
    use obda_owlql::parser::{parse_data, parse_ontology};
    use obda_owlql::Ontology;
    use obda_telemetry::CollectingTracer;
    use std::sync::atomic::AtomicUsize;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "obda-store-{}-{tag}-{}.obdb",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn example() -> (Ontology, DataInstance) {
        let o = parse_ontology("Class A\nClass B\nProperty P\nProperty Q\n").unwrap();
        let d = parse_data("A(x)\nA(y)\nB(z)\nP(x, y)\nP(y, z)\nQ(z, x)\n", &o).unwrap();
        (o, d)
    }

    fn sorted_rows(rel: &Relation) -> Vec<Vec<u32>> {
        let mut rows: Vec<Vec<u32>> = rel.rows().map(<[u32]>::to_vec).collect();
        rows.sort_unstable();
        rows
    }

    /// Sorted rows per class, per property, of `⊤`, and the atom count.
    type Fingerprint =
        (Vec<(ClassId, Vec<Vec<u32>>)>, Vec<(PropId, Vec<Vec<u32>>)>, Vec<Vec<u32>>, usize);

    /// Everything observable about a database, in canonical order.
    fn fingerprint(db: &Database) -> Fingerprint {
        let mut classes: Vec<_> = db.class_relations().map(|(c, r)| (c, sorted_rows(r))).collect();
        classes.sort_unstable_by_key(|&(c, _)| c);
        let mut props: Vec<_> = db.prop_relations().map(|(p, r)| (p, sorted_rows(r))).collect();
        props.sort_unstable_by_key(|&(p, _)| p);
        let top = sorted_rows(db.relation(PredKind::Top));
        (classes, props, top, db.num_atoms())
    }

    #[test]
    fn roundtrip_reconstructs_the_database() {
        let (o, d) = example();
        let path = temp_path("roundtrip");
        let info = write_snapshot(&path, o.vocab(), &d).unwrap();
        assert_eq!(info.version, FORMAT_VERSION);
        assert_eq!(info.flags, FLAG_STATS | FLAG_INDEXES);
        assert_eq!(info.num_consts, 3);
        assert_eq!(info.num_atoms, 6);
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&d)));
        // Dictionary ids preserved verbatim.
        for c in d.individuals() {
            assert_eq!(snap.constant_name(c), d.constant_name(c));
        }
        // The lazy instance view is atom-for-atom the original.
        assert_eq!(snap.data_instance().unwrap().to_text(&o), d.to_text(&o));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoding_is_deterministic() {
        let (o, d) = example();
        assert_eq!(snapshot_bytes(o.vocab(), &d), snapshot_bytes(o.vocab(), &d));
    }

    #[test]
    fn stats_section_roundtrips_into_relation_stats() {
        let (o, d) = example();
        let path = temp_path("stats");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        // P = {(x,y), (y,z)}: 2 distinct subjects, 2 distinct objects.
        let p = o.vocab().get_prop("P").unwrap();
        let rel = snap.database().prop_relations().find(|&(q, _)| q == p).unwrap().1;
        let s = rel.stats();
        assert_eq!(s.rows, 2);
        assert_eq!(s.distinct, vec![2, 2]);
        assert!(s.sorted_col0);
        std::fs::remove_file(&path).ok();
    }

    /// Writes the current encoding of `example()` with its header patched
    /// by `patch`, and opens it.
    fn open_patched(tag: &str, patch: impl Fn(&mut Vec<u8>)) -> Result<Snapshot, StoreError> {
        let (o, d) = example();
        let mut bytes = snapshot_bytes(o.vocab(), &d);
        patch(&mut bytes);
        let path = temp_path(tag);
        std::fs::write(&path, &bytes).unwrap();
        let out = Snapshot::open(&path, o.vocab());
        let info = read_info(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(info.err().map(|e| e.to_string()), out.as_ref().err().map(|e| e.to_string()));
        out
    }

    #[test]
    fn v1_snapshot_is_refused_at_open() {
        // Header bytes 4..8 carry the version: a version-1 file is refused
        // with the typed incompatibility error, by open and dbinfo alike.
        let err = open_patched("v1", |b| b[4] = 1).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found: 1, supported: FORMAT_VERSION }),
            "{err}"
        );
    }

    #[test]
    fn footer_form_is_refused_at_open() {
        // Flags live at header bytes 8..12; bit 2 marked the retired
        // footer form, now an unknown required bit.
        let err = open_patched("footer", |b| b[8] |= 1 << 2).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("unknown required flags set: 0x4"), "{err}");
    }

    #[test]
    fn read_info_reports_relations_without_a_vocab() {
        let (o, d) = example();
        let path = temp_path("info");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let info = read_info(&path).unwrap();
        assert_eq!(info.file_bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(info.payload_bytes + HEADER_LEN as u64, info.file_bytes);
        let names: Vec<(&str, usize, u64)> =
            info.relations.iter().map(|r| (r.name.as_str(), r.arity, r.rows)).collect();
        assert_eq!(names, vec![("A", 1, 2), ("B", 1, 1), ("P", 2, 2), ("Q", 2, 1)]);
        assert!(info.dict_bytes > 0);
        assert!(!info.mmapped, "read_info never maps");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_predicate_is_a_typed_error() {
        let (o, d) = example();
        let path = temp_path("vocab");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        // Lacks B and Q. Name resolution happens at open, before any
        // segment hydrates.
        let other = parse_ontology("Class A\nProperty P\n").unwrap();
        let err = Snapshot::open(&path, other.vocab()).unwrap_err();
        assert!(matches!(err, StoreError::UnknownPredicate { kind: "class", .. }), "{err}");
        let other = parse_ontology("Class A\nClass B\nProperty P\n").unwrap();
        let err = Snapshot::open(&path, other.vocab()).unwrap_err();
        assert!(matches!(err, StoreError::UnknownPredicate { kind: "property", .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_bit_flips_are_typed_errors() {
        let (o, d) = example();
        let bytes = snapshot_bytes(o.vocab(), &d);
        // Truncate at every prefix length: always a typed error, never a panic.
        let path = temp_path("trunc");
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 2, bytes.len() - 5] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = Snapshot::open(&path, o.vocab()).unwrap_err();
            assert!(
                matches!(err, StoreError::BadMagic | StoreError::Truncated { .. }),
                "cut={cut}: {err}"
            );
        }
        // Flip one data-region bit (the last byte is in an index block):
        // the per-block checksum catches it when the segment hydrates.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        let err = StoreError::from(snap.database().hydrate_all().unwrap_err());
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
        assert!(matches!(snap.data_instance(), Err(StoreError::ChecksumMismatch { .. })));
        // Flip one metadata bit: caught at open.
        let mut meta_flipped = bytes.clone();
        meta_flipped[HEADER_LEN + 9] ^= 0x01;
        std::fs::write(&path, &meta_flipped).unwrap();
        let err = Snapshot::open(&path, o.vocab()).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
        // A missing file is a typed I/O error.
        std::fs::remove_file(&path).ok();
        assert!(matches!(Snapshot::open(&path, o.vocab()), Err(StoreError::Io(_))));
    }

    #[test]
    fn corrupt_segment_is_a_typed_error_on_lazy_hydration() {
        let (o, d) = example();
        let mut bytes = snapshot_bytes(o.vocab(), &d);
        // The first data block starts at file offset SEGMENT_ALIGN (the
        // metadata is far smaller than a page): flip a byte inside
        // segment "A"'s column.
        bytes[SEGMENT_ALIGN as usize] ^= 0x01;
        let path = temp_path("lazycorrupt");
        std::fs::write(&path, &bytes).unwrap();
        // Open succeeds — the data pages were never touched.
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        let a = o.vocab().get_class("A").unwrap();
        for _ in 0..2 {
            let err = snap.database().hydrate([PredKind::EdbClass(a)]).unwrap_err();
            let err = StoreError::from(err);
            assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
        }
        // The failed slot stays pending and counts nothing.
        assert_eq!(snap.columns_touched(), 0);
        assert_eq!(snap.bytes_touched(), 0);
        // The untouched segments still hydrate fine.
        let p = o.vocab().get_prop("P").unwrap();
        assert_eq!(snap.database().hydrate([PredKind::EdbProp(p)]).unwrap(), (1, 2));
        assert_eq!(snap.database().relation(PredKind::EdbProp(p)).len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_open_hydrates_only_touched_segments() {
        let (o, d) = example();
        let path = temp_path("lazy");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(snap.columns_touched(), 0);
        assert_eq!(snap.bytes_touched(), 0);
        assert_eq!(snap.resident_bytes(), Some(0));
        // Touch exactly one predicate: its column + index bytes fault in.
        let a = o.vocab().get_class("A").unwrap();
        assert_eq!(snap.database().relation(PredKind::EdbClass(a)).len(), 2);
        assert_eq!(snap.columns_touched(), 1);
        assert!(snap.bytes_touched() > 2 * 4, "index block counts too");
        let after_one = snap.bytes_touched();
        // Re-touching is free; touching everything hydrates the rest.
        snap.database().relation(PredKind::EdbClass(a));
        assert_eq!(snap.bytes_touched(), after_one);
        fingerprint(snap.database());
        assert_eq!(snap.columns_touched(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eager_open_matches_lazy_and_prefills_counters() {
        // "Eager" is an open followed by one `hydrate_all`: every segment
        // decoded and verified up front, counted once each.
        let (o, d) = example();
        let path = temp_path("eager");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let lazy = Snapshot::open(&path, o.vocab()).unwrap();
        let eager = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(eager.database().hydrate_all().unwrap(), (4, 6));
        assert_eq!(eager.columns_touched(), 6);
        let full = eager.bytes_touched();
        assert!(full > 0);
        assert_eq!(eager.database().hydrate_all().unwrap(), (0, 0), "hydrated once");
        assert_eq!(eager.bytes_touched(), full);
        assert_eq!(fingerprint(lazy.database()), fingerprint(eager.database()));
        assert_eq!(lazy.bytes_touched(), full, "touching everything lazily costs the same");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_first_hydrations_count_each_segment_once() {
        let (o, d) = example();
        let path = temp_path("race");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        let reference = Snapshot::open(&path, o.vocab()).unwrap();
        reference.database().hydrate_all().unwrap();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    snap.database().hydrate_all().unwrap();
                });
            }
        });
        assert_eq!(snap.columns_touched(), 6);
        assert_eq!(snap.bytes_touched(), reference.bytes_touched());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persisted_index_blocks_preload_the_column_indexes() {
        let (o, d) = example();
        let path = temp_path("warmidx");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        let p = o.vocab().get_prop("P").unwrap();
        let rel = snap.database().relation(PredKind::EdbProp(p));
        // Hydration presets both column indexes — no on-demand build.
        assert!(rel.has_index(0) && rel.has_index(1));
        // And they answer probes exactly like a built hash index:
        // P = {(x,y), (y,z)} with x=0, y=1, z=2.
        assert_eq!(rel.column_index(0).probe(1), &[1]);
        assert_eq!(rel.column_index(1).probe(1), &[0]);
        assert_eq!(rel.column_index(0).probe(2), &[] as &[u32]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_interrupts_the_open() {
        let (o, d) = example();
        let path = temp_path("budget");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let mut budget = Budget::unlimited().max_steps(1);
        let err = Snapshot::open_budgeted(&path, o.vocab(), &mut budget, Telemetry::disabled())
            .unwrap_err();
        assert!(matches!(err, StoreError::Budget(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_records_spans_and_metrics() {
        let (o, d) = example();
        let path = temp_path("telem");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let tracer = CollectingTracer::new();
        let metrics = obda_telemetry::MetricsRegistry::new();
        let telem = Telemetry::new(&tracer, Some(&metrics));
        Snapshot::open_budgeted(&path, o.vocab(), &mut Budget::unlimited(), telem).unwrap();
        let tree = tracer.snapshot();
        let load = &tree.roots[0];
        assert_eq!(load.name, "load_data");
        assert_eq!(load.attr_str("backend"), Some("snapshot"));
        let children: Vec<&str> = load.children.iter().map(|s| s.name).collect();
        assert_eq!(children, vec!["open", "dict", "segments"]);
        assert!(load.children[0].attr("file_bytes").unwrap() > 0);
        assert_eq!(load.children[1].attr("consts"), Some(3));
        assert_eq!(load.children[2].attr("atoms"), Some(6));
        assert_eq!(metrics.histogram("store_open_seconds").count(), 1);
        assert!(metrics.gauge("store_bytes").get() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_and_snapshot_backends_share_the_seam() {
        let (o, d) = example();
        let path = temp_path("seam");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        let mem = MemoryBackend::new(d);
        let backends: [&dyn StorageBackend; 2] = [&mem, &snap];
        assert_eq!(backends[0].kind(), "memory");
        assert_eq!(backends[1].kind(), "snapshot");
        assert_eq!(backends[0].resident_bytes(), None);
        for b in backends {
            assert_eq!(b.database().num_atoms(), 6);
            assert_eq!(b.database().num_individuals(), 3);
        }
        assert_eq!(snap.data_instance().unwrap().num_atoms(), mem.data().num_atoms());
        let x = mem.data().get_constant("x").unwrap();
        assert_eq!(snap.constant_name(x), "x");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_temp_write_never_corrupts_the_published_snapshot() {
        let (o, d) = example();
        let path = temp_path("atomic");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        // A successful write leaves no staging file behind.
        assert!(!temp_sibling(&path).exists(), "temp file must not linger");
        // Simulate a crash mid-write of the *next* build: a torn (truncated)
        // temp file appears next to the snapshot. The published `.obdb`
        // must stay fully openable — the torn bytes were never renamed in.
        std::fs::write(temp_sibling(&path), b"torn").unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(snap.info().num_atoms, 6);
        // And a subsequent successful write overwrites the torn temp,
        // publishes atomically, and cleans up again.
        write_snapshot(&path, o.vocab(), &d).unwrap();
        assert!(!temp_sibling(&path).exists());
        assert_eq!(Snapshot::open(&path, o.vocab()).unwrap().info().num_atoms, 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_write_cleans_up_its_temp_file() {
        let (o, d) = example();
        // Writing into a missing directory fails — and must not strand a
        // temp file anywhere (there is no directory to strand it in, but
        // the error must be the typed I/O error, not a panic).
        let path = std::env::temp_dir().join("obda-no-such-dir").join("x.obdb");
        std::fs::remove_dir_all(std::env::temp_dir().join("obda-no-such-dir")).ok();
        let err = write_snapshot(&path, o.vocab(), &d).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(!temp_sibling(&path).exists());
    }

    #[test]
    fn empty_instance_roundtrips() {
        let o = parse_ontology("Class A\n").unwrap();
        let d = DataInstance::new();
        let path = temp_path("empty");
        let info = write_snapshot(&path, o.vocab(), &d).unwrap();
        assert_eq!(info.num_atoms, 0);
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(snap.database().num_individuals(), 0);
        assert_eq!(snap.database().num_atoms(), 0);
        std::fs::remove_file(&path).ok();
    }
}
