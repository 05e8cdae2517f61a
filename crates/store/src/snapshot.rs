//! Snapshot serialisation (`write_snapshot`) and the fast open path
//! ([`Snapshot::open`]).
//!
//! ## Payload layouts
//!
//! The fixed header of [`crate::format`] is followed by one of two
//! payload shapes.
//!
//! **Version 1** (still read forever, written by [`snapshot_bytes_v1`]):
//! one flat payload decoded front to back —
//!
//! ```text
//! dictionary   u32 num_consts, then num_consts × string
//!              (name i belongs to ConstId(i); ids are preserved verbatim)
//! classes      u32 count, then count × segment(arity = 1)
//! properties   u32 count, then count × segment(arity = 2)
//!
//! segment      string predicate name        (resolved by name on open)
//!              u64 num_rows
//!              arity × u64 column offset    (bytes from payload start)
//!              arity × column               (num_rows × u32 LE each)
//!
//! stats        (only when header flag FLAG_STATS is set)
//!              per segment, in file order: arity × u64 distinct counts
//! ```
//!
//! **Version 2** (the current writer): metadata and segment data are
//! separate regions so the open path is O(metadata) —
//!
//! ```text
//! metadata     u32 num_consts, then num_consts × string
//!              u32 class count, then count × dirent(arity = 1)
//!              u32 property count, then count × dirent(arity = 2)
//!
//! dirent       string predicate name        (resolved by name on open)
//!              u64 num_rows
//!              u64 data offset              (absolute file offset,
//!                                            SEGMENT_ALIGN-aligned)
//!              u64 data checksum            (verified at hydration)
//!              arity × u64 distinct         (iff FLAG_STATS)
//!              arity × (u64 offset, u64 len, u64 checksum)
//!                                           (iff FLAG_INDEXES)
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
//! Without [`FLAG_FOOTER`] the payload is `u64 meta_len`, the metadata,
//! zero padding, then the data region (index blocks packed after all
//! data blocks). With it — the **appendable form** written by
//! [`write_snapshot_footer`] — the data region comes first (at file
//! offset [`SEGMENT_ALIGN`]) and the metadata sits at the end, located
//! by a trailing `u64` payload offset: [`append_snapshot`] keeps every
//! old block byte at its old offset, writes new blocks over the old
//! footer and a fresh footer after them.
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
//! are preset then. A violation discovered during lazy hydration cannot
//! return an error through `&self` access paths, so it raises a panic
//! with a `snapshot segment … failed to hydrate` payload that the
//! pipeline's isolation boundary maps back to a typed error;
//! [`Snapshot::open_eager`] hydrates everything up front and reports the
//! same violations as typed [`StoreError`]s directly.

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::format::{
    checksum64, parse_file, Parsed, Reader, Writer, FLAG_APPENDED, FLAG_FOOTER, FLAG_INDEXES,
    FLAG_STATS, FORMAT_VERSION, FORMAT_VERSION_V2, HEADER_LEN, SEGMENT_ALIGN,
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
    /// Word-folded FNV-1a 64 checksum of the payload (v1) or of the
    /// metadata region (v2).
    pub checksum: u64,
    /// Number of dictionary entries (constants).
    pub num_consts: usize,
    /// Bytes of the dictionary section.
    pub dict_bytes: u64,
    /// Total atoms across all relation segments.
    pub num_atoms: u64,
    /// Whether the file carries persisted statistics (`FLAG_STATS`);
    /// when `false`, planner stats are derived on open.
    pub has_stats: bool,
    /// Whether the file carries persisted per-column index blocks
    /// (`FLAG_INDEXES`); when `false`, indexes are built on first probe.
    pub has_indexes: bool,
    /// Whether the payload uses the appendable footer form
    /// (`FLAG_FOOTER`).
    pub footer: bool,
    /// Whether the file has been grown by [`append_snapshot`] since its
    /// last full rebuild (`FLAG_APPENDED`).
    pub appended: bool,
    /// Whether the bytes behind the opened snapshot are genuinely
    /// memory-mapped (always `false` for [`read_info`], which never
    /// maps).
    pub mmapped: bool,
    /// Per-relation name, arity and row count, in file order.
    pub relations: Vec<RelationInfo>,
}

impl SnapshotInfo {
    /// Where the planner statistics come from: `"embedded"` when the
    /// file carries the stats section, `"derived"` otherwise.
    pub fn stats_source(&self) -> &'static str {
        if self.has_stats {
            "embedded"
        } else {
            "derived"
        }
    }

    /// Where column indexes come from: `"embedded"` when the file
    /// carries index blocks, `"derived"` otherwise.
    pub fn index_source(&self) -> &'static str {
        if self.has_indexes {
            "embedded"
        } else {
            "derived"
        }
    }
}

/// How [`Snapshot::open_with`] materialises relation segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Hydration {
    /// Segments hydrate on first touch (the default): open cost and
    /// resident bytes stay proportional to the metadata plus the
    /// columns a query actually joins.
    #[default]
    Lazy,
    /// Every segment is decoded and verified at open time, as v1 files
    /// always are — corruption anywhere surfaces as a typed error from
    /// `open` itself.
    Eager,
}

/// Hydration progress shared between a [`Snapshot`] and its lazy
/// hydrators: columns and bytes actually decoded so far.
#[derive(Debug, Default)]
struct HydrationCounters {
    columns: AtomicU64,
    bytes: AtomicU64,
}

// ---------------------------------------------------------------------
// Writers
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

/// One decoded v2 directory entry. `seg_off`/index offsets are absolute
/// file offsets.
#[derive(Debug, Clone)]
struct SegmentMeta {
    name: String,
    arity: usize,
    rows: u64,
    seg_off: u64,
    seg_check: u64,
    distinct: Option<Vec<u64>>,
    indexes: Option<Vec<(u64, u64, u64)>>,
}

/// Collects `data`'s relations into name-sorted [`SegmentBuild`]s
/// (classes, then properties). `remap` translates the instance's
/// constant ids into the target dictionary's ids (the appender's path);
/// rows are sorted *after* remapping so the on-disk order invariant
/// holds either way.
fn collect_segments(
    vocab: &Vocab,
    data: &DataInstance,
    remap: Option<&[u32]>,
) -> (Vec<SegmentBuild>, Vec<SegmentBuild>) {
    let map = |id: u32| remap.map_or(id, |m| m[id as usize]);

    let mut classes: Vec<SegmentBuild> = data
        .members_by_class()
        .into_iter()
        .map(|(c, members)| {
            let mut col: Vec<u32> = members.into_iter().map(|a| map(a.0)).collect();
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
            let mut rows: Vec<(u32, u32)> =
                pairs.into_iter().map(|(a, b)| (map(a.0), map(b.0))).collect();
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
fn place_region(segs: &[&SegmentBuild], with_indexes: bool) -> (Vec<u8>, Vec<Placed>) {
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
    if with_indexes {
        for (seg, p) in segs.iter().zip(&mut placed) {
            for c in 0..seg.arity {
                let block = csr_block(&seg.words, seg.arity, c, seg.rows);
                p.indexes.push((region.len() as u64, block.len() as u64, checksum64(&block)));
                region.extend_from_slice(&block);
            }
        }
    }
    (region, placed)
}

/// Absolute-offset directory entries for freshly placed segments:
/// region-relative offsets shifted by the region's file offset `base`.
fn metas_from(
    segs: &[&SegmentBuild],
    placed: &[Placed],
    base: u64,
    flags: u32,
) -> Vec<SegmentMeta> {
    segs.iter()
        .zip(placed)
        .map(|(seg, p)| SegmentMeta {
            name: seg.name.clone(),
            arity: seg.arity,
            rows: seg.rows as u64,
            seg_off: base + p.seg_rel,
            seg_check: p.seg_check,
            distinct: (flags & FLAG_STATS != 0).then(|| seg.distinct.clone()),
            indexes: (flags & FLAG_INDEXES != 0)
                .then(|| p.indexes.iter().map(|&(o, l, c)| (base + o, l, c)).collect()),
        })
        .collect()
}

/// Encodes the v2 metadata region: dictionary, class directory,
/// property directory. Stats and index locators are written iff the
/// corresponding flag is set (the dirents must agree with the header).
fn encode_meta(
    w: &mut Writer,
    dict: &[&str],
    classes: &[SegmentMeta],
    props: &[SegmentMeta],
    flags: u32,
) {
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
            if flags & FLAG_STATS != 0 {
                let d = s.distinct.as_deref().unwrap_or(&[]);
                debug_assert_eq!(d.len(), s.arity);
                for &v in d {
                    w.put_u64(v);
                }
            }
            if flags & FLAG_INDEXES != 0 {
                let idx = s.indexes.as_deref().unwrap_or(&[]);
                debug_assert_eq!(idx.len(), s.arity);
                for &(o, l, c) in idx {
                    w.put_u64(o);
                    w.put_u64(l);
                    w.put_u64(c);
                }
            }
        }
    }
}

/// The v2 builder behind [`snapshot_bytes`] (inline form) and
/// [`snapshot_bytes_footer`] (appendable footer form).
fn snapshot_bytes_v2(vocab: &Vocab, data: &DataInstance, footer: bool) -> Vec<u8> {
    let flags = FLAG_STATS | FLAG_INDEXES;
    let (classes, props) = collect_segments(vocab, data, None);
    let segs: Vec<&SegmentBuild> = classes.iter().chain(&props).collect();
    let (region, placed) = place_region(&segs, true);
    let dict: Vec<&str> = data.constant_names().collect();
    let nc = classes.len();

    if footer {
        let base = SEGMENT_ALIGN;
        let metas = metas_from(&segs, &placed, base, flags);
        let (cm, pm) = metas.split_at(nc);
        let mut w = Writer::new();
        if !region.is_empty() {
            let at = w.pad_to_file_alignment(SEGMENT_ALIGN);
            debug_assert_eq!(at, base);
            w.put_bytes(&region);
        }
        let meta_start = w.position();
        encode_meta(&mut w, &dict, cm, pm, flags);
        w.put_u64(meta_start);
        let len = w.position() as usize;
        w.into_file_bytes_v2(flags | FLAG_FOOTER, meta_start as usize..len)
    } else {
        // The metadata length is offset-independent (offsets are fixed
        // width u64), so a dry encode with base 0 sizes it exactly.
        let metas0 = metas_from(&segs, &placed, 0, flags);
        let (cm0, pm0) = metas0.split_at(nc);
        let mut dry = Writer::new();
        encode_meta(&mut dry, &dict, cm0, pm0, flags);
        let meta_len = dry.position();
        let base = if region.is_empty() {
            0
        } else {
            (HEADER_LEN as u64 + 8 + meta_len).next_multiple_of(SEGMENT_ALIGN)
        };
        let metas = metas_from(&segs, &placed, base, flags);
        let (cm, pm) = metas.split_at(nc);
        let mut w = Writer::new();
        w.put_u64(meta_len);
        encode_meta(&mut w, &dict, cm, pm, flags);
        debug_assert_eq!(w.position(), 8 + meta_len);
        if !region.is_empty() {
            let at = w.pad_to_file_alignment(SEGMENT_ALIGN);
            debug_assert_eq!(at, base);
            w.put_bytes(&region);
        }
        let meta_end = 8 + meta_len as usize;
        w.into_file_bytes_v2(flags, 0..meta_end)
    }
}

/// Serialises `data` into `.obdb` file bytes (in memory): the current
/// v2 inline form with persisted statistics and per-column index blocks
/// (`FLAG_STATS | FLAG_INDEXES`). Relations are exported by *name*
/// through `vocab`, rows sorted lexicographically, segments sorted by
/// predicate name — the encoding is deterministic.
pub fn snapshot_bytes(vocab: &Vocab, data: &DataInstance) -> Vec<u8> {
    snapshot_bytes_v2(vocab, data, false)
}

/// The appendable v2 **footer** form (`FLAG_FOOTER`): data blocks
/// first, metadata at the end — [`append_snapshot`] can grow such a
/// file without rewriting a single data block.
pub fn snapshot_bytes_footer(vocab: &Vocab, data: &DataInstance) -> Vec<u8> {
    snapshot_bytes_v2(vocab, data, true)
}

/// The version-1 flat encoding with the statistics section, exactly as
/// the previous builder wrote it. Kept public so compatibility tests
/// can prove v1 files still open with identical answers.
pub fn snapshot_bytes_v1(vocab: &Vocab, data: &DataInstance) -> Vec<u8> {
    snapshot_bytes_v1_with(vocab, data, true)
}

/// The pre-stats version-1 encoding (flags 0), exactly as written
/// before the stats section existed. Kept public so compatibility tests
/// can produce the oldest files and prove they still open (with stats
/// derived on open).
pub fn snapshot_bytes_legacy(vocab: &Vocab, data: &DataInstance) -> Vec<u8> {
    snapshot_bytes_v1_with(vocab, data, false)
}

fn snapshot_bytes_v1_with(vocab: &Vocab, data: &DataInstance, with_stats: bool) -> Vec<u8> {
    let (classes, props) = collect_segments(vocab, data, None);
    let mut w = Writer::new();
    // Dictionary, in ConstId order.
    w.put_u32(data.num_individuals() as u32);
    for name in data.constant_names() {
        w.put_str(name);
    }

    w.put_u32(classes.len() as u32);
    for seg in &classes {
        w.put_str(&seg.name);
        w.put_u64(seg.rows as u64);
        // One offset per column, each pointing at the column's first byte.
        let data_start = w.position() + 8;
        w.put_u64(data_start);
        w.put_u32_column(&seg.words);
    }

    w.put_u32(props.len() as u32);
    for seg in &props {
        w.put_str(&seg.name);
        w.put_u64(seg.rows as u64);
        let col_bytes = seg.rows as u64 * 4;
        let data_start = w.position() + 16;
        w.put_u64(data_start);
        w.put_u64(data_start + col_bytes);
        // v1 stores columns, not interleaved rows: de-interleave.
        let col0: Vec<u32> = seg.words.iter().step_by(2).copied().collect();
        let col1: Vec<u32> = seg.words.iter().skip(1).step_by(2).copied().collect();
        w.put_u32_column(&col0);
        w.put_u32_column(&col1);
    }
    if !with_stats {
        return w.into_file_bytes();
    }

    // Statistics section, segment order.
    for seg in classes.iter().chain(&props) {
        for &d in &seg.distinct {
            w.put_u64(d);
        }
    }
    w.into_file_bytes_flagged(FLAG_STATS)
}

/// Stages `bytes` into a temporary sibling, fsyncs, then renames over
/// `path` — the crash-atomic publish every writer shares. The temporary
/// file is removed on every failure path.
fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = temp_sibling(path);
    let write_and_rename = || -> Result<(), StoreError> {
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, bytes)?;
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
    Ok(())
}

/// Serialises `data` to an `.obdb` file at `path` (the v2 inline form),
/// returning the written snapshot's [`SnapshotInfo`]. See
/// [`snapshot_bytes`] for the encoding.
///
/// The write is **atomic**: the bytes go to a temporary file in the
/// target directory first, are fsynced, and only then renamed over
/// `path`. A crash (or fault) at any point mid-write leaves either the
/// old snapshot or the new one — never a torn `.obdb`.
pub fn write_snapshot(
    path: &Path,
    vocab: &Vocab,
    data: &DataInstance,
) -> Result<SnapshotInfo, StoreError> {
    let bytes = snapshot_bytes(vocab, data);
    write_bytes_atomic(path, &bytes)?;
    info_from_bytes(&bytes)
}

/// Like [`write_snapshot`] but in the appendable **footer** form, the
/// seam the delta-overlay roadmap item compacts into: a snapshot
/// written this way can later be grown by [`append_snapshot`].
pub fn write_snapshot_footer(
    path: &Path,
    vocab: &Vocab,
    data: &DataInstance,
) -> Result<SnapshotInfo, StoreError> {
    let bytes = snapshot_bytes_footer(vocab, data);
    write_bytes_atomic(path, &bytes)?;
    info_from_bytes(&bytes)
}

/// Grows a footer-form snapshot with `delta`'s relations without
/// rewriting a single existing data block: the old payload up to the
/// old footer is kept byte-for-byte (so already-mapped offsets stay
/// valid), the new segments' blocks land where the old footer was, and
/// a fresh footer — extended dictionary, old dirents verbatim, new
/// dirents after them — is written at the end. The publish is atomic
/// (temp + rename), and the result carries `FLAG_APPENDED`.
///
/// `delta`'s constants are remapped *by name* into the snapshot's
/// dictionary; unseen names extend it. A delta predicate that already
/// has a segment is refused — merging rows into an existing segment is
/// the delta-overlay compactor's job, not the appender's.
pub fn append_snapshot(
    path: &Path,
    vocab: &Vocab,
    delta: &DataInstance,
) -> Result<SnapshotInfo, StoreError> {
    let old = std::fs::read(path)?;
    let parsed = parse_file(&old)?;
    if parsed.header.version != FORMAT_VERSION_V2 || parsed.header.flags & FLAG_FOOTER == 0 {
        return Err(StoreError::Malformed(
            "append requires the v2 footer form (rebuild with write_snapshot_footer)".to_owned(),
        ));
    }
    let flags = parsed.header.flags;
    let (dict, old_segs, _) = decode_meta(parsed.meta, flags, &mut Budget::unlimited())?;
    let meta_start = parsed.payload.len() - 8 - parsed.meta.len();

    // Extend the dictionary: delta constants resolve by name, unseen
    // names get the next dense ids. `remap[delta_id] = snapshot_id`.
    let index: FxHashMap<&str, u32> =
        dict.iter().enumerate().map(|(i, n)| (n.as_str(), i as u32)).collect();
    let mut new_names: Vec<String> = Vec::new();
    let remap: Vec<u32> = delta
        .constant_names()
        .map(|name| match index.get(name) {
            Some(&id) => id,
            None => {
                new_names.push(name.to_owned());
                (dict.len() + new_names.len() - 1) as u32
            }
        })
        .collect();

    let (d_classes, d_props) = collect_segments(vocab, delta, Some(&remap));
    let old_keys: FxHashSet<(usize, &str)> =
        old_segs.iter().map(|s| (s.arity, s.name.as_str())).collect();
    for seg in d_classes.iter().chain(&d_props) {
        if old_keys.contains(&(seg.arity, seg.name.as_str())) {
            return Err(StoreError::Malformed(format!(
                "segment '{}' already exists; the appender cannot merge into an existing predicate",
                seg.name
            )));
        }
    }

    let segs: Vec<&SegmentBuild> = d_classes.iter().chain(&d_props).collect();
    let (region, placed) = place_region(&segs, flags & FLAG_INDEXES != 0);
    let new_base = (HEADER_LEN as u64 + meta_start as u64).next_multiple_of(SEGMENT_ALIGN);
    let metas = metas_from(&segs, &placed, new_base, flags);
    let (new_c, new_p) = metas.split_at(d_classes.len());

    let mut classes: Vec<SegmentMeta> = old_segs.iter().filter(|s| s.arity == 1).cloned().collect();
    classes.extend_from_slice(new_c);
    let mut props: Vec<SegmentMeta> = old_segs.iter().filter(|s| s.arity == 2).cloned().collect();
    props.extend_from_slice(new_p);
    let full_dict: Vec<&str> =
        dict.iter().map(String::as_str).chain(new_names.iter().map(String::as_str)).collect();

    let mut w = Writer::new();
    w.put_bytes(&parsed.payload[..meta_start]);
    if !region.is_empty() {
        let at = w.pad_to_file_alignment(SEGMENT_ALIGN);
        debug_assert_eq!(at, new_base);
        w.put_bytes(&region);
    }
    let new_meta_start = w.position();
    encode_meta(&mut w, &full_dict, &classes, &props, flags);
    w.put_u64(new_meta_start);
    let len = w.position() as usize;
    let bytes = w.into_file_bytes_v2(flags | FLAG_APPENDED, new_meta_start as usize..len);
    write_bytes_atomic(path, &bytes)?;
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

/// Decodes the v2 metadata region into the dictionary and the segment
/// directory, ticking `budget` per entry. Returns the dictionary, the
/// directory (classes first, then properties, in file order) and the
/// dictionary's byte length.
fn decode_meta(
    meta: &[u8],
    flags: u32,
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
            let distinct = if flags & FLAG_STATS != 0 {
                let mut d = Vec::with_capacity(arity);
                for _ in 0..arity {
                    d.push(r.get_u64()?);
                }
                Some(d)
            } else {
                None
            };
            let indexes = if flags & FLAG_INDEXES != 0 {
                let mut v = Vec::with_capacity(arity);
                for _ in 0..arity {
                    v.push((r.get_u64()?, r.get_u64()?, r.get_u64()?));
                }
                Some(v)
            } else {
                None
            };
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
        if let Some(indexes) = &s.indexes {
            for (c, &(off, len, _)) in indexes.iter().enumerate() {
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
    }
    Ok(())
}

/// Parses the structural metadata of snapshot `bytes` without resolving
/// any predicate against a vocabulary (and without building relations).
fn info_from_bytes(bytes: &[u8]) -> Result<SnapshotInfo, StoreError> {
    let parsed = parse_file(bytes)?;
    let header = parsed.header;
    let (num_consts, dict_bytes, num_atoms, relations) = if header.version == FORMAT_VERSION {
        let mut r = Reader::new(parsed.payload);
        let num_consts = r.get_u32()? as usize;
        for _ in 0..num_consts {
            r.get_str()?;
        }
        let dict_bytes = r.position();
        let mut relations = Vec::new();
        let mut num_atoms = 0u64;
        for arity in [1usize, 2] {
            let count = r.get_u32()?;
            for _ in 0..count {
                let name = r.get_str()?.to_owned();
                let rows = r.get_u64()?;
                for _ in 0..arity {
                    r.get_u64()?; // column offsets; verified by the open path
                }
                let bytes_to_skip = rows.checked_mul(4 * arity as u64).ok_or_else(|| {
                    StoreError::Malformed(format!("segment '{name}' row overflow"))
                })?;
                r.take(usize::try_from(bytes_to_skip).map_err(|_| StoreError::Truncated {
                    needed: r.position() + bytes_to_skip,
                    available: parsed.payload.len() as u64,
                })?)?;
                num_atoms += rows;
                relations.push(RelationInfo { name, arity, rows });
            }
        }
        if header.flags & FLAG_STATS != 0 {
            // One u64 distinct count per column of every segment.
            let words: u64 = relations.iter().map(|ri| ri.arity as u64).sum();
            r.take((words * 8) as usize)?;
        }
        (num_consts, dict_bytes, num_atoms, relations)
    } else {
        let (dict, segs, dict_bytes) =
            decode_meta(parsed.meta, header.flags, &mut Budget::unlimited())?;
        let num_atoms = segs.iter().map(|s| s.rows).sum();
        let relations = segs
            .iter()
            .map(|s| RelationInfo { name: s.name.clone(), arity: s.arity, rows: s.rows })
            .collect();
        (dict.len(), dict_bytes, num_atoms, relations)
    };
    Ok(SnapshotInfo {
        version: header.version,
        flags: header.flags,
        file_bytes: bytes.len() as u64,
        payload_bytes: header.payload_len,
        checksum: header.checksum,
        num_consts,
        dict_bytes,
        num_atoms,
        has_stats: header.flags & FLAG_STATS != 0,
        has_indexes: header.flags & FLAG_INDEXES != 0,
        footer: header.flags & FLAG_FOOTER != 0,
        appended: header.flags & FLAG_APPENDED != 0,
        mmapped: false,
        relations,
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
    fn words(&self) -> &[u32] {
        match self.mapping.u32_view(self.byte_off, self.words) {
            Some(w) => w,
            // Unreachable: the view succeeded at hydration and the
            // mapping is immutable — but never silently fabricate data.
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

/// Decodes one v2 segment from the mapping: verifies the block
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
    if let Some(d) = &seg.distinct {
        rel.preset_stats(d.clone(), true);
    }
    if let Some(indexes) = &seg.indexes {
        for (col, &(ioff, ilen, icheck)) in indexes.iter().enumerate() {
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
    }
    counters.columns.fetch_add(seg.arity as u64, Ordering::Relaxed);
    counters.bytes.fetch_add(touched, Ordering::Relaxed);
    Ok(rel)
}

/// A loaded snapshot: the constant dictionary plus the [`Database`],
/// sharing the evaluators' hot path with the in-memory backend. With
/// [`Hydration::Lazy`] (the default) relations hydrate from the mapped
/// file on first touch; the [`DataInstance`] view (needed only by the
/// chase oracle) is materialised lazily on first use either way.
pub struct Snapshot {
    dict: Vec<String>,
    database: Database,
    info: SnapshotInfo,
    counters: Arc<HydrationCounters>,
    instance: OnceLock<DataInstance>,
}

impl Snapshot {
    /// Opens the snapshot at `path` against `vocab` (untraced, unlimited
    /// budget, lazy hydration).
    pub fn open(path: &Path, vocab: &Vocab) -> Result<Self, StoreError> {
        Self::open_budgeted(path, vocab, &mut Budget::unlimited(), Telemetry::disabled())
    }

    /// [`Snapshot::open`] with every segment hydrated — and verified —
    /// at open time (the `--eager` A/B path; also how corruption in any
    /// data block is surfaced as a typed error instead of a hydration
    /// panic later).
    pub fn open_eager(path: &Path, vocab: &Vocab) -> Result<Self, StoreError> {
        Self::open_with(
            path,
            vocab,
            &mut Budget::unlimited(),
            Telemetry::disabled(),
            Hydration::Eager,
        )
    }

    /// [`Snapshot::open`] recording `load_data` → `open`/`dict`/`segments`
    /// spans and the `store_open_seconds`/`store_bytes` metrics.
    pub fn open_traced(
        path: &Path,
        vocab: &Vocab,
        telem: Telemetry<'_>,
    ) -> Result<Self, StoreError> {
        Self::open_budgeted(path, vocab, &mut Budget::unlimited(), telem)
    }

    /// The budgeted lazy open (see [`Snapshot::open_with`]).
    pub fn open_budgeted(
        path: &Path,
        vocab: &Vocab,
        budget: &mut Budget,
        telem: Telemetry<'_>,
    ) -> Result<Self, StoreError> {
        Self::open_with(path, vocab, budget, telem, Hydration::default())
    }

    /// The full open path: maps the file, verifies the header and
    /// metadata checksum, decodes the dictionary and segment directory,
    /// pre-validates every declared byte range against the mapped
    /// length, and hands every relation to the [`Database`] — hydrated
    /// on first touch ([`Hydration::Lazy`]) or right here
    /// ([`Hydration::Eager`]). Ticks `budget` while decoding so a
    /// pipeline deadline interrupts the open with a typed error.
    pub fn open_with(
        path: &Path,
        vocab: &Vocab,
        budget: &mut Budget,
        telem: Telemetry<'_>,
        hydration: Hydration,
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

        let counters = Arc::new(HydrationCounters::default());
        let (dict, database, relations, dict_bytes) = if header.version == FORMAT_VERSION {
            Self::open_v1(&t, &parsed, vocab, budget, &counters)?
        } else {
            Self::open_v2(&t, &mapping, &parsed, vocab, budget, hydration, &counters)?
        };
        load.end();

        if let Some(metrics) = telem.metrics {
            metrics.histogram("store_open_seconds").observe(start.elapsed());
            metrics.gauge("store_bytes").set(mapping.len() as i64);
        }

        let num_atoms = relations.iter().map(|r| r.rows).sum();
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
                has_stats: header.flags & FLAG_STATS != 0,
                has_indexes: header.flags & FLAG_INDEXES != 0,
                footer: header.flags & FLAG_FOOTER != 0,
                appended: header.flags & FLAG_APPENDED != 0,
                mmapped: mapping.is_mmapped(),
                relations,
            },
            dict,
            database,
            counters,
            instance: OnceLock::new(),
        })
    }

    /// The version-1 open: one eager front-to-back decode, exactly the
    /// original path, so pre-v2 files keep opening with identical
    /// answers. Counters report the whole data section as touched.
    fn open_v1(
        t: &Telemetry<'_>,
        parsed: &Parsed<'_>,
        vocab: &Vocab,
        budget: &mut Budget,
        counters: &HydrationCounters,
    ) -> Result<(Vec<String>, Database, Vec<RelationInfo>, u64), StoreError> {
        let payload = parsed.payload;
        let has_stats = parsed.header.flags & FLAG_STATS != 0;

        // dict: the constant dictionary, ids preserved verbatim.
        let dict_span = t.span("dict");
        let mut r = Reader::new(payload);
        let dict = match Self::load_dict(&mut r, budget) {
            Ok(d) => d,
            Err(e) => return fail_span(dict_span, e),
        };
        dict_span.attr("consts", dict.len() as u64);
        dict_span.end();

        // segments: one bulk column load per relation.
        let seg_span = t.span("segments");
        let (database, relations) =
            match Self::load_segments(&mut r, vocab, dict.len() as u32, has_stats, budget) {
                Ok(out) => out,
                Err(e) => return fail_span(seg_span, e),
            };
        if r.position() != payload.len() as u64 {
            let e = StoreError::Malformed(format!(
                "{} trailing bytes after the last segment",
                payload.len() as u64 - r.position()
            ));
            return fail_span(seg_span, e);
        }
        seg_span.attr("relations", relations.len() as u64);
        seg_span.attr("atoms", database.num_atoms() as u64);
        seg_span.attr_str("hydration", "eager");
        seg_span.end();

        counters.columns.store(relations.iter().map(|ri| ri.arity as u64).sum(), Ordering::Relaxed);
        counters.bytes.store(
            relations.iter().map(|ri| ri.rows * ri.arity as u64 * 4).sum(),
            Ordering::Relaxed,
        );

        let dict_bytes = {
            // Recompute the dictionary section length for the info block.
            let mut probe = Reader::new(payload);
            let n = probe.get_u32()? as usize;
            for _ in 0..n {
                probe.get_str()?;
            }
            probe.position()
        };
        Ok((dict, database, relations, dict_bytes))
    }

    /// The version-2 open: decode the metadata only, pre-validate every
    /// declared range, resolve predicates eagerly, and wire each
    /// segment's hydrator to the shared mapping.
    fn open_v2(
        t: &Telemetry<'_>,
        mapping: &Arc<Mapping>,
        parsed: &Parsed<'_>,
        vocab: &Vocab,
        budget: &mut Budget,
        hydration: Hydration,
        counters: &Arc<HydrationCounters>,
    ) -> Result<(Vec<String>, Database, Vec<RelationInfo>, u64), StoreError> {
        let flags = parsed.header.flags;

        let dict_span = t.span("dict");
        let (dict, segs, dict_bytes) = match decode_meta(parsed.meta, flags, budget) {
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
                match vocab.get_class(&seg.name) {
                    Some(c) => Slot::C(c),
                    None => {
                        let e =
                            StoreError::UnknownPredicate { kind: "class", name: seg.name.clone() };
                        return fail_span(seg_span, e);
                    }
                }
            } else {
                match vocab.get_prop(&seg.name) {
                    Some(p) => Slot::P(p),
                    None => {
                        let e = StoreError::UnknownPredicate {
                            kind: "property",
                            name: seg.name.clone(),
                        };
                        return fail_span(seg_span, e);
                    }
                }
            };
            let lazy = match hydration {
                Hydration::Eager => {
                    let rows = usize::try_from(seg.rows).unwrap_or(usize::MAX);
                    if let Err(e) = budget.charge_steps_for_rows(rows) {
                        return fail_span(seg_span, e.into());
                    }
                    match hydrate_segment(mapping, &seg, num_consts, counters) {
                        Ok(rel) => LazyRelation::ready(rel),
                        Err(e) => return fail_span(seg_span, e),
                    }
                }
                Hydration::Lazy => {
                    let m = Arc::clone(mapping);
                    let c = Arc::clone(counters);
                    LazyRelation::lazy(move || match hydrate_segment(&m, &seg, num_consts, &c) {
                        Ok(rel) => rel,
                        // `&self` access paths cannot return an error;
                        // the typed message rides a panic payload the
                        // pipeline's isolation boundary maps back.
                        Err(e) => std::panic::panic_any(format!(
                            "snapshot segment '{}' failed to hydrate: {e}",
                            seg.name
                        )),
                    })
                }
            };
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
        let atoms = usize::try_from(num_atoms)
            .map_err(|_| StoreError::Malformed("atom count overflow".to_owned()))?;
        let database = Database::from_lazy_relations(classes, props, universe, atoms);
        seg_span.attr("relations", relations.len() as u64);
        seg_span.attr("atoms", num_atoms);
        seg_span.attr_str(
            "hydration",
            match hydration {
                Hydration::Lazy => "lazy",
                Hydration::Eager => "eager",
            },
        );
        seg_span.end();
        Ok((dict, database, relations, dict_bytes))
    }

    /// Decodes the dictionary as a plain id-ordered name table. The open
    /// path deliberately does *not* rebuild a name→id interner — rendering
    /// answers only ever goes id→name, and the lazy [`DataInstance`]
    /// materialisation re-interns for the one caller (the chase oracle)
    /// that needs the reverse direction. Duplicates are rejected with a
    /// borrow-only `FxHashSet` pass over the payload slices, so the whole
    /// load is one `String` allocation per constant.
    fn load_dict(r: &mut Reader<'_>, budget: &mut Budget) -> Result<Vec<String>, StoreError> {
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
        Ok(raw.into_iter().map(str::to_owned).collect())
    }

    fn load_segments(
        r: &mut Reader<'_>,
        vocab: &Vocab,
        num_consts: u32,
        has_stats: bool,
        budget: &mut Budget,
    ) -> Result<(Database, Vec<RelationInfo>), StoreError> {
        let mut relations = Vec::new();
        let mut num_atoms = 0usize;

        let mut class_rels: Vec<(ClassId, Relation)> = Vec::new();
        let num_classes = r.get_u32()?;
        for _ in 0..num_classes {
            budget.tick()?;
            let (name, cols) = Self::load_segment(r, 1, num_consts, budget)?;
            let class = vocab.get_class(&name).ok_or_else(|| StoreError::UnknownPredicate {
                kind: "class",
                name: name.clone(),
            })?;
            num_atoms += cols[0].len();
            relations.push(RelationInfo { name, arity: 1, rows: cols[0].len() as u64 });
            class_rels.push((class, Relation::from_sorted_columns(1, &cols)));
        }

        let mut prop_rels: Vec<(PropId, Relation)> = Vec::new();
        let num_props = r.get_u32()?;
        for _ in 0..num_props {
            budget.tick()?;
            let (name, cols) = Self::load_segment(r, 2, num_consts, budget)?;
            let prop = vocab.get_prop(&name).ok_or_else(|| StoreError::UnknownPredicate {
                kind: "property",
                name: name.clone(),
            })?;
            num_atoms += cols[0].len();
            relations.push(RelationInfo { name, arity: 2, rows: cols[0].len() as u64 });
            prop_rels.push((prop, Relation::from_sorted_columns(2, &cols)));
        }

        // Persisted planner statistics: preset into every relation so
        // reopening a snapshot never re-scans the columns. Segment rows
        // are sorted by construction, so column 0 always is.
        if has_stats {
            for (_, rel) in &class_rels {
                let d0 = r.get_u64()?;
                rel.preset_stats(vec![d0], true);
            }
            for (_, rel) in &prop_rels {
                let d0 = r.get_u64()?;
                let d1 = r.get_u64()?;
                rel.preset_stats(vec![d0, d1], true);
            }
        }

        // The universe (⊤) is the whole dictionary: ConstId(0)..ConstId(n),
        // trivially all-distinct and sorted.
        let universe = Relation::from_sorted_columns(1, &[(0..num_consts).collect()]);
        universe.preset_stats(vec![num_consts as u64], true);
        let classes: FxHashMap<ClassId, Relation> = class_rels.into_iter().collect();
        let props: FxHashMap<PropId, Relation> = prop_rels.into_iter().collect();
        Ok((Database::from_relations(classes, props, universe, num_atoms), relations))
    }

    /// Decodes one v1 segment: name, row count, per-column offsets
    /// (verified against the actual positions), then one bulk load per
    /// column. Validates that every value is a dictionary id and that
    /// rows are strictly ascending — which proves them distinct, the
    /// precondition of the no-dedup bulk load.
    fn load_segment(
        r: &mut Reader<'_>,
        arity: usize,
        num_consts: u32,
        budget: &mut Budget,
    ) -> Result<(String, Vec<Vec<u32>>), StoreError> {
        let name = r.get_str()?.to_owned();
        let rows_u64 = r.get_u64()?;
        let rows = usize::try_from(rows_u64)
            .map_err(|_| StoreError::Malformed(format!("segment '{name}' row overflow")))?;
        let mut offsets = Vec::with_capacity(arity);
        for _ in 0..arity {
            offsets.push(r.get_u64()?);
        }
        let mut cols = Vec::with_capacity(arity);
        for (c, &offset) in offsets.iter().enumerate() {
            if offset != r.position() {
                return Err(StoreError::Malformed(format!(
                    "segment '{name}' column {c} offset {offset} != position {}",
                    r.position()
                )));
            }
            budget.charge_steps_for_rows(rows)?;
            let col = r.get_u32_column(rows)?;
            // One vectorisable max pass; only a corrupt column pays a
            // second scan to name the offending value.
            if col.iter().copied().max().is_some_and(|max| max >= num_consts) {
                let bad = col.iter().copied().find(|&v| v >= num_consts).unwrap_or(u32::MAX);
                return Err(StoreError::Malformed(format!(
                    "segment '{name}' references constant {bad} outside the dictionary of {num_consts}"
                )));
            }
            cols.push(col);
        }
        // Strictly-ascending rows prove distinctness (the precondition of
        // the no-dedup bulk load). Specialised per arity so the hot loop
        // compares `u32`s in place — no per-row allocation.
        let sorted = match cols.as_slice() {
            [] => true,
            [col] => col.windows(2).all(|w| w[0] < w[1]),
            [a, b] => (1..rows).all(|i| (a[i - 1], b[i - 1]) < (a[i], b[i])),
            _ => (1..rows).all(|i| {
                cols.iter().map(|c| c[i - 1]).cmp(cols.iter().map(|c| c[i]))
                    == std::cmp::Ordering::Less
            }),
        };
        if !sorted {
            let row = (1..rows)
                .find(|&i| {
                    cols.iter().map(|c| c[i - 1]).cmp(cols.iter().map(|c| c[i]))
                        != std::cmp::Ordering::Less
                })
                .unwrap_or(0);
            return Err(StoreError::Malformed(format!(
                "segment '{name}' rows not strictly sorted at row {row}"
            )));
        }
        Ok((name, cols))
    }

    /// The database, sharing the in-memory backend's eval hot path.
    /// Relations of a lazily opened v2 snapshot hydrate on first touch.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Structural metadata of the opened snapshot.
    pub fn info(&self) -> &SnapshotInfo {
        &self.info
    }

    /// Columns hydrated so far (for a v1 or eager open: all of them).
    pub fn columns_touched(&self) -> u64 {
        self.counters.columns.load(Ordering::Relaxed)
    }

    /// Data + index bytes hydrated so far — the store's contribution to
    /// the resident set (for a v1 or eager open: the whole data
    /// section).
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
    /// Hydrates every segment of a lazily opened snapshot.
    pub fn data_instance(&self) -> &DataInstance {
        self.instance.get_or_init(|| {
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
        })
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

    fn data_instance(&self) -> &DataInstance {
        Snapshot::data_instance(self)
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

/// Bulk-decode budget accounting: one [`Budget::tick`] per 1024 rows so
/// decoding a large column stays interruptible without per-value cost.
trait ColumnBudget {
    fn charge_steps_for_rows(&mut self, rows: usize) -> Result<(), obda_budget::BudgetExceeded>;
}

impl ColumnBudget for Budget {
    fn charge_steps_for_rows(&mut self, rows: usize) -> Result<(), obda_budget::BudgetExceeded> {
        for _ in 0..(rows / 1024 + 1) {
            self.tick()?;
        }
        Ok(())
    }
}

/// Sanity constant re-exported for tests: header length in bytes.
pub const SNAPSHOT_HEADER_LEN: usize = HEADER_LEN;

/// Current snapshot format version (see
/// [`crate::format::FORMAT_VERSION_V2`]).
pub const SNAPSHOT_FORMAT_VERSION: u32 = FORMAT_VERSION_V2;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
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
        assert_eq!(info.version, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(info.num_consts, 3);
        assert_eq!(info.num_atoms, 6);
        assert!(info.has_indexes && !info.footer && !info.appended);
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&d)));
        // Dictionary ids preserved verbatim.
        for c in d.individuals() {
            assert_eq!(snap.constant_name(c), d.constant_name(c));
        }
        // The lazy instance view is atom-for-atom the original.
        assert_eq!(snap.data_instance().to_text(&o), d.to_text(&o));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoding_is_deterministic() {
        let (o, d) = example();
        assert_eq!(snapshot_bytes(o.vocab(), &d), snapshot_bytes(o.vocab(), &d));
        assert_eq!(snapshot_bytes_footer(o.vocab(), &d), snapshot_bytes_footer(o.vocab(), &d));
        assert_eq!(snapshot_bytes_v1(o.vocab(), &d), snapshot_bytes_v1(o.vocab(), &d));
        assert_eq!(snapshot_bytes_legacy(o.vocab(), &d), snapshot_bytes_legacy(o.vocab(), &d));
    }

    #[test]
    fn stats_section_roundtrips_into_relation_stats() {
        let (o, d) = example();
        let path = temp_path("stats");
        let info = write_snapshot(&path, o.vocab(), &d).unwrap();
        assert!(info.has_stats);
        assert_eq!(info.stats_source(), "embedded");
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert!(snap.info().has_stats);
        // P = {(x,y), (y,z)}: 2 distinct subjects, 2 distinct objects.
        let p = o.vocab().get_prop("P").unwrap();
        let rel = snap.database().prop_relations().find(|&(q, _)| q == p).unwrap().1;
        let s = rel.stats();
        assert_eq!(s.rows, 2);
        assert_eq!(s.distinct, vec![2, 2]);
        assert!(s.sorted_col0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_snapshot_without_stats_opens_and_derives() {
        let (o, d) = example();
        let legacy = snapshot_bytes_legacy(o.vocab(), &d);
        let current = snapshot_bytes(o.vocab(), &d);
        assert!(legacy.len() < current.len(), "page-aligned v2 adds bytes");
        let path = temp_path("legacy");
        std::fs::write(&path, &legacy).unwrap();
        let info = read_info(&path).unwrap();
        assert!(!info.has_stats && !info.has_indexes);
        assert_eq!(info.stats_source(), "derived");
        assert_eq!(info.index_source(), "derived");
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert!(!snap.info().has_stats);
        // Same database as the current encoding; stats derive lazily
        // from the columns and agree with the persisted ones.
        assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&d)));
        let p = o.vocab().get_prop("P").unwrap();
        let rel = snap.database().prop_relations().find(|&(q, _)| q == p).unwrap().1;
        assert_eq!(rel.stats().distinct, vec![2, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_snapshot_opens_through_the_eager_path() {
        let (o, d) = example();
        let path = temp_path("v1");
        std::fs::write(&path, snapshot_bytes_v1(o.vocab(), &d)).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(snap.info().version, 1);
        assert!(snap.info().has_stats && !snap.info().has_indexes);
        assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&d)));
        // v1 decodes everything at open: counters report the totals.
        assert_eq!(snap.columns_touched(), 6);
        assert_eq!(snap.bytes_touched(), (2 + 1) * 4 + (2 + 1) * 2 * 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_and_legacy_info_report_the_same_structure() {
        let (o, d) = example();
        let with = info_from_bytes(&snapshot_bytes(o.vocab(), &d)).unwrap();
        let without = info_from_bytes(&snapshot_bytes_legacy(o.vocab(), &d)).unwrap();
        assert_eq!(with.relations, without.relations);
        assert_eq!(with.num_atoms, without.num_atoms);
        assert_eq!(with.num_consts, without.num_consts);
        assert!(with.has_stats && !without.has_stats);
    }

    #[test]
    fn read_info_reports_relations_without_a_vocab() {
        let (o, d) = example();
        let path = temp_path("info");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let info = read_info(&path).unwrap();
        assert_eq!(info.file_bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(info.payload_bytes + SNAPSHOT_HEADER_LEN as u64, info.file_bytes);
        let names: Vec<(&str, usize, u64)> =
            info.relations.iter().map(|r| (r.name.as_str(), r.arity, r.rows)).collect();
        assert_eq!(names, vec![("A", 1, 2), ("B", 1, 1), ("P", 2, 2), ("Q", 2, 1)]);
        assert!(info.dict_bytes > 0);
        assert_eq!(info.index_source(), "embedded");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_predicate_is_a_typed_error() {
        let (o, d) = example();
        let path = temp_path("vocab");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let other = parse_ontology("Class A\nProperty P\n").unwrap(); // lacks B and Q
                                                                      // Name resolution is eager even under lazy hydration.
        let err = Snapshot::open(&path, other.vocab()).unwrap_err();
        assert!(matches!(err, StoreError::UnknownPredicate { kind: "class", .. }), "{err}");
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
        // Flip one data-region bit: the per-block checksum catches it on
        // hydration — the eager open reports it as a typed error.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        let err = Snapshot::open_eager(&path, o.vocab()).unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
        // Flip one metadata bit: caught at open even lazily.
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
    fn corrupt_segment_panics_on_lazy_hydration_with_a_typed_message() {
        let (o, d) = example();
        let mut bytes = snapshot_bytes_footer(o.vocab(), &d);
        // The first data block starts at file offset SEGMENT_ALIGN in
        // the footer form: flip a byte inside segment "A"'s column.
        bytes[SEGMENT_ALIGN as usize] ^= 0x01;
        let path = temp_path("lazycorrupt");
        std::fs::write(&path, &bytes).unwrap();
        // Lazy open succeeds — the data pages were never touched.
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        let a = o.vocab().get_class("A").unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            snap.database().relation(PredKind::EdbClass(a)).len()
        }));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("failed to hydrate"), "{msg}");
        // The untouched segments still hydrate fine.
        let p = o.vocab().get_prop("P").unwrap();
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
        let (o, d) = example();
        let path = temp_path("eager");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let lazy = Snapshot::open(&path, o.vocab()).unwrap();
        let eager = Snapshot::open_eager(&path, o.vocab()).unwrap();
        assert_eq!(eager.columns_touched(), 6);
        assert!(eager.bytes_touched() > 0);
        assert_eq!(fingerprint(lazy.database()), fingerprint(eager.database()));
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
    fn footer_form_roundtrips_and_matches_inline() {
        let (o, d) = example();
        let path = temp_path("footer");
        let info = write_snapshot_footer(&path, o.vocab(), &d).unwrap();
        assert!(info.footer && info.has_indexes && !info.appended);
        assert_eq!(info.num_atoms, 6);
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert!(snap.info().footer);
        assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&d)));
        // Structure agrees with the inline form.
        let inline = info_from_bytes(&snapshot_bytes(o.vocab(), &d)).unwrap();
        assert_eq!(info.relations, inline.relations);
        assert_eq!(info.num_consts, inline.num_consts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_grows_a_footer_snapshot_without_rewriting_blocks() {
        let o = parse_ontology("Class A\nClass B\nProperty P\nProperty Q\n").unwrap();
        let d1 = parse_data("A(x)\nP(x, y)\n", &o).unwrap();
        let path = temp_path("append");
        write_snapshot_footer(&path, o.vocab(), &d1).unwrap();
        let before = std::fs::read(&path).unwrap();
        // The delta reuses x and introduces z.
        let d2 = parse_data("B(z)\nQ(z, x)\n", &o).unwrap();
        let info = append_snapshot(&path, o.vocab(), &d2).unwrap();
        assert!(info.appended && info.footer);
        assert_eq!(info.num_consts, 3);
        assert_eq!(info.num_atoms, 4);
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() > before.len());
        // Every old data block byte is still at its old offset: the old
        // payload up to the old footer is preserved verbatim.
        let old_meta_start = {
            let p = parse_file(&before).unwrap();
            p.payload.len() - 8 - p.meta.len()
        };
        assert_eq!(
            &after[HEADER_LEN..HEADER_LEN + old_meta_start],
            &before[HEADER_LEN..HEADER_LEN + old_meta_start],
            "old data region must be byte-identical"
        );
        // The merged database equals building everything at once.
        let combined = parse_data("A(x)\nP(x, y)\nB(z)\nQ(z, x)\n", &o).unwrap();
        let snap = Snapshot::open(&path, o.vocab()).unwrap();
        assert_eq!(fingerprint(snap.database()), fingerprint(&Database::new(&combined)));
        let z = combined.get_constant("z").unwrap();
        assert_eq!(snap.constant_name(z), "z");
        // A delta touching an existing predicate is refused — merging is
        // the compactor's job.
        let d3 = parse_data("A(w)\n", &o).unwrap();
        let err = append_snapshot(&path, o.vocab(), &d3).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "A already has a segment: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_refuses_non_footer_files() {
        let (o, d) = example();
        let path = temp_path("appendinline");
        write_snapshot(&path, o.vocab(), &d).unwrap();
        let delta = DataInstance::new();
        let err = append_snapshot(&path, o.vocab(), &delta).unwrap_err();
        assert!(matches!(err, StoreError::Malformed(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("footer"), "{msg}");
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
        Snapshot::open_traced(&path, o.vocab(), telem).unwrap();
        let tree = tracer.snapshot();
        let load = &tree.roots[0];
        assert_eq!(load.name, "load_data");
        assert_eq!(load.attr_str("backend"), Some("snapshot"));
        let children: Vec<&str> = load.children.iter().map(|s| s.name).collect();
        assert_eq!(children, vec!["open", "dict", "segments"]);
        assert!(load.children[0].attr("file_bytes").unwrap() > 0);
        assert_eq!(load.children[1].attr("consts"), Some(3));
        assert_eq!(load.children[2].attr("atoms"), Some(6));
        assert_eq!(load.children[2].attr_str("hydration"), Some("lazy"));
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
            assert_eq!(b.data_instance().num_atoms(), 6);
        }
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
        type WriteFn = fn(&Path, &Vocab, &DataInstance) -> Result<SnapshotInfo, StoreError>;
        let writers: [(&str, WriteFn); 2] =
            [("empty", write_snapshot), ("emptyfooter", write_snapshot_footer)];
        for (tag, write) in writers {
            let path = temp_path(tag);
            let info = write(&path, o.vocab(), &d).unwrap();
            assert_eq!(info.num_atoms, 0);
            let snap = Snapshot::open(&path, o.vocab()).unwrap();
            assert_eq!(snap.database().num_individuals(), 0);
            assert_eq!(snap.database().num_atoms(), 0);
            std::fs::remove_file(&path).ok();
        }
    }
}
