//! The `.obdb` wire format: header layout, little-endian primitives, and
//! the FNV-1a checksum.
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "OBDB"
//!      4     4  format version  (u32 LE, 2)
//!      8     4  flags           (u32 LE; bits 0–15 required, 16–31 optional)
//!     12     8  payload length  (u64 LE)
//!     20     8  checksum        (u64 LE, word-folded FNV-1a 64)
//!     28     —  payload
//! ```
//!
//! Every integer in the file is little-endian. Strings are a `u32`
//! byte length followed by UTF-8 bytes. The checksum is FNV-1a 64
//! folded over little-endian `u64` *words* (tail zero-padded, seeded
//! with the byte length so padding cannot alias) — implemented in-tree,
//! deterministic across platforms, eight bytes per multiply, strong
//! enough to catch the truncation and bit-flip classes the chaos tests
//! exercise; it is *not* cryptographic and does not defend against a
//! deliberate forger.
//!
//! ## Layout
//!
//! There is one layout. The metadata (dictionary + segment directory)
//! and the page-aligned segment data blocks are separate regions, so a
//! reader decodes the directory without touching a single data page
//! (the lazy mmap open path). The payload starts with a `u64` metadata
//! length followed by the metadata; the data region follows, padded to
//! [`SEGMENT_ALIGN`]. The header checksum covers **only the length word
//! and the metadata**; every data block carries its own checksum in the
//! directory, verified when (and only when) the block hydrates.
//!
//! Version 1 (one flat payload) and the version-2 *footer* form (data
//! first, metadata last, located by a trailing offset — the appendable
//! form) are retired. No writer produces them, and a reader refuses
//! them at open: version 1 as [`StoreError::UnsupportedVersion`], the
//! footer bit (2) as an unknown required flag.
//!
//! ## Flags
//!
//! Bits 0–15 are *required*: a reader that does not understand one
//! cannot decode the payload and must refuse the file. Every file
//! carries exactly [`FLAG_STATS`] and [`FLAG_INDEXES`] among them.
//! Bits 16–31 are *optional* (informational): unknown ones are tolerated
//! and surfaced by `dbinfo`, so older builds keep reading files that
//! newer writers have annotated.

use crate::error::StoreError;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"OBDB";

/// The format version this build writes and reads (see the module
/// docs). A future bump means the layout changed incompatibly and old
/// files must be rebuilt with `obda build`; additive evolution uses
/// optional `flags` bits instead.
pub const FORMAT_VERSION: u32 = 2;

/// Flag bit (required): every directory entry carries its per-column
/// distinct counts, preset into the planner's statistics on hydration.
pub const FLAG_STATS: u32 = 1 << 0;

/// Flag bit (required): every directory entry locates per-column hash
/// index blocks (CSR-encoded), so warm starts skip the index builds.
pub const FLAG_INDEXES: u32 = 1 << 1;

/// The required half of the flag space: a file carrying a bit in this
/// mask that the reader does not know is refused as undecodable.
pub const REQUIRED_FLAGS_MASK: u32 = 0xFFFF;

/// The required flag bits: every file sets exactly these in the
/// required half.
pub const KNOWN_FLAGS: u32 = FLAG_STATS | FLAG_INDEXES;

/// Size of the fixed header preceding the payload.
pub const HEADER_LEN: usize = 28;

/// Alignment (in file bytes) of every v2 segment data block: one page,
/// so a memory-mapped column view starts page-aligned and hydrating a
/// segment touches exactly its own pages.
pub const SEGMENT_ALIGN: u64 = 4096;

/// The names of the known flag bits set in `flags`, for `dbinfo`.
pub fn flag_names(flags: u32) -> Vec<&'static str> {
    let mut names = Vec::new();
    if flags & FLAG_STATS != 0 {
        names.push("stats");
    }
    if flags & FLAG_INDEXES != 0 {
        names.push("indexes");
    }
    names
}

/// The flag bits set in `flags` that this reader does not understand.
/// After a successful [`parse_file`] only *optional* (bit 16–31) ones
/// can remain — required unknowns are refused at parse time.
pub fn unknown_flags(flags: u32) -> u32 {
    flags & !KNOWN_FLAGS
}

/// The snapshot checksum: FNV-1a 64 (offset basis
/// `0xcbf29ce484222325`, prime `0x100000001b3`) folded over the
/// little-endian `u64` words of `bytes`. The state is seeded with the
/// byte length and the tail word is zero-padded, so payloads that differ
/// only by trailing zero bytes still hash differently. One multiply per
/// eight bytes keeps the checksum a rounding error next to the column
/// decode it protects.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = (BASIS ^ bytes.len() as u64).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h ^ word).wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

/// An append-only little-endian payload writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far (the next write's offset).
    pub fn position(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a `u32` column contiguously (one `extend`, no per-value
    /// branching — the bulk of a snapshot's bytes go through here).
    pub fn put_u32_column(&mut self, col: &[u32]) {
        self.buf.reserve(col.len() * 4);
        for &v in col {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes verbatim (the laid-out data region).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Zero-pads until the *file* offset of the next write (header +
    /// payload position) is a multiple of `align`, returning that file
    /// offset. The v2 builder calls this before every segment data
    /// block with [`SEGMENT_ALIGN`].
    pub fn pad_to_file_alignment(&mut self, align: u64) -> u64 {
        let mut file_off = HEADER_LEN as u64 + self.position();
        let rem = file_off % align;
        if rem != 0 {
            let pad = (align - rem) as usize;
            self.buf.resize(self.buf.len() + pad, 0);
            file_off += pad as u64;
        }
        file_off
    }

    /// Finishes the payload: returns the full file image (header +
    /// payload) declaring `flags`, whose header checksum covers only
    /// `checked` (the length word and metadata; see the module docs). The
    /// declared payload length still covers the whole payload, so
    /// truncation anywhere in the data region is caught by the length
    /// check even though the data pages are never hashed on open.
    ///
    /// # Panics
    /// Panics if `checked` is out of the payload's bounds — a builder
    /// bug, not a file-corruption condition.
    pub fn into_file_bytes(self, flags: u32, checked: std::ops::Range<usize>) -> Vec<u8> {
        let checksum = checksum64(&self.buf[checked]);
        let mut out = file_header(FORMAT_VERSION, flags, self.buf.len() as u64, checksum).to_vec();
        out.reserve(self.buf.len());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Encodes the fixed 28-byte header.
pub fn file_header(version: u32, flags: u32, payload_len: u64, checksum: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&version.to_le_bytes());
    h[8..12].copy_from_slice(&flags.to_le_bytes());
    h[12..20].copy_from_slice(&payload_len.to_le_bytes());
    h[20..28].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// A bounds-checked little-endian payload reader. Every accessor returns
/// [`StoreError::Truncated`] instead of indexing past the end, so a
/// clipped file can never panic the decoder.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Current byte offset from the start of the payload.
    pub fn position(&self) -> u64 {
        self.pos as u64
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            StoreError::Malformed(format!("length overflow at offset {}", self.pos))
        })?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated {
                needed: end as u64,
                available: self.bytes.len() as u64,
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u32` little-endian.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` little-endian.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, StoreError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|e| StoreError::Malformed(format!("non-UTF-8 string: {e}")))
    }

    /// Reads a `u32` column of `rows` values into a fresh `Vec` (the bulk
    /// decode path of the open fast path: one bounds check, then a
    /// chunked conversion).
    pub fn get_u32_column(&mut self, rows: usize) -> Result<Vec<u32>, StoreError> {
        let n = rows.checked_mul(4).ok_or_else(|| {
            StoreError::Malformed(format!("column of {rows} rows overflows the address space"))
        })?;
        let raw = self.take(n)?;
        let mut col = Vec::with_capacity(rows);
        col.extend(raw.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])));
        Ok(col)
    }
}

/// The decoded fixed header of a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version.
    pub version: u32,
    /// Flag bits announcing payload sections and layout (see
    /// [`FLAG_STATS`] and friends); unknown *required* bits are refused
    /// at parse time, unknown optional bits are tolerated.
    pub flags: u32,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// FNV-1a 64 checksum of the metadata region (length word included).
    pub checksum: u64,
}

/// A parsed and checksum-verified snapshot file.
#[derive(Debug, Clone, Copy)]
pub struct Parsed<'a> {
    /// The decoded fixed header.
    pub header: Header,
    /// The whole payload (everything after the header).
    pub payload: &'a [u8],
    /// The checksum-verified metadata region: the dictionary and
    /// directory bytes (excluding the length word that framed them).
    pub meta: &'a [u8],
}

/// Parses and validates the header, returning the payload and the
/// verified metadata region. Verifies, in order: magic, version, flags
/// (unknown *required* bits refused, the known required pair demanded,
/// unknown optional bits tolerated), declared payload length against the
/// actual file size, and the checksum of the metadata region (each data
/// block carries its own checksum in the directory, verified at
/// hydration). Truncation anywhere in the file is ruled out before any
/// section is decoded, and open stays O(metadata).
pub fn parse_file(bytes: &[u8]) -> Result<Parsed<'_>, StoreError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        return Err(StoreError::Truncated {
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    if bytes[..4] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut r = Reader::new(&bytes[4..HEADER_LEN]);
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    let flags = r.get_u32()?;
    let unknown_required = flags & REQUIRED_FLAGS_MASK & !KNOWN_FLAGS;
    if unknown_required != 0 {
        return Err(StoreError::Malformed(format!(
            "unknown required flags set: {unknown_required:#x}"
        )));
    }
    if flags & KNOWN_FLAGS != KNOWN_FLAGS {
        return Err(StoreError::Malformed(format!(
            "required flags missing: {:#x}",
            KNOWN_FLAGS & !flags
        )));
    }
    let payload_len = r.get_u64()?;
    let checksum = r.get_u64()?;
    let available = (bytes.len() - HEADER_LEN) as u64;
    if payload_len != available {
        return Err(StoreError::Truncated {
            needed: HEADER_LEN as u64 + payload_len,
            available: bytes.len() as u64,
        });
    }
    let payload = &bytes[HEADER_LEN..];
    // A leading u64 metadata length; the checksum covers the length word
    // and the metadata, so a corrupted length cannot point the reader at
    // plausible garbage.
    let Some(len_word) = payload.first_chunk::<8>() else {
        return Err(StoreError::Truncated {
            needed: HEADER_LEN as u64 + 8,
            available: bytes.len() as u64,
        });
    };
    let meta_len = u64::from_le_bytes(*len_word);
    let meta_end = usize::try_from(meta_len)
        .ok()
        .and_then(|l| l.checked_add(8))
        .filter(|&e| e <= payload.len())
        .ok_or_else(|| {
            StoreError::Malformed(format!("metadata length {meta_len} out of payload"))
        })?;
    let actual = checksum64(&payload[..meta_end]);
    if actual != checksum {
        return Err(StoreError::ChecksumMismatch { expected: checksum, actual });
    }
    Ok(Parsed {
        header: Header { version, flags, payload_len, checksum },
        payload,
        meta: &payload[8..meta_end],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A file image whose payload is `meta` framed by its length word,
    /// followed by an aligned data block of `data`.
    fn file_with(flags: u32, meta: &[u8], data: &[u32]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(meta.len() as u64);
        w.put_bytes(meta);
        if !data.is_empty() {
            w.pad_to_file_alignment(SEGMENT_ALIGN);
            w.put_u32_column(data);
        }
        w.into_file_bytes(flags, 0..8 + meta.len())
    }

    #[test]
    fn checksum_is_deterministic_and_bit_sensitive() {
        let payload: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        let base = checksum64(&payload);
        assert_eq!(base, checksum64(&payload), "same bytes, same checksum");
        // Flipping any single bit anywhere in the payload changes the hash.
        for byte in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[byte] ^= 1 << (byte % 8);
            assert_ne!(base, checksum64(&flipped), "bit flip at byte {byte} undetected");
        }
        // Length is part of the state: zero-extended payloads differ even
        // though the tail word would be padded with the same zeros.
        let mut extended = payload.clone();
        extended.push(0);
        assert_ne!(base, checksum64(&extended));
        assert_ne!(checksum64(b""), checksum64(&[0]));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut meta = Writer::new();
        meta.put_u32(7);
        meta.put_str("hello");
        meta.put_u64(u64::MAX);
        meta.put_u32_column(&[1, 2, 3]);
        let meta = meta.buf;
        let file = file_with(KNOWN_FLAGS, &meta, &[]);
        let p = parse_file(&file).unwrap();
        assert_eq!(p.header.version, FORMAT_VERSION);
        assert_eq!(p.header.payload_len as usize, p.payload.len());
        assert_eq!(p.meta, meta.as_slice(), "the metadata excludes its length word");
        let mut r = Reader::new(p.meta);
        assert_eq!(r.get_u32().unwrap(), 7);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u32_column(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.position(), meta.len() as u64);
    }

    #[test]
    fn v2_inline_parse_verifies_only_the_metadata() {
        let meta = b"directory bytes";
        let mut file = file_with(KNOWN_FLAGS, meta, &[1, 2, 3, 4]);
        assert_eq!((file.len() - 16) as u64 % SEGMENT_ALIGN, 0, "the data block is aligned");
        let p = parse_file(&file).unwrap();
        assert_eq!(p.header.version, FORMAT_VERSION);
        assert_eq!(p.meta, meta);
        // Flipping a *data* bit goes unnoticed at parse time (hydration
        // verifies the per-block checksum instead)…
        let last = file.len() - 1;
        file[last] ^= 0x01;
        assert!(parse_file(&file).is_ok());
        // …while flipping a *metadata* bit fails the header checksum.
        file[last] ^= 0x01;
        file[HEADER_LEN + 9] ^= 0x01;
        assert!(matches!(parse_file(&file), Err(StoreError::ChecksumMismatch { .. })));
    }

    #[test]
    fn v2_rejects_out_of_range_locators() {
        // A metadata length claiming more than the payload holds.
        let mut w = Writer::new();
        w.put_u64(1_000_000);
        w.put_bytes(b"short");
        let file = w.into_file_bytes(KNOWN_FLAGS, 0..13);
        assert!(matches!(parse_file(&file), Err(StoreError::Malformed(_))));
        // A payload too short to hold the length word at all.
        let file = Writer::new().into_file_bytes(KNOWN_FLAGS, 0..0);
        assert!(matches!(parse_file(&file), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        assert!(matches!(parse_file(b"nope"), Err(StoreError::BadMagic)));
        assert!(matches!(parse_file(b"OBDB"), Err(StoreError::Truncated { .. })));
        let file = file_with(KNOWN_FLAGS, b"", &[]);
        assert!(parse_file(&file).is_ok());
        let file = file_with(KNOWN_FLAGS, b"", &[42]);
        assert!(matches!(parse_file(&file[..file.len() - 1]), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn bit_flip_fails_the_checksum() {
        let mut file = file_with(KNOWN_FLAGS, &[9, 9, 9], &[]);
        let last = file.len() - 1;
        file[last] ^= 0x40;
        assert!(matches!(parse_file(&file), Err(StoreError::ChecksumMismatch { .. })));
    }

    #[test]
    fn known_flags_accepted_unknown_required_refused() {
        let file = file_with(KNOWN_FLAGS, b"", &[]);
        assert_eq!(parse_file(&file).unwrap().header.flags, KNOWN_FLAGS);
        let file = file_with(KNOWN_FLAGS | 1 << 7, b"", &[]);
        assert!(matches!(parse_file(&file), Err(StoreError::Malformed(_))));
        // Each required bit is demanded: no writer omits one.
        for flags in [0, FLAG_STATS, FLAG_INDEXES] {
            let file = file_with(flags, b"", &[]);
            let err = parse_file(&file).unwrap_err();
            assert!(err.to_string().contains("required flags missing"), "{flags:#x}: {err}");
        }
    }

    #[test]
    fn footer_bit_is_refused_as_an_unknown_required_flag() {
        // Bit 2 marked the retired footer form (data first, metadata
        // last): a reader without that layout must refuse the file.
        let file = file_with(KNOWN_FLAGS | 1 << 2, b"", &[]);
        let err = parse_file(&file).unwrap_err();
        assert!(err.to_string().contains("unknown required flags set: 0x4"), "{err}");
    }

    #[test]
    fn unknown_optional_flags_are_tolerated() {
        let exotic = 1 << 31 | 1 << 16;
        let file = file_with(KNOWN_FLAGS | exotic, b"", &[]);
        let p = parse_file(&file).unwrap();
        assert_eq!(p.header.flags & exotic, exotic);
        assert_eq!(unknown_flags(p.header.flags), exotic);
        assert_eq!(flag_names(p.header.flags), vec!["stats", "indexes"]);
    }

    #[test]
    fn v1_files_cannot_declare_v2_layout_flags() {
        // Version 1 is retired: a v1 header is refused whatever it
        // declares, before any flag or payload is looked at.
        for flags in [0, FLAG_STATS, KNOWN_FLAGS, KNOWN_FLAGS | 1 << 2] {
            let mut file = file_with(flags, b"", &[]);
            file[4] = 1;
            assert!(matches!(
                parse_file(&file),
                Err(StoreError::UnsupportedVersion { found: 1, supported: FORMAT_VERSION })
            ));
        }
    }

    #[test]
    fn unknown_version_is_refused() {
        let mut file = file_with(KNOWN_FLAGS, b"", &[]);
        file[4] = 99;
        assert!(matches!(
            parse_file(&file),
            Err(StoreError::UnsupportedVersion { found: 99, supported: FORMAT_VERSION })
        ));
    }

    #[test]
    fn reader_never_reads_past_the_end() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.get_u32(), Err(StoreError::Truncated { .. })));
        let mut r = Reader::new(&[255, 255, 255, 255]);
        // Length prefix claims 4 GiB: typed truncation, no panic.
        assert!(matches!(r.get_str(), Err(StoreError::Truncated { .. })));
    }
}
