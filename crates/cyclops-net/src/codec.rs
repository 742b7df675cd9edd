//! Hand-written binary message codec.
//!
//! Hama pays heavily for Java object serialization and Hadoop RPC (§6.11);
//! our simulated cluster models serialization by round-tripping every
//! cross-machine message through this codec into real byte buffers. The
//! codec is little-endian, non-self-describing (both sides know the message
//! type), and deliberately minimal — exactly what a tuned graph engine would
//! put on the wire.
//!
//! # Framings
//!
//! A [`WireFormat`] frame is one batch. The legacy framing has no tag; every
//! other frame starts with one tag byte, and the tags are disjoint, so a frame
//! handed to the wrong decoder is rejected, never misread.
//!
//! | tag | frame | layout after the tag |
//! |---|---|---|
//! | (none) | legacy batch of any [`Codec`] message (BSP / GAS engines) | `u32` count · fixed-width messages |
//! | `0x02` | [`ReplicaUpdate`]s, sparse | varint count · per update, ascending id: varint id-delta · payload |
//! | `0x03` | [`ReplicaUpdate`]s, dense | varint count · varint base · varint span · presence bitmap ⌈span/8⌉ · payloads in ascending id order |
//! | `0x04` | one [`ReplicaUpdate`] | varint id (≥ 128) · payload |
//! | `0x80 \| id` | one [`ReplicaUpdate`], packed | payload (an id < 128 rides in the tag byte) |
//! | `0x05` | [`MigrationRecord`]s | varint count · records ([`encode_migration_batch`]) |
//!
//! `0x00` and `0x01` are retired: they framed replica syncs with a
//! ⌈count/8⌉-byte activation bitmap that was all ones by construction. A
//! frame-level decoder must consume its whole input: bytes left over are
//! corruption, not a second frame.

use bytes::{Buf, BufMut, BytesMut};

/// A type that can be written to and read back from a byte buffer.
///
/// `try_decode` must consume exactly the bytes `encode` produced
/// (`proptest` round-trip tests in each engine enforce this for its message
/// types).
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Reads one value from the front of `buf`, or `None` when `buf` ends
    /// mid-value or holds an invalid encoding. On `None` the buffer may be
    /// left partially consumed.
    fn try_decode(buf: &mut impl Buf) -> Option<Self>;
    /// Exact number of bytes `encode` appends. Used for pre-sizing buffers
    /// and for byte accounting.
    fn encoded_len(&self) -> usize;
}

impl Codec for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 4).then(|| buf.get_u32_le())
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 8).then(|| buf.get_u64_le())
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        (buf.remaining() >= 8).then(|| buf.get_f64_le())
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        buf.has_remaining().then(|| buf.get_u8() != 0)
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn try_decode(_buf: &mut impl Buf) -> Option<Self> {
        Some(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        let a = A::try_decode(buf)?;
        let b = B::try_decode(buf)?;
        Some((a, b))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        let a = A::try_decode(buf)?;
        let b = B::try_decode(buf)?;
        let c = C::try_decode(buf)?;
        Some((a, b, c))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        let len = u32::try_decode(buf)? as usize;
        let mut out = Vec::with_capacity(len.min(buf.remaining()));
        for _ in 0..len {
            out.push(T::try_decode(buf)?);
        }
        Some(out)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Codec::encoded_len).sum::<usize>()
    }
}

/// Encodes a batch of messages into a fresh buffer — the "bundle the
/// messages sent to the same worker in one package" path (§4.1).
pub fn encode_batch<M: Codec>(msgs: &[M]) -> BytesMut {
    let total: usize = 4 + msgs.iter().map(Codec::encoded_len).sum::<usize>();
    let mut buf = BytesMut::with_capacity(total);
    (msgs.len() as u32).encode(&mut buf);
    for m in msgs {
        m.encode(&mut buf);
    }
    debug_assert_eq!(buf.len(), total);
    buf
}

/// Encodes a batch into a reusable (pooled) buffer instead of a fresh
/// allocation. The buffer is cleared first; returns the number of bytes its
/// capacity had to *grow*, which is 0 once the pool is warm — that delta is
/// what the transport's allocation accounting charges, turning per-message
/// allocation into O(destinations) amortized.
pub fn encode_batch_into<M: Codec>(buf: &mut BytesMut, msgs: &[M]) -> usize {
    let total: usize = 4 + msgs.iter().map(Codec::encoded_len).sum::<usize>();
    buf.clear();
    let before = buf.capacity();
    buf.reserve(total);
    let grown = buf.capacity().saturating_sub(before);
    (msgs.len() as u32).encode(buf);
    for m in msgs {
        m.encode(buf);
    }
    debug_assert_eq!(buf.len(), total);
    grown
}

/// Decodes a batch produced by [`encode_batch`]: `None` when the buffer is
/// truncated mid-batch or an element's encoding is invalid.
pub fn try_decode_batch<M: Codec>(buf: &mut impl Buf) -> Option<Vec<M>> {
    let len = u32::try_decode(buf)? as usize;
    let mut out = Vec::with_capacity(len.min(buf.remaining()));
    for _ in 0..len {
        out.push(M::try_decode(buf)?);
    }
    Some(out)
}

// ---- Varint / delta layer. ----
//
// LEB128 base-128 varints, least-significant group first, continuation bit
// 0x80 — the standard protobuf wire integer. View-update batches use them
// for counts, base ids, and delta-encoded slot ids, where typical values fit
// in 1–2 bytes instead of a fixed 4.

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn encode_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// Number of bytes [`encode_varint`] appends for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    ((64 - (v | 1).leading_zeros()) as usize).div_ceil(7)
}

/// Reads one LEB128 varint; `None` on truncation and on every encoding
/// [`encode_varint`] does not produce — a trailing all-zero group, or bits
/// past the 64th — so a value has exactly one byte string that decodes to it.
pub fn try_decode_varint(buf: &mut impl Buf) -> Option<u64> {
    if !buf.has_remaining() {
        return None;
    }
    // Ids and counts are mostly one byte: keep that path short.
    let first = buf.get_u8();
    if first < 0x80 {
        return Some(first as u64);
    }
    let mut out = (first & 0x7f) as u64;
    let mut shift = 7u32;
    loop {
        if !buf.has_remaining() {
            return None;
        }
        let b = buf.get_u8();
        // The tenth byte has room for bit 63 alone, and ends the varint.
        if shift == 63 && b > 1 {
            return None;
        }
        out |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return (b != 0).then_some(out);
        }
        shift += 7;
    }
}

/// Reads `bits.div_ceil(8)` bitmap bytes; `None` on truncation.
fn try_read_bitmap(buf: &mut impl Buf, bits: usize) -> Option<Vec<u8>> {
    let bytes = bits.div_ceil(8);
    if buf.remaining() < bytes {
        return None;
    }
    let mut out = vec![0u8; bytes];
    buf.copy_to_slice(&mut out);
    Some(out)
}

// ---- Wire framings (tag table in the module docs). ----

/// Which encoding a wire batch chose. `Legacy` is the fixed-width
/// count-prefixed framing every [`Codec`] message type gets by default;
/// `Sparse`/`Dense` are the two self-selecting [`ReplicaUpdate`] modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    /// Fixed-width `u32` count prefix + fixed-width messages.
    Legacy,
    /// Delta-varint slot ids + packed values (small frontiers), and the
    /// one-update frames.
    Sparse,
    /// Base id + presence bitmap + packed values (a dense slice of a
    /// contiguous slot range).
    Dense,
}

impl WireMode {
    /// Stable lowercase label, used by metrics and traces.
    pub fn label(&self) -> &'static str {
        match self {
            WireMode::Legacy => "legacy",
            WireMode::Sparse => "sparse",
            WireMode::Dense => "dense",
        }
    }
}

/// What one wire-batch encode did, for allocation and bytes accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireStats {
    /// Bytes the pooled buffer's capacity had to grow (0 once warm — the
    /// zero-allocation send-path contract).
    pub grown: usize,
    /// The encoding the batch selected.
    pub mode: WireMode,
    /// What the legacy fixed-width framing would have used for the same
    /// batch, for bytes-saved accounting.
    pub legacy_len: usize,
}

/// A batch-level wire encoding. The transport serializes cross-machine
/// sends through this trait; every [`Codec`] message type gets the legacy
/// fixed-width framing via a blanket impl, while [`ReplicaUpdate`] plugs in
/// the adaptive dense/sparse view-update framing.
///
/// `wire_encode_batch_into` may reorder `msgs` (canonicalization): callers
/// must not depend on batch order across the wire beyond set equality.
pub trait WireFormat: Sized {
    /// Encodes `msgs` as one batch into a pooled buffer (cleared first),
    /// reserving exactly the encoded size so a warm buffer never grows.
    fn wire_encode_batch_into(buf: &mut BytesMut, msgs: &mut [Self]) -> WireStats;
    /// Decodes one frame produced by [`Self::wire_encode_batch_into`], which
    /// must be all of `buf`: `None` on truncation, corruption or bytes left
    /// over after the frame, never a panic.
    fn wire_try_decode_batch(buf: &mut impl Buf) -> Option<Vec<Self>>;
}

impl<M: Codec> WireFormat for M {
    fn wire_encode_batch_into(buf: &mut BytesMut, msgs: &mut [Self]) -> WireStats {
        let grown = encode_batch_into(buf, msgs);
        WireStats {
            grown,
            mode: WireMode::Legacy,
            legacy_len: buf.len(),
        }
    }
    fn wire_try_decode_batch(buf: &mut impl Buf) -> Option<Vec<Self>> {
        try_decode_batch(buf).filter(|_| !buf.has_remaining())
    }
}

/// One view update: a master's new publication for one remote copy of it —
/// the paper's single sync-message-per-copy-per-superstep (§3.4), with the
/// activation piggybacked. A named struct so it can carry the adaptive
/// [`WireFormat`] (deliberately *not* a [`Codec`] impl: the blanket legacy
/// path must not apply to it).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplicaUpdate<M> {
    /// Remote slot on the destination worker: its view slot minus its master
    /// count, i.e. an index into `[replicas | direct slots]`.
    pub replica: u32,
    /// The master's published value.
    pub payload: M,
    /// Whether the slot's readers activate next superstep. **Wire contract:
    /// always `true`.** An update only exists because a master published,
    /// and a publication activates its readers, so the bit is not carried:
    /// the encoder debug-asserts it and the decoder reconstructs `true`.
    pub activate: bool,
}

impl<M> ReplicaUpdate<M> {
    /// Builds an update.
    pub fn new(replica: u32, payload: M, activate: bool) -> Self {
        ReplicaUpdate {
            replica,
            payload,
            activate,
        }
    }
}

/// Tag bytes of the view-update framing (table above).
const BATCH_SPARSE: u8 = 2;
const BATCH_DENSE: u8 = 3;
/// One-update frame: boundary traffic under hybrid replication is dominated
/// by single-slot sends (a publish-once leaf reaching one remote reader),
/// where the sparse frame's count byte is pure overhead.
const BATCH_SINGLE: u8 = 4;
/// Packed one-update frame: an id below 128 shares the tag byte. The high
/// bit keeps it disjoint from every other tag (all < 0x80).
const PACKED_SINGLE_BIT: u8 = 0x80;

/// Tag byte of the migration framing: one frame per migration epoch
/// carrying the moved masters' pending state across the wire.
const MIGRATION_BATCH: u8 = 5;

/// One migrated master on the wire: the vertex, the ownership transfer,
/// and the state the destination worker resumes the epoch from — value,
/// activation bit and latest publication, as the epoch checkpoint holds
/// them. Every field is encoded as itself, so a frame decodes one way.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationRecord<V, M> {
    /// The migrated vertex (global id).
    pub vertex: u32,
    /// Worker losing the master.
    pub from: u32,
    /// Worker gaining the master.
    pub to: u32,
    /// Whether the vertex is activated for the resumed superstep.
    pub active: bool,
    /// The master's latest publication, if it has published.
    pub publication: Option<M>,
    /// The master's value.
    pub value: V,
}

/// Encodes a migration batch: tag · varint count · per record
/// (varint vertex · varint from · varint to · flags byte · [publication]
/// · value). Flag bit 0 is `active`, bit 1 is publication presence.
pub fn encode_migration_batch<V: Codec, M: Codec>(
    buf: &mut BytesMut,
    records: &[MigrationRecord<V, M>],
) {
    buf.put_u8(MIGRATION_BATCH);
    encode_varint(buf, records.len() as u64);
    for r in records {
        encode_varint(buf, r.vertex as u64);
        encode_varint(buf, r.from as u64);
        encode_varint(buf, r.to as u64);
        let mut flags = 0u8;
        if r.active {
            flags |= 1;
        }
        if r.publication.is_some() {
            flags |= 2;
        }
        buf.put_u8(flags);
        if let Some(p) = &r.publication {
            p.encode(buf);
        }
        r.value.encode(buf);
    }
}

/// Decodes a migration frame, which must be all of `buf`: rejects truncated
/// buffers, other tags, malformed records and bytes left over.
pub fn try_decode_migration_batch<V: Codec, M: Codec>(
    buf: &mut impl Buf,
) -> Option<Vec<MigrationRecord<V, M>>> {
    if buf.remaining() < 1 || buf.get_u8() != MIGRATION_BATCH {
        return None;
    }
    let count = try_decode_varint(buf)? as usize;
    let mut out = Vec::with_capacity(batch_reservation(count, buf.remaining()));
    for _ in 0..count {
        let vertex = u32::try_from(try_decode_varint(buf)?).ok()?;
        let from = u32::try_from(try_decode_varint(buf)?).ok()?;
        let to = u32::try_from(try_decode_varint(buf)?).ok()?;
        if buf.remaining() < 1 {
            return None;
        }
        let flags = buf.get_u8();
        if flags & !3 != 0 {
            return None;
        }
        let publication = if flags & 2 != 0 {
            Some(M::try_decode(buf)?)
        } else {
            None
        };
        out.push(MigrationRecord {
            vertex,
            from,
            to,
            active: flags & 1 != 0,
            publication,
            value: V::try_decode(buf)?,
        });
    }
    (!buf.has_remaining()).then_some(out)
}

/// Bytes a dense frame spends naming its ids: base, span and the presence
/// bitmap — what the sparse frame's id-delta varints are priced against.
#[inline]
fn dense_ids_len(base: u64, span: u64) -> usize {
    varint_len(base) + varint_len(span) + (span as usize).div_ceil(8)
}

/// How many elements a batch decoder reserves room for when the header
/// announces `count` and `remaining` bytes are left to read. `count` is a
/// hostile varint; every element still to come costs at least one byte, so
/// a well-formed frame's reservation is its `count` and a lying one's is
/// bounded by its own length.
#[inline]
pub fn batch_reservation(count: usize, remaining: usize) -> usize {
    count.min(remaining)
}

/// The view-update framing (tags `0x02`–`0x04` and `0x80 | id` of the table
/// above).
///
/// The encoder first puts the batch in id order (a stable sort, skipped when
/// the batch already is), making the bytes — and therefore the mode choice
/// and every byte counter downstream — a pure function of the batch *set*,
/// independent of the outbox merge order a multi-threaded sender produced.
/// One update takes a one-update frame.
/// Otherwise both encoded sizes are computed exactly and the smaller wins
/// (ties favor sparse): dense once the updating fraction of the `[min, max]`
/// id range crosses the bitmap break-even density (~1 bit vs ~1–2 varint
/// bytes per id). Duplicate ids (which the engines never produce, but
/// arbitrary inputs may) force sparse: a presence bitmap cannot express
/// them.
///
/// The decoder accepts exactly the frames the encoder produces: a frame
/// that another tag or a shorter varint would have encoded is rejected like
/// a truncated one, so decoding then encoding returns the input bytes.
impl<M: Codec> WireFormat for ReplicaUpdate<M> {
    fn wire_encode_batch_into(buf: &mut BytesMut, msgs: &mut [Self]) -> WireStats {
        debug_assert!(
            msgs.iter().all(|m| m.activate),
            "the wire carries no activation bits: every update activates"
        );
        // A one-thread sender's outbox is already ascending, and the stable
        // sort allocates a scratch the size of the batch before it looks.
        if !msgs.is_sorted_by_key(|m| m.replica) {
            msgs.sort_by_key(|m| m.replica);
        }
        let count = msgs.len();
        let payload_len: usize = msgs.iter().map(|m| m.payload.encoded_len()).sum();
        // Legacy framing: u32 count + (u32 id + payload + bool) each.
        let legacy_len = 4 + payload_len + 5 * count;

        let mut ids_len = 0usize;
        let mut unique = true;
        let mut prev = 0u32;
        for (i, m) in msgs.iter().enumerate() {
            unique &= i == 0 || m.replica != prev;
            ids_len += varint_len((m.replica - prev) as u64);
            prev = m.replica;
        }
        let sparse_len = 1 + varint_len(count as u64) + ids_len + payload_len;
        let (base, span) = match (msgs.first(), msgs.last()) {
            (Some(first), Some(last)) => (first.replica, (last.replica - first.replica) as u64 + 1),
            _ => (0, 0),
        };
        let dense_len =
            1 + varint_len(count as u64) + dense_ids_len(base as u64, span) + payload_len;
        // Never longer than the sparse frame (which adds at least the count
        // byte), so one update always takes a one-update frame.
        let packed = count == 1 && base < PACKED_SINGLE_BIT as u32;
        let (mode, total) = if count == 1 {
            let id_len = if packed { 0 } else { varint_len(base as u64) };
            (WireMode::Sparse, 1 + id_len + payload_len)
        } else if unique && dense_len < sparse_len {
            (WireMode::Dense, dense_len)
        } else {
            (WireMode::Sparse, sparse_len)
        };

        buf.clear();
        let before = buf.capacity();
        buf.reserve(total);
        let grown = buf.capacity().saturating_sub(before);
        if count == 1 {
            if packed {
                buf.put_u8(PACKED_SINGLE_BIT | base as u8);
            } else {
                buf.put_u8(BATCH_SINGLE);
                encode_varint(buf, base as u64);
            }
            msgs[0].payload.encode(buf);
        } else if mode == WireMode::Sparse {
            buf.put_u8(BATCH_SPARSE);
            encode_varint(buf, count as u64);
            let mut prev = 0u32;
            for m in msgs.iter() {
                encode_varint(buf, (m.replica - prev) as u64);
                m.payload.encode(buf);
                prev = m.replica;
            }
        } else {
            buf.put_u8(BATCH_DENSE);
            encode_varint(buf, count as u64);
            encode_varint(buf, base as u64);
            encode_varint(buf, span);
            // Presence bitmap, streamed in ascending-offset order; the last
            // id's bit is in the last byte.
            let mut byte_idx = 0usize;
            let mut cur = 0u8;
            for m in msgs.iter() {
                let off = (m.replica - base) as usize;
                while byte_idx < off / 8 {
                    buf.put_u8(cur);
                    cur = 0;
                    byte_idx += 1;
                }
                cur |= 1 << (off % 8);
            }
            buf.put_u8(cur);
            for m in msgs.iter() {
                m.payload.encode(buf);
            }
        }
        debug_assert_eq!(buf.len(), total, "batch size arithmetic drifted");
        WireStats {
            grown,
            mode,
            legacy_len,
        }
    }

    fn wire_try_decode_batch(buf: &mut impl Buf) -> Option<Vec<Self>> {
        if !buf.has_remaining() {
            return None;
        }
        let update = |id: u64, payload| ReplicaUpdate::new(id as u32, payload, true);
        let tag = buf.get_u8();
        let out = if tag & PACKED_SINGLE_BIT != 0 {
            vec![update(
                (tag & !PACKED_SINGLE_BIT) as u64,
                M::try_decode(buf)?,
            )]
        } else if tag == BATCH_SINGLE {
            let id = try_decode_varint(buf)?;
            if id < PACKED_SINGLE_BIT as u64 || id > u32::MAX as u64 {
                return None; // the packed frame's id, or no id at all
            }
            vec![update(id, M::try_decode(buf)?)]
        } else if tag == BATCH_SPARSE {
            let count = try_decode_varint(buf)? as usize;
            if count == 1 {
                return None; // a one-update frame's batch
            }
            let mut out = Vec::with_capacity(batch_reservation(count, buf.remaining()));
            let (mut id, mut first) = (0u64, 0u64);
            let (mut ids_len, mut unique) = (0usize, true);
            for i in 0..count {
                // A varint decodes only from its one encoding, so what it
                // took from `buf` is its `varint_len`.
                let before = buf.remaining();
                let delta = try_decode_varint(buf)?;
                ids_len += before - buf.remaining();
                id = id.checked_add(delta).filter(|&id| id <= u32::MAX as u64)?;
                if i == 0 {
                    first = id;
                } else {
                    unique &= delta != 0;
                }
                out.push(update(id, M::try_decode(buf)?));
            }
            if count > 0 && unique && dense_ids_len(first, id - first + 1) < ids_len {
                return None; // the dense frame's batch
            }
            out
        } else if tag == BATCH_DENSE {
            let count = try_decode_varint(buf)? as usize;
            let base = try_decode_varint(buf)?;
            let span = try_decode_varint(buf)?;
            // `span >= count >= 2` once the first two checks pass, so
            // `span - 1` cannot underflow; the add is checked because `base`
            // is a hostile varint — the last id must still be a `u32`.
            if count < 2
                || span < count as u64
                || base
                    .checked_add(span - 1)
                    .is_none_or(|last| last > u32::MAX as u64)
                || span > buf.remaining() as u64 * 8
            {
                return None;
            }
            let presence = try_read_bitmap(buf, span as usize)?;
            // `span` is the exact id range — both end bits set, padding
            // clear — and `count` the exact population.
            let last = span as usize - 1;
            let present: u32 = presence.iter().map(|byte| byte.count_ones()).sum();
            if presence[0] & 1 == 0
                || presence[last / 8] >> (last % 8) != 1
                || present as usize != count
            {
                return None;
            }
            // Taken after the bitmap: the header check above lets `count` be
            // 8x the bytes that were left, bitmap included.
            let mut out = Vec::with_capacity(batch_reservation(count, buf.remaining()));
            let (mut ids_len, mut prev) = (0usize, 0u64);
            for (i, &byte) in presence.iter().enumerate() {
                let mut bits = byte;
                while bits != 0 {
                    let id = base + (i * 8) as u64 + bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    ids_len += varint_len(id - prev);
                    prev = id;
                    out.push(update(id, M::try_decode(buf)?));
                }
            }
            if dense_ids_len(base, span) >= ids_len {
                return None; // the sparse frame's batch
            }
            out
        } else {
            return None;
        };
        (!buf.has_remaining()).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<M: Codec + PartialEq + std::fmt::Debug>(v: M) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        assert_eq!(buf.len(), v.encoded_len());
        let mut read = buf.freeze();
        assert_eq!(M::try_decode(&mut read), Some(v));
        assert!(!read.has_remaining());
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(u64::MAX - 7);
        round_trip(std::f64::consts::PI);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn tuples_round_trip() {
        round_trip((7u32, 2.5f64));
        round_trip((1u32, 2u64, false));
    }

    #[test]
    fn vecs_round_trip() {
        round_trip(Vec::<f64>::new());
        round_trip(vec![1.0f64, -2.0, 3.5]);
        round_trip(vec![(1u32, 1.0f64), (2, 2.0)]);
    }

    #[test]
    fn batch_round_trip() {
        let msgs: Vec<(u32, f64)> = (0..100).map(|i| (i, i as f64 * 0.5)).collect();
        let buf = encode_batch(&msgs);
        let mut read = buf.freeze();
        let out: Option<Vec<(u32, f64)>> = try_decode_batch(&mut read);
        assert_eq!(out, Some(msgs));
        assert!(!read.has_remaining());
    }

    #[test]
    fn encode_batch_into_matches_fresh_and_stops_growing() {
        let msgs: Vec<(u32, f64)> = (0..100).map(|i| (i, i as f64 * 0.5)).collect();
        let fresh = encode_batch(&msgs);
        let mut pooled = BytesMut::new();
        let grown = encode_batch_into(&mut pooled, &msgs);
        assert!(grown > 0, "cold buffer must grow");
        assert_eq!(&pooled[..], &fresh[..], "pooled bytes identical to fresh");
        // A warm buffer re-encoding a batch no larger than before grows 0.
        for len in [100, 50, 100, 1] {
            let grown = encode_batch_into(&mut pooled, &msgs[..len]);
            assert_eq!(grown, 0, "warm re-encode of {len} msgs must not grow");
        }
        // Decoding from a slice cursor leaves the pooled buffer reusable.
        let out: Vec<(u32, f64)> = try_decode_batch(&mut &pooled[..]).unwrap();
        assert_eq!(out, msgs[..1].to_vec());
        assert!(!pooled.is_empty());
    }

    #[test]
    fn try_decode_rejects_truncation_at_every_offset() {
        let msgs: Vec<(u32, f64, bool)> = (0..5).map(|i| (i, i as f64, i % 2 == 0)).collect();
        let full = encode_batch(&msgs);
        for cut in 0..full.len() {
            let mut prefix = BytesMut::new();
            prefix.put_slice(&full[..cut]);
            let mut read = prefix.freeze();
            assert_eq!(
                try_decode_batch::<(u32, f64, bool)>(&mut read),
                None,
                "decode of a {cut}-byte prefix should fail"
            );
        }
        let out = try_decode_batch::<(u32, f64, bool)>(&mut full.freeze());
        assert_eq!(out, Some(msgs));
    }

    #[test]
    fn try_decode_handles_nested_vecs() {
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        assert_eq!(
            Vec::<Vec<u32>>::try_decode(&mut buf.freeze()),
            Some(v.clone())
        );
        // A corrupted (oversized) inner length prefix must fail cleanly.
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut bytes: Vec<u8> = buf.to_vec();
        bytes[4] = 0xFF; // inner vec claims 255+ elements
        let mut read = BytesMut::new();
        read.put_slice(&bytes);
        assert_eq!(Vec::<Vec<u32>>::try_decode(&mut read.freeze()), None);
    }

    #[test]
    fn nan_payload_survives() {
        let mut buf = BytesMut::new();
        f64::NAN.encode(&mut buf);
        let v = f64::try_decode(&mut buf.freeze());
        assert!(v.is_some_and(f64::is_nan));
    }

    // ---- Varint / wire-format tests. ----

    #[test]
    fn varints_round_trip_and_size_exactly() {
        for v in [
            0u64,
            1,
            0x7f,
            0x80,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            encode_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "varint_len({v})");
            assert_eq!(try_decode_varint(&mut buf.freeze()), Some(v));
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(u64::MAX), 10);
        // Truncated varint fails cleanly.
        let mut buf = BytesMut::new();
        encode_varint(&mut buf, u64::MAX);
        let mut cut = BytesMut::new();
        cut.put_slice(&buf[..5]);
        assert_eq!(try_decode_varint(&mut cut.freeze()), None);
        assert_eq!(try_decode_varint(&mut &[][..]), None);
    }

    fn updates(ids: &[u32]) -> Vec<ReplicaUpdate<f64>> {
        // Always-activate: the wire contract.
        ids.iter()
            .map(|&id| ReplicaUpdate::new(id, id as f64 * 0.5, true))
            .collect()
    }

    fn encoded(ids: &[u32]) -> (WireStats, BytesMut) {
        let mut buf = BytesMut::new();
        let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut updates(ids));
        (stats, buf)
    }

    fn decoded(bytes: &[u8]) -> Option<Vec<ReplicaUpdate<f64>>> {
        ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &bytes[..])
    }

    fn wire_round_trip(ids: &[u32]) -> (WireStats, Vec<ReplicaUpdate<f64>>) {
        let (stats, buf) = encoded(ids);
        assert_eq!(stats.legacy_len, 4 + 13 * ids.len());
        let out = decoded(&buf).expect("well-formed batch must decode");
        let mut sorted = updates(ids);
        sorted.sort_by_key(|m| m.replica);
        assert_eq!(out, sorted, "decode must return the sorted batch");
        assert!(
            out.iter().all(|m| m.activate),
            "decode must reconstruct activate = true"
        );
        (stats, out)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn replica_batch_bytes_are_the_parent_direct_framing() {
        // `DirectMessage::wire_encode_batch_into` at 21f0a30, payload
        // `id * 0.5`: the one framing is that framing, byte for byte.
        let dense: Vec<u32> = (100..116).collect();
        let dense_payloads: String = (100..116)
            .map(|id| hex(&(id as f64 * 0.5).to_le_bytes()))
            .collect();
        for (ids, mode, want) in [
            (&[7][..], WireMode::Sparse, "870000000000000c40".to_string()),
            (
                &[300],
                WireMode::Sparse,
                "04ac020000000000c06240".to_string(),
            ),
            (
                &[4_000_000_000, 3, 20_000, 10_000],
                WireMode::Sparse,
                "020403000000000000f83f8d4e000000000088b340904e000000000088c340\
                 e0b3abf30e0000000065cddd41"
                    .to_string(),
            ),
            (
                &dense,
                WireMode::Dense,
                format!("03106410ffff{dense_payloads}"),
            ),
        ] {
            let (stats, buf) = encoded(ids);
            assert_eq!(stats.mode, mode, "{ids:?}");
            assert_eq!(hex(&buf), want, "{ids:?}");
        }
        // The dense literal's payload run, spot-checked against the capture.
        assert!(dense_payloads.starts_with("00000000000049400000000000404940"));
        assert!(dense_payloads.ends_with("0000000000804c400000000000c04c40"));
    }

    #[test]
    fn replica_batch_picks_dense_for_contiguous_ranges() {
        let ids: Vec<u32> = (100..200).collect();
        let (stats, _) = wire_round_trip(&ids);
        assert_eq!(stats.mode, WireMode::Dense);
        // tag + count(1) + base(1) + span(1) + presence(13) + 800.
        let (_, buf) = encoded(&ids);
        assert_eq!(buf.len(), 1 + 1 + 1 + 1 + 13 + 800);
        // >= 25% under the 1304-byte legacy framing.
        assert!(buf.len() * 4 <= stats.legacy_len * 3);
    }

    #[test]
    fn replica_batch_picks_sparse_for_scattered_ids() {
        let ids: Vec<u32> = (0..20).map(|i| i * 10_000).collect();
        let (stats, _) = wire_round_trip(&ids);
        assert_eq!(stats.mode, WireMode::Sparse);
        let (stats, _) = wire_round_trip(&[4_000_000_000]);
        assert_eq!(stats.mode, WireMode::Sparse);
    }

    #[test]
    fn replica_batch_is_order_independent() {
        let mut shuffled: Vec<u32> = (0..50).map(|i| (i * 37) % 101).collect();
        let (sa, ba) = encoded(&shuffled);
        shuffled.reverse();
        let (sb, bb) = encoded(&shuffled);
        assert_eq!(&ba[..], &bb[..], "same set must encode identically");
        assert_eq!(sa.mode, sb.mode);
    }

    #[test]
    fn replica_batch_duplicates_force_sparse() {
        let (stats, buf) = encoded(&[5, 5, 6, 7, 8, 9, 10, 11]);
        let out = decoded(&buf).unwrap();
        assert_eq!(stats.mode, WireMode::Sparse);
        assert_eq!(out.len(), 8);
        assert_eq!(out[0].replica, 5);
        assert_eq!(out[1].replica, 5);
    }

    #[test]
    fn replica_batch_empty_and_single() {
        let (stats, out) = wire_round_trip(&[]);
        assert_eq!(stats.mode, WireMode::Sparse);
        assert!(out.is_empty());
        // One update: `0x80 | id` · payload when the id fits in 7 bits,
        // else `0x04` · varint id · payload.
        for (id, frame_len) in [
            (7u32, 1 + 8),
            (127, 1 + 8),
            (128, 1 + 2 + 8),
            (300, 1 + 2 + 8),
        ] {
            let (stats, out) = wire_round_trip(&[id]);
            assert_eq!(stats.mode, WireMode::Sparse);
            assert!(stats.legacy_len >= 17);
            assert_eq!(out[0].payload, id as f64 * 0.5);
            let (_, buf) = encoded(&[id]);
            assert_eq!(buf.len(), frame_len, "id {id}");
            let tag = if id < 128 {
                PACKED_SINGLE_BIT | id as u8
            } else {
                BATCH_SINGLE
            };
            assert_eq!(buf[0], tag, "id {id}");
        }
    }

    #[test]
    fn replica_batch_pooled_reencode_stops_growing() {
        let ids: Vec<u32> = (0..128).collect();
        let mut buf = BytesMut::new();
        let mut msgs = updates(&ids);
        let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
        assert!(stats.grown > 0, "cold buffer must grow");
        // Warm re-encodes — dense, sparse, tiny — must never grow.
        for ids in [
            (0..128u32).collect::<Vec<_>>(),
            (0..10).map(|i| i * 999).collect(),
            vec![3],
        ] {
            let mut msgs = updates(&ids);
            let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
            assert_eq!(stats.grown, 0, "warm re-encode of {} msgs grew", ids.len());
        }
    }

    /// One batch per frame shape: dense, sparse, `0x04` single, packed single.
    fn frame_shapes() -> [Vec<u32>; 4] {
        [
            (0..40u32).collect(),
            (0..12).map(|i| i * 5_000 + 17).collect(),
            vec![300],
            vec![9],
        ]
    }

    #[test]
    fn replica_batch_rejects_truncation_at_every_offset() {
        for ids in frame_shapes() {
            let (_, full) = encoded(&ids);
            for cut in 0..full.len() {
                assert_eq!(
                    decoded(&full[..cut]),
                    None,
                    "a {cut}-byte prefix of {} decoded",
                    full.len()
                );
            }
        }
    }

    #[test]
    fn replica_batch_rejects_trailing_bytes() {
        // A count lowered from 3 to 2 leaves the third update unread: the
        // frame must fail, not deliver two updates and drop one.
        let (stats, full) = encoded(&[3, 10_000, 20_000]);
        assert_eq!((stats.mode, full[1]), (WireMode::Sparse, 3));
        let mut lowered = full.to_vec();
        lowered[1] = 2;
        assert_eq!(decoded(&lowered), None);
        // And a valid frame of every shape with one byte appended.
        for ids in frame_shapes() {
            let (_, full) = encoded(&ids);
            let mut longer = full.to_vec();
            longer.push(0);
            assert!(decoded(&full).is_some());
            assert_eq!(decoded(&longer), None, "{ids:?} + 1 byte decoded");
        }
    }

    #[test]
    fn replica_batch_rejects_corrupt_headers() {
        let (_, buf) = encoded(&[1, 2, 3]);
        // Unknown tags, the retired `0x00`/`0x01` pair and the migration tag.
        for tag in [0u8, 1, MIGRATION_BATCH, 6, 7, 0x7f] {
            let mut bytes = buf.to_vec();
            bytes[0] = tag;
            assert_eq!(decoded(&bytes), None, "tag {tag:#04x}");
        }
        // Dense header claiming span < count.
        let mut dense = BytesMut::new();
        dense.put_u8(BATCH_DENSE);
        encode_varint(&mut dense, 4); // count
        encode_varint(&mut dense, 0); // base
        encode_varint(&mut dense, 2); // span < count
        assert_eq!(decoded(&dense), None);
        // Dense header whose id range runs past u32::MAX: a hostile varint
        // base that overflows `base + span` in u64, and the largest base
        // that does not overflow but still names id 2^32.
        for base in [u64::MAX, u32::MAX as u64] {
            let mut frame = BytesMut::new();
            frame.put_u8(BATCH_DENSE);
            encode_varint(&mut frame, 2); // count
            encode_varint(&mut frame, base);
            encode_varint(&mut frame, 2); // span
            frame.put_u8(0b11); // presence
            1.0f64.encode(&mut frame);
            2.0f64.encode(&mut frame);
            assert_eq!(decoded(&frame), None, "base {base} must not decode");
        }
    }

    #[test]
    fn replica_batch_rejects_frames_the_encoder_would_not_emit() {
        // Each decodes to a batch under a laxer reading, and each has a
        // different canonical encoding: accepting it would let two byte
        // strings name one batch.
        let frame = |build: &dyn Fn(&mut BytesMut)| {
            let mut f = BytesMut::new();
            build(&mut f);
            f
        };
        let payloads = |f: &mut BytesMut, n: usize| (0..n).for_each(|i| (i as f64).encode(f));
        for (what, bytes) in [
            (
                "a sparse frame of one update",
                frame(&|f| {
                    f.put_slice(&[BATCH_SPARSE, 1, 9]);
                    payloads(f, 1);
                }),
            ),
            (
                "a 0x04 frame whose id fits the packed tag",
                frame(&|f| {
                    f.put_slice(&[BATCH_SINGLE, 9]);
                    payloads(f, 1);
                }),
            ),
            (
                "a count varint with a zero tail group",
                frame(&|f| {
                    f.put_slice(&[BATCH_SPARSE, 0x82, 0x00, 9, 1]);
                    payloads(f, 2);
                }),
            ),
            (
                "a sparse frame of a contiguous run dense would shrink",
                frame(&|f| {
                    f.put_slice(&[BATCH_SPARSE, 40, 0xa0, 0x1f]); // count, first id 4000
                    0.0f64.encode(f);
                    for i in 1..40 {
                        f.put_u8(1);
                        (i as f64).encode(f);
                    }
                }),
            ),
            (
                "a dense frame of two far-apart ids sparse would shrink",
                frame(&|f| {
                    f.put_slice(&[BATCH_DENSE, 2, 0, 64]); // count, base, span
                    f.put_slice(&[1, 0, 0, 0, 0, 0, 0, 0x80]);
                    payloads(f, 2);
                }),
            ),
            (
                "a dense frame whose span overshoots its last id",
                frame(&|f| {
                    f.put_slice(&[BATCH_DENSE, 9, 0, 10]);
                    f.put_slice(&[0xff, 0b01]);
                    payloads(f, 9);
                }),
            ),
            (
                "a dense frame with padding bits set",
                frame(&|f| {
                    f.put_slice(&[BATCH_DENSE, 9, 0, 9]);
                    f.put_slice(&[0xff, 0b11]);
                    payloads(f, 9);
                }),
            ),
        ] {
            assert_eq!(decoded(&bytes), None, "{what} decoded");
        }
        // The last two, repaired, are what the encoder emits.
        let (_, canonical) = encoded(&(0..9).collect::<Vec<u32>>());
        assert_eq!(&canonical[..6], &[BATCH_DENSE, 9, 0, 9, 0xff, 0b01]);
    }

    #[test]
    fn dense_batch_reservation_is_bounded_by_the_frame() {
        // A frame of an all-ones bitmap and no payloads: the header checks
        // pass (count <= span <= 8 x remaining), so without the cap the
        // decoder would reserve `count` updates — 100x the frame's length
        // for f64 payloads — before finding nothing to decode.
        let count = 1usize << 16;
        let mut frame = BytesMut::new();
        frame.put_u8(BATCH_DENSE);
        encode_varint(&mut frame, count as u64);
        encode_varint(&mut frame, 0); // base
        encode_varint(&mut frame, count as u64); // span
        frame.put_slice(&vec![0xFF; count / 8]);
        assert_eq!(decoded(&frame), None, "payload-free frame must not decode");
        // The bound itself: never more updates than bytes left, and a
        // legitimate frame (>= 1 payload byte per update) keeps its count.
        assert_eq!(batch_reservation(count, 0), 0);
        assert_eq!(batch_reservation(usize::MAX, 17), 17);
        assert_eq!(batch_reservation(3, 24), 3);
    }

    fn migration_records(n: u32) -> Vec<MigrationRecord<Vec<f64>, f64>> {
        (0..n)
            .map(|i| MigrationRecord {
                vertex: i * 3_000 + 7,
                from: i % 4,
                to: (i + 1) % 4,
                active: i % 2 == 0,
                publication: if i % 3 == 0 {
                    Some(i as f64 * 0.5)
                } else {
                    None
                },
                value: vec![i as f64; (i % 5) as usize],
            })
            .collect()
    }

    #[test]
    fn migration_batch_round_trips() {
        for n in [0, 1, 7, 40] {
            let records = migration_records(n);
            let mut buf = BytesMut::new();
            encode_migration_batch(&mut buf, &records);
            let mut slice = &buf[..];
            let out = try_decode_migration_batch::<Vec<f64>, f64>(&mut slice).unwrap();
            assert!(slice.is_empty(), "decode must consume the whole frame");
            assert_eq!(out, records);
        }
    }

    #[test]
    fn migration_batch_rejects_truncation_at_every_offset() {
        let records = migration_records(9);
        let mut full = BytesMut::new();
        encode_migration_batch(&mut full, &records);
        for cut in 0..full.len() {
            assert_eq!(
                try_decode_migration_batch::<Vec<f64>, f64>(&mut &full[..cut]),
                None,
                "a {cut}-byte prefix of {} decoded",
                full.len()
            );
        }
    }

    #[test]
    fn migration_batch_rejects_trailing_bytes() {
        let records = migration_records(3);
        let mut full = BytesMut::new();
        encode_migration_batch(&mut full, &records);
        assert_eq!(full[1], 3, "count varint");
        let mut lowered = full.to_vec();
        lowered[1] = 2;
        assert_eq!(
            try_decode_migration_batch::<Vec<f64>, f64>(&mut &lowered[..]),
            None
        );
        let mut longer = full.to_vec();
        longer.push(0);
        assert_eq!(
            try_decode_migration_batch::<Vec<f64>, f64>(&mut &longer[..]),
            None
        );
        // A count far beyond the frame reserves no more than the frame.
        let mut lying = BytesMut::new();
        lying.put_u8(MIGRATION_BATCH);
        encode_varint(&mut lying, u64::MAX);
        assert_eq!(
            try_decode_migration_batch::<Vec<f64>, f64>(&mut &lying[..]),
            None
        );
    }

    #[test]
    fn migration_batch_tag_is_disjoint_from_the_update_framing() {
        // A migration frame must not decode as a view-update batch, and
        // vice versa: every framing checks its own tag.
        let records = migration_records(3);
        let mut mig = BytesMut::new();
        encode_migration_batch(&mut mig, &records);
        assert_eq!(decoded(&mig), None);
        for ids in frame_shapes() {
            let (_, buf) = encoded(&ids);
            assert!(try_decode_migration_batch::<Vec<f64>, f64>(&mut &buf[..]).is_none());
        }
    }

    #[test]
    fn legacy_wire_format_matches_encode_batch() {
        let mut msgs: Vec<(u32, f64)> = (0..50).map(|i| (i, i as f64)).collect();
        let fresh = encode_batch(&msgs);
        let mut buf = BytesMut::new();
        let stats = <(u32, f64)>::wire_encode_batch_into(&mut buf, &mut msgs);
        assert_eq!(stats.mode, WireMode::Legacy);
        assert_eq!(stats.legacy_len, buf.len());
        assert_eq!(&buf[..], &fresh[..]);
        let out = <(u32, f64)>::wire_try_decode_batch(&mut &buf[..]).unwrap();
        assert_eq!(out, msgs);
    }

    #[test]
    fn legacy_batch_rejects_trailing_bytes() {
        let mut msgs: Vec<(u32, f64)> = (0..3).map(|i| (i, i as f64)).collect();
        let mut full = BytesMut::new();
        <(u32, f64)>::wire_encode_batch_into(&mut full, &mut msgs);
        let mut lowered = full.to_vec();
        lowered[0] = 2; // u32 count 3 -> 2: the third message goes unread
        assert_eq!(<(u32, f64)>::wire_try_decode_batch(&mut &lowered[..]), None);
        let mut longer = full.to_vec();
        longer.push(0);
        assert_eq!(<(u32, f64)>::wire_try_decode_batch(&mut &longer[..]), None);
    }
}
