//! Hand-written binary message codec.
//!
//! Hama pays heavily for Java object serialization and Hadoop RPC (§6.11);
//! our simulated cluster models serialization by round-tripping every
//! cross-machine message through this codec into real byte buffers. The
//! codec is little-endian, non-self-describing (both sides know the message
//! type), and deliberately minimal — exactly what a tuned graph engine would
//! put on the wire.

use bytes::{Buf, BufMut, BytesMut};

/// A type that can be written to and read back from a byte buffer.
///
/// `decode` must consume exactly the bytes `encode` produced
/// (`proptest` round-trip tests in each engine enforce this for its message
/// types).
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Reads one value from the front of `buf`. Panics if `buf` ends
    /// mid-value; use [`Self::try_decode`] on buffers that may be
    /// truncated or corrupt.
    fn decode(buf: &mut impl Buf) -> Self;
    /// Checked variant of [`Self::decode`]: returns `None` instead of
    /// panicking when `buf` ends mid-value or holds an invalid encoding.
    /// On `None` the buffer may be left partially consumed.
    fn try_decode(buf: &mut impl Buf) -> Option<Self>;
    /// Exact number of bytes `encode` appends. Used for pre-sizing buffers
    /// and for byte accounting.
    fn encoded_len(&self) -> usize;
}

impl Codec for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    fn decode(buf: &mut impl Buf) -> Self {
        buf.get_u32_le()
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
    fn decode(buf: &mut impl Buf) -> Self {
        buf.get_u64_le()
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
    fn decode(buf: &mut impl Buf) -> Self {
        buf.get_f64_le()
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
    fn decode(buf: &mut impl Buf) -> Self {
        buf.get_u8() != 0
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
    fn decode(_buf: &mut impl Buf) -> Self {}
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
    fn decode(buf: &mut impl Buf) -> Self {
        let a = A::decode(buf);
        let b = B::decode(buf);
        (a, b)
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
    fn decode(buf: &mut impl Buf) -> Self {
        let a = A::decode(buf);
        let b = B::decode(buf);
        let c = C::decode(buf);
        (a, b, c)
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
    fn decode(buf: &mut impl Buf) -> Self {
        let len = u32::decode(buf) as usize;
        (0..len).map(|_| T::decode(buf)).collect()
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

/// Decodes a batch previously produced by [`encode_batch`]. Panics on a
/// truncated buffer; the wire path uses [`try_decode_batch`].
pub fn decode_batch<M: Codec>(buf: &mut impl Buf) -> Vec<M> {
    let len = u32::decode(buf) as usize;
    (0..len).map(|_| M::decode(buf)).collect()
}

/// Checked variant of [`decode_batch`]: `None` when the buffer is truncated
/// mid-batch or an element's encoding is invalid, instead of panicking.
pub fn try_decode_batch<M: Codec>(buf: &mut impl Buf) -> Option<Vec<M>> {
    let len = u32::try_decode(buf)? as usize;
    let mut out = Vec::with_capacity(len.min(buf.remaining()));
    for _ in 0..len {
        out.push(M::try_decode(buf)?);
    }
    Some(out)
}

// ---- Varint / zigzag / delta layer. ----
//
// LEB128 base-128 varints, least-significant group first, continuation bit
// 0x80 — the standard protobuf wire integer. Replica-update batches use
// them for counts, base ids, and delta-encoded vertex ids, where typical
// values fit in 1–2 bytes instead of a fixed 4.

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

/// Reads one LEB128 varint; `None` on truncation or an encoding longer
/// than 10 bytes (which cannot arise from [`encode_varint`]).
pub fn try_decode_varint(buf: &mut impl Buf) -> Option<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() || shift >= 64 {
            return None;
        }
        let b = buf.get_u8();
        out |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed value so small magnitudes get small varints
/// (`0, -1, 1, -2, ... -> 0, 1, 2, 3, ...`).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `count` bits packed LSB-first into `count.div_ceil(8)` bytes.
fn put_bitmap(buf: &mut BytesMut, bits: impl Iterator<Item = bool>) {
    let mut cur = 0u8;
    let mut n = 0usize;
    for b in bits {
        if b {
            cur |= 1 << (n % 8);
        }
        n += 1;
        if n.is_multiple_of(8) {
            buf.put_u8(cur);
            cur = 0;
        }
    }
    if !n.is_multiple_of(8) {
        buf.put_u8(cur);
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

#[inline]
fn bitmap_get(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

// ---- Adaptive wire formats. ----

/// Which encoding a wire batch chose. `Legacy` is the fixed-width
/// count-prefixed framing every [`Codec`] message type gets by default;
/// `Sparse`/`Dense` are the two self-selecting [`ReplicaUpdate`] modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    /// Fixed-width `u32` count prefix + fixed-width messages.
    Legacy,
    /// Delta-varint replica ids + packed values (small frontiers).
    Sparse,
    /// Base id + presence/activation bitmaps + packed values (a dense
    /// slice of a contiguous replica range).
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
/// the adaptive dense/sparse `ReplicaBatch` format.
///
/// `wire_encode_batch_into` may reorder `msgs` (canonicalization): callers
/// must not depend on batch order across the wire beyond set equality.
pub trait WireFormat: Sized {
    /// Encodes `msgs` as one batch into a pooled buffer (cleared first),
    /// reserving exactly the encoded size so a warm buffer never grows.
    fn wire_encode_batch_into(buf: &mut BytesMut, msgs: &mut [Self]) -> WireStats;
    /// Decodes one batch produced by [`Self::wire_encode_batch_into`];
    /// `None` on truncation or corruption, never a panic.
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
        try_decode_batch(buf)
    }
}

/// One replica update: the master's new publication for one mirror, plus
/// the piggybacked activation bit — the paper's single
/// sync-message-per-mirror-per-superstep, as a named struct so it can carry
/// the adaptive `ReplicaBatch` [`WireFormat`] (deliberately *not* a
/// [`Codec`] impl: the blanket legacy path must not apply to it).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplicaUpdate<M> {
    /// Destination-machine replica index (dense, per-machine).
    pub replica: u32,
    /// The master's published value.
    pub payload: M,
    /// Whether the replica's out-neighbors activate next superstep.
    pub activate: bool,
}

/// Mode bytes of the `ReplicaBatch` framing.
const REPLICA_BATCH_SPARSE: u8 = 0;
const REPLICA_BATCH_DENSE: u8 = 1;
/// Mode bytes of the `DirectBatch` framing. Disjoint from the
/// `ReplicaBatch` tags so a batch can never decode as the wrong kind.
const DIRECT_BATCH_SPARSE: u8 = 2;
const DIRECT_BATCH_DENSE: u8 = 3;
/// One-message `DirectBatch` frame: tag · varint slot · payload. Cold
/// boundary traffic is dominated by single-slot sends (a publish-once leaf
/// reaching one remote reader), where the sparse frame's count byte and
/// activation bitmap are pure overhead.
const DIRECT_BATCH_SINGLE: u8 = 4;
/// Packed one-message frame: when the slot fits in 7 bits — per-worker
/// direct tables are small, so nearly always — the tag and slot share one
/// byte, `PACKED_SINGLE_BIT | slot`, followed directly by the payload. The
/// high bit keeps the byte disjoint from every mode tag (all < 0x80).
const PACKED_SINGLE_BIT: u8 = 0x80;

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

/// One direct message under hybrid replication: a cold boundary master's
/// new publication for one destination-worker direct slot. Structurally a
/// [`ReplicaUpdate`] whose id addresses the receiver's direct-message table
/// instead of its replica array; kept a distinct type so the wire tags (and
/// every byte counter keyed on them) can never confuse the two paths.
/// Deliberately *not* a [`Codec`] impl: the blanket legacy framing must not
/// apply to it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DirectMessage<M> {
    /// Destination-worker direct-slot index (dense, per-worker).
    pub slot: u32,
    /// The master's published value.
    pub payload: M,
    /// Whether the slot's target master activates next superstep. **Wire
    /// contract: always `true`.** A direct message only exists because a
    /// dirty master published, and a publication activates its readers, so
    /// the bit is not carried in the `DirectBatch` framing — the encoder
    /// debug-asserts it and the decoder reconstructs `true`.
    pub activate: bool,
}

impl<M> DirectMessage<M> {
    /// Builds a direct message.
    pub fn new(slot: u32, payload: M, activate: bool) -> Self {
        DirectMessage {
            slot,
            payload,
            activate,
        }
    }
}

/// Mode byte of the `MigrationBatch` framing: one frame per migration
/// epoch carrying the moved masters' pending state across the wire.
/// Disjoint from every `ReplicaBatch` / `DirectBatch` tag (all < 0x80,
/// so also disjoint from [`PACKED_SINGLE_BIT`] frames).
const MIGRATION_BATCH: u8 = 5;

/// One migrated master on the wire: the vertex, the ownership transfer,
/// and the in-flight per-vertex engine state the destination worker needs
/// to resume the epoch — the activation bit and the latest publication
/// (both restored from the epoch checkpoint the migration driver resumes
/// from). Vertex *values* are not `Codec` in the Cyclops engines (only
/// messages are), so the value payload rides as `state_bytes` of opaque
/// padding sized by the caller (`size_of::<V>()`): the byte accounting is
/// honest without forcing a `Codec` bound onto every algorithm's value
/// type.
#[derive(Clone, Debug, PartialEq)]
pub struct MigrationRecord<M> {
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
    /// Size of the vertex-value payload transferred alongside (opaque
    /// padding on the wire; see the type docs).
    pub state_bytes: u32,
}

/// Encodes a migration batch: tag · varint count · per record
/// (varint vertex · varint from · varint to · flags byte · [publication]
/// · varint state_bytes · `state_bytes` padding bytes). Flag bit 0 is
/// `active`, bit 1 is publication presence.
pub fn encode_migration_batch<M: Codec>(buf: &mut BytesMut, records: &[MigrationRecord<M>]) {
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
        encode_varint(buf, r.state_bytes as u64);
        buf.put_slice(&vec![0u8; r.state_bytes as usize]);
    }
}

/// Decodes a migration batch, rejecting truncated buffers, non-migration
/// tags, and malformed records.
pub fn try_decode_migration_batch<M: Codec>(buf: &mut impl Buf) -> Option<Vec<MigrationRecord<M>>> {
    if buf.remaining() < 1 || buf.get_u8() != MIGRATION_BATCH {
        return None;
    }
    let count = try_decode_varint(buf)?;
    let mut out = Vec::with_capacity(count.min(4096) as usize);
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
        let state_bytes = u32::try_from(try_decode_varint(buf)?).ok()?;
        if buf.remaining() < state_bytes as usize {
            return None;
        }
        buf.advance(state_bytes as usize);
        out.push(MigrationRecord {
            vertex,
            from,
            to,
            active: flags & 1 != 0,
            publication,
            state_bytes,
        });
    }
    Some(out)
}

/// Exact wire size [`encode_migration_batch`] produces for `records`.
pub fn migration_batch_encoded_len<M: Codec>(records: &[MigrationRecord<M>]) -> usize {
    let mut len = 1 + varint_len(records.len() as u64);
    for r in records {
        len += varint_len(r.vertex as u64)
            + varint_len(r.from as u64)
            + varint_len(r.to as u64)
            + 1
            + r.publication.as_ref().map_or(0, |p| p.encoded_len())
            + varint_len(r.state_bytes as u64)
            + r.state_bytes as usize;
    }
    len
}

/// The shape both adaptive batch formats share: a `u32` id, a payload, and
/// an activation bit. Lets `ReplicaBatch` and `DirectBatch` run the same
/// encoder/decoder with per-format knobs: the mode tags, whether the wire
/// carries activation bits, and an optional one-message frame.
trait AdaptiveUpdate: Sized {
    /// Payload type carried per id.
    type Payload: Codec;
    /// Mode byte of the sparse framing.
    const SPARSE_TAG: u8;
    /// Mode byte of the dense framing.
    const DENSE_TAG: u8;
    /// Whether the wire carries per-message activation bits. When `false`
    /// every message is defined to activate: the encoder debug-asserts the
    /// invariant and the decoder reconstructs `activate = true`.
    const CARRIES_ACTIVATION: bool;
    /// Mode byte of the one-message frame (tag · varint id · payload), if
    /// the format has one.
    const SINGLE_TAG: Option<u8>;
    fn id(&self) -> u32;
    fn payload(&self) -> &Self::Payload;
    fn is_active(&self) -> bool;
    fn from_parts(id: u32, payload: Self::Payload, activate: bool) -> Self;
}

impl<M: Codec> AdaptiveUpdate for ReplicaUpdate<M> {
    type Payload = M;
    const SPARSE_TAG: u8 = REPLICA_BATCH_SPARSE;
    const DENSE_TAG: u8 = REPLICA_BATCH_DENSE;
    const CARRIES_ACTIVATION: bool = true;
    const SINGLE_TAG: Option<u8> = None;
    fn id(&self) -> u32 {
        self.replica
    }
    fn payload(&self) -> &M {
        &self.payload
    }
    fn is_active(&self) -> bool {
        self.activate
    }
    fn from_parts(id: u32, payload: M, activate: bool) -> Self {
        ReplicaUpdate::new(id, payload, activate)
    }
}

impl<M: Codec> AdaptiveUpdate for DirectMessage<M> {
    type Payload = M;
    const SPARSE_TAG: u8 = DIRECT_BATCH_SPARSE;
    const DENSE_TAG: u8 = DIRECT_BATCH_DENSE;
    // A direct message *is* an activation: the engines only publish to a
    // slot for a dirty master, and the slot's target must recompute over
    // the new value. Both publish paths construct `activate = true`, so
    // the bit is dropped from the wire entirely.
    const CARRIES_ACTIVATION: bool = false;
    const SINGLE_TAG: Option<u8> = Some(DIRECT_BATCH_SINGLE);
    fn id(&self) -> u32 {
        self.slot
    }
    fn payload(&self) -> &M {
        &self.payload
    }
    fn is_active(&self) -> bool {
        self.activate
    }
    fn from_parts(id: u32, payload: M, activate: bool) -> Self {
        DirectMessage::new(id, payload, activate)
    }
}

/// Shared encoder of the adaptive sparse/dense batch framing (see the
/// [`ReplicaUpdate`] `WireFormat` docs for the byte layout). Sorts by id,
/// prices both encodings exactly, and emits the smaller with the format's
/// own mode tags.
fn adaptive_wire_encode<T: AdaptiveUpdate>(buf: &mut BytesMut, msgs: &mut [T]) -> WireStats {
    msgs.sort_by_key(|m| m.id());
    let count = msgs.len();
    let payload_len: usize = msgs.iter().map(|m| m.payload().encoded_len()).sum();
    // Legacy framing: u32 count + (u32 id + payload + bool) each.
    let legacy_len = 4 + payload_len + 5 * count;
    debug_assert!(
        T::CARRIES_ACTIVATION || msgs.iter().all(|m| m.is_active()),
        "a format without wire activation bits must only carry activating messages"
    );
    let act_bytes = if T::CARRIES_ACTIVATION {
        count.div_ceil(8)
    } else {
        0
    };

    // One-message frame: tag · varint id · payload — or, when the id fits
    // in 7 bits, the packed variant that folds the id into the tag byte.
    // Never longer than the sparse frame (which adds at least the count
    // byte), so take it unconditionally when available.
    if count == 1 {
        if let Some(tag) = T::SINGLE_TAG {
            let id = msgs[0].id();
            let packed = id < PACKED_SINGLE_BIT as u32;
            let total = if packed {
                1 + payload_len
            } else {
                1 + varint_len(id as u64) + payload_len
            };
            buf.clear();
            let before = buf.capacity();
            buf.reserve(total);
            let grown = buf.capacity().saturating_sub(before);
            if packed {
                buf.put_u8(PACKED_SINGLE_BIT | id as u8);
            } else {
                buf.put_u8(tag);
                encode_varint(buf, id as u64);
            }
            msgs[0].payload().encode(buf);
            debug_assert_eq!(buf.len(), total, "single-frame size arithmetic drifted");
            return WireStats {
                grown,
                mode: WireMode::Sparse,
                legacy_len,
            };
        }
    }

    let mut ids_len = 0usize;
    let mut unique = true;
    let mut prev = 0u32;
    for (i, m) in msgs.iter().enumerate() {
        let delta = if i == 0 {
            m.id() as u64
        } else {
            if m.id() == prev {
                unique = false;
            }
            (m.id() - prev) as u64
        };
        ids_len += varint_len(delta);
        prev = m.id();
    }
    let sparse_len = 1 + varint_len(count as u64) + act_bytes + ids_len + payload_len;
    let dense_len = if count > 0 && unique {
        let base = msgs[0].id() as u64;
        let span = msgs[count - 1].id() as u64 - base + 1;
        Some(
            1 + varint_len(count as u64)
                + varint_len(base)
                + varint_len(span)
                + (span as usize).div_ceil(8)
                + act_bytes
                + payload_len,
        )
    } else {
        None
    };

    let (mode, total) = match dense_len {
        Some(d) if d < sparse_len => (WireMode::Dense, d),
        _ => (WireMode::Sparse, sparse_len),
    };
    buf.clear();
    let before = buf.capacity();
    buf.reserve(total);
    let grown = buf.capacity().saturating_sub(before);
    match mode {
        WireMode::Sparse => {
            buf.put_u8(T::SPARSE_TAG);
            encode_varint(buf, count as u64);
            if T::CARRIES_ACTIVATION {
                put_bitmap(buf, msgs.iter().map(|m| m.is_active()));
            }
            let mut prev = 0u32;
            for (i, m) in msgs.iter().enumerate() {
                let delta = if i == 0 {
                    m.id() as u64
                } else {
                    (m.id() - prev) as u64
                };
                encode_varint(buf, delta);
                m.payload().encode(buf);
                prev = m.id();
            }
        }
        WireMode::Dense => {
            buf.put_u8(T::DENSE_TAG);
            encode_varint(buf, count as u64);
            let base = msgs[0].id();
            let span = msgs[count - 1].id() as u64 - base as u64 + 1;
            encode_varint(buf, base as u64);
            encode_varint(buf, span);
            // Presence bitmap, streamed in ascending-offset order.
            let span_bytes = (span as usize).div_ceil(8);
            let mut byte_idx = 0usize;
            let mut cur = 0u8;
            for m in msgs.iter() {
                let off = (m.id() - base) as usize;
                while byte_idx < off / 8 {
                    buf.put_u8(cur);
                    cur = 0;
                    byte_idx += 1;
                }
                cur |= 1 << (off % 8);
            }
            while byte_idx < span_bytes {
                buf.put_u8(cur);
                cur = 0;
                byte_idx += 1;
            }
            if T::CARRIES_ACTIVATION {
                put_bitmap(buf, msgs.iter().map(|m| m.is_active()));
            }
            for m in msgs.iter() {
                m.payload().encode(buf);
            }
        }
        WireMode::Legacy => unreachable!(),
    }
    debug_assert_eq!(buf.len(), total, "adaptive batch size arithmetic drifted");
    WireStats {
        grown,
        mode,
        legacy_len,
    }
}

/// How many updates a batch decoder reserves room for when the header
/// announces `count` and `remaining` bytes are left to read. `count` is a
/// hostile varint; every update still to come costs at least one payload
/// byte, so a well-formed frame's reservation is its `count` and a lying
/// one's is bounded by its own length.
#[inline]
fn batch_reservation(count: usize, remaining: usize) -> usize {
    count.min(remaining)
}

/// Shared decoder of the adaptive framing. Rejects (returns `None` for) a
/// batch carrying the *other* format's tags, so replica and direct traffic
/// cannot be cross-decoded.
fn adaptive_wire_try_decode<T: AdaptiveUpdate>(buf: &mut impl Buf) -> Option<Vec<T>> {
    if !buf.has_remaining() {
        return None;
    }
    let tag = buf.get_u8();
    if T::SINGLE_TAG.is_some() && tag & PACKED_SINGLE_BIT != 0 {
        let payload = T::Payload::try_decode(buf)?;
        let id = (tag & !PACKED_SINGLE_BIT) as u32;
        return Some(vec![T::from_parts(id, payload, true)]);
    }
    if T::SINGLE_TAG == Some(tag) {
        let id = try_decode_varint(buf)?;
        if id > u32::MAX as u64 {
            return None;
        }
        let payload = T::Payload::try_decode(buf)?;
        return Some(vec![T::from_parts(id as u32, payload, true)]);
    }
    if tag == T::SPARSE_TAG {
        let count = try_decode_varint(buf)? as usize;
        let act = if T::CARRIES_ACTIVATION {
            Some(try_read_bitmap(buf, count)?)
        } else {
            None
        };
        let mut out = Vec::with_capacity(batch_reservation(count, buf.remaining()));
        let mut id = 0u64;
        for i in 0..count {
            let delta = try_decode_varint(buf)?;
            id = if i == 0 {
                delta
            } else {
                id.checked_add(delta)?
            };
            if id > u32::MAX as u64 {
                return None;
            }
            let payload = T::Payload::try_decode(buf)?;
            let activate = act.as_ref().is_none_or(|a| bitmap_get(a, i));
            out.push(T::from_parts(id as u32, payload, activate));
        }
        Some(out)
    } else if tag == T::DENSE_TAG {
        let count = try_decode_varint(buf)? as usize;
        let base = try_decode_varint(buf)?;
        let span = try_decode_varint(buf)?;
        // `span >= count >= 1` once the first two checks pass, so `span - 1`
        // cannot underflow; the add is checked because `base` is a hostile
        // varint — the last id must still be a `u32` for the `base as u32 +
        // off as u32` below to be exact.
        if count == 0
            || span < count as u64
            || base
                .checked_add(span - 1)
                .is_none_or(|last| last > u32::MAX as u64)
            || span > buf.remaining() as u64 * 8
        {
            return None;
        }
        let presence = try_read_bitmap(buf, span as usize)?;
        let act = if T::CARRIES_ACTIVATION {
            Some(try_read_bitmap(buf, count)?)
        } else {
            None
        };
        // Taken after the bitmaps: the header check above lets `count` be
        // 8x the bytes that were left, bitmaps included.
        let mut out = Vec::with_capacity(batch_reservation(count, buf.remaining()));
        for off in 0..span as usize {
            if bitmap_get(&presence, off) {
                if out.len() == count {
                    return None; // more presence bits than count
                }
                let payload = T::Payload::try_decode(buf)?;
                let i = out.len();
                let activate = act.as_ref().is_none_or(|a| bitmap_get(a, i));
                out.push(T::from_parts(base as u32 + off as u32, payload, activate));
            }
        }
        (out.len() == count).then_some(out)
    } else {
        None
    }
}

/// The adaptive `ReplicaBatch` format.
///
/// ```text
/// sparse: 0x00 · varint count · activation bitmap ⌈count/8⌉
///         · per update (ascending replica id): varint id-delta · payload
/// dense:  0x01 · varint count · varint base · varint span
///         · presence bitmap ⌈span/8⌉ · activation bitmap ⌈count/8⌉
///         · payloads in ascending replica order
/// ```
///
/// The encoder first sorts the batch by replica id (stable), making the
/// bytes — and therefore the mode choice and every byte counter downstream
/// — a pure function of the batch *set*, independent of the outbox merge
/// order a multi-threaded sender produced. It then computes both encoded
/// sizes exactly and picks the smaller (ties favor sparse); dense wins
/// once the updating fraction of the `[min, max]` replica range crosses
/// the bitmap break-even density (~1 bit vs ~1–2 varint bytes per id).
/// Duplicate replica ids (which the engines never produce, but arbitrary
/// inputs may) force sparse: a presence bitmap cannot express them.
impl<M: Codec> WireFormat for ReplicaUpdate<M> {
    fn wire_encode_batch_into(buf: &mut BytesMut, msgs: &mut [Self]) -> WireStats {
        adaptive_wire_encode(buf, msgs)
    }

    fn wire_try_decode_batch(buf: &mut impl Buf) -> Option<Vec<Self>> {
        adaptive_wire_try_decode(buf)
    }
}

/// The `DirectBatch` format: the adaptive sparse/dense layout of
/// `ReplicaBatch` — slot ids delta-varint'd or bitmap'd, payloads in
/// ascending slot order — under its own mode tags (`0x02` sparse, `0x03`
/// dense), minus the activation bitmap (direct messages always activate;
/// see [`DirectMessage::activate`]), plus a one-message frame: `0x04` ·
/// varint slot · payload, or — when the slot fits in 7 bits — a single
/// `0x80 | slot` byte · payload. Cold-vertex traffic skews toward tiny
/// batches (a publish-once leaf reaching a single remote reader), where
/// these fixed bytes are the difference between a direct message being
/// cheaper or dearer than the replica entry it replaced.
impl<M: Codec> WireFormat for DirectMessage<M> {
    fn wire_encode_batch_into(buf: &mut BytesMut, msgs: &mut [Self]) -> WireStats {
        adaptive_wire_encode(buf, msgs)
    }

    fn wire_try_decode_batch(buf: &mut impl Buf) -> Option<Vec<Self>> {
        adaptive_wire_try_decode(buf)
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
        assert_eq!(M::decode(&mut read), v);
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
        let out: Vec<(u32, f64)> = decode_batch(&mut read);
        assert_eq!(out, msgs);
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
        let v = f64::decode(&mut buf.freeze());
        assert!(v.is_nan());
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

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, -1, 1, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    fn updates(ids: &[u32]) -> Vec<ReplicaUpdate<f64>> {
        ids.iter()
            .map(|&id| ReplicaUpdate::new(id, id as f64 * 0.5, id % 3 == 0))
            .collect()
    }

    fn wire_round_trip(ids: &[u32]) -> (WireStats, Vec<ReplicaUpdate<f64>>) {
        let mut msgs = updates(ids);
        let mut buf = BytesMut::new();
        let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
        assert_eq!(stats.legacy_len, 4 + 13 * ids.len());
        let out = ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &buf[..])
            .expect("well-formed batch must decode");
        let mut sorted = updates(ids);
        sorted.sort_by_key(|m| m.replica);
        assert_eq!(out, sorted, "decode must return the sorted batch");
        (stats, out)
    }

    #[test]
    fn replica_batch_picks_dense_for_contiguous_ranges() {
        let ids: Vec<u32> = (100..200).collect();
        let (stats, _) = wire_round_trip(&ids);
        assert_eq!(stats.mode, WireMode::Dense);
        // mode + count(1) + base(1) + span(1) + presence(13) + act(13) + 800.
        let mut msgs = updates(&ids);
        let mut buf = BytesMut::new();
        ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
        assert_eq!(buf.len(), 1 + 1 + 1 + 1 + 13 + 13 + 800);
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
        let mut a = updates(&shuffled);
        shuffled.reverse();
        let mut b = updates(&shuffled);
        let mut ba = BytesMut::new();
        let mut bb = BytesMut::new();
        let sa = ReplicaUpdate::wire_encode_batch_into(&mut ba, &mut a);
        let sb = ReplicaUpdate::wire_encode_batch_into(&mut bb, &mut b);
        assert_eq!(&ba[..], &bb[..], "same set must encode identically");
        assert_eq!(sa.mode, sb.mode);
    }

    #[test]
    fn replica_batch_duplicates_force_sparse() {
        let (stats, out) = {
            let mut msgs = updates(&[5, 5, 6, 7, 8, 9, 10, 11]);
            let mut buf = BytesMut::new();
            let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
            let out = ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &buf[..]).unwrap();
            (stats, out)
        };
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
        let (stats, out) = wire_round_trip(&[7]);
        assert!(out[0].payload == 3.5 && !out[0].activate);
        assert!(stats.legacy_len >= 17);
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

    #[test]
    fn replica_batch_rejects_truncation_at_every_offset() {
        // One dense-leaning and one sparse-leaning batch.
        for ids in [
            (0..40u32).collect::<Vec<_>>(),
            (0..12).map(|i| i * 5_000 + 17).collect(),
        ] {
            let mut msgs = updates(&ids);
            let mut full = BytesMut::new();
            ReplicaUpdate::wire_encode_batch_into(&mut full, &mut msgs);
            for cut in 0..full.len() {
                assert_eq!(
                    ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &full[..cut]),
                    None,
                    "a {cut}-byte prefix of {} decoded",
                    full.len()
                );
            }
        }
    }

    #[test]
    fn replica_batch_rejects_corrupt_headers() {
        let mut msgs = updates(&[1, 2, 3]);
        let mut buf = BytesMut::new();
        ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
        // Unknown mode byte.
        let mut bytes = buf.to_vec();
        bytes[0] = 7;
        assert_eq!(
            ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &bytes[..]),
            None
        );
        // Dense header claiming span < count.
        let mut dense = BytesMut::new();
        dense.put_u8(REPLICA_BATCH_DENSE);
        encode_varint(&mut dense, 4); // count
        encode_varint(&mut dense, 0); // base
        encode_varint(&mut dense, 2); // span < count
        assert_eq!(
            ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &dense[..]),
            None
        );
        // Dense header whose id range runs past u32::MAX: a hostile varint
        // base that overflows `base + span` in u64, and the largest base
        // that does not overflow but still names id 2^32. Same frames under
        // the direct tag (which carries no activation bitmap).
        for base in [u64::MAX, u32::MAX as u64] {
            for (tag, carries_activation) in
                [(REPLICA_BATCH_DENSE, true), (DIRECT_BATCH_DENSE, false)]
            {
                let mut frame = BytesMut::new();
                frame.put_u8(tag);
                encode_varint(&mut frame, 2); // count
                encode_varint(&mut frame, base);
                encode_varint(&mut frame, 2); // span
                frame.put_u8(0b11); // presence
                if carries_activation {
                    frame.put_u8(0b11);
                }
                1.0f64.encode(&mut frame);
                2.0f64.encode(&mut frame);
                let rejected = if carries_activation {
                    ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &frame[..]).is_none()
                } else {
                    DirectMessage::<f64>::wire_try_decode_batch(&mut &frame[..]).is_none()
                };
                assert!(rejected, "tag {tag:#04x}, base {base} must not decode");
            }
        }
    }

    #[test]
    fn dense_batch_reservation_is_bounded_by_the_frame() {
        // A frame of two all-ones bitmaps and no payloads: the header checks
        // pass (count <= span <= 8 x remaining), so without the cap the
        // decoder would reserve `count` updates — 100x the frame's length
        // for f64 payloads — before finding nothing to decode.
        let count = 1usize << 16;
        for (tag, carries_activation) in [(REPLICA_BATCH_DENSE, true), (DIRECT_BATCH_DENSE, false)]
        {
            let mut frame = BytesMut::new();
            frame.put_u8(tag);
            encode_varint(&mut frame, count as u64);
            encode_varint(&mut frame, 0); // base
            encode_varint(&mut frame, count as u64); // span
            let bitmaps = if carries_activation { 2 } else { 1 };
            frame.put_slice(&vec![0xFF; bitmaps * count / 8]);
            let rejected = if carries_activation {
                ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &frame[..]).is_none()
            } else {
                DirectMessage::<f64>::wire_try_decode_batch(&mut &frame[..]).is_none()
            };
            assert!(
                rejected,
                "tag {tag:#04x}: payload-free frame must not decode"
            );
        }
        // The bound itself: never more updates than bytes left, and a
        // legitimate frame (>= 1 payload byte per update) keeps its count.
        assert_eq!(batch_reservation(count, 0), 0);
        assert_eq!(batch_reservation(usize::MAX, 17), 17);
        assert_eq!(batch_reservation(3, 24), 3);
    }

    fn directs(ids: &[u32]) -> Vec<DirectMessage<f64>> {
        // Always-activate: the DirectBatch wire contract.
        ids.iter()
            .map(|&id| DirectMessage::new(id, id as f64 * 0.5, true))
            .collect()
    }

    #[test]
    fn direct_batch_round_trips_and_undercuts_replica_sizing() {
        for ids in [
            (100..200u32).collect::<Vec<_>>(),
            (0..20).map(|i| i * 10_000).collect(),
            vec![],
            vec![7],
        ] {
            let mut dm = directs(&ids);
            let mut ru = updates(&ids);
            let mut db = BytesMut::new();
            let mut rb = BytesMut::new();
            let ds = DirectMessage::wire_encode_batch_into(&mut db, &mut dm);
            let rs = ReplicaUpdate::wire_encode_batch_into(&mut rb, &mut ru);
            assert_eq!(ds.legacy_len, rs.legacy_len);
            if ids.len() == 1 {
                // Packed one-message frame: `0x80 | slot` · payload — beats
                // the sparse frame's count byte, slot varint, and
                // activation bitmap.
                assert_eq!(db[0], PACKED_SINGLE_BIT | ids[0] as u8);
                assert_eq!(db.len(), rb.len() - 3);
            } else {
                // Same adaptive machinery and mode choice (the activation
                // bitmap shrinks sparse and dense equally), with the direct
                // batch exactly one ⌈count/8⌉ activation bitmap shorter.
                assert_eq!(ds.mode, rs.mode);
                assert_eq!(db.len() + ids.len().div_ceil(8), rb.len());
                assert_eq!(db[0], rb[0] + 2, "direct tags are replica tags + 2");
            }
            let out = DirectMessage::<f64>::wire_try_decode_batch(&mut &db[..])
                .expect("well-formed direct batch must decode");
            let mut sorted = directs(&ids);
            sorted.sort_by_key(|m| m.slot);
            assert_eq!(out, sorted);
            assert!(
                out.iter().all(|m| m.activate),
                "decode must reconstruct activate = true"
            );
        }
    }

    #[test]
    fn direct_and_replica_batches_reject_each_other() {
        let ids: Vec<u32> = (0..30).collect();
        let mut dm = directs(&ids);
        let mut ru = updates(&ids);
        let mut db = BytesMut::new();
        let mut rb = BytesMut::new();
        DirectMessage::wire_encode_batch_into(&mut db, &mut dm);
        ReplicaUpdate::wire_encode_batch_into(&mut rb, &mut ru);
        assert_eq!(
            ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &db[..]),
            None,
            "a DirectBatch must not decode as a ReplicaBatch"
        );
        assert_eq!(
            DirectMessage::<f64>::wire_try_decode_batch(&mut &rb[..]),
            None,
            "a ReplicaBatch must not decode as a DirectBatch"
        );
        // Both one-message frames are also DirectBatch-only.
        for slot in [7u32, 300] {
            let mut single = directs(&[slot]);
            let mut sb = BytesMut::new();
            DirectMessage::wire_encode_batch_into(&mut sb, &mut single);
            if slot < 128 {
                assert_eq!(sb[0], PACKED_SINGLE_BIT | slot as u8);
                assert_eq!(sb.len(), 1 + 8, "packed frame is tag byte + payload");
            } else {
                assert_eq!(sb[0], DIRECT_BATCH_SINGLE);
            }
            assert_eq!(
                ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &sb[..]),
                None,
                "a single-message DirectBatch must not decode as a ReplicaBatch"
            );
            assert_eq!(
                DirectMessage::<f64>::wire_try_decode_batch(&mut &sb[..]),
                Some(single.clone()),
                "slot {slot} single frame must round-trip"
            );
        }
    }

    #[test]
    fn direct_batch_rejects_truncation_at_every_offset() {
        for ids in [
            (0..40u32).collect::<Vec<_>>(),
            (0..12).map(|i| i * 5_000 + 17).collect(),
            vec![300], // one-message frame with a two-byte slot varint
            vec![9],   // packed one-message frame
        ] {
            let mut msgs = directs(&ids);
            let mut full = BytesMut::new();
            DirectMessage::wire_encode_batch_into(&mut full, &mut msgs);
            for cut in 0..full.len() {
                assert_eq!(
                    DirectMessage::<f64>::wire_try_decode_batch(&mut &full[..cut]),
                    None,
                    "a {cut}-byte prefix of {} decoded",
                    full.len()
                );
            }
        }
    }

    fn migration_records(n: u32) -> Vec<MigrationRecord<f64>> {
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
                state_bytes: (i % 5) * 8,
            })
            .collect()
    }

    #[test]
    fn migration_batch_round_trips_and_len_is_exact() {
        for n in [0, 1, 7, 40] {
            let records = migration_records(n);
            let mut buf = BytesMut::new();
            encode_migration_batch(&mut buf, &records);
            assert_eq!(buf.len(), migration_batch_encoded_len(&records));
            let mut slice = &buf[..];
            let out = try_decode_migration_batch::<f64>(&mut slice).unwrap();
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
                try_decode_migration_batch::<f64>(&mut &full[..cut]),
                None,
                "a {cut}-byte prefix of {} decoded",
                full.len()
            );
        }
    }

    #[test]
    fn migration_batch_tag_is_disjoint_from_other_framings() {
        // A migration frame must not decode as a replica or direct batch,
        // and vice versa: every framing checks its own tag.
        let records = migration_records(3);
        let mut mig = BytesMut::new();
        encode_migration_batch(&mut mig, &records);
        assert!(ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &mig[..]).is_none());
        assert!(DirectMessage::<f64>::wire_try_decode_batch(&mut &mig[..]).is_none());

        let mut reps = vec![ReplicaUpdate::new(0, 1.0f64, true)];
        let mut rep_buf = BytesMut::new();
        ReplicaUpdate::wire_encode_batch_into(&mut rep_buf, &mut reps);
        assert!(try_decode_migration_batch::<f64>(&mut &rep_buf[..]).is_none());

        let mut dirs = directs(&[3]);
        let mut dir_buf = BytesMut::new();
        DirectMessage::wire_encode_batch_into(&mut dir_buf, &mut dirs);
        assert!(try_decode_migration_batch::<f64>(&mut &dir_buf[..]).is_none());
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
}
