//! Property-based tests of the codec and transport: arbitrary payloads
//! round-trip exactly; corrupted frames decode to nothing or to a batch that
//! encodes back to them; arbitrary send schedules deliver exactly once with
//! correct epoch isolation.

use bytes::{Buf, BufMut, BytesMut};
use cyclops_net::codec::{
    batch_reservation, encode_batch, encode_migration_batch, encode_varint, try_decode_batch,
    try_decode_migration_batch, try_decode_varint, varint_len, MigrationRecord,
};
use cyclops_net::{ClusterSpec, Codec, InboxMode, ReplicaUpdate, Transport, WireFormat};
use proptest::prelude::*;

/// Update ids in the three shapes that steer the framing: clustered (dense
/// mode), scattered (sparse mode), and hard against `u32::MAX` (where id
/// arithmetic overflows if it is going to). Duplicates occur in all three.
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    (
        0usize..3,
        prop::collection::vec(any::<u32>(), 0..24),
        0u32..100_000,
    )
        .prop_map(|(shape, raw, base)| match shape {
            0 => raw.iter().map(|v| base + v % 48).collect(),
            1 => raw,
            _ => raw.iter().map(|v| u32::MAX - v % 40).collect(),
        })
}

/// What the decoder owes any byte string: nothing, or a batch that encodes
/// back to exactly those bytes — so no two frames name one batch and nothing
/// in a frame goes unread — in a vector no longer than the input.
fn none_or_canonical<M: Codec>(bytes: &[u8]) -> Option<usize> {
    let mut batch = ReplicaUpdate::<M>::wire_try_decode_batch(&mut &bytes[..])?;
    assert!(
        batch.capacity() <= bytes.len(),
        "reserved {} updates for {} bytes",
        batch.capacity(),
        bytes.len()
    );
    let mut again = BytesMut::new();
    ReplicaUpdate::wire_encode_batch_into(&mut again, &mut batch);
    assert_eq!(
        &again[..],
        bytes,
        "a decoded frame must re-encode to itself"
    );
    Some(batch.len())
}

/// Encodes `ids` with `payload(id)` each and runs the corruption corpus over
/// the frame: every single-bit flip, every truncation, every other tag byte
/// (the migration tag, the retired pair and the whole packed range among
/// them) and every header varint overwritten with `{0, 1, v - 1, v + 1,
/// u32::MAX, u64::MAX}`. The same bytes go to the migration decoder, which
/// owes them the same: no panic, no reservation beyond the input.
fn corruption_corpus<M: Codec + Clone>(ids: &[u32], payload: impl Fn(u32) -> M) {
    let mut batch: Vec<ReplicaUpdate<M>> = ids
        .iter()
        .map(|&id| ReplicaUpdate::new(id, payload(id), true))
        .collect();
    let mut frame = BytesMut::new();
    ReplicaUpdate::wire_encode_batch_into(&mut frame, &mut batch);
    let frame = frame.to_vec();
    assert_eq!(none_or_canonical::<M>(&frame), Some(ids.len()));

    let probe = |bytes: &[u8]| {
        none_or_canonical::<M>(bytes);
        if let Some(records) = try_decode_migration_batch::<M>(&mut &bytes[..]) {
            assert!(records.capacity() <= bytes.len());
        }
    };
    for i in 0..frame.len() {
        for bit in 0..8 {
            let mut flipped = frame.clone();
            flipped[i] ^= 1 << bit;
            probe(&flipped);
        }
    }
    for cut in 0..frame.len() {
        probe(&frame[..cut]);
        assert_eq!(
            none_or_canonical::<M>(&frame[..cut]),
            None,
            "a {cut}-byte prefix of {} decoded",
            frame.len()
        );
    }
    for tag in 0..=u8::MAX {
        let mut retagged = frame.clone();
        retagged[0] = tag;
        probe(&retagged);
    }
    // Header varints by frame shape: packed single none, `0x04` its id,
    // sparse its count, dense count · base · span.
    let headers = match frame[0] {
        0x02 | 0x04 => 1,
        0x03 => 3,
        _ => 0,
    };
    let mut at = 1;
    for _ in 0..headers {
        let mut rest = &frame[at..];
        let v = try_decode_varint(&mut rest).expect("header varint");
        for hostile in [0, 1, v.wrapping_sub(1), v + 1, u32::MAX as u64, u64::MAX] {
            let mut spliced = BytesMut::new();
            spliced.put_slice(&frame[..at]);
            encode_varint(&mut spliced, hostile);
            spliced.put_slice(rest);
            probe(&spliced);
        }
        at = frame.len() - rest.len();
    }
}

proptest! {
    #[test]
    fn codec_round_trips_scalars(a in any::<u32>(), b in any::<u64>(), c in any::<f64>(), d in any::<bool>()) {
        let mut buf = bytes::BytesMut::new();
        a.encode(&mut buf);
        b.encode(&mut buf);
        c.encode(&mut buf);
        d.encode(&mut buf);
        prop_assert_eq!(buf.len(), a.encoded_len() + b.encoded_len() + c.encoded_len() + d.encoded_len());
        let mut read = buf.freeze();
        prop_assert_eq!(u32::try_decode(&mut read), Some(a));
        prop_assert_eq!(u64::try_decode(&mut read), Some(b));
        let c2 = f64::try_decode(&mut read).unwrap();
        prop_assert!(c2 == c || (c.is_nan() && c2.is_nan()));
        prop_assert_eq!(bool::try_decode(&mut read), Some(d));
        prop_assert!(!read.has_remaining());
    }

    #[test]
    fn codec_round_trips_batches(msgs in prop::collection::vec((any::<u32>(), any::<f64>().prop_filter("finite", |f| f.is_finite())), 0..200)) {
        let buf = encode_batch(&msgs);
        let mut read = buf.freeze();
        let out: Option<Vec<(u32, f64)>> = try_decode_batch(&mut read);
        prop_assert_eq!(out, Some(msgs));
        prop_assert!(!read.has_remaining());
    }

    /// Truncating an encoded batch at *any* byte offset must yield `None`
    /// from the checked decoder — never a panic, never a short batch
    /// mistaken for a complete one.
    #[test]
    fn truncated_batches_fail_cleanly_at_every_offset(
        msgs in prop::collection::vec(
            (any::<u32>(), any::<u64>(), any::<bool>()),
            1..30,
        ),
    ) {
        let full = encode_batch(&msgs);
        for cut in 0..full.len() {
            let mut prefix = bytes::BytesMut::new();
            prefix.put_slice(&full[..cut]);
            let got = try_decode_batch::<(u32, u64, bool)>(&mut prefix.freeze());
            prop_assert_eq!(got, None, "a {}-byte prefix of {} decoded", cut, full.len());
        }
        let got = try_decode_batch::<(u32, u64, bool)>(&mut full.freeze());
        prop_assert_eq!(got, Some(msgs));
    }

    #[test]
    fn codec_round_trips_nested_vectors(v in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..8), 0..16)) {
        let mut buf = bytes::BytesMut::new();
        v.encode(&mut buf);
        prop_assert_eq!(buf.len(), v.encoded_len());
        let out = Vec::<Vec<u32>>::try_decode(&mut buf.freeze());
        prop_assert_eq!(out, Some(v));
    }

    /// Arbitrary send schedule: every message is delivered exactly once, on
    /// the opposite epoch *parity* (the transport's double-buffering
    /// guarantee — the engines' barrier discipline never lets epochs more
    /// than one apart coexist), whatever the inbox mode.
    #[test]
    fn transport_delivers_exactly_once(
        sends in prop::collection::vec(
            (0usize..4, 0usize..4, 0usize..3, prop::collection::vec(any::<u32>(), 1..5)),
            0..60,
        ),
        sharded in any::<bool>(),
    ) {
        let mode = if sharded { InboxMode::Sharded } else { InboxMode::GlobalQueue };
        let t: Transport<u32> = Transport::new(ClusterSpec::flat(2, 2), mode);
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); 2 * 4]; // [parity][worker]
        for (from, to, epoch, msgs) in &sends {
            t.send(*from, *to, msgs.clone(), *epoch);
            expected[((epoch + 1) & 1) * 4 + to].extend(msgs.iter().copied());
        }
        for parity in 0..2 {
            for worker in 0..4 {
                let mut got = t.drain(worker, parity);
                got.sort_unstable();
                let mut want = expected[parity * 4 + worker].clone();
                want.sort_unstable();
                prop_assert_eq!(got, want, "worker {} parity {}", worker, parity);
            }
        }
        prop_assert!(t.all_empty());
        let sent: usize = sends.iter().map(|(_, _, _, m)| m.len()).sum();
        prop_assert_eq!(t.counters().snapshot().messages, sent);
    }

    /// Varints round-trip any u64 and report their length exactly (the
    /// delta layer's primitive).
    #[test]
    fn varint_round_trips(vals in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = bytes::BytesMut::new();
        let mut want_len = 0;
        for &v in &vals {
            encode_varint(&mut buf, v);
            want_len += varint_len(v);
        }
        prop_assert_eq!(buf.len(), want_len);
        let mut read = buf.freeze();
        for &v in &vals {
            prop_assert_eq!(try_decode_varint(&mut read), Some(v));
        }
        prop_assert!(!read.has_remaining());
    }

    /// The adaptive ReplicaBatch round-trips arbitrary id sequences
    /// (duplicates included) as the id-sorted batch, and its encoding is a
    /// pure function of the batch *set*: any permutation encodes to
    /// byte-identical output, so byte counters stay deterministic under
    /// multi-threaded outbox merge order.
    #[test]
    fn replica_batch_round_trips_and_is_permutation_invariant(
        ids in prop::collection::vec(any::<u32>(), 0..120),
        rot in any::<usize>(),
    ) {
        let mk = |ids: &[u32]| -> Vec<ReplicaUpdate<f64>> {
            ids.iter().map(|&id| ReplicaUpdate::new(id, id as f64 * 1.5 - 3.0, true)).collect()
        };
        let mut msgs = mk(&ids);
        let mut buf = bytes::BytesMut::new();
        let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
        prop_assert_eq!(stats.legacy_len, 4 + 13 * ids.len());
        prop_assert!(buf.len() <= stats.legacy_len, "adaptive must never exceed legacy");
        // Round-trip: the decoded batch is the input sorted by replica id.
        let out = ReplicaUpdate::<f64>::wire_try_decode_batch(&mut &buf[..]).unwrap();
        let mut want = mk(&ids);
        want.sort_by_key(|m| m.replica);
        prop_assert_eq!(out, want);
        // Permutation invariance (mode-choice determinism).
        let mut rotated = ids.clone();
        if !ids.is_empty() { rotated.rotate_left(rot % ids.len()); }
        let mut msgs2 = mk(&rotated);
        let mut buf2 = bytes::BytesMut::new();
        let stats2 = ReplicaUpdate::wire_encode_batch_into(&mut buf2, &mut msgs2);
        prop_assert_eq!(&buf[..], &buf2[..]);
        prop_assert_eq!(stats.mode, stats2.mode);
    }

    /// The corruption corpus over the one view-update framing, for fixed-
    /// and variable-width payloads (`f64` draws are raw bit patterns, NaNs
    /// included: payload bytes must survive untouched).
    #[test]
    fn corrupted_update_frames_decode_to_nothing_or_to_themselves(
        ids in arb_ids(),
        salt in any::<u64>(),
        width in 0usize..4,
    ) {
        let word = |id: u32| f64::from_bits(salt.wrapping_mul(id as u64 | 1));
        corruption_corpus(&ids, word);
        corruption_corpus(&ids, |id| vec![word(id); (id as usize + width) % 4]);
    }

    /// The migration framing is not canonical (padding bytes are skipped,
    /// not kept), so its corpus asks for less: any corruption of a frame
    /// decodes or fails without a panic, reserving no more than the input.
    #[test]
    fn corrupted_migration_frames_never_panic_or_over_reserve(
        records in prop::collection::vec(
            (any::<u32>(), 0u32..8, 0u32..8, 0u8..4, any::<f64>(), 0u32..20),
            0..12,
        ),
    ) {
        let records: Vec<MigrationRecord<f64>> = records
            .into_iter()
            .map(|(vertex, from, to, flags, value, state_bytes)| MigrationRecord {
                vertex,
                from,
                to,
                active: flags & 1 != 0,
                publication: (flags & 2 != 0).then_some(value),
                state_bytes,
            })
            .collect();
        let mut frame = BytesMut::new();
        encode_migration_batch(&mut frame, &records);
        let decode = |bytes: &[u8]| {
            let out = try_decode_migration_batch::<f64>(&mut &bytes[..]);
            prop_assert!(out.as_ref().is_none_or(|r| r.capacity() <= bytes.len()));
            out
        };
        prop_assert_eq!(decode(&frame).map(|r| r.len()), Some(records.len()));
        for i in 0..frame.len() {
            prop_assert_eq!(decode(&frame[..i]), None, "a {}-byte prefix decoded", i);
            for bit in 0..8 {
                let mut flipped = frame.to_vec();
                flipped[i] ^= 1 << bit;
                decode(&flipped);
            }
        }
    }

    /// Whatever count a header claims, a decoder reserves no more elements
    /// than there are bytes left to read them from.
    #[test]
    fn reservations_are_bounded_by_the_input(count in any::<usize>(), remaining in 0usize..1 << 20) {
        prop_assert!(batch_reservation(count, remaining) <= remaining);
        prop_assert!(batch_reservation(count, remaining) <= count);
        prop_assert_eq!(batch_reservation(u64::MAX as usize, remaining), remaining);
    }

    /// Lane-partitioned drains are a partition of the full drain.
    #[test]
    fn partitioned_drain_covers_everything(
        sends in prop::collection::vec(
            (0usize..4, prop::collection::vec(any::<u32>(), 1..4)),
            0..40,
        ),
        receivers in 1usize..5,
    ) {
        let t: Transport<u32> = Transport::new(ClusterSpec::flat(4, 1), InboxMode::Sharded);
        let mut want: Vec<u32> = Vec::new();
        for (from, msgs) in &sends {
            t.send(*from, 0, msgs.clone(), 0);
            want.extend(msgs.iter().copied());
        }
        let mut got = Vec::new();
        for r in 0..receivers {
            for (_, batch) in t.drain_lanes_partitioned(0, 1, r, receivers) {
                got.extend(batch);
            }
        }
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert!(t.all_empty());
    }
}
