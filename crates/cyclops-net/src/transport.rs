//! Worker-to-worker message delivery with Hama-style and Cyclops-style
//! inbox disciplines.
//!
//! Hama buffers all incoming messages in **one global queue per worker**
//! whose enqueue must be serialized — the contention the paper blames for
//! much of the communication cost (§2.2.2, §4.1, Table 3). Cyclops instead
//! gives each sender thread its own lane in every receiver, so enqueue
//! never contends. Every lane has exactly one writer, and no two sender
//! threads target the same replica, so the `R` receiver threads of a
//! worker can split its lanes ([`Transport::drain_lanes_partitioned`]) and
//! apply them "in parallel" without locks (§4.1, §5). Every message in a
//! lane came through [`Transport::send`]; nothing else enqueues.
//!
//! Messages crossing a simulated machine boundary are round-tripped through
//! the binary [`Codec`] into real byte buffers; intra-machine sends move the
//! values directly, matching CyclopsMT's replacement of internal messages
//! with memory references (§6.10).

use crate::cluster::ClusterSpec;
use crate::codec::{WireFormat, WireMode};
use crate::metrics::RunCounters;
use crate::trace::TraceRecord;
use bytes::BytesMut;
use cyclops_obs::mem::{Component, MemScope};
use cyclops_obs::{Counter, LogLinearHistogram};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A per-message cost model for the simulated wire, after the one Yan,
/// Cheng, Lu and Ng state over counts (arXiv:1503.00626). Nothing sleeps
/// on it: a run counts its messages and bytes, and [`Self::wire_time`]
/// prices what it counted. [`ideal`] costs nothing; [`gigabit`]
/// approximates the paper's testbed (1 GigE).
///
/// [`ideal`]: NetworkModel::ideal
/// [`gigabit`]: NetworkModel::gigabit
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Simulated wire bandwidth in bytes/second; `None` = infinite.
    pub bandwidth_bytes_per_sec: Option<f64>,
    /// Fixed cost per cross-machine batch (propagation + protocol).
    pub batch_latency: Duration,
    /// Per-message software overhead (header handling, dispatch).
    pub per_message: Duration,
}

impl NetworkModel {
    /// A wire that costs nothing.
    pub fn ideal() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: None,
            batch_latency: Duration::ZERO,
            per_message: Duration::ZERO,
        }
    }

    /// Approximation of the paper's 1 GigE ports: 125 MB/s, 50 µs per
    /// batch, 100 ns of software overhead per message.
    pub fn gigabit() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: Some(125e6),
            batch_latency: Duration::from_micros(50),
            per_message: Duration::from_nanos(100),
        }
    }

    /// Transmission delay of a cross-machine batch of `messages` messages
    /// totalling `bytes` bytes.
    pub fn delay(&self, messages: usize, bytes: usize) -> Duration {
        let mut d = self.batch_latency + self.per_message * messages as u32;
        if let Some(bw) = self.bandwidth_bytes_per_sec {
            d += Duration::from_secs_f64(bytes as f64 / bw);
        }
        d
    }

    /// The modeled wire time of the traffic a trace counted: per superstep
    /// the largest per-worker sum over its comm entries (a superstep lasts
    /// as long as its slowest worker), summed over supersteps. A comm entry
    /// with `bytes > 0` costs [`Self::delay`] of its messages and bytes
    /// plus one more batch latency for each cross-machine batch past the
    /// first: the Cyclops engine counts every batch in `wire_dense` +
    /// `wire_sparse` (a bucketed superstep sends one per fused round), and
    /// the BSP engine, which counts none, sends one per destination. An
    /// intra-machine entry moved by reference and costs nothing.
    pub fn wire_time(&self, records: &[TraceRecord]) -> Duration {
        let mut per_superstep: BTreeMap<u64, Duration> = BTreeMap::new();
        for r in records {
            let worker: Duration = (r.comm.iter().filter(|e| e.bytes > 0))
                .map(|e| {
                    let batches = (e.wire_dense + e.wire_sparse).max(1);
                    self.delay(e.messages as usize, e.bytes as usize)
                        + self.batch_latency * (batches - 1) as u32
                })
                .sum();
            let slowest = per_superstep.entry(r.superstep).or_default();
            *slowest = (*slowest).max(worker);
        }
        per_superstep.values().sum()
    }
}

/// Inbox discipline: how concurrent senders enqueue into one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InboxMode {
    /// One locked queue per receiver; all senders contend (Hama, §4.1).
    GlobalQueue,
    /// One lane per `(receiver, sender)` pair; enqueue never contends
    /// (Cyclops, §4.1: "multiple sub-queues to separately cache messages").
    Sharded,
}

/// Message fabric for one engine run.
///
/// A receiver's inbox is a row of lanes: one per sender lane (sender thread
/// `worker * threads_per_worker + thread`) under [`InboxMode::Sharded`],
/// one lane shared by every sender under [`InboxMode::GlobalQueue`].
/// [`Self::send`] is the one way in and [`Self::drain_lanes_partitioned`]
/// the one way out; [`Self::drain_lanes`] and [`Self::drain`] are that walk
/// over every lane.
///
/// `Transport` is shared by reference across worker threads; all methods
/// take `&self`. Statistics are recorded into [`RunCounters`], which the
/// engine reads after each superstep.
pub struct Transport<M> {
    spec: ClusterSpec,
    mode: InboxMode,
    /// Sender lanes per worker: one per compute thread, so threads of the
    /// same worker never contend ("private out-queues", §5).
    lanes_per_worker: usize,
    /// `lanes[parity][receiver][sender lane]`: Sharded mode gives each
    /// receiver one lane per sender lane, GlobalQueue mode one lane in all
    /// (`lanes[parity][receiver][0]`). Queues are double-buffered by
    /// superstep parity: a message sent during superstep `s` must only be
    /// visible to its receiver's parse phase of superstep `s + 1`, even when
    /// workers race one superstep apart inside the barrier interval.
    lanes: [Vec<Vec<Mutex<Vec<M>>>>; 2],
    /// `dirty[parity][receiver]` — indices of lanes that may hold messages,
    /// so drains touch only active lanes instead of walking all of them
    /// (sparse frontiers would otherwise pay O(senders) per superstep).
    /// Entries may be stale or duplicated (senders record them after
    /// releasing the lane lock); drains tolerate both.
    dirty: [Vec<Mutex<Vec<u32>>>; 2],
    /// Per-sender-lane reusable encode buffers: cross-machine batches are
    /// serialized into the sender's pooled buffer instead of a fresh
    /// `BytesMut` per batch, so a warm superstep allocates nothing and the
    /// Table 2 allocation accounting drops to O(destinations), not
    /// O(messages). Each lane has exactly one sending thread, so the lock
    /// is uncontended.
    pool: Vec<Mutex<BytesMut>>,
    counters: RunCounters,
    /// Registry handles resolved once at construction; `None` (no global
    /// registry installed) costs the hot path one `Option` check.
    obs: Option<TransportObs>,
    /// Worker-pair counters resolved once at construction; `None` costs
    /// one `Option` check per send, like `obs`.
    comm_obs: Option<CommObs>,
}

/// Distribution-shape metrics for the fabric: totals tell you *how much*
/// crossed the wire, these tell you *in what shape* (message-size skew and
/// queue-depth skew are what explain communication wins — cf. Pregel+).
struct TransportObs {
    /// `cyclops_messages_total{mode}`.
    messages_total: Arc<Counter>,
    /// `cyclops_wire_bytes_total{mode}`.
    wire_bytes_total: Arc<Counter>,
    /// `cyclops_wire_batch_bytes{mode}` — encoded size per cross-machine batch.
    batch_bytes: Arc<LogLinearHistogram>,
    /// `cyclops_message_bytes{mode}` — mean encoded size per message,
    /// weighted by batch population.
    message_bytes: Arc<LogLinearHistogram>,
    /// `cyclops_inbox_lane_depth{mode}` — messages per lane at drain time.
    lane_depth: Arc<LogLinearHistogram>,
    /// `cyclops_send_alloc_bytes{mode}` — bytes *allocated* per
    /// cross-machine batch: the capacity growth of the sender lane's pooled
    /// buffer. A warm run records almost all zeros.
    send_alloc_bytes: Arc<LogLinearHistogram>,
    /// `cyclops_wire_mode_batches{mode,wire_mode}` — cross-machine batches
    /// per adaptive encoding mode (`legacy` / `sparse` / `dense`), indexed
    /// here by [`WireMode`] discriminant order.
    wire_mode_batches: [Arc<Counter>; 3],
    /// `cyclops_wire_bytes_saved{mode}` — bytes the adaptive encoding saved
    /// versus legacy fixed-width framing of the same batches.
    wire_bytes_saved: Arc<Counter>,
}

fn wire_mode_index(mode: WireMode) -> usize {
    match mode {
        WireMode::Legacy => 0,
        WireMode::Sparse => 1,
        WireMode::Dense => 2,
    }
}

/// Worker-pair traffic counters: `cyclops_comm_pair_{messages,bytes}_total
/// {src,dst}` — the live (Prometheus) face of the per-record communication
/// matrix. The full `workers²` family is resolved once, at construction,
/// and indexed flat by `src * workers + dst`; the send path pays two
/// counter adds per batch.
struct CommObs {
    workers: usize,
    pair_messages: Vec<Arc<Counter>>,
    pair_bytes: Vec<Arc<Counter>>,
}

impl CommObs {
    fn resolve(workers: usize) -> Option<CommObs> {
        let reg = cyclops_obs::global()?;
        let mut pair_messages = Vec::with_capacity(workers * workers);
        let mut pair_bytes = Vec::with_capacity(workers * workers);
        for src in 0..workers {
            let src = src.to_string();
            for dst in 0..workers {
                let dst = dst.to_string();
                let labels = [("src", src.as_str()), ("dst", dst.as_str())];
                pair_messages.push(reg.counter("cyclops_comm_pair_messages_total", &labels));
                pair_bytes.push(reg.counter("cyclops_comm_pair_bytes", &labels));
            }
        }
        Some(CommObs {
            workers,
            pair_messages,
            pair_bytes,
        })
    }

    #[inline]
    fn record(&self, src: usize, dst: usize, messages: u64, bytes: u64) {
        let idx = src * self.workers + dst;
        self.pair_messages[idx].inc(messages);
        if bytes > 0 {
            self.pair_bytes[idx].inc(bytes);
        }
    }
}

impl TransportObs {
    fn resolve(mode: InboxMode) -> Option<TransportObs> {
        let reg = cyclops_obs::global()?;
        let labels = [(
            "mode",
            match mode {
                InboxMode::GlobalQueue => "global_queue",
                InboxMode::Sharded => "sharded",
            },
        )];
        let wire_mode_batches = [WireMode::Legacy, WireMode::Sparse, WireMode::Dense].map(|wm| {
            reg.counter(
                "cyclops_wire_mode_batches",
                &[labels[0], ("wire_mode", wm.label())],
            )
        });
        Some(TransportObs {
            messages_total: reg.counter("cyclops_messages_total", &labels),
            wire_bytes_total: reg.counter("cyclops_wire_bytes_total", &labels),
            batch_bytes: reg.histogram("cyclops_wire_batch_bytes", &labels),
            message_bytes: reg.histogram("cyclops_message_bytes", &labels),
            lane_depth: reg.histogram("cyclops_inbox_lane_depth", &labels),
            send_alloc_bytes: reg.histogram("cyclops_send_alloc_bytes", &labels),
            wire_mode_batches,
            wire_bytes_saved: reg.counter("cyclops_wire_bytes_saved", &labels),
        })
    }
}

/// What one [`Transport::send`] did on the wire: the encoded byte count
/// (0 for intra-machine by-value moves) and, for cross-machine batches, the
/// adaptive encoding mode the [`WireFormat`] chose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendReceipt {
    /// Cross-machine wire bytes of this batch (0 intra-machine).
    pub bytes: usize,
    /// Encoding mode of a cross-machine batch; `None` intra-machine.
    pub wire_mode: Option<WireMode>,
}

impl SendReceipt {
    /// This batch's `Flush` span arguments: `to`, the wire bytes, and the wire
    /// mode, 0 intra-machine, else 1 + [`wire_mode_index`].
    pub fn flush_span(&self, to: usize) -> [u64; 3] {
        let mode = self.wire_mode.map_or(0, |m| 1 + wire_mode_index(m) as u64);
        [to as u64, self.bytes as u64, mode]
    }
}

impl<M: WireFormat + Send> Transport<M> {
    /// Creates a transport for `spec.num_workers()` workers with
    /// `spec.threads_per_worker` private sender lanes per worker.
    pub fn new(spec: ClusterSpec, mode: InboxMode) -> Self {
        let w = spec.num_workers();
        let lanes_per_receiver = match mode {
            InboxMode::GlobalQueue => 1,
            InboxMode::Sharded => w * spec.threads_per_worker,
        };
        let make = || {
            (0..w)
                .map(|_| {
                    (0..lanes_per_receiver)
                        .map(|_| Mutex::new(Vec::new()))
                        .collect()
                })
                .collect()
        };
        let make_dirty = || (0..w).map(|_| Mutex::new(Vec::new())).collect();
        let pool = (0..w * spec.threads_per_worker)
            .map(|_| Mutex::new(BytesMut::new()))
            .collect();
        Transport {
            spec,
            mode,
            lanes_per_worker: spec.threads_per_worker,
            lanes: [make(), make()],
            dirty: [make_dirty(), make_dirty()],
            pool,
            counters: RunCounters::default(),
            obs: TransportObs::resolve(mode),
            comm_obs: CommObs::resolve(w),
        }
    }

    /// The cluster topology this transport serves.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The shared statistics counters.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// Sends a batch of messages from sender lane `from` to worker `to`
    /// during superstep `epoch`; the batch becomes visible to [`Self::drain`]
    /// calls for epoch `epoch + 1`. A sender lane is
    /// `worker * threads_per_worker + thread`; for single-threaded workers
    /// it is just the worker id.
    ///
    /// Cross-machine batches are serialized into a byte buffer and decoded
    /// on arrival (both real work); intra-machine batches move by value.
    /// Returns a [`SendReceipt`] with the wire bytes (0 for intra-machine
    /// sends) and the adaptive encoding mode the message type's
    /// [`WireFormat`] chose for the batch.
    pub fn send(&self, from: usize, to: usize, msgs: Vec<M>, epoch: usize) -> SendReceipt {
        if msgs.is_empty() {
            return SendReceipt::default();
        }
        let from_worker = from / self.lanes_per_worker;
        let count = msgs.len();
        self.counters.add_messages(count);
        let (payload, receipt, alloc, saved) = if self.spec.crosses_machines(from_worker, to) {
            // Encode-buffer growth is send-pool bytes for the tracking
            // allocator.
            let _mem = MemScope::enter(Component::SendPool);
            let mut msgs = msgs;
            // Serialize into this sender lane's pooled buffer: only capacity
            // *growth* is a real allocation, and a warm buffer never grows
            // again. Decoding runs over a borrowed slice so the pooled
            // allocation survives for the next batch.
            let mut buf = self.pool[from].lock();
            let stats = M::wire_encode_batch_into(&mut buf, &mut msgs);
            let (bytes, alloc) = (buf.len(), stats.grown);
            drop(msgs);
            // The checked decoder turns a framing bug into a diagnosable
            // panic instead of an out-of-bounds read deep in the codec.
            let decoded = M::wire_try_decode_batch(&mut &buf[..])
                .expect("simulated wire corrupted: the frame just encoded did not decode");
            drop(buf);
            self.counters.add_bytes(bytes);
            if alloc > 0 {
                self.counters.add_alloc(alloc);
            }
            let saved = stats.legacy_len.saturating_sub(bytes);
            self.counters.add_wire_batch(stats.mode, saved);
            let receipt = SendReceipt {
                bytes,
                wire_mode: Some(stats.mode),
            };
            (decoded, receipt, alloc, saved)
        } else {
            (msgs, SendReceipt::default(), 0, 0)
        };
        let bytes = receipt.bytes;
        if let Some(obs) = &self.obs {
            obs.messages_total.inc(count as u64);
            if bytes > 0 {
                obs.wire_bytes_total.inc(bytes as u64);
                obs.batch_bytes.record(bytes as u64);
                obs.message_bytes
                    .record_n((bytes / count) as u64, count as u64);
                obs.send_alloc_bytes.record(alloc as u64);
            }
            if let Some(mode) = receipt.wire_mode {
                obs.wire_mode_batches[wire_mode_index(mode)].inc(1);
                if saved > 0 {
                    obs.wire_bytes_saved.inc(saved as u64);
                }
            }
        }
        let parity = (epoch + 1) & 1;
        let lane_idx = match self.mode {
            InboxMode::GlobalQueue => 0,
            InboxMode::Sharded => from,
        };
        let lane = &self.lanes[parity][to][lane_idx];
        self.counters
            .queue_enter(payload.len(), std::mem::size_of::<M>());
        // Inbox-lane queue growth is charged to the Inbox component.
        let _mem = MemScope::enter(Component::Inbox);
        // try_lock first so contended acquisitions are observable — the
        // effect Table 3 measures.
        let was_empty = match lane.try_lock() {
            Some(mut q) => {
                let was = q.is_empty();
                q.extend(payload);
                was
            }
            None => {
                self.counters.add_contention();
                let mut q = lane.lock();
                let was = q.is_empty();
                q.extend(payload);
                was
            }
        };
        if was_empty {
            // Outside the lane lock (no lock-order cycle with drains); a
            // racing drain may leave this entry stale, which drains tolerate.
            self.dirty[parity][to].lock().push(lane_idx as u32);
        }
        if let Some(comm) = &self.comm_obs {
            comm.record(from_worker, to, count as u64, bytes as u64);
        }
        receipt
    }

    /// Drains everything queued for worker `to`'s superstep `epoch`, in
    /// sender-lane order: [`Self::drain_lanes`] flattened, a single lane's
    /// batch returned as it is.
    pub fn drain(&self, to: usize, epoch: usize) -> Vec<M> {
        let mut lanes = self
            .drain_lanes(to, epoch)
            .into_iter()
            .map(|(_, batch)| batch);
        let mut out = lanes.next().unwrap_or_default();
        for mut batch in lanes {
            out.append(&mut batch);
        }
        out
    }

    /// Drains worker `to`'s epoch-`epoch` inbox lane by lane as
    /// `(sender lane, batch)` pairs, ascending by lane, empty lanes skipped.
    /// GlobalQueue mode has one lane per receiver, reported as sender 0.
    pub fn drain_lanes(&self, to: usize, epoch: usize) -> Vec<(usize, Vec<M>)> {
        self.drain_lanes_partitioned(to, epoch, 0, 1)
    }

    /// Drains the subset of worker `to`'s epoch-`epoch` lanes whose index is
    /// congruent to `part` modulo `parts` — how `R` receiver threads split
    /// the inbound lanes among themselves (§5). Each lane has one sending
    /// thread, so the batches of different parts touch disjoint replicas.
    pub fn drain_lanes_partitioned(
        &self,
        to: usize,
        epoch: usize,
        part: usize,
        parts: usize,
    ) -> Vec<(usize, Vec<M>)> {
        // Claim this receiver's share of the dirty-lane registry.
        let mut mine = Vec::new();
        {
            let mut dirty = self.dirty[epoch & 1][to].lock();
            dirty.retain(|&lane| {
                if lane as usize % parts == part {
                    mine.push(lane);
                    false
                } else {
                    true
                }
            });
        }
        mine.sort_unstable();
        mine.dedup();
        mine.into_iter()
            .filter_map(|sender| {
                let batch = std::mem::take(&mut *self.lanes[epoch & 1][to][sender as usize].lock());
                if batch.is_empty() {
                    None
                } else {
                    self.counters.queue_leave(batch.len());
                    if let Some(obs) = &self.obs {
                        obs.lane_depth.record(batch.len() as u64);
                    }
                    Some((sender as usize, batch))
                }
            })
            .collect()
    }

    /// True if no worker has pending messages in either parity. O(1): reads
    /// the in-flight gauge instead of walking every lane (engines call this
    /// once per superstep inside the barrier).
    pub fn all_empty(&self) -> bool {
        self.counters
            .inflight_messages
            .load(std::sync::atomic::Ordering::Relaxed)
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::flat(2, 2) // workers 0,1 on machine 0; 2,3 on machine 1
    }

    #[test]
    fn intra_machine_send_is_byte_free() {
        let t: Transport<(u32, f64)> = Transport::new(spec(), InboxMode::Sharded);
        let receipt = t.send(0, 1, vec![(5, 1.5)], 0);
        assert_eq!(receipt, SendReceipt::default());
        assert_eq!(t.counters().snapshot().bytes, 0);
        assert_eq!(t.drain(1, 1), vec![(5, 1.5)]);
    }

    #[test]
    fn cross_machine_send_serializes() {
        let t: Transport<(u32, f64)> = Transport::new(spec(), InboxMode::Sharded);
        let receipt = t.send(0, 2, vec![(5, 1.5), (6, 2.5)], 0);
        assert_eq!(receipt.bytes, 4 + 2 * 12); // batch length prefix + 2 * (u32+f64)
        assert_eq!(receipt.wire_mode, Some(WireMode::Legacy)); // tuples have no adaptive format
        assert_eq!(t.drain(2, 1), vec![(5, 1.5), (6, 2.5)]);
        let snap = t.counters().snapshot();
        assert_eq!(snap.bytes, receipt.bytes);
        assert_eq!(snap.wire_legacy_batches, 1);
        assert_eq!(snap.wire_saved_bytes, 0, "legacy framing saves nothing");
    }

    #[test]
    fn adaptive_replica_batches_report_their_mode_and_savings() {
        use crate::codec::ReplicaUpdate;
        let t: Transport<ReplicaUpdate<f64>> = Transport::new(spec(), InboxMode::Sharded);
        // Contiguous ids → dense bitmap mode; scattered ids → sparse varints.
        let dense: Vec<_> = (0..100)
            .map(|i| ReplicaUpdate::new(i, i as f64, true))
            .collect();
        let sparse: Vec<_> = (0..8)
            .map(|i| ReplicaUpdate::new(i * 1_000_003, i as f64, true))
            .collect();
        let rd = t.send(0, 2, dense.clone(), 0);
        let rs = t.send(0, 2, sparse.clone(), 0);
        assert_eq!(rd.wire_mode, Some(WireMode::Dense));
        assert_eq!(rs.wire_mode, Some(WireMode::Sparse));
        let snap = t.counters().snapshot();
        assert_eq!(snap.wire_dense_batches, 1);
        assert_eq!(snap.wire_sparse_batches, 1);
        let legacy = (4 + 13 * dense.len()) + (4 + 13 * sparse.len());
        assert_eq!(snap.wire_saved_bytes, legacy - snap.bytes);
        assert!(snap.wire_saved_bytes > 0, "adaptive modes must beat legacy");
        // Delivery is unchanged: the decoded batch is the id-sorted input.
        let mut got = t.drain(2, 1);
        got.sort_by_key(|m| m.replica);
        let mut want = dense;
        want.extend(sparse);
        want.sort_by_key(|m| m.replica);
        assert_eq!(got, want);
    }

    #[test]
    fn pooled_sends_allocate_once_per_lane() {
        let t: Transport<(u32, f64)> = Transport::new(spec(), InboxMode::Sharded);
        let batch: Vec<(u32, f64)> = (0..64).map(|i| (i, i as f64)).collect();
        for epoch in 0..10 {
            t.send(0, 2, batch.clone(), epoch);
            let got = t.drain(2, epoch + 1);
            assert_eq!(got, batch, "epoch {epoch} round trip");
        }
        let snap = t.counters().snapshot();
        let one_batch = 4 + 64 * 12;
        assert_eq!(snap.bytes, 10 * one_batch, "wire bytes scale with sends");
        assert!(
            snap.message_bytes_allocated as usize <= 2 * one_batch,
            "warm pooled lane must stop allocating: allocated {} vs wire {}",
            snap.message_bytes_allocated,
            snap.bytes
        );
        assert!(snap.message_bytes_allocated > 0, "cold buffer did allocate");
    }

    #[test]
    fn peak_queue_bytes_is_the_in_flight_high_water_mark() {
        let t: Transport<(u32, f64)> = Transport::new(spec(), InboxMode::Sharded);
        let size = std::mem::size_of::<(u32, f64)>() as u64;
        t.send(0, 1, vec![(1, 1.0); 3], 0);
        t.send(2, 3, vec![(2, 2.0); 5], 0);
        assert_eq!(t.drain(1, 1).len() + t.drain(3, 1).len(), 8);
        t.send(0, 3, vec![(3, 3.0); 2], 1);
        assert_eq!(t.drain(3, 2).len(), 2);
        let snap = t.counters().snapshot();
        assert_eq!(snap.peak_queue_bytes, 8 * size);
        assert_eq!(snap.peak_queue_messages, 8);
    }

    #[test]
    fn empty_send_is_free() {
        let t: Transport<u32> = Transport::new(spec(), InboxMode::GlobalQueue);
        assert_eq!(t.send(0, 1, vec![], 0), SendReceipt::default());
        assert_eq!(t.counters().snapshot().messages, 0);
    }

    #[test]
    fn sends_are_invisible_to_same_epoch_drain() {
        let t: Transport<u32> = Transport::new(spec(), InboxMode::Sharded);
        t.send(0, 1, vec![7], 4);
        assert!(t.drain(1, 4).is_empty(), "epoch-4 send visible at epoch 4");
        assert_eq!(t.drain(1, 5), vec![7]);
    }

    #[test]
    fn drain_lanes_reports_senders() {
        let t: Transport<u32> = Transport::new(spec(), InboxMode::Sharded);
        t.send(3, 0, vec![30], 0);
        t.send(1, 0, vec![10, 11], 0);
        let lanes = t.drain_lanes(0, 1);
        assert_eq!(lanes, vec![(1, vec![10, 11]), (3, vec![30])]);
        assert!(t.all_empty());
    }

    #[test]
    fn global_queue_merges_senders() {
        let t: Transport<u32> = Transport::new(spec(), InboxMode::GlobalQueue);
        t.send(1, 0, vec![1], 0);
        t.send(2, 0, vec![2], 0);
        let lanes = t.drain_lanes(0, 1);
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].1.len(), 2);
    }

    #[test]
    fn message_counter_counts_everything() {
        let t: Transport<u32> = Transport::new(spec(), InboxMode::GlobalQueue);
        t.send(0, 3, vec![1, 2, 3], 0);
        t.send(0, 1, vec![4], 0);
        assert_eq!(t.counters().snapshot().messages, 4);
    }

    #[test]
    fn network_model_delay_math() {
        let ideal = NetworkModel::ideal();
        assert_eq!(ideal.delay(1000, 1 << 20), Duration::ZERO);
        let gig = NetworkModel::gigabit();
        // 125 MB across a 125 MB/s wire = 1s, plus overheads.
        let d = gig.delay(0, 125_000_000);
        assert!(d >= Duration::from_secs(1));
        assert!(d < Duration::from_millis(1100));
        // Per-message overhead accumulates.
        assert!(gig.delay(10_000, 0) >= Duration::from_millis(1));
    }

    /// A record of `worker` in `superstep` with one comm entry per
    /// `(dst, messages, bytes)`.
    fn sent(superstep: u64, worker: u64, comm: &[(u32, u64, u64)]) -> TraceRecord {
        TraceRecord {
            superstep,
            worker,
            comm: (comm.iter())
                .map(|&(dst, messages, bytes)| crate::trace::CommEntry {
                    dst,
                    messages,
                    bytes,
                    ..Default::default()
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn wire_time_prices_the_counted_traffic() {
        // 1 µs per batch, 10 ns per message, 1 byte per µs.
        let model = NetworkModel {
            bandwidth_bytes_per_sec: Some(1e6),
            batch_latency: Duration::from_micros(1),
            per_message: Duration::from_nanos(10),
        };
        let us = Duration::from_micros;
        // One batch of 100 messages and 50 bytes: 1 + 1 + 50 µs.
        let one = [sent(0, 0, &[(1, 100, 50)])];
        assert_eq!(model.wire_time(&one), us(52));
        // The ideal wire costs nothing, whatever was sent.
        assert_eq!(NetworkModel::ideal().wire_time(&one), Duration::ZERO);
        // An intra-machine entry moved by reference: no bytes, no cost.
        assert_eq!(
            model.wire_time(&[sent(0, 0, &[(1, 100, 0)])]),
            Duration::ZERO
        );
        // A superstep costs its slowest worker: worker 0 sends two batches
        // (52 + 12 µs), worker 1 one batch (22 µs).
        let step = [
            sent(0, 0, &[(1, 100, 50), (2, 100, 10)]),
            sent(0, 1, &[(0, 100, 20), (2, 7, 0)]),
        ];
        assert_eq!(model.wire_time(&step), us(64));
        // Supersteps add up, in any record order.
        let run = [
            sent(1, 1, &[(0, 100, 20)]),
            step[0].clone(),
            step[1].clone(),
        ];
        assert_eq!(model.wire_time(&run), us(64) + us(22));
        // A bucketed superstep sends one batch per fused round: three
        // counted batches pay three latencies, 52 + 2 µs.
        let mut rounds = sent(0, 0, &[(1, 100, 50)]);
        (rounds.comm[0].wire_dense, rounds.comm[0].wire_sparse) = (1, 2);
        assert_eq!(model.wire_time(&[rounds]), us(54));
    }

    #[test]
    fn concurrent_sharded_sends_do_not_contend() {
        let t: Transport<u64> = Transport::new(ClusterSpec::flat(4, 1), InboxMode::Sharded);
        std::thread::scope(|s| {
            for sender in 0..4usize {
                let t = &t;
                s.spawn(move || {
                    for i in 0..2000u64 {
                        t.send(sender, 3, vec![i], 0);
                    }
                });
            }
        });
        assert_eq!(t.drain(3, 1).len(), 8000);
        // Each sender has its own lane: no contention possible.
        assert_eq!(t.counters().snapshot().lock_contentions, 0);
    }

    #[test]
    fn concurrent_global_queue_sends_all_arrive() {
        let t: Transport<u64> = Transport::new(ClusterSpec::flat(4, 1), InboxMode::GlobalQueue);
        std::thread::scope(|s| {
            for sender in 0..4usize {
                let t = &t;
                s.spawn(move || {
                    for i in 0..2000u64 {
                        t.send(sender, 3, vec![i], 0);
                    }
                });
            }
        });
        assert_eq!(t.drain(3, 1).len(), 8000);
        // Contention is probabilistic; we only require delivery correctness
        // here. Table 3's bench demonstrates the contention differential.
    }
}
