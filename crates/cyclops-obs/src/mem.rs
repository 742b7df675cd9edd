//! Memory observability: a tagged tracking allocator with per-component,
//! per-worker accounting.
//!
//! Cyclops' distributed immutable view trades memory for communication —
//! replicas cost resident bytes so that supersteps cost fewer messages —
//! yet every other instrument in this repo measures time or wire traffic.
//! This module measures the bytes. It has two halves:
//!
//! - [`MemAlloc`]: a `#[global_allocator]` wrapper over [`System`] that the
//!   binaries install unconditionally. **Disarmed** (the default) it is a
//!   pure pass-through: the only cost on the allocation path is a single
//!   relaxed `AtomicBool` load — no atomic read-modify-write, no locks, no
//!   TLS access (the `mem_tracking` criterion group pins this). **Armed**
//!   (via [`arm`], the CLI's `--mem`) every allocation is attributed to the
//!   active [`Component`] of the calling thread and added to live/peak
//!   counters, and the pointer is remembered in a sharded side table so the
//!   matching deallocation is charged back to the component that allocated
//!   it — even when the free happens under a different scope or thread.
//!   That exactness is what lets tests pin tracked bytes against the static
//!   audit `CyclopsPlan::memory_breakdown()`.
//! - [`MemScope`]: an RAII thread-local scope. Instrumented code brackets
//!   the construction of long-lived structures with
//!   `MemScope::enter(Component::…)`; engine threads additionally tag
//!   themselves with [`MemScope::worker`] so the accounting splits per
//!   worker. Scope switches are two `Cell` writes — no atomics — so scopes
//!   are cheap enough to leave on steady-state paths (the transport's send
//!   pool, inbox lanes).
//!
//! Samples taken at superstep barriers ([`sample`]) snapshot the counters
//! plus `/proc/self/status` VmRSS/VmHWM (gracefully absent off Linux) and
//! are appended to the trace as `{"mem":…}` JSONL lines *beside* the
//! deterministic records, exactly like flight spans: `trace-diff` never
//! sees them, so `--mem` runs stay trace-identical.
//!
//! Reentrancy: the tracker's own allocations (side-table growth, sample
//! vectors) are guarded by a thread-local flag and bypass accounting, so
//! the allocator never recurses into itself and never re-enters a shard
//! lock it already holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// What a tracked allocation is *for*. Every long-lived structure in the
/// system picks one; anything unbracketed lands in [`Component::Other`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// The input graph's CSR arrays.
    Graph,
    /// The immutable-view plan: master lists, in-edge CSRs, activation
    /// fan-out, work-mass tables — everything except the replica and
    /// direct-slot tables below.
    Plan,
    /// Replica machinery: replica id lists, replica activation CSRs, the
    /// sender table (every boundary master's remote fan-out: one entry per
    /// mirror worker of a replicated master, one per cross-worker edge of a
    /// messaged one) — and each worker's immutable view, the one array of
    /// publication slots (masters, replicas, direct slots) every gather
    /// reads.
    Replicas,
    /// Hybrid-replication direct-message machinery on the receiving side:
    /// slot source/target tables. The slots' values live in the view and
    /// their senders' entries in the sender table, both under
    /// [`Component::Replicas`].
    DirectSlots,
    /// The transport's pooled per-lane encode buffers and engine outboxes.
    SendPool,
    /// The transport's double-buffered inbox lanes.
    Inbox,
    /// Frontier structures (the per-worker activation bitmaps).
    Frontier,
    /// Trace sink rings, flight rings, and sampling overhead.
    Trace,
    /// Everything not bracketed by a scope.
    Other,
}

/// Number of [`Component`] variants.
pub const NUM_COMPONENTS: usize = 9;

impl Component {
    /// Every component, in serialization order ([`Component::Other`] last).
    pub const ALL: [Component; NUM_COMPONENTS] = [
        Component::Graph,
        Component::Plan,
        Component::Replicas,
        Component::DirectSlots,
        Component::SendPool,
        Component::Inbox,
        Component::Frontier,
        Component::Trace,
        Component::Other,
    ];

    /// Short stable label used in JSONL lines and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Component::Graph => "graph",
            Component::Plan => "plan",
            Component::Replicas => "replicas",
            Component::DirectSlots => "direct_slots",
            Component::SendPool => "send_pool",
            Component::Inbox => "inbox",
            Component::Frontier => "frontier",
            Component::Trace => "trace",
            Component::Other => "other",
        }
    }

    /// Inverse of [`Component::name`].
    pub fn parse(name: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.name() == name)
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Worker slots in the accounting table: slot 0 holds allocations from
/// untagged threads (the main thread, loaders); slots `1..` hold workers
/// `0..`. Workers past the last slot fold into it — simulated clusters here
/// are far smaller.
const WORKER_SLOTS: usize = 65;
const CELLS: usize = WORKER_SLOTS * NUM_COMPONENTS;

/// Thread tag: `slot << 4 | component`. Component [`Component::Other`] in
/// slot 0 is the untagged default.
const DEFAULT_TAG: u16 = (Component::Other as u16) & 0xF;

thread_local! {
    static TAG: Cell<u16> = const { Cell::new(DEFAULT_TAG) };
    static IN_TRACKER: Cell<bool> = const { Cell::new(false) };
}

static ARMED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_I64: AtomicI64 = AtomicI64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);

/// Live bytes per `(worker slot, component)` cell.
static LIVE: [AtomicI64; CELLS] = [ZERO_I64; CELLS];
/// High-water mark per cell, monotone under [`reset_peaks`].
static PEAK: [AtomicU64; CELLS] = [ZERO_U64; CELLS];
/// Process-wide live bytes per component (sum over slots, maintained
/// directly so its peak is a true process-wide high-water mark).
static TOTAL_LIVE: [AtomicI64; NUM_COMPONENTS] = [ZERO_I64; NUM_COMPONENTS];
/// Process-wide high-water mark per component.
static TOTAL_PEAK: [AtomicU64; NUM_COMPONENTS] = [ZERO_U64; NUM_COMPONENTS];

/// A trivial non-randomized hasher for the pointer side table: pointers are
/// already well distributed, and the std `RandomState` initializes lazy TLS
/// — which must never happen inside a global allocator (a thread tearing
/// down its TLS may still free memory).
#[derive(Default)]
struct PtrHasher(u64);

impl Hasher for PtrHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.0 = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type PtrMap = HashMap<usize, u16, BuildHasherDefault<PtrHasher>>;

const NUM_SHARDS: usize = 64;
#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SHARD: Mutex<Option<PtrMap>> = Mutex::new(None);
/// ptr → tag side table, sharded to keep armed-mode contention low.
static SHARDS: [Mutex<Option<PtrMap>>; NUM_SHARDS] = [EMPTY_SHARD; NUM_SHARDS];

#[inline]
fn shard_of(ptr: usize) -> &'static Mutex<Option<PtrMap>> {
    let h = (ptr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    &SHARDS[(h >> 58) as usize % NUM_SHARDS]
}

/// Arms the tracker. One-way: there is no disarm, so live counts can never
/// be skewed by frees of allocations the tracker stopped watching.
/// Idempotent; typically called once from `main` when `--mem` is present.
pub fn arm() {
    ARMED.store(true, Ordering::SeqCst);
}

/// Whether the tracking allocator is currently attributing allocations.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

#[inline]
fn charge(tag: u16, delta: i64) {
    let slot = (tag >> 4) as usize;
    let comp = (tag & 0xF) as usize % NUM_COMPONENTS;
    let cell = slot.min(WORKER_SLOTS - 1) * NUM_COMPONENTS + comp;
    let live = LIVE[cell].fetch_add(delta, Ordering::Relaxed) + delta;
    let total = TOTAL_LIVE[comp].fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 {
        PEAK[cell].fetch_max(live.max(0) as u64, Ordering::Relaxed);
        TOTAL_PEAK[comp].fetch_max(total.max(0) as u64, Ordering::Relaxed);
    }
}

fn track_alloc(ptr: *mut u8, size: usize) {
    // `try_with` + reentrancy flag: never recurse (the side table itself
    // allocates) and never touch destroyed TLS during thread teardown.
    let _ = IN_TRACKER.try_with(|flag| {
        if flag.get() {
            return;
        }
        flag.set(true);
        let tag = TAG.try_with(Cell::get).unwrap_or(DEFAULT_TAG);
        charge(tag, size as i64);
        let mut shard = shard_of(ptr as usize)
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        shard
            .get_or_insert_with(PtrMap::default)
            .insert(ptr as usize, tag);
        drop(shard);
        flag.set(false);
    });
}

fn track_dealloc(ptr: *mut u8, size: usize) {
    let _ = IN_TRACKER.try_with(|flag| {
        if flag.get() {
            return;
        }
        flag.set(true);
        let tag = {
            let mut shard = shard_of(ptr as usize)
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            shard.as_mut().and_then(|m| m.remove(&(ptr as usize)))
        };
        // Absent ⇒ allocated before arming: charge nothing, keeping live
        // counts exact instead of drifting negative.
        if let Some(tag) = tag {
            charge(tag, -(size as i64));
        }
        flag.set(false);
    });
}

/// The tracking allocator. Install in a binary with
/// `#[global_allocator] static A: cyclops_obs::MemAlloc = cyclops_obs::MemAlloc;`
/// — a pure [`System`] pass-through until [`arm`] is called.
pub struct MemAlloc;

// SAFETY: delegates every operation to `System` unchanged; the tracking
// side effects never touch the returned memory.
unsafe impl GlobalAlloc for MemAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if ARMED.load(Ordering::Relaxed) && !ptr.is_null() {
            track_alloc(ptr, layout.size());
        }
        ptr
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if ARMED.load(Ordering::Relaxed) && !ptr.is_null() {
            track_alloc(ptr, layout.size());
        }
        ptr
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            track_dealloc(ptr, layout.size());
        }
        System.dealloc(ptr, layout);
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if ARMED.load(Ordering::Relaxed) && !new_ptr.is_null() {
            track_dealloc(ptr, layout.size());
            track_alloc(new_ptr, new_size);
        }
        new_ptr
    }
}

/// RAII scope tag. While the guard lives, allocations on this thread are
/// attributed to the entered component (and, after [`MemScope::worker`], to
/// that worker's accounting slot). Guards nest; drop restores the previous
/// tag. Cost: two `Cell` writes, armed or not.
pub struct MemScope {
    prev: u16,
}

impl MemScope {
    /// Attributes subsequent allocations on this thread to `component`,
    /// keeping the current worker tag.
    #[inline]
    pub fn enter(component: Component) -> MemScope {
        let prev = TAG
            .try_with(|t| {
                let p = t.get();
                t.set((p & !0xF) | component.index() as u16);
                p
            })
            .unwrap_or(DEFAULT_TAG);
        MemScope { prev }
    }

    /// Tags this thread as belonging to worker `w` (call once at the top of
    /// a worker loop), keeping the current component.
    #[inline]
    pub fn worker(w: usize) -> MemScope {
        let slot = (w + 1).min(WORKER_SLOTS - 1) as u16;
        let prev = TAG
            .try_with(|t| {
                let p = t.get();
                t.set((slot << 4) | (p & 0xF));
                p
            })
            .unwrap_or(DEFAULT_TAG);
        MemScope { prev }
    }
}

impl Drop for MemScope {
    #[inline]
    fn drop(&mut self) {
        let _ = TAG.try_with(|t| t.set(self.prev));
    }
}

/// Process-wide live bytes currently attributed to `component`.
pub fn live_bytes(component: Component) -> i64 {
    TOTAL_LIVE[component.index()].load(Ordering::Relaxed)
}

/// Process-wide high-water mark of bytes attributed to `component`.
pub fn peak_bytes(component: Component) -> u64 {
    TOTAL_PEAK[component.index()].load(Ordering::Relaxed)
}

/// Live bytes attributed to (`worker`, `component`). Worker `None` reads
/// the untagged slot.
pub fn worker_live_bytes(worker: Option<usize>, component: Component) -> i64 {
    let slot = worker.map_or(0, |w| (w + 1).min(WORKER_SLOTS - 1));
    LIVE[slot * NUM_COMPONENTS + component.index()].load(Ordering::Relaxed)
}

/// High-water mark for (`worker`, `component`). Worker `None` reads the
/// untagged slot.
pub fn worker_peak_bytes(worker: Option<usize>, component: Component) -> u64 {
    let slot = worker.map_or(0, |w| (w + 1).min(WORKER_SLOTS - 1));
    PEAK[slot * NUM_COMPONENTS + component.index()].load(Ordering::Relaxed)
}

/// Collapses every high-water mark down to the current live value, so a
/// subsequent phase measures its own peaks. Test isolation helper.
pub fn reset_peaks() {
    for slot in 0..WORKER_SLOTS {
        for comp in 0..NUM_COMPONENTS {
            let cell = slot * NUM_COMPONENTS + comp;
            let live = LIVE[cell].load(Ordering::Relaxed).max(0) as u64;
            PEAK[cell].store(live, Ordering::Relaxed);
        }
    }
    for comp in 0..NUM_COMPONENTS {
        let live = TOTAL_LIVE[comp].load(Ordering::Relaxed).max(0) as u64;
        TOTAL_PEAK[comp].store(live, Ordering::Relaxed);
    }
}

/// One barrier-time snapshot of a worker's accounting slot (or, for
/// `worker == u32::MAX`, the untagged slot), destined for a `{"mem":…}`
/// trace line. `rss_kb`/`hwm_kb` are `0` when not sampled on this record or
/// unavailable on this platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemSample {
    /// Superstep the barrier closed.
    pub superstep: u64,
    /// Worker id, or `u32::MAX` for the untagged slot.
    pub worker: u32,
    /// Live bytes per component, [`Component::ALL`] order.
    pub live: [i64; NUM_COMPONENTS],
    /// Peak bytes per component, [`Component::ALL`] order.
    pub peak: [u64; NUM_COMPONENTS],
    /// `/proc/self/status` VmRSS in kB (0 = absent).
    pub rss_kb: u64,
    /// `/proc/self/status` VmHWM in kB (0 = absent).
    pub hwm_kb: u64,
}

#[allow(clippy::declare_interior_mutable_const)]
static SAMPLES: Mutex<Vec<MemSample>> = Mutex::new(Vec::new());

fn slot_snapshot(slot: usize) -> ([i64; NUM_COMPONENTS], [u64; NUM_COMPONENTS]) {
    let mut live = [0i64; NUM_COMPONENTS];
    let mut peak = [0u64; NUM_COMPONENTS];
    for comp in 0..NUM_COMPONENTS {
        live[comp] = LIVE[slot * NUM_COMPONENTS + comp].load(Ordering::Relaxed);
        peak[comp] = PEAK[slot * NUM_COMPONENTS + comp].load(Ordering::Relaxed);
    }
    (live, peak)
}

/// Samples worker `worker`'s accounting slot at a superstep barrier. No-op
/// while disarmed. Worker 0 additionally samples the untagged slot and the
/// process RSS, and refreshes the Prometheus gauges — once per superstep,
/// not once per worker. Called by the engines next to the superstep commit;
/// nondeterministic by nature, which is why samples live beside — never
/// inside — the deterministic trace records.
pub fn sample(superstep: u64, worker: u32) {
    if !armed() {
        return;
    }
    // The tracker's own bookkeeping is observability overhead: Trace.
    let _scope = MemScope::enter(Component::Trace);
    let slot = (worker as usize + 1).min(WORKER_SLOTS - 1);
    let (live, peak) = slot_snapshot(slot);
    let mut recs = Vec::with_capacity(2);
    let (mut rss_kb, mut hwm_kb) = (0, 0);
    if worker == 0 {
        let (rss, hwm) = read_vm_status();
        rss_kb = rss.unwrap_or(0);
        hwm_kb = hwm.unwrap_or(0);
        let (ulive, upeak) = slot_snapshot(0);
        recs.push(MemSample {
            superstep,
            worker: u32::MAX,
            live: ulive,
            peak: upeak,
            rss_kb: 0,
            hwm_kb: 0,
        });
        update_gauges(rss_kb);
    }
    recs.push(MemSample {
        superstep,
        worker,
        live,
        peak,
        rss_kb,
        hwm_kb,
    });
    SAMPLES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(recs);
}

/// Drains every sample collected so far, in collection order. The CLI calls
/// this after the run's threads have joined and appends the samples to the
/// trace file.
pub fn take_samples() -> Vec<MemSample> {
    std::mem::take(&mut *SAMPLES.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Refreshes the `cyclops_mem_{live,peak}_bytes{component}` and
/// `cyclops_rss_bytes` gauge families on the global registry, when one is
/// installed (`--prom` / `--listen`).
fn update_gauges(rss_kb: u64) {
    let Some(reg) = crate::registry::global() else {
        return;
    };
    for c in Component::ALL {
        reg.gauge("cyclops_mem_live_bytes", &[("component", c.name())])
            .set(live_bytes(c));
        reg.gauge("cyclops_mem_peak_bytes", &[("component", c.name())])
            .set(peak_bytes(c) as i64);
    }
    if rss_kb > 0 {
        reg.gauge("cyclops_rss_bytes", &[])
            .set(rss_kb as i64 * 1024);
    }
}

/// Parses `VmRSS` and `VmHWM` (kB) out of `/proc/self/status` text. Pure so
/// the fixture test can pin the format; either field gracefully absent on
/// kernels or platforms that do not report it.
pub fn parse_vm_status(text: &str) -> (Option<u64>, Option<u64>) {
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Reads `(VmRSS kB, VmHWM kB)` from `/proc/self/status`. On non-Linux or
/// restricted environments the file is missing or unreadable and both come
/// back `None` — an absent gauge, never an error.
pub fn read_vm_status() -> (Option<u64>, Option<u64>) {
    match std::fs::read_to_string("/proc/self/status") {
        Ok(text) => parse_vm_status(&text),
        Err(_) => (None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_names_round_trip() {
        for c in Component::ALL {
            assert_eq!(Component::parse(c.name()), Some(c));
        }
        assert_eq!(Component::parse("nope"), None);
        assert_eq!(Component::ALL.len(), NUM_COMPONENTS);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let read = || TAG.with(Cell::get);
        let base = read();
        {
            let _g = MemScope::enter(Component::Plan);
            assert_eq!(read() & 0xF, Component::Plan as u16);
            {
                let _w = MemScope::worker(3);
                assert_eq!(read() >> 4, 4);
                assert_eq!(read() & 0xF, Component::Plan as u16);
                let _i = MemScope::enter(Component::Inbox);
                assert_eq!(read() & 0xF, Component::Inbox as u16);
                assert_eq!(read() >> 4, 4);
            }
            assert_eq!(read() & 0xF, Component::Plan as u16);
        }
        assert_eq!(read(), base);
    }

    #[test]
    fn parse_vm_status_extracts_rss_and_hwm() {
        let fixture = "Name:\tcyclops\nUmask:\t0022\nState:\tR (running)\n\
                       VmPeak:\t  123456 kB\nVmSize:\t  120000 kB\n\
                       VmHWM:\t    4242 kB\nVmRSS:\t    4096 kB\n\
                       Threads:\t9\n";
        assert_eq!(parse_vm_status(fixture), (Some(4096), Some(4242)));
    }

    #[test]
    fn parse_vm_status_degrades_to_absent_fields() {
        // A restricted or non-Linux "status" has neither field: both absent,
        // no error. Partial exposure keeps whichever field exists.
        assert_eq!(parse_vm_status(""), (None, None));
        assert_eq!(parse_vm_status("Name:\tx\nState:\tS\n"), (None, None));
        assert_eq!(
            parse_vm_status("VmRSS:\t 777 kB\n"),
            (Some(777), None),
            "partial status keeps the present field"
        );
        assert_eq!(parse_vm_status("VmRSS:\tgarbage kB\n"), (None, None));
    }

    #[test]
    fn read_vm_status_never_errors() {
        // On Linux both fields exist; elsewhere both are None. Either way
        // the call must not panic — that's the graceful-fallback contract.
        let (rss, hwm) = read_vm_status();
        if cfg!(target_os = "linux") {
            assert!(rss.is_some() && hwm.is_some());
        }
        let _ = (rss, hwm);
    }

    // Accounting-path tests (charge/peak arithmetic) run against the cell
    // arrays directly: arming the process-global allocator inside the unit
    // test binary would tax every other test. The armed end-to-end behavior
    // is covered by the dedicated `mem_observability` integration binary,
    // which installs `MemAlloc` for real.
    #[test]
    fn charge_updates_live_and_peak_cells() {
        let tag = (7u16 << 4) | Component::Frontier as u16; // worker 6
        let before_live = worker_live_bytes(Some(6), Component::Frontier);
        let before_total = live_bytes(Component::Frontier);
        charge(tag, 1000);
        charge(tag, 500);
        charge(tag, -300);
        assert_eq!(
            worker_live_bytes(Some(6), Component::Frontier) - before_live,
            1200
        );
        assert!(worker_peak_bytes(Some(6), Component::Frontier) >= (before_live + 1500) as u64);
        assert_eq!(live_bytes(Component::Frontier) - before_total, 1200);
        assert!(peak_bytes(Component::Frontier) >= (before_total + 1500) as u64);
        charge(tag, -1200); // restore for other tests
    }

    #[test]
    fn oversized_worker_ids_fold_into_the_last_slot() {
        let w = WORKER_SLOTS + 40;
        let _g = MemScope::worker(w);
        let tag = TAG.with(Cell::get);
        assert_eq!((tag >> 4) as usize, WORKER_SLOTS - 1);
        let before = worker_live_bytes(Some(w), Component::Other);
        charge(tag, 64);
        assert_eq!(worker_live_bytes(Some(w), Component::Other) - before, 64);
        charge(tag, -64);
    }

    #[test]
    fn samples_are_nooped_while_disarmed() {
        // This binary never arms, so sample() must stay a no-op.
        sample(3, 0);
        assert!(take_samples().is_empty());
    }
}
