//! Thread-local heaps (§4.3): the lock-free malloc/free fast path.
//!
//! Every thread owns one shuffle vector per size class plus a private PRNG.
//! Small allocations pop from the class's vector with no locks or atomics;
//! refills take only the *owning class's* shard lock, large objects take
//! the large + arena locks, and non-local frees push onto a lock-free
//! remote-free queue without taking any lock at all (see DESIGN.md's
//! sharded locking discipline and "Fast path anatomy").
//!
//! Both hot paths are O(1) and free of shared-cacheline traffic:
//!
//! * **malloc** pops the class's shuffle vector and bumps a per-thread
//!   [`LocalCounters`] block (plain load+store, no RMW — deltas are
//!   summed into [`crate::HeapStats`] at snapshot time).
//! * **free** resolves the pointer with *one* lock-free [`PageMap`]
//!   lookup, which yields the owning MiniHeap id, size class, and slot in
//!   one read. Comparing the id against the attached vector's decides
//!   local vs remote; the decoded entry is passed down to the global heap
//!   so nothing is re-derived. (The previous design scanned every class's
//!   attached span per free — O(classes), and O(aliases) after meshing.)
//!
//! The page-map route also makes the local path *checkable*: slot-range,
//! alignment, and double-free validation that used to exist only on the
//! drain side now run before the shuffle vector is touched, so a hostile
//! free is counted and discarded instead of corrupting the freelist.

use crate::global_heap::GlobalHeap;
use crate::harden::HardenKind;
use crate::page_map::PageInfo;
use crate::remote_free::{SenderBufs, REMOTE_FREE_BATCH};
use crate::rng::Rng;
use crate::shuffle_vector::ShuffleVector;
use crate::size_classes::{SizeClass, NUM_SIZE_CLASSES};
use crate::stats::{Counters, LocalCounters};
use crate::telemetry::{trace_tid, LocalHists, Telemetry, ThreadSampler, TimedOp, TraceRing};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Where one free request is routed, as decided by a single page-map
/// lookup (see [`ThreadHeapCore::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FreeRoute {
    /// The pointer belongs to the span attached to this thread's vector
    /// for `class_idx`: freed in place, no lock, no atomics.
    Local { class_idx: usize, slot: usize },
    /// The page belongs to this thread's attached span, but the address
    /// is not a valid object: span tail waste or a misaligned interior
    /// pointer. Counted and discarded.
    LocalInvalid,
    /// Owned by some other MiniHeap (detached, another thread's, or a
    /// large object): handed to the global heap along with the decoded
    /// entry.
    Global { page: u32, info: PageInfo },
    /// Not an arena pointer, or an unowned (stale/retired/wild) page.
    Unowned,
}

/// Per-thread allocation state: one shuffle vector per size class, a
/// thread-private PRNG (§4.3), and a private statistics delta block.
#[derive(Debug)]
pub(crate) struct ThreadHeapCore {
    vectors: Vec<ShuffleVector>,
    rng: Rng,
    token: u64,
    /// Fast-path counter deltas (single-writer; see [`LocalCounters`]).
    local: Arc<LocalCounters>,
    /// Per-thread latency histogram block (single-writer, like `local`):
    /// the refill and sender-flush timings land here without RMWs.
    hists: Arc<LocalHists>,
    /// Per-thread trace-event ring, present only under `MESH_TRACE=1`.
    /// Registered with the heap's [`crate::telemetry::TraceSet`]; the set
    /// keeps the ring alive after thread exit so its tail stays dumpable.
    ring: Option<Arc<TraceRing>>,
    /// The shared block `local` is registered with, kept for flush points
    /// and teardown.
    counters: Arc<Counters>,
    /// Geometric byte-sampling state (`None` when `MESH_PROF` is off: the
    /// fast path then pays exactly one branch on this field).
    sampler: Option<Box<ThreadSampler>>,
    /// Per-class sender-side buffers of small remote frees, flushed as one
    /// queue node per [`REMOTE_FREE_BATCH`] frees (empty when `!batched`).
    /// Shared (via the global heap's sender registry) so stats snapshots
    /// and the exhaustion fallback can flush them from any thread.
    remote_bufs: Arc<SenderBufs>,
    /// Registry epoch at which `remote_bufs` was last registered; 0 means
    /// never. The forked child bumps the heap's epoch after clearing its
    /// registry, which makes every surviving core re-register lazily.
    sender_epoch: u64,
    /// Whether this core buffers its remote frees. False for cores that
    /// are never detached (the `GlobalAlloc` TLS heaps), whose buffers
    /// could otherwise strand frees forever.
    batched: bool,
    /// Delayed-reuse quarantine (hardened mode, `MESH_HARDEN` with
    /// quarantine on): locally freed objects are parked here — poisoned,
    /// their slots still claimed — instead of becoming immediately
    /// reusable. Eviction order is randomized by the thread PRNG; evicted
    /// objects have their poison verified (a dangling write while parked
    /// trips it) and then take the normal free path. Empty when hardening
    /// is off.
    quarantine: Vec<(usize, usize)>,
    /// Membership index over `quarantine` addresses: a second free of a
    /// parked pointer is a deterministic double free, caught before any
    /// routing.
    quarantine_set: std::collections::HashSet<usize>,
    /// Total object bytes currently parked (bounded by
    /// `MESH_HARDEN_QUARANTINE_BYTES`).
    quarantine_bytes: usize,
}

impl ThreadHeapCore {
    /// Creates a detached thread heap with identity `token`, registering
    /// its statistics delta block with `counters` and — when profiling is
    /// on — a private sampler feeding `telemetry`. `batched` opts into
    /// sender-side remote-free batching; pass false for cores with no
    /// teardown path to flush their buffers.
    pub fn new(
        seed: u64,
        randomize: bool,
        token: u64,
        counters: Arc<Counters>,
        telemetry: Option<Arc<Telemetry>>,
        batched: bool,
    ) -> Self {
        ThreadHeapCore {
            vectors: (0..NUM_SIZE_CLASSES)
                .map(|_| ShuffleVector::new(randomize))
                .collect(),
            rng: Rng::with_seed(seed),
            token,
            local: counters.register_local(),
            hists: counters.register_local_hists(),
            ring: counters.trace_set().map(|t| t.register_ring()),
            counters,
            sampler: telemetry.map(|t| Box::new(ThreadSampler::new(t, seed))),
            remote_bufs: Arc::new(SenderBufs::new()),
            sender_epoch: 0,
            batched,
            quarantine: Vec::new(),
            quarantine_set: std::collections::HashSet::new(),
            quarantine_bytes: 0,
        }
    }

    /// The thread token identifying this heap in `AttachState::Attached`.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Records a completed slow-path operation that started at `t0` into
    /// this thread's histogram block and — when tracing — its event ring.
    /// Single-writer by construction: only the owning thread calls this.
    fn record_op(&self, op: TimedOp, t0: Instant, arg: u64) {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.hists.record(op, dur_ns);
        if let Some(ring) = &self.ring {
            if self.counters.trace_set().is_some_and(|t| t.is_enabled()) {
                let start_ns = t0
                    .saturating_duration_since(self.counters.epoch())
                    .as_nanos() as u64;
                ring.push(op, trace_tid(), start_ns, dur_ns, arg);
            }
        }
    }

    /// Allocates `size` bytes (Fig 4, `MeshLocal::malloc`): the size
    /// class's shuffle vector in the common case, the class shard for
    /// refills, the global large path otherwise. Returns null on arena
    /// exhaustion.
    pub fn malloc(&mut self, state: &GlobalHeap, size: usize) -> *mut u8 {
        let Some(class) = SizeClass::for_size(size) else {
            // Large object: forwarded to the global heap (§4.4.3).
            return match state.malloc_large(size) {
                Ok(addr) => addr as *mut u8,
                Err(_) => std::ptr::null_mut(),
            };
        };
        let idx = class.index();
        // Memory-pressure escalation (see the refill-failure arm below):
        // one retry after flushing every sender's buffered remote frees.
        let mut flushed = false;
        loop {
            if let Some(addr) = self.vectors[idx].malloc() {
                // Hardened mode: the slot held poison since it was freed
                // (or since its span came fresh from the arena); a write
                // that landed in it while free is a caught use-after-free.
                state.verify_poison(addr, class.object_size(), idx);
                self.local.on_malloc(class.object_size());
                if let Some(s) = self.sampler.as_deref_mut() {
                    s.on_alloc(addr, class.object_size());
                }
                return addr as *mut u8;
            }
            // Refill boundary: already taking the class lock, so fold the
            // batched deltas into the shared counters while we are here.
            self.counters.flush_local(&self.local);
            let refill_t0 = Instant::now();
            let refilled = state.refill(&mut self.vectors[idx], class, self.token, &mut self.rng);
            self.record_op(TimedOp::Refill, refill_t0, idx as u64);
            if refilled.is_err() {
                // Before reporting exhaustion, hand every sender's
                // buffered remote frees to the queues (sub-batch buffers
                // can pin the last free spans) and retry once.
                if flushed {
                    return std::ptr::null_mut();
                }
                self.flush_remote(state);
                state.flush_all_senders();
                flushed = true;
            }
        }
    }

    /// Resolves where a free of `addr` must go with one lock-free page-map
    /// lookup. Pure (no heap mutation): the oracle property test compares
    /// this decision against the legacy linear-scan routing.
    #[inline]
    pub(crate) fn route(&self, state: &GlobalHeap, addr: usize) -> FreeRoute {
        let Some(page) = state.page_of_addr(addr) else {
            return FreeRoute::Unowned;
        };
        let Some(info) = state.page_map.get(page) else {
            return FreeRoute::Unowned;
        };
        if !info.is_large() {
            let idx = info.class_code as usize;
            let sv = &self.vectors[idx];
            // Ids are unique within a class, and the page map covers every
            // virtual span (aliases are retargeted when meshed), so this
            // single compare is exactly the old "inside any attached
            // span?" scan.
            if sv.miniheap() == Some(info.id) {
                let offset = addr - info.span_start(state.base_addr(), page);
                let size = sv.object_size();
                let slot = offset / size;
                if !offset.is_multiple_of(size) || slot >= sv.object_count() {
                    return FreeRoute::LocalInvalid;
                }
                return FreeRoute::Local {
                    class_idx: idx,
                    slot,
                };
            }
        }
        FreeRoute::Global { page, info }
    }

    /// Frees `ptr` (Fig 4, `MeshLocal::free`): handled by the owning
    /// shuffle vector when the object is local, else routed through the
    /// global heap with the already-decoded page-map entry (lock-free
    /// queue push for small objects, §4.4.4).
    ///
    /// # Safety
    ///
    /// `ptr` must be a pointer previously returned by this heap family's
    /// malloc and not already freed. Unlike the seed, hostile pointers are
    /// *detected* on every path — foreign, misaligned, tail-waste, and
    /// double frees are counted and discarded rather than corrupting the
    /// freelist — but the contract stays that of C `free`.
    pub unsafe fn free(&mut self, state: &GlobalHeap, ptr: *mut u8) {
        let addr = ptr as usize;
        if let Some(s) = self.sampler.as_deref() {
            // Retire a sampled object on any route (local, queued remote,
            // large). The global entry points hook themselves, so every
            // free is checked exactly once.
            s.telemetry().on_free(addr);
        }
        if state.harden.quarantine_on() {
            // Before any routing: a second free of a parked pointer is a
            // deterministic double free (its slot is still claimed, so
            // the routed checks below would accept it).
            if self.quarantine_set.contains(&addr) {
                state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                state.harden_violation(HardenKind::DoubleFree, addr);
                return;
            }
            // Only local-route frees are parked: the remote path already
            // defers reuse behind the queue drain, and large objects are
            // covered by guard pages instead.
            if let FreeRoute::Local { class_idx, slot } = self.route(state, addr) {
                let sv = &self.vectors[class_idx];
                if sv.is_available(slot) {
                    state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                    state.harden_violation(HardenKind::DoubleFree, addr);
                    return;
                }
                let size = sv.object_size();
                state.poison_object(addr, size, class_idx);
                self.quarantine_push(state, addr, class_idx, size);
                return;
            }
        }
        self.free_now(state, addr);
    }

    /// The routed free proper — everything [`ThreadHeapCore::free`] does
    /// after the quarantine decision. Also the quarantine eviction path,
    /// which must bypass the parking logic (the evicted object *is* the
    /// delayed free).
    unsafe fn free_now(&mut self, state: &GlobalHeap, addr: usize) {
        match self.route(state, addr) {
            FreeRoute::Local { class_idx, slot } => {
                let sv = &mut self.vectors[class_idx];
                if sv.free_slot(slot, &mut self.rng) {
                    let size = sv.object_size();
                    // Freed memory is poisoned now and verified when the
                    // slot is next handed out.
                    state.poison_object(addr, size, class_idx);
                    self.local.on_free(size);
                } else {
                    state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                    state.harden_violation(HardenKind::DoubleFree, addr);
                }
            }
            FreeRoute::LocalInvalid | FreeRoute::Unowned => {
                state.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
                state.harden_violation(HardenKind::InvalidFree, addr);
            }
            FreeRoute::Global { page, info } => {
                // Small remote frees are buffered per class and flushed as
                // one queue node per batch. Large objects (immediate page
                // release) stay on the direct path.
                if self.batched && !info.is_large() {
                    // Make the buffers reachable by stats snapshots and the
                    // exhaustion fallback before the first free can hide in
                    // them. The epoch compare keeps this to one branch per
                    // free; it re-fires only after a fork wipes the registry.
                    if self.sender_epoch != state.sender_epoch() {
                        self.sender_epoch = state.register_sender(&self.remote_bufs);
                    }
                    let idx = info.class_code as usize;
                    let mut buf = self.remote_bufs.lock(idx);
                    // An address still in the buffer cannot have been
                    // re-allocated (its free has not drained), so a
                    // second appearance is always a double free. The
                    // check must precede the flush: flushing between the
                    // two copies of a back-to-back pair would let the
                    // second drain in a later epoch, after the slot's
                    // claim bit may have been re-claimed by a re-attach.
                    if buf.contains(&addr) {
                        state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    // Lazy flush: a full buffer is handed to the queue
                    // before the *next* push, never between two adjacent
                    // frees of the same address. The buf lock is a leaf —
                    // drop it before the queue push takes nothing, but
                    // settle_after_free may take shard locks.
                    let full = if buf.len() >= REMOTE_FREE_BATCH {
                        Some(std::mem::take(&mut *buf))
                    } else {
                        None
                    };
                    buf.push(addr);
                    drop(buf);
                    if let Some(mut batch) = full {
                        state.flush_remote_batch(idx, &mut batch);
                        state.settle_after_free();
                    }
                } else {
                    state.free_routed(addr, page, info);
                }
            }
        }
    }

    /// Parks one freed object in the quarantine, evicting (randomly) as
    /// long as either bound — slots or bytes — is exceeded. The parked
    /// slot stays claimed: meshing copies it, reallocation cannot reach
    /// it, and its memory holds the poison pattern the whole time.
    fn quarantine_push(&mut self, state: &GlobalHeap, addr: usize, class_idx: usize, size: usize) {
        self.quarantine.push((addr, class_idx));
        self.quarantine_set.insert(addr);
        self.quarantine_bytes += size;
        while self.quarantine.len() > state.harden.quarantine_slots
            || self.quarantine_bytes > state.harden.quarantine_bytes
        {
            self.quarantine_evict(state);
        }
    }

    /// Evicts one random quarantine entry: verifies its poison (a
    /// dangling write while parked lands here) and then completes the
    /// delayed free through the normal path.
    fn quarantine_evict(&mut self, state: &GlobalHeap) {
        if self.quarantine.is_empty() {
            return;
        }
        let pick = self.rng.below(self.quarantine.len() as u32) as usize;
        let (addr, class_idx) = self.quarantine.swap_remove(pick);
        self.quarantine_set.remove(&addr);
        let size = SizeClass::from_index(class_idx).object_size();
        self.quarantine_bytes -= size;
        state.verify_poison(addr, size, class_idx);
        unsafe { self.free_now(state, addr) };
    }

    /// Empties the quarantine (thread teardown, fork, explicit settle):
    /// every parked free completes through the normal path.
    pub fn drain_quarantine(&mut self, state: &GlobalHeap) {
        while !self.quarantine.is_empty() {
            self.quarantine_evict(state);
        }
    }

    /// Flushes every pending sender-side remote-free buffer (one batch
    /// node per non-empty class). Lock-free; called at detach, by stats
    /// readers that need settled queues, and on demand.
    pub fn flush_remote(&mut self, state: &GlobalHeap) {
        let t0 = Instant::now();
        let mut flushed = 0u64;
        for idx in 0..NUM_SIZE_CLASSES {
            let mut buf = self.remote_bufs.take(idx);
            if !buf.is_empty() {
                state.flush_remote_batch(idx, &mut buf);
                flushed += 1;
            }
        }
        if flushed > 0 {
            self.record_op(TimedOp::TransferFlush, t0, flushed);
        }
    }

    /// Folds this thread's batched statistics deltas into the shared
    /// counters immediately (normally they fold at refill boundaries).
    pub fn flush_stats(&self) {
        self.counters.flush_local(&self.local);
    }

    /// Returns every attached MiniHeap to its class shard (thread exit),
    /// flushes the remote-free buffers and the batched statistics deltas.
    /// Nothing this thread held can be stranded.
    pub fn detach_all(&mut self, state: &GlobalHeap) {
        self.drain_quarantine(state);
        self.flush_remote(state);
        for (idx, sv) in self.vectors.iter_mut().enumerate() {
            state.release_vector(SizeClass::from_index(idx), sv);
        }
        self.counters.flush_local(&self.local);
    }

    /// Number of classes with a currently attached MiniHeap (diagnostic).
    pub fn attached_count(&self) -> usize {
        self.vectors.iter().filter(|v| v.miniheap().is_some()).count()
    }
}

impl Drop for ThreadHeapCore {
    fn drop(&mut self) {
        // Spans are returned by the owning wrapper (`ThreadHeap::drop`
        // calls `detach_all` with the heap in hand); the delta blocks can
        // retire here, folding any remaining counts into the shared stats.
        // The trace ring (if any) stays registered: its tail remains part
        // of future dumps by design.
        self.counters.unregister_local(&self.local);
        self.counters.unregister_local_hists(&self.hists);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use std::sync::Arc;

    fn setup() -> (GlobalHeap, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let st = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(32 << 20)
                .seed(11)
                .write_barrier(false),
            Arc::clone(&counters),
        )
        .unwrap();
        (st, counters)
    }

    fn core(counters: &Arc<Counters>, seed: u64, token: u64) -> ThreadHeapCore {
        ThreadHeapCore::new(seed, true, token, Arc::clone(counters), None, true)
    }

    #[test]
    fn malloc_free_roundtrip_small() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 1, 1);
        let p = heap.malloc(&state, 100);
        assert!(!p.is_null());
        unsafe {
            std::ptr::write_bytes(p, 0x5A, 100);
            heap.free(&state, p);
        }
        let s = counters.snapshot();
        assert_eq!(s.mallocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn local_free_does_not_touch_global_path() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 2, 1);
        let p = heap.malloc(&state, 64);
        unsafe { heap.free(&state, p) };
        state.drain_all();
        let s = counters.snapshot();
        assert_eq!(s.remote_frees, 0, "free stayed local");
        assert_eq!(s.remote_free_queued, 0, "free never touched a queue");
    }

    #[test]
    fn large_allocation_via_global() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 3, 1);
        let p = heap.malloc(&state, 64 * 1024);
        assert!(!p.is_null());
        assert_eq!(p as usize % 4096, 0, "large objects are page-aligned");
        assert_eq!(counters.snapshot().large_allocs, 1);
        unsafe { heap.free(&state, p) };
        assert_eq!(counters.snapshot().remote_frees, 1);
    }

    #[test]
    fn exhausted_vector_refills_transparently() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 4, 1);
        let class = SizeClass::for_size(512).unwrap();
        let per_span = class.object_count();
        let mut ptrs = vec![];
        for _ in 0..per_span * 3 {
            let p = heap.malloc(&state, 512);
            assert!(!p.is_null());
            ptrs.push(p);
        }
        // Three spans' worth allocated; all addresses distinct.
        let set: std::collections::HashSet<_> = ptrs.iter().collect();
        assert_eq!(set.len(), ptrs.len());
        assert!(counters.snapshot().refills >= 3);
        for p in ptrs {
            unsafe { heap.free(&state, p) };
        }
    }

    #[test]
    fn refills_and_flushes_feed_latency_histograms() {
        let (state, counters) = setup();
        let mut a = core(&counters, 31, 1);
        let mut b = core(&counters, 32, 2);
        let class = SizeClass::for_size(512).unwrap();
        let mut ptrs = vec![];
        for _ in 0..class.object_count() * 2 {
            let p = a.malloc(&state, 512);
            assert!(!p.is_null());
            ptrs.push(p);
        }
        for p in ptrs {
            unsafe { b.free(&state, p) };
        }
        b.flush_remote(&state);
        let snap = counters.snapshot();
        assert!(
            snap.latency.count(TimedOp::Refill) >= 2,
            "each span refill is timed: {:?}",
            snap.latency.count(TimedOp::Refill)
        );
        assert!(
            snap.latency.count(TimedOp::TransferFlush) >= 1,
            "explicit remote flush is timed"
        );
    }

    #[test]
    fn cross_thread_free_goes_through_queue() {
        let (state, counters) = setup();
        let mut a = core(&counters, 5, 1);
        let mut b = core(&counters, 6, 2);
        let p = a.malloc(&state, 256);
        // Thread B frees A's pointer: must take the queued global path
        // (buffered in B until the batch fills or B flushes).
        unsafe { b.free(&state, p) };
        assert_eq!(counters.snapshot().remote_free_queued, 0, "buffered in sender");
        b.flush_remote(&state);
        assert_eq!(counters.snapshot().remote_free_queued, 1);
        assert_eq!(counters.snapshot().remote_free_batches, 1);
        state.drain_all();
        let s = counters.snapshot();
        assert_eq!(s.remote_frees, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.remote_free_drained, 1);
    }

    #[test]
    fn detach_all_returns_everything() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 7, 1);
        let p1 = heap.malloc(&state, 32);
        let p2 = heap.malloc(&state, 4000);
        assert!(heap.attached_count() >= 2);
        heap.detach_all(&state);
        assert_eq!(heap.attached_count(), 0);
        // Frees after detach go through the global heap and still work
        // (buffered in the sender until flushed).
        unsafe {
            heap.free(&state, p1);
            heap.free(&state, p2);
        }
        heap.flush_remote(&state);
        state.drain_all();
        assert_eq!(counters.snapshot().remote_frees, 2);
        assert_eq!(counters.snapshot().live_bytes, 0);
    }

    #[test]
    fn null_on_arena_exhaustion() {
        let counters = Arc::new(Counters::default());
        let st = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(32 * 4096)
                .seed(1)
                .write_barrier(false),
            Arc::clone(&counters),
        )
        .unwrap();
        let mut heap = core(&counters, 8, 1);
        let mut got_null = false;
        for _ in 0..100_000 {
            if heap.malloc(&st, 16384).is_null() {
                got_null = true;
                break;
            }
        }
        assert!(got_null, "exhaustion must surface as null");
    }

    #[test]
    fn local_double_free_detected_and_discarded() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 9, 1);
        let p = heap.malloc(&state, 128);
        unsafe {
            heap.free(&state, p);
            heap.free(&state, p); // second free of the same local object
        }
        let s = counters.snapshot();
        assert_eq!(s.frees, 1, "only the first free applied");
        assert_eq!(s.double_frees, 1, "duplicate detected on the local path");
        assert_eq!(s.live_bytes, 0);
        // The heap is still fully usable afterwards.
        let q = heap.malloc(&state, 128);
        assert!(!q.is_null());
        unsafe { heap.free(&state, q) };
    }

    #[test]
    fn local_invalid_frees_detected_and_discarded() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 10, 1);
        let p = heap.malloc(&state, 64);
        unsafe {
            // Misaligned interior pointer into our own attached span.
            heap.free(&state, p.add(1));
            // Wild pointer outside the arena entirely.
            heap.free(&state, 0x1000 as *mut u8);
        }
        let s = counters.snapshot();
        assert_eq!(s.invalid_frees, 2);
        assert_eq!(s.frees, 0, "no invalid free was applied");
        // The object itself is still live and freeable.
        unsafe { heap.free(&state, p) };
        assert_eq!(counters.snapshot().frees, 1);
        assert_eq!(counters.snapshot().live_bytes, 0);
    }

    #[test]
    fn tail_waste_free_is_invalid_not_corrupting() {
        // 4096 % 48 != 0: the span has tail waste past the last slot. A
        // free there used to push an out-of-range offset into the shuffle
        // vector; it must now be rejected.
        let (state, counters) = setup();
        let mut heap = core(&counters, 11, 1);
        let p = heap.malloc(&state, 48) as usize;
        let class = SizeClass::for_size(48).unwrap();
        let page = state.page_of_addr(p).unwrap();
        let info = state.page_map.get(page).unwrap();
        let span_start = info.span_start(state.base_addr(), page);
        let tail = span_start + class.object_count() * 48;
        assert_eq!(
            heap.route(&state, tail),
            FreeRoute::LocalInvalid,
            "tail waste routes as invalid"
        );
        unsafe { heap.free(&state, tail as *mut u8) };
        assert_eq!(counters.snapshot().invalid_frees, 1);
        unsafe { heap.free(&state, p as *mut u8) };
        assert_eq!(counters.snapshot().live_bytes, 0);
    }

    #[test]
    fn sampler_tracks_allocations_through_free() {
        // An aggressive rate (every ~256 bytes) on a churny mix: the
        // sampler must see allocations on the fast path, the refill path,
        // and the large path, and retire every sample on free.
        let counters = Arc::new(Counters::default());
        let config = MeshConfig::default()
            .arena_bytes(32 << 20)
            .seed(21)
            .profiling(true)
            .prof_sample_bytes(256)
            .write_barrier(false);
        let state = GlobalHeap::new(config, Arc::clone(&counters)).unwrap();
        let mut heap =
            ThreadHeapCore::new(5, true, 1, Arc::clone(&counters), state.telemetry.clone(), true);
        let t = state.telemetry.as_ref().unwrap();
        let mut live = Vec::new();
        for i in 0..4000usize {
            let size = [64, 200, 1000, 20_000][i % 4];
            let p = heap.malloc(&state, size);
            assert!(!p.is_null());
            live.push(p);
        }
        let s = t.stats();
        assert!(s.samples > 500, "rate 256 over ~21 MB: got {} samples", s.samples);
        assert!(s.live_bytes_estimate > 0);
        assert_eq!(s.samples_dropped, 0);
        for p in live {
            unsafe { heap.free(&state, p) };
        }
        state.drain_all();
        let s = t.stats();
        assert_eq!(s.live_samples, 0, "every sampled object retired");
        assert_eq!(s.live_bytes_estimate, 0);
        assert_eq!(s.sampled_frees, s.samples);
    }

    /// Oracle: the page-map routing must agree with the legacy
    /// linear-scan routing — "is the address inside any attached span?"
    /// — on every reachable state. Random malloc/free interleavings with
    /// two thread heaps (handoffs make some frees remote) drive both
    /// classifiers over the same addresses.
    #[test]
    fn route_agrees_with_linear_scan_oracle() {
        /// The routing the old free path implemented: first vector whose
        /// attached spans contain the address wins; everything else goes
        /// to the global heap.
        fn linear_scan(heap: &ThreadHeapCore, addr: usize) -> Option<usize> {
            heap.vectors
                .iter()
                .position(|sv| sv.miniheap().is_some() && sv.contains(addr))
        }

        for seed in [3u64, 17, 95] {
            let (state, counters) = setup();
            let mut heaps = [core(&counters, seed, 1), core(&counters, seed ^ 77, 2)];
            let mut rng = Rng::with_seed(seed.wrapping_mul(0x9e37_79b9));
            // (addr, owner, size): owner = which heap allocated it.
            let mut live: Vec<(usize, usize, usize)> = Vec::new();
            for _ in 0..20_000 {
                let op = rng.below(100);
                if op < 55 || live.is_empty() {
                    let who = rng.below(2) as usize;
                    let size = match rng.below(4) {
                        0 => 16 + rng.below(100) as usize,
                        1 => 500 + rng.below(600) as usize,
                        2 => 2048,
                        _ => 16384 + rng.below(9000) as usize, // large path
                    };
                    let p = heaps[who].malloc(&state, size);
                    assert!(!p.is_null());
                    live.push((p as usize, who, size));
                } else {
                    let pick = rng.below(live.len() as u32) as usize;
                    let (addr, owner, _) = live.swap_remove(pick);
                    // Hand off ~every third free to the non-owner.
                    let who = if rng.below(3) == 0 { 1 - owner } else { owner };
                    let (a, b) = heaps.split_at_mut(1);
                    let freer = if who == 0 { &mut a[0] } else { &mut b[0] };
                    let old = linear_scan(freer, addr);
                    let new = freer.route(&state, addr);
                    match (old, new) {
                        (Some(idx), FreeRoute::Local { class_idx, slot }) => {
                            assert_eq!(idx, class_idx, "class disagrees at {addr:#x}");
                            let sv = &freer.vectors[class_idx];
                            assert!(slot < sv.object_count());
                            assert!(!sv.is_available(slot), "live slot free in mask");
                        }
                        (None, FreeRoute::Global { .. }) => {}
                        (old, new) => {
                            panic!("routing diverged at {addr:#x}: old {old:?}, new {new:?}")
                        }
                    }
                    unsafe { freer.free(&state, addr as *mut u8) };
                }
            }
            // Misaligned probes: old routing said "local" (then corrupted);
            // new routing must flag them instead — the one intentional
            // divergence.
            for &(addr, owner, size) in &live {
                if size > 1 {
                    let freer = &heaps[owner];
                    if let Some(idx) = linear_scan(freer, addr + 1) {
                        assert_eq!(
                            freer.route(&state, addr + 1),
                            FreeRoute::LocalInvalid,
                            "misaligned pointer in class {idx} must be rejected"
                        );
                    }
                }
            }
            for (addr, owner, _) in live.drain(..) {
                unsafe { heaps[owner].free(&state, addr as *mut u8) };
            }
            for h in &mut heaps {
                h.detach_all(&state);
            }
            state.drain_all();
            let s = counters.snapshot();
            assert_eq!(s.live_bytes, 0, "seed {seed}: accounting balanced");
            assert_eq!(s.mallocs, s.frees, "seed {seed}: every object freed once");
            assert_eq!(s.invalid_frees, 0, "seed {seed}");
            assert_eq!(s.double_frees, 0, "seed {seed}");
        }
    }
}
