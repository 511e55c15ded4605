//! Meshing: finding and merging spans with disjoint allocations
//! (§3.3 SplitMesher, §4.5 implementation).
//!
//! A pass runs one size class at a time, holding only that class's shard
//! lock (plus the arena leaf lock around the virtual-memory operations) —
//! see DESIGN.md's locking discipline. For each class it first drains the
//! class's remote-free queue (so occupancy reflects every queued free),
//! then collects the detached, partially-occupied MiniHeaps, randomly
//! splits them into two halves, and probes pairs between the halves at
//! most `t` times per span (Figure 2). Candidate pairs found by
//! SplitMesher are recorded and then meshed en masse (§4.5).
//!
//! Meshing a pair is the two-step §4.5 process. With the source span
//! write-protected behind the §4.5.2 barrier, every live object of the
//! source is copied *to the same slot offset* in the destination span —
//! no application pointer changes because the virtual addresses of the
//! source span survive: its mapping is atomically retargeted at the
//! destination's physical span, and the source's physical pages return to
//! the OS. The ordering of release vs. remap depends on the release
//! primitive (see [`crate::sys::ReleaseStrategy`]): punch-hole variants
//! release *after* the remap (by file offset, or through a scratch
//! mapping) so concurrent readers never observe zeros; the `MADV_DONTNEED`
//! fallback releases *before* the remap, which is safe because it
//! preserves file contents.
//!
//! Passes may be initiated inline (the §4.5 free-path rate limiter) or by
//! the background mesher thread ([`crate::mesher`]); the per-class locks
//! make concurrent passes safe, and the scheduler's claim-based timer
//! makes them rare.

use crate::arena::Arena;
use crate::global_heap::{ClassState, GlobalHeap, PARTIAL_BINS};
use crate::miniheap::MiniHeapId;
use crate::size_classes::{SizeClass, PAGE_SIZE};
use crate::span::Span;
use crate::sys::ReleaseStrategy;
use crate::telemetry::{PassRecord, RejectReason, TimedOp, REJECT_REASONS};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Outcome of one meshing pass.
///
/// # Examples
///
/// ```
/// use mesh_core::{Mesh, MeshConfig};
///
/// # fn main() -> Result<(), mesh_core::MeshError> {
/// let mesh = Mesh::new(MeshConfig::default().arena_bytes(16 << 20))?;
/// let summary = mesh.mesh_now();
/// assert_eq!(summary.pairs_meshed, 0, "empty heap has nothing to mesh");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeshSummary {
    /// Number of span pairs merged.
    pub pairs_meshed: usize,
    /// Physical pages released by those merges.
    pub pages_released: usize,
    /// Object bytes copied between spans.
    pub bytes_copied: usize,
    /// Pair candidates probed (the `t`-bounded search cost).
    pub pairs_probed: usize,
}

impl MeshSummary {
    /// Bytes of physical memory this pass returned to the OS.
    pub fn bytes_released(&self) -> usize {
        self.pages_released * crate::size_classes::PAGE_SIZE
    }
}

/// Runs SplitMesher and meshes the found pairs for every meshable size
/// class, taking one class lock at a time. Also purges dirty pages, as
/// §4.4.1 prescribes whenever meshing is invoked.
pub(crate) fn mesh_all_classes(heap: &GlobalHeap) -> MeshSummary {
    let t0 = Instant::now();
    // §4.4.1 ties a dirty-page purge to every meshing invocation; the
    // purge itself is wall-clock rate-limited by the scheduler. A purge
    // can leave non-initial segments with all pages clean, so segment
    // retirement rides the same rate limiter.
    // Ledger bookkeeping: `pages_purged` moved by this pass's purge work
    // becomes the pass's madvise-bytes figure.
    let purged_before = heap.counters.pages_purged.load(Ordering::Relaxed);
    if heap.scheduler.should_purge(heap.rt.mesh_period()) {
        heap.purge_and_retire();
    }
    let mut summary = MeshSummary::default();
    let mut candidates_scanned = 0u64;
    let mut rejected = [0u64; REJECT_REASONS];
    // Every class drains — non-meshable classes (≥ one page per object)
    // still rely on passes to apply queued remote frees promptly.
    for class in SizeClass::all() {
        let (mut st, contended) = heap.lock_class_reporting(class);
        if contended {
            rejected[RejectReason::ClassContention as usize] += 1;
        }
        heap.drain_class_locked(class, &mut st);
        if !class.is_meshable() {
            continue;
        }
        // The selection phase is timed even when it comes up dry: the
        // partial-bin scan is the `t`-bounded search cost the histogram
        // exists to expose, and a dry scan (arg 0) is still that cost.
        let select_t0 = Instant::now();
        let candidates = collect_candidates(heap, &st);
        candidates_scanned += candidates.len() as u64;
        if candidates.len() < 2 {
            heap.counters.record_slow(TimedOp::MeshCandidates, select_t0, 0);
            continue;
        }
        let pairs = split_mesher(
            &mut st,
            candidates,
            heap.rt.probe_limit(),
            heap.rt.max_span_count(),
            &mut summary.pairs_probed,
            &mut rejected[RejectReason::OccupancyOverlap as usize],
        );
        heap.counters
            .record_slow(TimedOp::MeshCandidates, select_t0, pairs.len() as u64);
        for (a, b) in pairs {
            if !mesh_pair(heap, &mut st, class, a, b, &mut summary, &mut rejected) {
                break;
            }
        }
    }
    let nanos = t0.elapsed().as_nanos() as u64;
    heap.counters.record_mesh_pass(nanos);
    heap.counters
        .record_slow(TimedOp::MeshPass, t0, summary.pairs_meshed as u64);
    heap.counters
        .spans_meshed
        .fetch_add(summary.pairs_meshed as u64, Ordering::Relaxed);
    heap.counters
        .mesh_pages_released
        .fetch_add(summary.pages_released as u64, Ordering::Relaxed);
    heap.counters
        .mesh_bytes_copied
        .fetch_add(summary.bytes_copied as u64, Ordering::Relaxed);
    let purged = heap.counters.pages_purged.load(Ordering::Relaxed) - purged_before;
    heap.ledger.record(PassRecord {
        at_ms: heap.counters.uptime_ms(),
        candidates: candidates_scanned,
        probes: summary.pairs_probed as u64,
        rejected,
        pairs_meshed: summary.pairs_meshed as u64,
        bytes_recovered: summary.bytes_released() as u64,
        madvise_bytes: purged * PAGE_SIZE as u64,
    });
    summary
}

/// Collects the detached MiniHeaps of `class` that are eligible for
/// meshing: partially occupied, below the occupancy cutoff, and with room
/// left in their virtual-span list.
fn collect_candidates(heap: &GlobalHeap, st: &ClassState) -> Vec<MiniHeapId> {
    let cutoff = heap.rt.occupancy_cutoff();
    let max_spans = heap.rt.max_span_count();
    let mut out = Vec::new();
    for bin in 0..PARTIAL_BINS {
        for &id in &st.bins.partial[bin] {
            let mh = st.slab.get(id).expect("binned ids are live");
            debug_assert!(!mh.is_attached());
            if mh.occupancy() <= cutoff && mh.span_count() < max_spans {
                out.push(id);
            }
        }
    }
    out
}

/// The SplitMesher procedure of Figure 2: shuffle the candidate list,
/// split it into halves, and probe `Sl[j]` against `Sr[(j+i) % len]` for
/// `i < t`. Returns the pairs to mesh (each span in at most one pair).
/// Every probed pair that fails — overlapping bitmaps, or a combined
/// alias count over the page-table budget — bumps `rejects` (the
/// ledger's occupancy-overlap tally).
fn split_mesher(
    st: &mut ClassState,
    mut candidates: Vec<MiniHeapId>,
    probe_limit: usize,
    max_spans: usize,
    probes: &mut usize,
    rejects: &mut u64,
) -> Vec<(MiniHeapId, MiniHeapId)> {
    st.rng.shuffle(&mut candidates);
    let half = candidates.len() / 2;
    let (left, right) = candidates.split_at(half);
    // `left` has `half` entries; `right` has `half` or `half + 1`.
    let len = half;
    if len == 0 {
        return Vec::new();
    }
    let mut used_l = vec![false; left.len()];
    let mut used_r = vec![false; right.len()];
    let mut pairs = Vec::new();
    for i in 0..probe_limit {
        for j in 0..len {
            if used_l[j] {
                continue;
            }
            let k = (j + i) % right.len();
            if used_r[k] {
                continue;
            }
            *probes += 1;
            let a = st.slab.get(left[j]).expect("candidate is live");
            let b = st.slab.get(right[k]).expect("candidate is live");
            // Combined alias count must stay within the page-table budget.
            if a.span_count() + b.span_count() > max_spans {
                *rejects += 1;
                continue;
            }
            if a.bitmap().meshes_with(b.bitmap()) {
                used_l[j] = true;
                used_r[k] = true;
                pairs.push((left[j], right[k]));
            } else {
                *rejects += 1;
            }
        }
    }
    pairs
}

/// Meshes one pair: consolidates objects onto the higher-occupancy span
/// (fewer bytes to copy), retargets the source's virtual spans, and
/// releases the source's physical span (§4.5). The caller holds the class
/// lock; the arena lock is held across the VM operations.
///
/// Returns false when the kernel refused to write-protect a source span:
/// the pair is left exactly as found (counted as a copy abort) and the
/// caller meshes no further pairs of the class, since every remaining
/// pair would need the same kind of mapping split.
fn mesh_pair(
    heap: &GlobalHeap,
    st: &mut ClassState,
    class: SizeClass,
    a: MiniHeapId,
    b: MiniHeapId,
    summary: &mut MeshSummary,
    rejected: &mut [u64; REJECT_REASONS],
) -> bool {
    // Destination = more live objects → we copy the smaller side. Ties
    // break segment-aware: evacuate the span whose segment has fewer
    // outstanding pages, so sparse segments drain toward retirement.
    let (dst_id, src_id) = {
        let ma = st.slab.get(a).expect("mesh candidate is live");
        let mb = st.slab.get(b).expect("mesh candidate is live");
        if ma.in_use() > mb.in_use() {
            (a, b)
        } else if ma.in_use() < mb.in_use() {
            (b, a)
        } else {
            let arena = heap.lock_arena();
            if arena.segment_outstanding_of(ma.span())
                >= arena.segment_outstanding_of(mb.span())
            {
                (a, b)
            } else {
                (b, a)
            }
        }
    };

    let arena_base = heap.base_addr();
    let (src_spans, src_slots, object_size, src_primary) = {
        let src = st.slab.get(src_id).expect("mesh source is live");
        (
            src.virtual_spans().to_vec(),
            src.bitmap().iter_set().collect::<Vec<_>>(),
            src.object_size(),
            src.span(),
        )
    };
    let dst_primary = st.slab.get(dst_id).expect("mesh dest is live").span();
    debug_assert_eq!(src_primary.pages, dst_primary.pages);

    let mut arena = heap.lock_arena();

    // Copy-window phase: barrier raise through the object copies — the
    // window during which mutator writes to the source spans fault.
    let copy_t0 = Instant::now();

    // Raise the write barrier and protect every virtual span of the source
    // so no thread can write to an object while it is being copied.
    if let Some(guard) = arena.barrier() {
        guard.begin_meshing();
    }
    for (i, &vs) in src_spans.iter().enumerate() {
        if arena.protect_span(vs).is_err() {
            abort_copy_window(&mut arena, &src_spans[..i]);
            rejected[RejectReason::CopyAbort as usize] += 1;
            return false;
        }
    }

    // Hardened canary sweep: with the sources frozen behind the barrier,
    // every *free* slot of both primaries must still hold its class
    // canary (written when the slot died). A corrupt canary means a
    // dangling write landed in memory this pair is about to copy over or
    // alias; refuse to mesh and surface the violation instead of baking
    // the corruption into a shared physical span.
    if heap.harden.canary_on() {
        let canary = heap.canary(class.index());
        let mut bad = None;
        'sweep: for (id, primary) in [(src_id, src_primary), (dst_id, dst_primary)] {
            let mh = st.slab.get(id).expect("mesh candidate is live");
            let base = arena_base + primary.byte_offset();
            for slot in 0..class.object_count() {
                if mh.bitmap().is_set(slot) {
                    continue;
                }
                let addr = base + slot * object_size;
                if !unsafe { crate::harden::canary_intact(addr, object_size, canary) } {
                    bad = Some(addr);
                    break 'sweep;
                }
            }
        }
        if let Some(addr) = bad {
            abort_copy_window(&mut arena, &src_spans);
            rejected[RejectReason::CanaryTrip as usize] += 1;
            heap.harden_violation(crate::harden::HardenKind::Canary, addr);
            return true;
        }
    }

    // Copy each live source object to the same slot of the destination.
    {
        let dst = st.slab.get(dst_id).expect("mesh dest is live");
        let src_base = arena_base + src_primary.byte_offset();
        let dst_base = arena_base + dst_primary.byte_offset();
        for &slot in &src_slots {
            let claimed = dst.bitmap().try_set(slot);
            debug_assert!(claimed, "mesh candidates were not disjoint");
            // SAFETY: both addresses lie in the arena mapping; slots are
            // in-bounds; the ranges cannot overlap (distinct spans); the
            // write barrier prevents concurrent writes to the source.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    (src_base + slot * object_size) as *const u8,
                    (dst_base + slot * object_size) as *mut u8,
                    object_size,
                );
            }
            summary.bytes_copied += object_size;
        }
    }

    heap.counters
        .record_slow(TimedOp::MeshCopy, copy_t0, src_slots.len() as u64);

    // Remap phase: physical release + alias retargeting through the
    // barrier drop.
    let remap_t0 = Instant::now();

    // Release the source's physical pages and retarget its virtual spans.
    // Ordering depends on the release primitive; see module docs.
    let release_before_remap = arena.release_strategy() == ReleaseStrategy::MadviseDontNeed;
    if release_before_remap {
        arena.release_physical(src_primary);
    }
    for &vs in &src_spans {
        arena
            .remap_alias(vs, dst_primary)
            .expect("mesh remap failed");
        heap.page_map.set_span(vs, dst_id, class.index() as u8);
    }
    if !release_before_remap {
        arena.release_after_remap(src_primary);
    }
    // The remap itself restored PROT_READ|WRITE on all source spans, so
    // spinning writers proceed as soon as the barrier drops.
    if let Some(guard) = arena.barrier() {
        guard.end_meshing();
    }
    heap.counters
        .record_slow(TimedOp::MeshRemap, remap_t0, src_spans.len() as u64);
    drop(arena);

    // Fold the source's spans into the destination MiniHeap and retire it.
    st.bin_remove(src_id);
    let src = st.slab.remove(src_id);
    debug_assert_eq!(src.bitmap().in_use(), src_slots.len());
    st.slab
        .get_mut(dst_id)
        .expect("mesh dest is live")
        .absorb_spans(&src_spans);
    st.rebin(dst_id);

    summary.pairs_meshed += 1;
    summary.pages_released += src_primary.pages as usize;
    true
}

/// Unwinds a copy window before any object moved: restores write access
/// to the `protected` source spans and drops the barrier, leaving both
/// spans of the pair exactly as found.
fn abort_copy_window(arena: &mut Arena, protected: &[Span]) {
    for &vs in protected {
        arena.unprotect_span(vs);
    }
    if let Some(guard) = arena.barrier() {
        guard.end_meshing();
    }
}

/// Pure helper exposed for tests and the theory crate: would these two
/// bitmap word-arrays mesh? (Definition 5.1 on raw words.)
pub fn words_mesh(a: &[u64; 4], b: &[u64; 4]) -> bool {
    (a[0] & b[0]) | (a[1] & b[1]) | (a[2] & b[2]) | (a[3] & b[3]) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use crate::rng::Rng;
    use crate::shuffle_vector::ShuffleVector;
    use crate::stats::Counters;
    use std::sync::Arc;

    fn heap(seed: u64) -> GlobalHeap {
        GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(seed)
                .write_barrier(false),
            Arc::new(Counters::default()),
        )
        .unwrap()
    }

    /// Builds a detached MiniHeap of `class` with objects at `slots`, each
    /// filled with `fill`.
    fn detached_with_slots(
        h: &GlobalHeap,
        class: SizeClass,
        slots: &[usize],
        fill: u8,
    ) -> MiniHeapId {
        let mut st = h.lock_class(class);
        let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
        let mh = st.slab.get(id).unwrap();
        let start = h.base_addr() + mh.span().byte_offset();
        for &s in slots {
            assert!(mh.bitmap().try_set(s));
            unsafe {
                std::ptr::write_bytes(
                    (start + s * class.object_size()) as *mut u8,
                    fill,
                    class.object_size(),
                );
            }
        }
        st.bin_insert(id);
        id
    }

    #[test]
    fn words_mesh_predicate() {
        assert!(words_mesh(&[0b0101, 0, 0, 0], &[0b1010, 0, 0, 0]));
        assert!(!words_mesh(&[0b0101, 0, 0, 0], &[0b0100, 0, 0, 0]));
        assert!(words_mesh(&[0; 4], &[u64::MAX; 4]));
    }

    #[test]
    fn mesh_pair_preserves_object_contents_and_addresses() {
        let h = heap(1);
        let class = SizeClass::for_size(256).unwrap();
        let a = detached_with_slots(&h, class, &[0, 2, 4], 0xAA);
        let b = detached_with_slots(&h, class, &[1, 3, 5], 0xBB);
        let base = h.base_addr();
        let mut st = h.lock_class(class);
        let addr_a = base + st.slab.get(a).unwrap().span().byte_offset();
        let addr_b = base + st.slab.get(b).unwrap().span().byte_offset();
        let committed_before = h.lock_arena().committed_pages();

        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pair(&h, &mut st, class, a, b, &mut summary, &mut rejected);
        assert_eq!(summary.pairs_meshed, 1);
        assert_eq!(summary.pages_released, class.span_pages());
        assert_eq!(
            h.lock_arena().committed_pages(),
            committed_before - class.span_pages()
        );

        // Exactly one MiniHeap survives, with both virtual spans.
        assert_eq!(st.slab.len(), 1);
        let (survivor_id, survivor) = st.slab.iter().next().unwrap();
        assert_eq!(survivor.span_count(), 2);
        assert_eq!(survivor.in_use(), 6);

        // All six objects readable at their ORIGINAL virtual addresses.
        for &(addr, slots, fill) in
            &[(addr_a, [0usize, 2, 4], 0xAAu8), (addr_b, [1, 3, 5], 0xBB)]
        {
            for s in slots {
                let p = (addr + s * 256) as *const u8;
                unsafe {
                    assert_eq!(*p, fill, "object at slot {s} corrupted");
                    assert_eq!(*p.add(255), fill);
                }
            }
        }

        // Both spans' pages resolve to the survivor.
        let owner = |addr: usize| h.page_map.get(h.page_of_addr(addr).unwrap()).map(|i| i.id);
        assert_eq!(owner(addr_a + 10), Some(survivor_id));
        assert_eq!(owner(addr_b + 10), Some(survivor_id));
    }

    #[test]
    fn meshed_survivor_frees_through_both_spans_then_dies() {
        let h = heap(2);
        let class = SizeClass::for_size(512).unwrap();
        let a = detached_with_slots(&h, class, &[0, 1], 1);
        let b = detached_with_slots(&h, class, &[6, 7], 2);
        let base = h.base_addr();
        let (addr_a, addr_b) = {
            let mut st = h.lock_class(class);
            let addr_a = base + st.slab.get(a).unwrap().span().byte_offset();
            let addr_b = base + st.slab.get(b).unwrap().span().byte_offset();
            let mut summary = MeshSummary::default();
            let mut rejected = [0u64; REJECT_REASONS];
            mesh_pair(&h, &mut st, class, a, b, &mut summary, &mut rejected);
            (addr_a, addr_b)
        };

        // Free objects through their original (virtual) addresses.
        assert!(h.free_global(addr_a));
        assert!(h.free_global(addr_a + 512));
        assert!(h.free_global(addr_b + 6 * 512));
        assert!(h.free_global(addr_b + 7 * 512));
        h.drain_all();
        {
            let st = h.lock_class(class);
            assert_eq!(st.slab.len(), 0, "survivor destroyed when empty");
        }
        // Identity restored: both page ranges unowned again.
        assert_eq!(h.page_map.get(h.page_of_addr(addr_a).unwrap()), None);
        assert_eq!(h.page_map.get(h.page_of_addr(addr_b).unwrap()), None);
    }

    #[test]
    fn split_mesher_finds_disjoint_pairs() {
        let h = heap(3);
        let class = SizeClass::for_size(1024).unwrap();
        // Even-slot and odd-slot heaps: any (even, odd) pair meshes.
        for i in 0..8 {
            let slots: Vec<usize> = if i % 2 == 0 { vec![0, 2] } else { vec![1, 3] };
            detached_with_slots(&h, class, &slots, i as u8);
        }
        let mut st = h.lock_class(class);
        let candidates = collect_candidates(&h, &st);
        assert_eq!(candidates.len(), 8);
        let mut probes = 0;
        let mut rejects = 0u64;
        let pairs = split_mesher(&mut st, candidates, 64, 3, &mut probes, &mut rejects);
        assert!(probes > 0);
        // With t=64 and only two "shapes", SplitMesher should pair nearly
        // everything; at minimum one pair must exist.
        assert!(!pairs.is_empty());
        for (x, y) in &pairs {
            let a = st.slab.get(*x).unwrap();
            let b = st.slab.get(*y).unwrap();
            assert!(a.bitmap().meshes_with(b.bitmap()));
        }
    }

    #[test]
    fn full_pass_meshes_compatible_spans_and_respects_span_limit() {
        let h = heap(4);
        let class = SizeClass::for_size(128).unwrap();
        for i in 0..6 {
            let slots = vec![i]; // all singletons at distinct offsets: all mesh
            detached_with_slots(&h, class, &slots, i as u8);
        }
        let summary = mesh_all_classes(&h);
        assert!(summary.pairs_meshed >= 2, "got {summary:?}");
        // max_span_count = 3 by default: no MiniHeap may exceed 3 spans.
        let st = h.lock_class(class);
        for (_, mh) in st.slab.iter() {
            assert!(mh.span_count() <= 3);
        }
        let stats = h.counters.snapshot();
        assert_eq!(stats.mesh_passes, 1);
        assert!(stats.mesh_pages_released >= 2);
    }

    #[test]
    fn occupancy_cutoff_excludes_full_spans() {
        let h = heap(5);
        h.rt.set_occupancy_cutoff(0.5);
        let class = SizeClass::for_size(2048).unwrap();
        let count = class.object_count(); // 8
        // 75% occupied: above cutoff → not a candidate.
        let dense: Vec<usize> = (0..count * 3 / 4).collect();
        detached_with_slots(&h, class, &dense, 1);
        detached_with_slots(&h, class, &[0], 2);
        let st = h.lock_class(class);
        let candidates = collect_candidates(&h, &st);
        assert_eq!(candidates.len(), 1);
    }

    #[test]
    fn attached_miniheaps_are_never_candidates() {
        let h = heap(6);
        let class = SizeClass::for_size(64).unwrap();
        let mut sv = ShuffleVector::new(true);
        let mut rng = Rng::with_seed(1);
        h.refill(&mut sv, class, 1, &mut rng).unwrap();
        sv.malloc().unwrap();
        let st = h.lock_class(class);
        assert!(collect_candidates(&h, &st).is_empty());
    }

    #[test]
    fn non_meshable_classes_skipped_but_still_drained() {
        let h = heap(7);
        let class = SizeClass::for_size(8192).unwrap();
        assert!(!class.is_meshable());
        let a = detached_with_slots(&h, class, &[0], 1);
        detached_with_slots(&h, class, &[1], 2);
        // Queue a remote free for the non-meshable class, then run a pass:
        // the pass must not mesh it but must apply the queued free.
        let addr = {
            let st = h.lock_class(class);
            h.base_addr() + st.slab.get(a).unwrap().span().byte_offset()
        };
        assert!(h.free_global(addr), "free enqueues on the class queue");
        let summary = mesh_all_classes(&h);
        assert_eq!(summary.pairs_meshed, 0);
        let st = h.lock_class(class);
        assert!(st.slab.get(a).is_none(), "queued free not applied by the pass");
    }
}
