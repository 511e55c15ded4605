//! Log2-bucketed latency histograms for every slow-path operation.
//!
//! HDR-style: 64 buckets at half-octave resolution from 16 ns up
//! (bucket 62's upper bound is ≈ 34 s; bucket 63 is the overflow
//! catch-all), so two buckets per power of two keep the relative
//! quantization error under 50% across nine decades while the whole
//! histogram stays a flat array of counters.
//!
//! Two recording tiers mirror [`crate::stats::LocalCounters`]:
//!
//! * a **shared block** (relaxed `fetch_add`) for operations recorded
//!   under global-heap or arena locks — lock waits, drains, mesh phases,
//!   segment and `madvise` work. These paths already pay a lock, so one
//!   more RMW is noise.
//! * **per-thread blocks** (single-writer plain load+store, one cacheline
//!   set per thread, registered like `LocalCounters`) for operations a
//!   mutator thread records about itself — shuffle-vector refills and
//!   sender-side flushes. Merged on [`HistSet::snapshot`].
//!
//! The malloc/free fast path records nothing: every instrumented site is
//! one that already took a lock, a queue, or a syscall.

use crate::sync::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets (shared by every op).
pub const LATENCY_BUCKETS: usize = 64;

/// The slow-path operations with recorded durations.
///
/// The discriminants index the histogram arrays and the trace-event
/// `op` field; they are stable within one build but not an ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum TimedOp {
    /// Shuffle-vector refill (one class-shard visit).
    Refill = 0,
    /// Contended class-shard lock acquisition (blocked time only).
    ClassLockWait = 1,
    /// Contended arena leaf-lock acquisition (blocked time only).
    ArenaLockWait = 2,
    /// Mutator blocked on a lock while a mesh pass held it: the pause
    /// the paper's §6.2.2 "longest pause" claim is about.
    MutatorPause = 3,
    /// Remote-free queue drain under a class lock.
    RemoteDrain = 4,
    /// Sender-side remote-free batch flush.
    TransferFlush = 5,
    /// Mesh-pass phase 1: candidate collection + SplitMesher probing.
    MeshCandidates = 6,
    /// Mesh-pass phase 2: write-protect + copy window (the §4.5.2
    /// barrier is up for exactly this duration).
    MeshCopy = 7,
    /// Mesh-pass phase 3: physical release + virtual remap.
    MeshRemap = 8,
    /// One whole meshing pass (all classes).
    MeshPass = 9,
    /// Mapping a new segment (memfd + mmap).
    SegmentGrow = 10,
    /// Retiring empty segments (unmap back to the reservation).
    SegmentRetire = 11,
    /// Physical-page release calls (`madvise`/hole punching), including
    /// dirty purges.
    Madvise = 12,
}

/// Number of [`TimedOp`] variants (array dimension).
pub const NUM_TIMED_OPS: usize = 13;

/// All ops, in discriminant order.
pub const ALL_TIMED_OPS: [TimedOp; NUM_TIMED_OPS] = [
    TimedOp::Refill,
    TimedOp::ClassLockWait,
    TimedOp::ArenaLockWait,
    TimedOp::MutatorPause,
    TimedOp::RemoteDrain,
    TimedOp::TransferFlush,
    TimedOp::MeshCandidates,
    TimedOp::MeshCopy,
    TimedOp::MeshRemap,
    TimedOp::MeshPass,
    TimedOp::SegmentGrow,
    TimedOp::SegmentRetire,
    TimedOp::Madvise,
];

impl TimedOp {
    /// Array index of this op.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short machine-readable name (trace events, `render()` keys).
    pub fn name(self) -> &'static str {
        match self {
            TimedOp::Refill => "refill",
            TimedOp::ClassLockWait => "class_lock_wait",
            TimedOp::ArenaLockWait => "arena_lock_wait",
            TimedOp::MutatorPause => "mutator_pause",
            TimedOp::RemoteDrain => "remote_drain",
            TimedOp::TransferFlush => "transfer_flush",
            TimedOp::MeshCandidates => "mesh_candidates",
            TimedOp::MeshCopy => "mesh_copy",
            TimedOp::MeshRemap => "mesh_remap",
            TimedOp::MeshPass => "mesh_pass",
            TimedOp::SegmentGrow => "segment_grow",
            TimedOp::SegmentRetire => "segment_retire",
            TimedOp::Madvise => "madvise",
        }
    }

    /// Prometheus base name of this op's histogram (seconds units, per
    /// convention; `_bucket`/`_sum`/`_count` series hang off it).
    pub fn prom_name(self) -> &'static str {
        match self {
            TimedOp::Refill => "mesh_refill_seconds",
            TimedOp::ClassLockWait => "mesh_class_lock_wait_seconds",
            TimedOp::ArenaLockWait => "mesh_arena_lock_wait_seconds",
            TimedOp::MutatorPause => "mesh_mutator_pause_seconds",
            TimedOp::RemoteDrain => "mesh_remote_drain_seconds",
            TimedOp::TransferFlush => "mesh_transfer_flush_seconds",
            TimedOp::MeshCandidates => "mesh_mesh_candidates_seconds",
            TimedOp::MeshCopy => "mesh_mesh_copy_seconds",
            TimedOp::MeshRemap => "mesh_mesh_remap_seconds",
            TimedOp::MeshPass => "mesh_mesh_pass_seconds",
            TimedOp::SegmentGrow => "mesh_segment_grow_seconds",
            TimedOp::SegmentRetire => "mesh_segment_retire_seconds",
            TimedOp::Madvise => "mesh_madvise_seconds",
        }
    }

    /// Op from a raw discriminant (trace-event decoding).
    pub fn from_u16(raw: u16) -> Option<TimedOp> {
        ALL_TIMED_OPS.get(raw as usize).copied()
    }
}

/// Bucket index for a duration of `ns` nanoseconds.
///
/// Bucket 0 holds everything under 16 ns; above that, each power of two
/// splits into two half-octave buckets (`[2^p, 1.5·2^p)` and
/// `[1.5·2^p, 2^(p+1))`); bucket 63 is the overflow catch-all.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < 16 {
        return 0;
    }
    let p = 63 - ns.leading_zeros() as usize; // floor(log2 ns), ≥ 4
    let half = ((ns >> (p - 1)) & 1) as usize; // upper half of the octave?
    ((p - 4) * 2 + half + 1).min(LATENCY_BUCKETS - 1)
}

/// Exclusive upper bound of bucket `b` in nanoseconds (`u64::MAX` for
/// the overflow bucket).
pub fn bucket_upper_ns(b: usize) -> u64 {
    debug_assert!(b < LATENCY_BUCKETS);
    if b == 0 {
        return 16;
    }
    if b == LATENCY_BUCKETS - 1 {
        return u64::MAX;
    }
    let k = b - 1;
    let p = 4 + k / 2;
    if k.is_multiple_of(2) {
        3u64 << (p - 1) // 1.5 · 2^p
    } else {
        1u64 << (p + 1)
    }
}

/// One flat block of histogram counters: per-op bucket counts plus the
/// total duration and the running maximum. Field layout is identical for
/// the shared and per-thread tiers; only the write discipline differs.
struct HistBlock {
    counts: [[AtomicU64; LATENCY_BUCKETS]; NUM_TIMED_OPS],
    sums: [AtomicU64; NUM_TIMED_OPS],
    maxes: [AtomicU64; NUM_TIMED_OPS],
}

impl Default for HistBlock {
    fn default() -> HistBlock {
        HistBlock {
            counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
            maxes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistBlock {
    /// Multi-writer record (relaxed RMW).
    fn record_shared(&self, op: TimedOp, ns: u64) {
        let i = op.index();
        self.counts[i][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sums[i].fetch_add(ns, Ordering::Relaxed);
        self.maxes[i].fetch_max(ns, Ordering::Relaxed);
    }

    /// Single-writer record: plain load+store pairs, no `lock` prefix
    /// (the [`crate::stats::LocalCounters`] discipline — only the owning
    /// thread writes, any thread may read).
    fn record_local(&self, op: TimedOp, ns: u64) {
        #[inline]
        fn bump(cell: &AtomicU64, v: u64) {
            cell.store(cell.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
        }
        let i = op.index();
        bump(&self.counts[i][bucket_of(ns)], 1);
        bump(&self.sums[i], ns);
        let max = &self.maxes[i];
        if max.load(Ordering::Relaxed) < ns {
            max.store(ns, Ordering::Relaxed);
        }
    }

    fn add_into(&self, snap: &mut LatencySnapshot) {
        for i in 0..NUM_TIMED_OPS {
            for b in 0..LATENCY_BUCKETS {
                snap.counts[i][b] =
                    snap.counts[i][b].wrapping_add(self.counts[i][b].load(Ordering::Relaxed));
            }
            snap.sums[i] = snap.sums[i].wrapping_add(self.sums[i].load(Ordering::Relaxed));
            snap.maxes[i] = snap.maxes[i].max(self.maxes[i].load(Ordering::Relaxed));
        }
    }

    fn zero(&self) {
        for i in 0..NUM_TIMED_OPS {
            for b in 0..LATENCY_BUCKETS {
                self.counts[i][b].store(0, Ordering::Relaxed);
            }
            self.sums[i].store(0, Ordering::Relaxed);
            self.maxes[i].store(0, Ordering::Relaxed);
        }
    }
}

/// One thread's single-writer histogram block, registered with the
/// heap's [`HistSet`] for the lifetime of the thread heap.
#[repr(align(64))] // own cachelines: no false sharing between threads
#[derive(Default)]
pub(crate) struct LocalHists(HistBlock);

impl std::fmt::Debug for LocalHists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalHists").finish_non_exhaustive()
    }
}

impl LocalHists {
    /// Records one duration (owner thread only).
    #[inline]
    pub(crate) fn record(&self, op: TimedOp, ns: u64) {
        self.0.record_local(op, ns);
    }
}

/// The heap's latency-histogram state: the shared block plus the live
/// per-thread blocks. Lives on [`crate::stats::Counters`] so every layer
/// holding the counters (arena included) can record.
pub(crate) struct HistSet {
    shared: HistBlock,
    locals: Mutex<Vec<Arc<LocalHists>>>,
}

impl Default for HistSet {
    fn default() -> HistSet {
        HistSet {
            shared: HistBlock::default(),
            locals: Mutex::new(Vec::new()),
        }
    }
}

impl std::fmt::Debug for HistSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistSet").finish_non_exhaustive()
    }
}

impl HistSet {
    /// Records one duration into the shared (multi-writer) block.
    #[inline]
    pub(crate) fn record(&self, op: TimedOp, ns: u64) {
        self.shared.record_shared(op, ns);
    }

    /// Creates and registers a per-thread single-writer block.
    pub(crate) fn register_local(&self) -> Arc<LocalHists> {
        let block = Arc::new(LocalHists::default());
        self.locals.lock().push(Arc::clone(&block));
        block
    }

    /// Folds a dying thread's block into the shared tier and removes it
    /// from the registry (totals survive the thread).
    pub(crate) fn unregister_local(&self, block: &Arc<LocalHists>) {
        let mut snap = LatencySnapshot::default();
        block.0.add_into(&mut snap);
        for op in ALL_TIMED_OPS {
            let i = op.index();
            for b in 0..LATENCY_BUCKETS {
                if snap.counts[i][b] > 0 {
                    self.shared.counts[i][b].fetch_add(snap.counts[i][b], Ordering::Relaxed);
                }
            }
            if snap.sums[i] > 0 {
                self.shared.sums[i].fetch_add(snap.sums[i], Ordering::Relaxed);
            }
            self.shared.maxes[i].fetch_max(snap.maxes[i], Ordering::Relaxed);
        }
        self.locals.lock().retain(|b| !Arc::ptr_eq(b, block));
    }

    /// Holds the registry lock (fork quiescence; a leaf lock).
    pub(crate) fn lock_locals(&self) -> MutexGuard<'_, Vec<Arc<LocalHists>>> {
        self.locals.lock()
    }

    /// Merged view: shared block + every live per-thread block.
    pub(crate) fn snapshot(&self) -> LatencySnapshot {
        let mut snap = LatencySnapshot::default();
        self.shared.add_into(&mut snap);
        for block in self.locals.lock().iter() {
            block.0.add_into(&mut snap);
        }
        snap
    }

    /// Zeroes every tier (forked child: its latency timeline starts
    /// fresh; single-threaded post-fork, so plain stores are safe).
    pub(crate) fn zero_all(&self) {
        self.shared.zero();
        for block in self.locals.lock().iter() {
            block.0.zero();
        }
    }
}

/// A point-in-time merge of every latency histogram, carried on
/// [`crate::HeapStats`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Bucket counts, indexed `[op][bucket]` (see [`bucket_upper_ns`]).
    pub counts: [[u64; LATENCY_BUCKETS]; NUM_TIMED_OPS],
    /// Total recorded nanoseconds per op.
    pub sums: [u64; NUM_TIMED_OPS],
    /// Longest recorded duration per op, nanoseconds.
    pub maxes: [u64; NUM_TIMED_OPS],
}

impl Default for LatencySnapshot {
    fn default() -> LatencySnapshot {
        LatencySnapshot {
            counts: [[0; LATENCY_BUCKETS]; NUM_TIMED_OPS],
            sums: [0; NUM_TIMED_OPS],
            maxes: [0; NUM_TIMED_OPS],
        }
    }
}

impl std::fmt::Debug for LatencySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("LatencySnapshot");
        for op in ALL_TIMED_OPS {
            if self.count(op) > 0 {
                s.field(op.name(), &(self.count(op), self.sum_ns(op), self.max_ns(op)));
            }
        }
        s.finish_non_exhaustive()
    }
}

impl LatencySnapshot {
    /// Number of recorded durations for `op`.
    pub fn count(&self, op: TimedOp) -> u64 {
        self.counts[op.index()].iter().sum()
    }

    /// Total recorded nanoseconds for `op`.
    pub fn sum_ns(&self, op: TimedOp) -> u64 {
        self.sums[op.index()]
    }

    /// Longest recorded duration for `op`, nanoseconds.
    pub fn max_ns(&self, op: TimedOp) -> u64 {
        self.maxes[op.index()]
    }

    /// Whether any op recorded anything.
    pub fn is_empty(&self) -> bool {
        ALL_TIMED_OPS.iter().all(|&op| self.count(op) == 0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) for `op`, reported as the upper
    /// bound of the bucket holding it (the HDR convention: an
    /// overestimate by at most half an octave), clamped to the observed
    /// maximum so no percentile exceeds `max_ns` (the overflow bucket
    /// thus reports the exact maximum). Returns 0 with no recordings.
    pub fn percentile_ns(&self, op: TimedOp, q: f64) -> u64 {
        let total = self.count(op);
        if total == 0 {
            return 0;
        }
        let max = self.max_ns(op);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in self.counts[op.index()].iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_ns(b).min(max);
            }
        }
        max
    }

    /// Per-op difference against an earlier snapshot (bucket counts and
    /// sums subtract; maxes keep this snapshot's value — a max cannot be
    /// un-observed). The windowed view benches report from.
    pub fn minus(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        let mut out = *self;
        for i in 0..NUM_TIMED_OPS {
            for b in 0..LATENCY_BUCKETS {
                out.counts[i][b] = out.counts[i][b].wrapping_sub(earlier.counts[i][b]);
            }
            out.sums[i] = out.sums[i].wrapping_sub(earlier.sums[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_monotone_and_half_octave() {
        // Exhaustive boundary check: bucket_of is monotone in ns, and
        // every value lands strictly below its bucket's upper bound.
        let mut last = 0;
        for p in 0..40u32 {
            for ns in [1u64 << p, (1u64 << p) + 1, (3u64 << p) / 2, (1u64 << (p + 1)) - 1] {
                let b = bucket_of(ns);
                assert!(b >= last || b == LATENCY_BUCKETS - 1, "non-monotone at {ns}");
                last = last.max(b);
                assert!(ns < bucket_upper_ns(b), "{ns} >= ub({b})");
                if b > 0 {
                    assert!(ns >= bucket_upper_ns(b - 1), "{ns} < ub({})", b - 1);
                }
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 0);
        assert_eq!(bucket_of(16), 1);
        assert_eq!(bucket_of(23), 1);
        assert_eq!(bucket_of(24), 2);
        assert_eq!(bucket_upper_ns(1), 24);
        assert_eq!(bucket_upper_ns(2), 32);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        // ~16s lands inside the table, not the overflow bucket.
        assert!(bucket_of(16_000_000_000) < LATENCY_BUCKETS - 1);
    }

    #[test]
    fn record_snapshot_percentiles() {
        let h = HistSet::default();
        for _ in 0..90 {
            h.record(TimedOp::Refill, 100);
        }
        for _ in 0..9 {
            h.record(TimedOp::Refill, 10_000);
        }
        h.record(TimedOp::Refill, 5_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(TimedOp::Refill), 100);
        assert_eq!(s.sum_ns(TimedOp::Refill), 9000 + 90_000 + 5_000_000);
        assert_eq!(s.max_ns(TimedOp::Refill), 5_000_000);
        let p50 = s.percentile_ns(TimedOp::Refill, 0.50);
        assert!((96..=128).contains(&p50), "p50 {p50}");
        let p99 = s.percentile_ns(TimedOp::Refill, 0.99);
        assert!((10_000..=16_384).contains(&p99), "p99 {p99}");
        assert_eq!(s.percentile_ns(TimedOp::Refill, 1.0), 5_000_000, "clamped to the max");
        assert_eq!(s.count(TimedOp::MeshPass), 0);
        assert_eq!(s.percentile_ns(TimedOp::MeshPass, 0.5), 0);
    }

    #[test]
    fn percentiles_never_exceed_the_observed_max() {
        // One sample of 18582 ns sits in the bucket whose upper edge is
        // 24576 ns; every percentile must read the sample itself.
        let h = HistSet::default();
        h.record(TimedOp::Refill, 18_582);
        let s = h.snapshot();
        assert_eq!(bucket_upper_ns(bucket_of(18_582)), 24_576);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.percentile_ns(TimedOp::Refill, q), 18_582, "q={q}");
        }
        // Below the max the bucket edge still stands.
        h.record(TimedOp::Refill, 100_000);
        assert_eq!(h.snapshot().percentile_ns(TimedOp::Refill, 0.5), 24_576);
    }

    #[test]
    fn locals_merge_on_snapshot_and_fold_on_unregister() {
        let h = HistSet::default();
        let a = h.register_local();
        let b = h.register_local();
        a.record(TimedOp::Refill, 50);
        a.record(TimedOp::Refill, 70);
        b.record(TimedOp::TransferFlush, 1000);
        let s = h.snapshot();
        assert_eq!(s.count(TimedOp::Refill), 2);
        assert_eq!(s.count(TimedOp::TransferFlush), 1);
        h.unregister_local(&a);
        let s = h.snapshot();
        assert_eq!(s.count(TimedOp::Refill), 2, "totals survive unregister");
        assert_eq!(s.sum_ns(TimedOp::Refill), 120);
        assert_eq!(s.max_ns(TimedOp::Refill), 70);
    }

    #[test]
    fn zero_all_clears_every_tier() {
        let h = HistSet::default();
        let a = h.register_local();
        a.record(TimedOp::MutatorPause, 999);
        h.record(TimedOp::MeshPass, 12345);
        h.zero_all();
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn minus_windows_counts_not_maxes() {
        let h = HistSet::default();
        h.record(TimedOp::MeshCopy, 100);
        let before = h.snapshot();
        h.record(TimedOp::MeshCopy, 200);
        let window = h.snapshot().minus(&before);
        assert_eq!(window.count(TimedOp::MeshCopy), 1);
        assert_eq!(window.sum_ns(TimedOp::MeshCopy), 200);
        assert_eq!(window.max_ns(TimedOp::MeshCopy), 200);
    }

    #[test]
    fn op_tables_agree() {
        for (i, op) in ALL_TIMED_OPS.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(TimedOp::from_u16(i as u16), Some(*op));
            assert!(op.prom_name().starts_with("mesh_"));
            assert!(op.prom_name().ends_with("_seconds"));
        }
        assert_eq!(TimedOp::from_u16(NUM_TIMED_OPS as u16), None);
    }
}
