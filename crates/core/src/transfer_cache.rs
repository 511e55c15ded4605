//! Transfer cache: a tcmalloc-style middle tier between thread heaps and
//! the per-class global shards.
//!
//! Each size class owns a small stack of fixed-size *batches* — `Vec`s of
//! claimed object addresses whose MiniHeap bitmap bits are **set** (exactly
//! like slots held by an attached shuffle vector). A thread heap that
//! misses its shuffle vector first pops a whole batch here, paying one
//! mutex op per `batch` objects instead of one class-lock acquisition per
//! refill; the drain path recycles validated remote frees into batches
//! instead of rebinning them, and detaching vectors spill their surplus
//! here for the next thread.
//!
//! ## Locking discipline
//!
//! The per-class mutexes are **strict leaves**: no code acquires any other
//! lock while holding one, and they are never held across a call into the
//! global heap. Pushes happen only while the owning class's shard lock is
//! held, so `room()` observed under the class lock cannot shrink before a
//! subsequent `try_push` (concurrent pops only *increase* room).
//! [`TransferCache::lock_all`] participates in fork quiescence; the guards
//! are acquired after the arena lock in the canonical `lock_all` order.
//!
//! Each class mirrors its batch count in an atomic written under its
//! mutex, so `pop`, `contains` and `room` on an empty class take no lock:
//! a class that never caches anything costs one load per call.
//!
//! Objects parked here are invisible to occupancy accounting on purpose:
//! their bits being set keeps `in_use > 0`, so the spans backing them can
//! never be freed while a cached address is outstanding. Meshing passes
//! purge the cache for a class (via `take_all`) before collecting
//! candidates so cached-but-dead slots do not pin or inflate spans.

use crate::size_classes::NUM_SIZE_CLASSES;
use crate::sync::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-size-class stacks of object-address batches.
#[derive(Debug)]
pub(crate) struct TransferCache {
    /// Objects per batch; 1 disables batching entirely (legacy path).
    /// Atomic so mesh-ctl's `set transfer_batch` can retune a live
    /// process; in-flight batches built at the old size stay valid —
    /// consumers take whatever length a popped batch has.
    batch: AtomicUsize,
    /// Max batches cached per class; 0 disables the cache (but not
    /// sender-side free batching).
    slots: usize,
    classes: Vec<ClassCache>,
}

/// One size class's batch stack.
#[derive(Debug)]
struct ClassCache {
    /// `stack.len()`, stored under the mutex after every change. Pushes
    /// happen under the class shard lock, so a holder of that lock reads
    /// an exact count; a lock-free `pop` may read a stale one and merely
    /// miss (or lock an empty stack).
    batches: AtomicUsize,
    stack: Mutex<Vec<Vec<usize>>>,
}

impl ClassCache {
    #[inline]
    fn is_empty(&self) -> bool {
        self.batches.load(Ordering::Acquire) == 0
    }

    /// Locks the stack, applies `f`, and republishes the count.
    fn with<R>(&self, f: impl FnOnce(&mut Vec<Vec<usize>>) -> R) -> R {
        let mut stack = self.stack.lock();
        let out = f(&mut stack);
        self.batches.store(stack.len(), Ordering::Release);
        out
    }
}

impl TransferCache {
    pub fn new(batch: usize, slots: usize) -> TransferCache {
        TransferCache {
            batch: AtomicUsize::new(batch.max(1)),
            slots,
            classes: (0..NUM_SIZE_CLASSES)
                .map(|_| ClassCache {
                    batches: AtomicUsize::new(0),
                    stack: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Objects moved per batch.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch.load(Ordering::Relaxed)
    }

    /// Retunes the batch size at runtime (mesh-ctl `set transfer_batch`,
    /// clamped to ≥ 1). Already-parked batches keep their old length;
    /// only newly built ones see the new size.
    pub fn set_batch(&self, batch: usize) {
        self.batch.store(batch.max(1), Ordering::Relaxed);
    }

    /// Whether remote frees are buffered in the sender and pushed as
    /// batch nodes. Batch size 1 degenerates to today's one-push-per-free
    /// path exactly.
    #[inline]
    pub fn batching_enabled(&self) -> bool {
        self.batch() > 1
    }

    /// Whether object batches are parked between threads at all.
    #[inline]
    pub fn cache_enabled(&self) -> bool {
        self.batch() > 1 && self.slots > 0
    }

    /// Pops one batch for a refill. Lock order: leaf only.
    pub fn pop(&self, class_idx: usize) -> Option<Vec<usize>> {
        let class = &self.classes[class_idx];
        if !self.cache_enabled() || class.is_empty() {
            return None;
        }
        class.with(|stack| stack.pop())
    }

    /// How many more batches the class can accept. Stable while the
    /// caller holds the class shard lock (pushes require it).
    pub fn room(&self, class_idx: usize) -> usize {
        if !self.cache_enabled() {
            return 0;
        }
        let class = &self.classes[class_idx];
        if class.is_empty() {
            return self.slots;
        }
        self.slots.saturating_sub(class.stack.lock().len())
    }

    /// Pushes one batch; returns it back on overflow (or when the cache
    /// is disabled) so the caller can release the objects properly.
    /// Must be called with the class's shard lock held.
    pub fn try_push(&self, class_idx: usize, batch: Vec<usize>) -> Result<(), Vec<usize>> {
        if !self.cache_enabled() || batch.is_empty() {
            return Err(batch);
        }
        self.classes[class_idx].with(|stack| {
            if stack.len() >= self.slots {
                return Err(batch);
            }
            stack.push(batch);
            Ok(())
        })
    }

    /// Whether `addr` is currently parked in the class's cache. Used by
    /// the drain path (under the class lock) to catch duplicate frees of
    /// cache-held objects across drain epochs.
    pub fn contains(&self, class_idx: usize, addr: usize) -> bool {
        let class = &self.classes[class_idx];
        if !self.cache_enabled() || class.is_empty() {
            return false;
        }
        class.stack.lock().iter().any(|b| b.contains(&addr))
    }

    /// Removes and returns every cached batch for the class (meshing
    /// purge, heap teardown).
    pub fn take_all(&self, class_idx: usize) -> Vec<Vec<usize>> {
        self.classes[class_idx].with(std::mem::take)
    }

    /// Acquires every per-class guard, in index order, for fork
    /// quiescence. The guards are leaves; holding them all is safe from
    /// any lock state that already follows the canonical order.
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, Vec<Vec<usize>>>> {
        self.classes.iter().map(|c| c.stack.lock()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo_per_class() {
        let tc = TransferCache::new(4, 2);
        assert!(tc.cache_enabled());
        assert_eq!(tc.room(0), 2);
        tc.try_push(0, vec![1, 2, 3, 4]).unwrap();
        tc.try_push(0, vec![5, 6]).unwrap();
        assert_eq!(tc.room(0), 0);
        // Third batch bounces back intact.
        let back = tc.try_push(0, vec![7]).unwrap_err();
        assert_eq!(back, vec![7]);
        // Classes are independent.
        tc.try_push(1, vec![9]).unwrap();
        assert_eq!(tc.pop(0), Some(vec![5, 6]));
        assert_eq!(tc.pop(0), Some(vec![1, 2, 3, 4]));
        assert_eq!(tc.pop(0), None);
        assert_eq!(tc.pop(1), Some(vec![9]));
    }

    #[test]
    fn contains_scans_all_batches() {
        let tc = TransferCache::new(2, 4);
        tc.try_push(3, vec![10, 20]).unwrap();
        tc.try_push(3, vec![30]).unwrap();
        assert!(tc.contains(3, 10));
        assert!(tc.contains(3, 30));
        assert!(!tc.contains(3, 40));
        assert!(!tc.contains(2, 10));
    }

    #[test]
    fn disabled_modes_reject_everything() {
        // batch=1: degenerate mode, no batching at all.
        let tc = TransferCache::new(1, 8);
        assert!(!tc.batching_enabled());
        assert!(!tc.cache_enabled());
        assert_eq!(tc.room(0), 0);
        assert!(tc.try_push(0, vec![1]).is_err());
        assert_eq!(tc.pop(0), None);
        assert!(!tc.contains(0, 1));
        // slots=0: sender batching on, parking off.
        let tc = TransferCache::new(32, 0);
        assert!(tc.batching_enabled());
        assert!(!tc.cache_enabled());
        assert!(tc.try_push(0, vec![1]).is_err());
        assert_eq!(tc.pop(0), None);
    }

    #[test]
    fn take_all_empties_class() {
        let tc = TransferCache::new(2, 4);
        tc.try_push(0, vec![1]).unwrap();
        tc.try_push(0, vec![2, 3]).unwrap();
        let all = tc.take_all(0);
        assert_eq!(all.len(), 2);
        assert_eq!(tc.room(0), 4);
        assert_eq!(tc.take_all(0), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn batch_count_tracks_every_change() {
        let tc = TransferCache::new(2, 3);
        let count = |c: usize| tc.classes[c].batches.load(Ordering::Relaxed);
        assert_eq!(count(5), 0);
        tc.try_push(5, vec![1, 2]).unwrap();
        tc.try_push(5, vec![3]).unwrap();
        assert_eq!(count(5), 2);
        assert_eq!(tc.room(5), 1);
        tc.try_push(5, vec![4]).unwrap();
        assert!(tc.try_push(5, vec![6]).is_err(), "full");
        assert_eq!(count(5), 3);
        assert_eq!(tc.pop(5), Some(vec![4]));
        assert_eq!(count(5), 2);
        assert!(tc.contains(5, 3));
        assert_eq!(tc.take_all(5).len(), 2);
        assert_eq!(count(5), 0);
        // Empty: answered from the count, with the mutex held elsewhere.
        let _held = tc.classes[5].stack.lock();
        assert_eq!(tc.pop(5), None);
        assert!(!tc.contains(5, 3));
        assert_eq!(tc.room(5), 3);
    }

    #[test]
    fn lock_all_covers_every_class() {
        let tc = TransferCache::new(2, 1);
        let guards = tc.lock_all();
        assert_eq!(guards.len(), NUM_SIZE_CLASSES);
    }
}
