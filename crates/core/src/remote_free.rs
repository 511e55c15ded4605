//! Lock-free MPSC remote-free queues: one per size class.
//!
//! A non-local free (§4.4.4) no longer takes any heap lock. The freeing
//! thread resolves the owning size class through the lock-free
//! [`crate::page_map::PageMap`] and pushes the address onto that class's
//! queue — a Treiber stack of heap-allocated nodes. The next thread to
//! acquire the class lock (a refill, a meshing pass, a stats snapshot)
//! drains the stack with one atomic `swap` and applies the frees to the
//! bitmaps and occupancy bins under the lock.
//!
//! Nodes are boxed rather than threaded through the freed objects
//! themselves: in a meshing allocator the physical page behind a freed
//! slot can be superseded at any time (the slot's span may become a mesh
//! source whose dead slots are *not* copied), so intrusive freelist links
//! in object memory could be silently replaced by the destination span's
//! contents. Boxed nodes also keep the seed's full double-free detection:
//! duplicate addresses are two distinct nodes, and the drain's
//! `bitmap.unset` rejects the second one.
//!
//! Validation is deferred to the drain on purpose — the pusher does not
//! know whether the free is a double free, only the class lock holder
//! does. The push is therefore *optimistic*; accounting (`frees`,
//! `live_bytes`) moves at drain time, and readers that need settled
//! numbers ([`crate::Mesh::stats`]) flush the queues first.

use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A node carries either one address (the unbuffered legacy push, which
/// pays no extra allocation) or a whole sender-side batch.
enum Payload {
    One(usize),
    Many(Vec<usize>),
}

struct Node {
    payload: Payload,
    next: *mut Node,
}

/// A multi-producer, single-drainer stack of freed addresses.
#[derive(Debug)]
pub(crate) struct RemoteFreeQueue {
    head: AtomicPtr<Node>,
}

impl RemoteFreeQueue {
    pub const fn new() -> RemoteFreeQueue {
        RemoteFreeQueue {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Pushes a freed address. Lock-free; callable from any thread.
    pub fn push(&self, addr: usize) {
        self.push_node(Payload::One(addr));
    }

    /// Pushes a whole sender-side batch of freed addresses as one node —
    /// one allocation and one CAS per `batch.len()` frees. Empty batches
    /// are ignored.
    pub fn push_batch(&self, batch: Vec<usize>) {
        if !batch.is_empty() {
            self.push_node(Payload::Many(batch));
        }
    }

    fn push_node(&self, payload: Payload) {
        let node = Box::into_raw(Box::new(Node {
            payload,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is owned by this push until the CAS succeeds.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Whether the queue currently appears empty (racy; used only to skip
    /// needless lock acquisitions).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Relaxed).is_null()
    }

    /// Detaches the entire stack and returns an iterator over its
    /// addresses (LIFO order). Nodes are freed as the iterator advances.
    pub fn drain(&self) -> Drain {
        Drain {
            node: self.head.swap(ptr::null_mut(), Ordering::Acquire),
            batch: None,
        }
    }
}

impl Drop for RemoteFreeQueue {
    fn drop(&mut self) {
        // Free any nodes still queued at heap teardown.
        for _ in self.drain() {}
    }
}

/// Iterator over a detached remote-free list. Batch nodes are yielded
/// address by address, in the order the sender buffered them.
pub(crate) struct Drain {
    node: *mut Node,
    /// In-progress batch node: (addresses, next index to yield).
    batch: Option<(Vec<usize>, usize)>,
}

impl Iterator for Drain {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some((ref addrs, ref mut i)) = self.batch {
                if *i < addrs.len() {
                    let addr = addrs[*i];
                    *i += 1;
                    return Some(addr);
                }
                self.batch = None;
            }
            if self.node.is_null() {
                return None;
            }
            // SAFETY: the drain owns the detached list exclusively; each
            // node was created by `Box::into_raw` in `push_node`.
            let boxed = unsafe { Box::from_raw(self.node) };
            self.node = boxed.next;
            match boxed.payload {
                Payload::One(addr) => return Some(addr),
                Payload::Many(addrs) => self.batch = Some((addrs, 0)),
            }
        }
    }
}

impl Drop for Drain {
    fn drop(&mut self) {
        // Exhaust (and thereby free) any unconsumed nodes.
        for _ in self {}
    }
}

/// Small remote frees a thread buffers per size class before handing
/// them to the class's queue as one batch node (one allocation and one
/// CAS per batch). On a 2-vCPU x86-64 machine a batch of one — one push
/// per free — cost 27% of the repository benchmark's `churn_2t`
/// throughput and 16% of `redis_lru`'s.
pub(crate) const REMOTE_FREE_BATCH: usize = 32;

/// A thread's sender-side remote-free buffers: one `Vec` per size class,
/// each behind its own mutex. The owning thread is the only pusher, so
/// the locks are uncontended in the fast path; they exist so *other*
/// threads — a stats snapshot, the exhaustion fallback — can steal the
/// pending frees through the global heap's sender registry instead of
/// waiting for the owner to fill a batch or exit.
#[derive(Debug)]
pub(crate) struct SenderBufs {
    bufs: Vec<crate::sync::Mutex<Vec<usize>>>,
}

impl SenderBufs {
    pub fn new() -> SenderBufs {
        SenderBufs {
            bufs: (0..crate::size_classes::NUM_SIZE_CLASSES)
                .map(|_| crate::sync::Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// Locks one class's buffer (a leaf lock: nothing else is acquired
    /// while it is held).
    pub fn lock(&self, class_idx: usize) -> crate::sync::MutexGuard<'_, Vec<usize>> {
        self.bufs[class_idx].lock()
    }

    /// Steals one class's pending frees, leaving the buffer empty.
    pub fn take(&self, class_idx: usize) -> Vec<usize> {
        std::mem::take(&mut *self.bufs[class_idx].lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_drain_lifo() {
        let q = RemoteFreeQueue::new();
        assert!(q.is_empty());
        q.push(1);
        q.push(2);
        q.push(3);
        assert!(!q.is_empty());
        let got: Vec<usize> = q.drain().collect();
        assert_eq!(got, vec![3, 2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_pushers_lose_nothing() {
        let q = Arc::new(RemoteFreeQueue::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..10_000usize {
                        q.push(t * 10_000 + i + 1);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let mut got: Vec<usize> = q.drain().collect();
        got.sort_unstable();
        assert_eq!(got.len(), 80_000);
        assert_eq!(got.first(), Some(&1));
        assert_eq!(got.last(), Some(&80_000));
        got.dedup();
        assert_eq!(got.len(), 80_000, "no duplicates, no losses");
    }

    #[test]
    fn batch_nodes_interleave_with_singles() {
        let q = RemoteFreeQueue::new();
        q.push(1);
        q.push_batch(vec![2, 3, 4]);
        q.push_batch(Vec::new()); // no-op
        q.push(5);
        let got: Vec<usize> = q.drain().collect();
        // LIFO over nodes, sender order within a batch.
        assert_eq!(got, vec![5, 2, 3, 4, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_batch_pushers_lose_nothing() {
        let q = Arc::new(RemoteFreeQueue::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for chunk in 0..500usize {
                        let base = t * 10_000 + chunk * 20;
                        q.push_batch((base + 1..=base + 20).collect());
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let mut got: Vec<usize> = q.drain().collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 40_000, "no duplicates, no losses");
    }

    #[test]
    fn partial_drain_drop_frees_rest() {
        let q = RemoteFreeQueue::new();
        for i in 0..100 {
            q.push(i);
        }
        let mut d = q.drain();
        assert!(d.next().is_some());
        drop(d); // must free the other 99 nodes (checked under ASan/valgrind)
        assert!(q.is_empty());
    }

    #[test]
    fn drain_while_pushing_keeps_all() {
        let q = Arc::new(RemoteFreeQueue::new());
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 1..=50_000usize {
                    q.push(i);
                }
            })
        };
        let mut seen = 0usize;
        while seen < 50_000 {
            seen += q.drain().count();
        }
        pusher.join().unwrap();
        assert_eq!(seen + q.drain().count(), 50_000);
    }
}
