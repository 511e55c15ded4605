//! Sender-side remote-free batching tests: buffering a thread's remote
//! frees and handing them to the class queues in batches must be
//! invisible to the accounting — no free lost, duplicated, or routed to
//! the wrong class, hostile frees still detected on the buffered path —
//! and nothing may be stranded in a buffer when its thread dies.

use mesh_core::{Mesh, MeshConfig};

/// Minimal deterministic RNG (xorshift64*), so the loop is seedable
/// without pulling in a crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn heap(seed: u64) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(256 << 20)
            .seed(seed)
            .write_barrier(false),
    )
    .unwrap()
}

/// The PR-4 accounting-model oracle replayed through the batched paths:
/// random malloc/free interleavings across two thread heaps with
/// cross-handle handoffs, wild pointers, misaligned interior pointers,
/// and back-to-back double frees. Every counter must land exactly on the
/// model — a batch that dropped, duplicated, or misrouted one object
/// shows up as a one-off here.
#[test]
fn batched_paths_match_accounting_model() {
    for seed in [7u64, 0x0062_6174_6368, 99] {
        run_seed(seed);
    }
}

fn run_seed(seed: u64) {
    const SIZES: [usize; 5] = [16, 100, 500, 2048, 9000]; // all small classes
    let mesh = heap(seed);
    let mut heaps = [mesh.thread_heap(), mesh.thread_heap()];
    let mut rng = Lcg(seed | 1);

    // Model state.
    let mut live: Vec<(usize, usize)> = Vec::new(); // (addr, owner)
    let mut mallocs = 0u64;
    let mut frees = 0u64;
    let mut invalid = 0u64;
    let mut doubles = 0u64;
    // Misaligned pointers already thrown at the heap. A *repeat* of one
    // may still sit in a sender buffer, where the dedup check classifies
    // it as a double free rather than invalid — correct behaviour, but
    // timing-dependent, so the oracle never replays the same bad address.
    let mut misfreed = std::collections::HashSet::new();

    for _ in 0..30_000 {
        let op = rng.below(100);
        if op < 55 || live.is_empty() {
            let who = rng.below(2) as usize;
            let size = SIZES[rng.below(SIZES.len() as u64) as usize];
            let p = heaps[who].malloc(size);
            assert!(!p.is_null());
            mallocs += 1;
            live.push((p as usize, who));
        } else if op < 90 {
            let pick = rng.below(live.len() as u64) as usize;
            let (addr, owner) = live.swap_remove(pick);
            // Hand off ~every third free to the non-owner: those routes
            // are remote and ride the sender-side batching.
            let who = if rng.below(3) == 0 { 1 - owner } else { owner };
            unsafe { heaps[who].free(addr as *mut u8) };
            frees += 1;
        } else {
            match rng.below(3) {
                0 => {
                    // Wild pointer, far outside the arena.
                    unsafe { heaps[0].free(0x10 as *mut u8) };
                    invalid += 1;
                }
                1 => {
                    // Misaligned interior pointer into a live small object
                    // (all SIZES are ≥ 16, so +1 is never slot-aligned).
                    let pick = rng.below(live.len() as u64) as usize;
                    let (addr, owner) = live[pick];
                    if misfreed.insert(addr + 1) {
                        unsafe { heaps[owner].free((addr + 1) as *mut u8) };
                        invalid += 1;
                    }
                }
                _ => {
                    // Back-to-back double free: the duplicate must be
                    // caught whether the first copy was applied locally,
                    // is still in the sender buffer, or sits in a queue.
                    let pick = rng.below(live.len() as u64) as usize;
                    let (addr, owner) = live.swap_remove(pick);
                    let who = if rng.below(3) == 0 { 1 - owner } else { owner };
                    unsafe {
                        heaps[who].free(addr as *mut u8);
                        heaps[who].free(addr as *mut u8);
                    }
                    frees += 1;
                    doubles += 1;
                }
            }
        }
    }
    for (addr, owner) in live.drain(..) {
        unsafe { heaps[owner].free(addr as *mut u8) };
        frees += 1;
    }
    // Teardown: vector detach and sender-buffer flush.
    let [a, b] = heaps;
    drop(a);
    drop(b);

    let s = mesh.stats();
    assert_eq!(s.mallocs, mallocs, "seed {seed}: mallocs");
    assert_eq!(s.frees, frees, "seed {seed}: every valid free applied once");
    assert_eq!(s.live_bytes, 0, "seed {seed}: accounting balanced");
    assert_eq!(s.invalid_frees, invalid, "seed {seed}: invalid frees counted");
    assert_eq!(s.double_frees, doubles, "seed {seed}: doubles caught");
    assert_eq!(
        s.remote_free_queued, s.remote_free_drained,
        "seed {seed}: queues settled"
    );
}

/// Waves of short-lived real threads with cross-wave frees. Nothing a
/// dead thread buffered may be stranded — `Mesh::stats()` must balance to zero live after every
/// thread has exited.
#[test]
fn thread_spawn_exit_churn_balances_to_zero() {
    const WAVES: usize = 6;
    const WORKERS: usize = 4;
    const OPS: usize = 3_000;
    const SIZES: [usize; 6] = [32, 96, 256, 768, 2048, 12_000];
    let mesh = heap(11);
    let mut inherited: Vec<usize> = Vec::new();
    for wave in 0..WAVES {
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let mesh = mesh.clone();
                let tx = tx.clone();
                let legacy: Vec<usize> =
                    inherited.iter().skip(w).step_by(WORKERS).copied().collect();
                s.spawn(move || {
                    let mut th = mesh.thread_heap();
                    // The previous wave's survivors: every free is a dead
                    // thread's object, so every one rides the remote path.
                    for addr in legacy {
                        unsafe { th.free(addr as *mut u8) };
                    }
                    let mut rng = Lcg((wave * WORKERS + w + 1) as u64);
                    let mut live: Vec<usize> = Vec::new();
                    for i in 0..OPS {
                        if rng.below(100) < 60 || live.is_empty() {
                            let size = SIZES[(i + w) % SIZES.len()];
                            let p = th.malloc(size);
                            assert!(!p.is_null());
                            live.push(p as usize);
                        } else {
                            let pick = rng.below(live.len() as u64) as usize;
                            unsafe { th.free(live.swap_remove(pick) as *mut u8) };
                        }
                    }
                    // Exit with objects still live; the next wave (or the
                    // final sweep) frees them.
                    for p in live {
                        tx.send(p).unwrap();
                    }
                });
            }
        });
        drop(tx);
        inherited = rx.iter().collect();
    }
    for addr in inherited {
        unsafe { mesh.free(addr as *mut u8) };
    }
    let s = mesh.stats();
    assert_eq!(s.mallocs, s.frees, "objects stranded in dead threads: {s:?}");
    assert_eq!(s.live_bytes, 0, "live accounting drifted: {s:?}");
    assert_eq!(s.remote_free_queued, s.remote_free_drained);
    assert_eq!(s.double_frees + s.invalid_frees, 0);
}
