//! **malloc_throughput** (E18/E19) — the fast-path throughput suite.
//!
//! The paper's §4.3 claim is that meshing costs nothing on the hot path:
//! malloc/free are lock-free and O(1). This harness is the proof burden
//! for that claim in this repo — four measurements that bracket the fast
//! path from every side:
//!
//! * `single_thread_churn` — pure fast-path malloc/free of one size with
//!   a bounded live window: every op is a shuffle-vector pop/push plus
//!   a page-map read; no locks, no shared atomics. The headline number.
//! * `scaling` — the same churn on 1→N threads in distinct size classes.
//!   With per-class shard locks and batched statistics the curve should
//!   track thread count (on multi-core hosts) instead of flattening on
//!   a shared cacheline.
//! * `remote_ping_pong` — producer/consumer pairs where every free is
//!   non-local: the lock-free queue-push path, the fast path's worst case.
//! * `mixed_remote` — the remote-free batching scenario: a ring of
//!   threads churning mixed size classes where ~¼ of frees are handed to
//!   the ring neighbor (batched remote-free path) — measured at 2→32
//!   threads (`MESH_BENCH_MAX_THREADS` caps the curve). The unit is a
//!   2-thread ring: a 1-thread ring would hand objects to itself, so its
//!   "remote" frees would all be local. Thread counts are
//!   **clamped to available cores**: points beyond the core count are not
//!   throughput measurements, so only one such point runs and it is
//!   flagged `"oversubscribed": true` in the JSON rather than being
//!   passed off as a scaling result.
//! * `server_loop` — waves of short-lived thread heaps with cross-wave
//!   frees: the teardown path (vector detach, sender-buffer flush) under
//!   churn.
//! * `class_sweep` — per-size-class single-thread churn, ns/op, catching
//!   class-local regressions (e.g. a slow span geometry) that the single
//!   headline number would average away.
//! * `prof_off` / `prof_on` — the telemetry subsystem's cost bracket:
//!   `prof_off` re-runs the headline churn with the profiling knobs
//!   present but the master switch off (the shipping default) and is
//!   **enforced to stay within 2% of the checked-in baseline floor**;
//!   `prof_on` measures the enabled-mode tax (informational).
//! * `trace_off` / `trace_on` — the same bracket for the slow-path
//!   tracer: `trace_off` churns with the latency histograms always-on
//!   (as they are everywhere) and the trace rings compiled in but off —
//!   one predicted branch per slow-path op — and is **enforced like
//!   `prof_off`**; `trace_on` measures the ring-recording tax
//!   (informational).
//! * `harden_off` / `harden_full` / per-feature — the hardened-mode cost
//!   bracket: `harden_off` churns with the `MESH_HARDEN` machinery
//!   compiled in but the policy off (the shipping default — one
//!   predictable branch per free) and is **enforced like `prof_off`**;
//!   `harden_full` measures every detector armed (count policy), and
//!   `harden_poison` / `harden_quarantine` isolate the two small-object
//!   detectors. The guard-page tax is measured separately on a
//!   large-object churn (`harden_large_base` vs `harden_guard`), since
//!   guards only exist on the large path. All enabled-mode numbers are
//!   informational — hardening is opt-in and priced accordingly.
//! * `ctl_idle` — the mesh-ctl cost bracket: the control socket bound
//!   and served by the background thread but with no client connected —
//!   exactly what a deployment that *could* be inspected pays all the
//!   time. The socket lives entirely off-thread, so this is **enforced
//!   like `prof_off`**: within 2% of the baseline floor.
//!
//! Output: a human table, one `BENCH_MALLOC.json` trajectory line on
//! stdout, and the same JSON written to `BENCH_MALLOC.json` in the
//! working directory (CI uploads it as an artifact). Unless
//! `MESH_BENCH_NO_ENFORCE=1`, the run **fails** when single-thread
//! throughput regresses more than 2× below the checked-in baseline floor
//! (`crates/bench/baselines/malloc_throughput.json`), or when the
//! mixed-remote per-core scaling efficiency (per-thread throughput at the
//! widest point against the 2-thread ring) falls more than 2× below the
//! checked-in `scaling_efficiency_floor` (computed over the
//! non-oversubscribed points only — oversubscribed points measure the
//! scheduler, not the allocator).

use mesh_bench::banner;
use mesh_core::{HardenPolicy, Mesh, MeshConfig, SizeClass};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const OPS_PER_THREAD: usize = 400_000;
/// Live-window size of the churn loops (objects held before freeing).
const WINDOW: usize = 64;
/// Distinct size-class request sizes, one per worker thread.
const CLASS_SIZES: [usize; 8] = [16, 48, 96, 160, 256, 448, 768, 2048];

const BASELINE: &str = include_str!("../baselines/malloc_throughput.json");

fn heap() -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(42)
            .mesh_period(Duration::from_secs(3600)),
    )
    .expect("bench heap")
}

/// The disabled-profiling configuration: every `MESH_PROF*` knob set but
/// the master switch off — exactly what a production deployment that
/// *could* be profiled pays all the time. Must be indistinguishable from
/// the default heap.
fn heap_prof(enabled: bool) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(42)
            .mesh_period(Duration::from_secs(3600))
            .profiling(enabled)
            .prof_sample_bytes(512 << 10),
    )
    .expect("bench heap")
}

/// The tracing cost bracket: latency histograms are unconditionally on
/// (they are everywhere), so `enabled == false` measures exactly what
/// every deployment pays — histogram recording on slow paths plus one
/// trace-off branch — while `enabled == true` adds the ring writes.
fn heap_trace(enabled: bool) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(42)
            .mesh_period(Duration::from_secs(3600))
            .tracing(enabled)
            .trace_buf_events(64 << 10),
    )
    .expect("bench heap")
}

/// The enabled-but-idle control-socket configuration: the listener is
/// bound and polled by the background thread (50 ms parks) while the
/// mutator churns — the standing cost of being inspectable. The fast
/// path has no ctl hook at all, so this must be indistinguishable from
/// the default heap.
fn heap_ctl() -> Mesh {
    let path = std::env::temp_dir().join(format!("mesh-bench-ctl-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(42)
            .mesh_period(Duration::from_secs(3600))
            .ctl(Some(path)),
    )
    .expect("bench heap")
}

/// One point of the hardened-mode cost bracket: the policy plus an
/// explicit per-feature mask. `harden_off` passes `Off` (the shipping
/// default — the detectors compile to one predictable branch); the
/// enabled points use `Count` so every detection is a counter bump, not
/// an abort, and the measured tax is pure detection overhead.
fn heap_harden(
    policy: HardenPolicy,
    poison: bool,
    quarantine: bool,
    guard: bool,
    canary: bool,
) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(42)
            .mesh_period(Duration::from_secs(3600))
            .harden_policy(policy)
            .harden_poison(poison)
            .harden_quarantine(quarantine)
            .harden_guard(guard)
            .harden_canary(canary),
    )
    .expect("bench heap")
}

/// Malloc/free churn on `threads` workers (size per thread from
/// `size_of`), returning aggregate ops/sec.
fn churn(mesh: &Mesh, threads: usize, ops: usize, size_of: impl Fn(usize) -> usize + Sync) -> f64 {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let total_ops = threads * ops;
    std::thread::scope(|s| {
        for t in 0..threads {
            let mesh = mesh.clone();
            let barrier = Arc::clone(&barrier);
            let size = size_of(t);
            s.spawn(move || {
                let mut th = mesh.thread_heap();
                let mut live: Vec<usize> = Vec::with_capacity(WINDOW);
                barrier.wait();
                for i in 0..ops {
                    if live.len() < WINDOW {
                        let p = th.malloc(size);
                        assert!(!p.is_null());
                        live.push(p as usize);
                    } else {
                        let victim = live.swap_remove(i % live.len());
                        unsafe { th.free(victim as *mut u8) };
                    }
                }
                for p in live {
                    unsafe { th.free(p as *mut u8) };
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        total_ops as f64 / t0.elapsed().as_secs_f64()
    })
}

/// Producer/consumer pairs: every consumer free is remote. Returns
/// aggregate freed-objects/sec.
fn remote_ping_pong(mesh: &Mesh, pairs: usize) -> f64 {
    let per_pair = OPS_PER_THREAD / 4;
    let total = pairs * per_pair;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..pairs {
            let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(1024);
            let produce = mesh.clone();
            let consume = mesh.clone();
            let size = CLASS_SIZES[t % CLASS_SIZES.len()];
            s.spawn(move || {
                let mut th = produce.thread_heap();
                for _ in 0..per_pair {
                    let p = th.malloc(size);
                    assert!(!p.is_null());
                    if tx.send(p as usize).is_err() {
                        break;
                    }
                }
            });
            s.spawn(move || {
                let mut th = consume.thread_heap();
                while let Ok(addr) = rx.recv() {
                    unsafe { th.free(addr as *mut u8) };
                }
            });
        }
    });
    total as f64 / t0.elapsed().as_secs_f64()
}

/// The mixed remote-free scenario: `threads` workers in a ring, each
/// churning mixed size classes with a bounded live window; every fourth
/// retired object is handed to the ring neighbor instead of freed locally,
/// so ~¼ of frees take the batched remote path while the rest stay on the
/// shuffle-vector fast path. Returns aggregate ops/sec (mallocs + frees).
type RingEndpoints = (
    Option<std::sync::mpsc::SyncSender<usize>>,
    Option<std::sync::mpsc::Receiver<usize>>,
);

fn mixed_remote(mesh: &Mesh, threads: usize, ops: usize) -> f64 {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut channels: Vec<RingEndpoints> = (0..threads)
        .map(|_| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<usize>(4096);
            (Some(tx), Some(rx))
        })
        .collect();
    let total_ops = threads * ops * 2; // each object is one malloc + one free
    std::thread::scope(|s| {
        for t in 0..threads {
            let mesh = mesh.clone();
            let barrier = Arc::clone(&barrier);
            // Thread t receives on its own channel and sends to t+1's.
            let rx = channels[t].1.take().expect("rx taken once");
            let tx = channels[(t + 1) % threads].0.take().expect("tx taken once");
            s.spawn(move || {
                let mut th = mesh.thread_heap();
                let mut live: Vec<usize> = Vec::with_capacity(WINDOW);
                barrier.wait();
                for i in 0..ops {
                    // Drain a few neighbor handoffs: these frees are
                    // always remote (the neighbor's spans), exercising the
                    // sender-side batching.
                    while let Ok(addr) = rx.try_recv() {
                        unsafe { th.free(addr as *mut u8) };
                    }
                    let size = CLASS_SIZES[(i + t) % CLASS_SIZES.len()];
                    let p = th.malloc(size);
                    assert!(!p.is_null());
                    live.push(p as usize);
                    if live.len() >= WINDOW {
                        let victim = live.swap_remove(i % live.len());
                        if i % 4 == 0 {
                            // Hand off; if the neighbor's mailbox is full,
                            // free locally rather than stalling the loop.
                            if let Err(e) = tx.try_send(victim) {
                                let addr = match e {
                                    std::sync::mpsc::TrySendError::Full(a) => a,
                                    std::sync::mpsc::TrySendError::Disconnected(a) => a,
                                };
                                unsafe { th.free(addr as *mut u8) };
                            }
                        } else {
                            unsafe { th.free(victim as *mut u8) };
                        }
                    }
                }
                drop(tx); // unblocks the neighbor's final drain
                for addr in rx.iter() {
                    unsafe { th.free(addr as *mut u8) };
                }
                for p in live {
                    unsafe { th.free(p as *mut u8) };
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        total_ops as f64 / t0.elapsed().as_secs_f64()
    })
}

/// The server-loop scenario: `waves` successive generations of short-lived
/// worker threads. Each worker churns briefly, then exits with objects
/// still live; the *next* wave frees them (all remote). Thread teardown —
/// vector detach plus the sender-buffer flush — runs once per worker instead of being amortized away. Returns aggregate
/// ops/sec.
fn server_loop(mesh: &Mesh, waves: usize, workers: usize, ops: usize) -> f64 {
    let total_ops = waves * workers * ops * 2;
    let mut inherited: Vec<usize> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..waves {
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        std::thread::scope(|s| {
            for w in 0..workers {
                let mesh = mesh.clone();
                let tx = tx.clone();
                let legacy: Vec<usize> = inherited
                    .iter()
                    .skip(w)
                    .step_by(workers)
                    .copied()
                    .collect();
                s.spawn(move || {
                    let mut th = mesh.thread_heap();
                    // Free the previous wave's survivors: every one is a
                    // dead thread's object, so every free is remote.
                    for addr in legacy {
                        unsafe { th.free(addr as *mut u8) };
                    }
                    let mut live: Vec<usize> = Vec::with_capacity(WINDOW);
                    for i in 0..ops {
                        let size = CLASS_SIZES[(i + w) % CLASS_SIZES.len()];
                        let p = th.malloc(size);
                        assert!(!p.is_null());
                        live.push(p as usize);
                        if live.len() >= WINDOW {
                            unsafe { th.free(live.swap_remove(i % live.len()) as *mut u8) };
                        }
                    }
                    // Exit with the window still live: the next wave
                    // inherits it. The thread heap drops here — teardown.
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
    total_ops as f64 / t0.elapsed().as_secs_f64()
}

/// Extracts a named number from a flat JSON object (no serde in the
/// offline build; the baseline file is one flat object we control).
fn json_number(source: &str, key: &str) -> Option<f64> {
    let at = source.find(&format!("\"{key}\""))?;
    let rest = source[at..].split_once(':')?.1;
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect();
    num.parse().ok()
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    banner("malloc throughput: O(1) fast-path churn, scaling, remote frees");

    // --- headline: single-thread fast-path churn ------------------------
    let m = heap();
    let single = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);

    // --- telemetry cost bracket -----------------------------------------
    let m = heap_prof(false);
    let prof_off = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);
    let m = heap_prof(true);
    let prof_on = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    let prof_on_stats = m.profile_stats().expect("profiling heap");
    drop(m);
    let m = heap_trace(false);
    let trace_off = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);
    let m = heap_trace(true);
    let trace_on = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);

    // --- mesh-ctl cost bracket -------------------------------------------
    let m = heap_ctl();
    assert!(m.ctl_active(), "bench ctl socket failed to bind");
    let ctl_idle = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);

    // --- hardened-mode cost bracket --------------------------------------
    let m = heap_harden(HardenPolicy::Off, true, true, true, true);
    let harden_off = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);
    let m = heap_harden(HardenPolicy::Count, true, true, true, true);
    let harden_full = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);
    let m = heap_harden(HardenPolicy::Count, true, false, false, false);
    let harden_poison = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);
    let m = heap_harden(HardenPolicy::Count, false, true, false, false);
    let harden_quarantine = churn(&m, 1, OPS_PER_THREAD * 4, |_| 256);
    drop(m);
    // Guard pages only exist on the large path, so their tax is priced on
    // a large-object churn against its own unhardened baseline. Count
    // policy: the tail page is poison-filled at allocation and scanned at
    // free (the degraded form; abort mode swaps the scan for mprotect).
    let large_ops = OPS_PER_THREAD / 8;
    let m = heap();
    let harden_large_base = churn(&m, 1, large_ops, |_| 20_000);
    drop(m);
    let m = heap_harden(HardenPolicy::Count, false, false, true, false);
    let harden_guard = churn(&m, 1, large_ops, |_| 20_000);
    drop(m);

    // --- scaling curve 1 → cores (distinct classes per thread) ----------
    let mut scale_threads: Vec<usize> = vec![1, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= cores)
        .collect();
    if *scale_threads.last().unwrap_or(&0) != cores && cores <= 16 {
        scale_threads.push(cores);
    }
    let scaling: Vec<(usize, f64)> = scale_threads
        .iter()
        .map(|&t| {
            let m = heap();
            let ops = churn(&m, t, OPS_PER_THREAD, |i| CLASS_SIZES[i % CLASS_SIZES.len()]);
            (t, ops)
        })
        .collect();

    // --- remote-free ping-pong ------------------------------------------
    let m = heap();
    let pairs = (cores / 2).max(1);
    let remote = remote_ping_pong(&m, pairs);
    let remote_stats = m.stats();
    drop(m);

    // --- mixed_remote scaling curve (remote-free batching scenario) -----
    // Points up to the core count are genuine scaling measurements; one
    // final point above it (capped by MESH_BENCH_MAX_THREADS, default 32)
    // shows oversubscribed behaviour and is flagged as such.
    let max_threads: usize = std::env::var("MESH_BENCH_MAX_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let mut mixed_points: Vec<(usize, bool)> = [2usize, 4, 8, 16, 32]
        .into_iter()
        .filter(|&t| t <= max_threads && t <= cores)
        .map(|t| (t, false))
        .collect();
    if cores < max_threads {
        mixed_points.push((max_threads, true));
    }
    let mixed: Vec<(usize, f64, bool)> = mixed_points
        .iter()
        .map(|&(t, over)| {
            let m = heap();
            // Fixed per-thread work: an ideal allocator yields a linear
            // aggregate curve over the un-flagged points.
            let ops = mixed_remote(&m, t, OPS_PER_THREAD / 2);
            let s = m.stats();
            assert_eq!(s.mallocs, s.frees, "mixed_remote leaked objects");
            (t, ops, over)
        })
        .collect();
    // Per-core scaling efficiency over the genuine points: throughput per
    // thread at the widest un-flagged point relative to the 2-thread ring,
    // the smallest ring whose handoffs are remote frees.
    let mixed_base = mixed
        .iter()
        .find(|&&(t, _, over)| t == 2 && !over)
        .map_or(1.0, |&(t, ops, _)| ops / t as f64);
    let efficiency = mixed
        .iter()
        .rfind(|&&(_, _, over)| !over)
        .map_or(1.0, |&(t, ops, _)| (ops / t as f64) / mixed_base);

    // --- server loop (short-lived thread heaps, teardown churn) ---------
    let m = heap();
    let workers = cores.clamp(2, 4);
    let server = server_loop(&m, 16, workers, OPS_PER_THREAD / 16);
    let server_stats = m.stats();
    assert_eq!(
        server_stats.mallocs, server_stats.frees,
        "server_loop stranded objects in dead threads"
    );
    drop(m);

    // --- per-class sweep -------------------------------------------------
    let sweep: Vec<(usize, f64)> = SizeClass::all()
        .map(|class| {
            let m = heap();
            let ops = churn(&m, 1, OPS_PER_THREAD / 4, |_| class.object_size());
            (class.object_size(), 1e9 / ops)
        })
        .collect();

    println!();
    println!("{:<40} {:>16}", "configuration", "ops/sec");
    println!("{:<40} {:>16.0}", "single_thread_churn (256 B)", single);
    println!("{:<40} {:>16.0}", "single_thread_churn prof_off", prof_off);
    println!(
        "{:<40} {:>16.0}   ({} samples)",
        "single_thread_churn prof_on", prof_on, prof_on_stats.samples
    );
    println!("{:<40} {:>16.0}", "single_thread_churn trace_off", trace_off);
    println!("{:<40} {:>16.0}", "single_thread_churn trace_on", trace_on);
    println!("{:<40} {:>16.0}", "single_thread_churn ctl_idle", ctl_idle);
    println!("{:<40} {:>16.0}", "single_thread_churn harden_off", harden_off);
    println!(
        "{:<40} {:>16.0}   ({:.2}x tax)",
        "single_thread_churn harden_full",
        harden_full,
        harden_off / harden_full.max(1.0)
    );
    println!("{:<40} {:>16.0}", "single_thread_churn harden_poison", harden_poison);
    println!(
        "{:<40} {:>16.0}",
        "single_thread_churn harden_quarantine", harden_quarantine
    );
    println!("{:<40} {:>16.0}", "large_churn (20000 B) baseline", harden_large_base);
    println!(
        "{:<40} {:>16.0}   ({:.2}x tax)",
        "large_churn (20000 B) harden_guard",
        harden_guard,
        harden_large_base / harden_guard.max(1.0)
    );
    for &(t, ops) in &scaling {
        println!("{:<40} {:>16.0}", format!("scaling/{t}t distinct classes"), ops);
    }
    println!(
        "{:<40} {:>16.0}   (queued/drained {}/{})",
        format!("remote_ping_pong/{pairs}p"),
        remote,
        remote_stats.remote_free_queued,
        remote_stats.remote_free_drained
    );
    for &(t, ops, over) in &mixed {
        println!(
            "{:<40} {:>16.0}{}",
            format!("mixed_remote/{t}t"),
            ops,
            if over { "   (oversubscribed)" } else { "" }
        );
    }
    println!(
        "{:<40} {:>16}   (widest honest point vs the 2-thread ring)",
        "mixed_remote per-core efficiency",
        format!("{efficiency:.3}")
    );
    println!(
        "{:<40} {:>16.0}",
        format!("server_loop/16w x {workers}"),
        server
    );
    println!("\n{:<12} {:>12}", "class", "ns/op");
    for &(size, ns) in &sweep {
        println!("{:<12} {:>12.1}", format!("{size} B"), ns);
    }

    // --- trajectory JSON --------------------------------------------------
    let scaling_json: Vec<String> = scaling
        .iter()
        .map(|(t, ops)| format!("{{\"threads\":{t},\"ops_sec\":{ops:.0}}}"))
        .collect();
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(size, ns)| format!("{{\"size\":{size},\"ns_per_op\":{ns:.1}}}"))
        .collect();
    let mixed_json: Vec<String> = mixed
        .iter()
        .map(|(t, ops, over)| {
            format!("{{\"threads\":{t},\"ops_sec\":{ops:.0},\"oversubscribed\":{over}}}")
        })
        .collect();
    let json = format!(
        "{{\"cores\":{cores},\"ops_per_thread\":{OPS_PER_THREAD},\
         \"single_thread_ops_sec\":{single:.0},\
         \"prof_off_ops_sec\":{prof_off:.0},\"prof_on_ops_sec\":{prof_on:.0},\
         \"trace_off_ops_sec\":{trace_off:.0},\"trace_on_ops_sec\":{trace_on:.0},\
         \"ctl_idle_ops_sec\":{ctl_idle:.0},\
         \"harden_off_ops_sec\":{harden_off:.0},\"harden_full_ops_sec\":{harden_full:.0},\
         \"harden_poison_ops_sec\":{harden_poison:.0},\
         \"harden_quarantine_ops_sec\":{harden_quarantine:.0},\
         \"harden_large_base_ops_sec\":{harden_large_base:.0},\
         \"harden_guard_ops_sec\":{harden_guard:.0},\
         \"scaling\":[{}],\
         \"remote_ping_pong_pairs\":{pairs},\"remote_ping_pong_ops_sec\":{remote:.0},\
         \"mixed_remote\":[{}],\"mixed_remote_efficiency\":{efficiency:.3},\
         \"server_loop_ops_sec\":{server:.0},\
         \"class_sweep\":[{}]}}",
        scaling_json.join(","),
        mixed_json.join(","),
        sweep_json.join(",")
    );
    println!("\nBENCH_MALLOC.json {json}");
    if let Err(e) = std::fs::write("BENCH_MALLOC.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_MALLOC.json: {e}");
    }

    // --- baseline floor ---------------------------------------------------
    let floor = json_number(BASELINE, "single_thread_ops_sec").expect("baseline parses");
    if std::env::var_os("MESH_BENCH_NO_ENFORCE").is_none() {
        // >2× below the checked-in floor is a regression failure; the
        // floor itself is set conservatively below typical CI hardware.
        assert!(
            single * 2.0 >= floor,
            "single-thread throughput regressed >2x: {single:.0} ops/sec \
             vs baseline floor {floor:.0} (set MESH_BENCH_NO_ENFORCE=1 to bypass)"
        );
        println!(
            "baseline check OK: {single:.0} ops/sec >= {:.0} (floor {floor:.0} / 2)",
            floor / 2.0
        );
        // Disabled-mode telemetry guard: with profiling compiled in but
        // off, churn must stay within 2% of the checked-in baseline
        // floor — the subsystem's acceptance criterion. Hardware slower
        // than the floor still gets a fair test: there the bar is 2%
        // under the *same-run* default-config measurement, which is the
        // actual claim (the disabled-mode hooks cost nothing), so only a
        // machine failing both comparisons is a regression.
        let bar = (floor * 0.98).min(single * 0.98);
        assert!(
            prof_off >= bar,
            "profiling-disabled churn regressed: {prof_off:.0} ops/sec vs \
             bar {bar:.0} (98% of min(baseline floor {floor:.0}, same-run \
             {single:.0})) — the disabled-mode telemetry hooks cost more \
             than they may (set MESH_BENCH_NO_ENFORCE=1 to bypass)"
        );
        println!(
            "prof-off check OK: {prof_off:.0} ops/sec >= {bar:.0} \
             (98% of min(floor, same-run); prof-on measured {prof_on:.0})"
        );
        // Same bar for the tracer: histograms-on/trace-off is the
        // always-on configuration, so it gets the identical 2% budget.
        assert!(
            trace_off >= bar,
            "trace-disabled churn regressed: {trace_off:.0} ops/sec vs \
             bar {bar:.0} (98% of min(baseline floor {floor:.0}, same-run \
             {single:.0})) — the always-on histogram hooks or the trace-off \
             branch cost more than they may (set MESH_BENCH_NO_ENFORCE=1 \
             to bypass)"
        );
        println!(
            "trace-off check OK: {trace_off:.0} ops/sec >= {bar:.0} \
             (98% of min(floor, same-run); trace-on measured {trace_on:.0})"
        );
        // Same bar for the control socket: enabled-but-idle is what any
        // inspectable deployment pays continuously, and the socket is
        // served entirely off-thread — the fast path has no ctl hook.
        assert!(
            ctl_idle >= bar,
            "ctl-idle churn regressed: {ctl_idle:.0} ops/sec vs bar \
             {bar:.0} (98% of min(baseline floor {floor:.0}, same-run \
             {single:.0})) — an enabled-but-idle control socket may not \
             tax the mutator (set MESH_BENCH_NO_ENFORCE=1 to bypass)"
        );
        println!("ctl-idle check OK: {ctl_idle:.0} ops/sec >= {bar:.0} (98% of min(floor, same-run))");
        // Same bar for hardened mode: policy-off is the shipping default,
        // so the disabled branches get the identical 2% budget. The
        // enabled-mode tax is opt-in and deliberately unenforced.
        assert!(
            harden_off >= bar,
            "harden-disabled churn regressed: {harden_off:.0} ops/sec vs \
             bar {bar:.0} (98% of min(baseline floor {floor:.0}, same-run \
             {single:.0})) — the disabled-mode hardening branches cost more \
             than they may (set MESH_BENCH_NO_ENFORCE=1 to bypass)"
        );
        println!(
            "harden-off check OK: {harden_off:.0} ops/sec >= {bar:.0} \
             (98% of min(floor, same-run); harden-full measured \
             {harden_full:.0}, {:.2}x tax)",
            harden_off / harden_full.max(1.0)
        );
        // Scaling-efficiency guard: the mixed-remote per-core efficiency
        // (honest points only) may not fall more than 2× below the
        // checked-in floor. On a runner with fewer than 4 cores the only
        // honest point is the 2-thread ring itself (or none) and the check
        // trivially passes — by design: oversubscribed numbers measure the
        // scheduler, not us.
        let eff_floor =
            json_number(BASELINE, "scaling_efficiency_floor").expect("baseline parses");
        assert!(
            efficiency * 2.0 >= eff_floor,
            "mixed_remote scaling efficiency regressed >2x: {efficiency:.3} \
             vs baseline floor {eff_floor:.3} (set MESH_BENCH_NO_ENFORCE=1 to bypass)"
        );
        println!(
            "scaling check OK: efficiency {efficiency:.3} >= {:.3} (floor {eff_floor:.3} / 2)",
            eff_floor / 2.0
        );
    }
}
