//! In-process workloads of the repository benchmark: `redis_lru` and
//! `churn_2t`.
//!
//! `perfbench <redis_lru|churn_2t> <seed> <trace 0|1>` runs one repetition
//! in a fresh process and prints one JSON object of flat `name: number`
//! pairs. `run.py` spawns it, reads the process's peak RSS from `wait4`,
//! and takes medians across repetitions.
//!
//! Nothing inside the allocator is instrumented. With tracing on, the
//! benchmark times its own calls into `ThreadHeap::malloc`/`free`,
//! `Mesh::mesh_now` and `Mesh::purge_dirty`, and emits before/after deltas
//! of `Mesh::stats()` counters and of the `count`/`sum_ns` of the heap's
//! latency histograms; `run.py` turns them into per-layer metrics.

use mesh_core::rng::Rng;
use mesh_core::{HeapStats, LatencySnapshot, Mesh, MeshConfig, ThreadHeap, TimedOp, ALL_TIMED_OPS};
use mesh_workloads::redis::{EvictionPolicy, RedisConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

type Out = BTreeMap<String, f64>;

const MIB: f64 = (1u64 << 20) as f64;
/// Hard cap on the heap for both in-process workloads (the default cap,
/// stated so a change of default does not change the benchmark).
const HEAP_CAP: usize = 1 << 30;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let parsed = match args.as_slice() {
        [_, w, seed, trace] => seed
            .parse::<u64>()
            .ok()
            .zip(match trace.as_str() {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            })
            .map(|(s, t)| (w.as_str(), s, t)),
        _ => None,
    };
    let out = match parsed {
        Some(("redis_lru", seed, trace)) => redis_lru(seed, trace),
        Some(("churn_2t", seed, trace)) => churn_2t(seed, trace),
        _ => {
            eprintln!("usage: perfbench <redis_lru|churn_2t> <seed> <trace 0|1>");
            std::process::exit(2);
        }
    };
    let body: Vec<String> = out.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{{}}}", body.join(", "));
}

// ---------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------

/// Order statistics of raw samples. `tail` is the highest percentile with
/// at least ten samples beyond it (`tail_pct`); below eleven samples it is
/// the maximum. No value can exceed the observed maximum. `top` holds the
/// eleven largest samples, so a run can pool repetitions' tails.
#[derive(Default)]
struct Dist {
    n: usize,
    p50: f64,
    p99: f64,
    tail: f64,
    tail_pct: f64,
    max: f64,
    top: Vec<f64>,
}

fn dist<T: Copy + Ord + Into<u64>>(mut v: Vec<T>) -> Dist {
    v.sort_unstable();
    let n = v.len();
    if n == 0 {
        return Dist::default();
    }
    let at = |i: usize| v[i].into() as f64;
    let rank = |q: f64| at(((q * n as f64).ceil() as usize).clamp(1, n) - 1);
    let (tail, tail_pct) = if n > 10 {
        (at(n - 11), 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (at(n - 1), 100.0)
    };
    Dist {
        n,
        p50: rank(0.5),
        p99: rank(0.99),
        tail,
        tail_pct,
        max: at(n - 1),
        top: (n.saturating_sub(11)..n).rev().map(at).collect(),
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Saturating `u32` nanoseconds: per-call samples are kept compact.
fn ns32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn vm_rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

fn map_count() -> f64 {
    std::fs::read_to_string("/proc/self/maps")
        .map(|m| m.lines().count() as f64)
        .unwrap_or(0.0)
}

fn secs(l: &LatencySnapshot, op: TimedOp) -> f64 {
    l.sum_ns(op) as f64 / 1e9
}

/// A thread heap whose calls are timed one by one when tracing.
struct Timed {
    heap: ThreadHeap,
    trace: bool,
    malloc_ns: Vec<u32>,
    free_ns: Vec<u32>,
    xfree_ns: Vec<u32>,
    nulls: u64,
}

impl Timed {
    fn new(heap: ThreadHeap, trace: bool) -> Timed {
        Timed {
            heap,
            trace,
            malloc_ns: Vec::new(),
            free_ns: Vec::new(),
            xfree_ns: Vec::new(),
            nulls: 0,
        }
    }

    fn malloc(&mut self, size: usize) -> *mut u8 {
        let p = if self.trace {
            let t = Instant::now();
            let p = self.heap.malloc(size);
            self.malloc_ns.push(ns32(t.elapsed()));
            p
        } else {
            self.heap.malloc(size)
        };
        if p.is_null() {
            self.nulls += 1;
        }
        p
    }

    /// Frees `p`; `xthread` marks an object another thread allocated.
    ///
    /// # Safety
    ///
    /// `p` is a live allocation of this heap's `Mesh`.
    unsafe fn free(&mut self, p: *mut u8, xthread: bool) {
        if self.trace {
            let t = Instant::now();
            self.heap.free(p);
            let d = ns32(t.elapsed());
            if xthread {
                self.xfree_ns.push(d);
            } else {
                self.free_ns.push(d);
            }
        } else {
            self.heap.free(p);
        }
    }

    fn call_ns(&self) -> u64 {
        [&self.malloc_ns, &self.free_ns, &self.xfree_ns]
            .iter()
            .flat_map(|v| v.iter())
            .map(|&d| d as u64)
            .sum()
    }
}

/// Writes an 8-byte stamp at both ends of a `len`-byte object.
///
/// # Safety
///
/// `p` points to at least `len >= 8` writable bytes.
unsafe fn stamp(p: *mut u8, len: usize, s: u64) {
    std::ptr::write_unaligned(p as *mut u64, s);
    std::ptr::write_unaligned(p.add(len - 8) as *mut u64, s);
}

/// Whether both stamps of a `len`-byte object still read `s`.
///
/// # Safety
///
/// `p` points to at least `len >= 8` readable bytes.
unsafe fn stamp_ok(p: *const u8, len: usize, s: u64) -> bool {
    std::ptr::read_unaligned(p as *const u64) == s
        && std::ptr::read_unaligned(p.add(len - 8) as *const u64) == s
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reads one counter of a snapshot.
type Counter = fn(&HeapStats) -> u64;

/// Counter and histogram deltas the per-layer metrics are computed from,
/// named like the heap's Prometheus series so `run.py` reads them the same
/// way for every workload: each latency histogram's `_sum` (seconds) and
/// `_count` over `before`..`end`, its `_sum` over `before`..`mid` (the
/// malloc/free phase) with an `a.` prefix, and the counters' deltas.
/// Only `count` and `sum_ns` are read from the log₂ histograms: their
/// percentiles are bucket edges.
fn put_deltas(out: &mut Out, before: &HeapStats, mid: &HeapStats, end: &HeapStats) {
    let a = mid.latency.minus(&before.latency);
    let all = end.latency.minus(&before.latency);
    for op in ALL_TIMED_OPS {
        let name = op.prom_name();
        out.insert(format!("{name}_sum"), secs(&all, op));
        out.insert(format!("{name}_count"), all.count(op) as f64);
        out.insert(format!("a.{name}_sum"), secs(&a, op));
    }
    let counters: [(&str, Counter); 12] = [
        ("mallocs", |s| s.mallocs),
        ("frees", |s| s.frees),
        ("refills", |s| s.refills),
        ("remote_frees", |s| s.remote_frees),
        ("remote_free_drained", |s| s.remote_free_drained),
        ("transfer_hits", |s| s.transfer_hits),
        ("transfer_misses", |s| s.transfer_misses),
        ("transfer_spills", |s| s.transfer_spills),
        ("mesh_passes", |s| s.mesh_passes),
        ("spans_meshed", |s| s.spans_meshed),
        ("mesh_pages_released", |s| s.mesh_pages_released),
        ("pages_purged", |s| s.pages_purged),
    ];
    for (name, f) in counters {
        out.insert(
            format!("mesh_{name}_total"),
            f(end).saturating_sub(f(before)) as f64,
        );
    }
    out.insert(
        "mesh_segments_created_total".into(),
        end.segments_created as f64,
    );
    out.insert("mesh_mapped_bytes".into(), end.mapped_bytes() as f64);
}

/// Time the benchmark measured at public entry points: malloc/free calls
/// of the malloc/free phase, `Mesh::mesh_now` and `Mesh::purge_dirty`
/// calls, and the traced thread time.
fn put_spent(out: &mut Out, calls_ns: u64, mesh_ns: u64, purge_ns: u64, wall_ns: u64) {
    out.insert("spent.calls_s".into(), calls_ns as f64 / 1e9);
    out.insert("spent.mesh_calls_s".into(), mesh_ns as f64 / 1e9);
    out.insert("spent.purge_s".into(), purge_ns as f64 / 1e9);
    out.insert("spent.wall_s".into(), wall_ns as f64 / 1e9);
}

fn call_dists(out: &mut Out, heaps: &mut [&mut Timed]) {
    let mut take = |f: fn(&mut Timed) -> Vec<u32>| -> Dist {
        dist(heaps.iter_mut().flat_map(|h| f(h)).collect::<Vec<u32>>())
    };
    let m = take(|h| std::mem::take(&mut h.malloc_ns));
    let f = take(|h| std::mem::take(&mut h.free_ns));
    let x = take(|h| std::mem::take(&mut h.xfree_ns));
    out.insert("local_heap.malloc_ns_p50".into(), m.p50);
    out.insert("local_heap.malloc_ns_p99".into(), m.p99);
    out.insert("local_heap.malloc_n".into(), m.n as f64);
    out.insert("local_heap.free_ns_p50".into(), f.p50);
    out.insert("local_heap.free_ns_p99".into(), f.p99);
    out.insert("local_heap.free_n".into(), f.n as f64);
    out.insert("global_heap.xthread_free_ns_p50".into(), x.p50);
    out.insert("global_heap.xthread_free_ns_p99".into(), x.p99);
    out.insert("global_heap.xthread_free_n".into(), x.n as f64);
}

fn put_pause(out: &mut Out, d: &Dist) {
    out.insert("pause_tail_ms".into(), d.tail / 1e6);
    out.insert("pause_tail.pct".into(), d.tail_pct);
    out.insert("pause_tail.n".into(), d.n as f64);
    out.insert("pause_max_ms".into(), d.max / 1e6);
    for (i, v) in d.top.iter().enumerate() {
        out.insert(format!("pause_top.{i}"), v / 1e6);
    }
}

/// The end-of-run accounting check: every allocation was freed and the
/// heap saw no invalid or double free. Returns the number of violations.
fn balance_failures(s: &HeapStats) -> u64 {
    let mut failed = 0;
    for (what, bad) in [
        ("mallocs != frees", s.mallocs != s.frees),
        ("live_bytes != 0", s.live_bytes != 0),
        ("invalid frees", s.invalid_frees != 0),
        ("double frees", s.double_frees != 0),
        ("hardening violations", s.total_harden_violations() != 0),
    ] {
        if bad {
            eprintln!("perfbench: final heap check failed: {what} ({s:?})");
            failed += 1;
        }
    }
    failed
}

// ---------------------------------------------------------------------
// redis_lru
// ---------------------------------------------------------------------

/// Key count and cap relative to the paper's Redis test. At 0.3 the run
/// takes about a second and its final heap repeats within 0.2 MiB.
const REDIS_SCALE: f64 = 0.3;
/// Redis-style per-entry metadata sizes, as in `mesh_workloads::redis`.
const DICT_ENTRY_BYTES: usize = 24;
const ROBJ_BYTES: usize = 16;
const KEY_SDS_BYTES: usize = 28;

struct Entry {
    value: usize,
    len: usize,
    key_sds: usize,
    robj: usize,
    dict: usize,
    seq: u64,
    idx: usize,
}

/// The Figure 7 cache: sampled-LRU eviction over a dense key list. Every
/// removal checks the entry's stamps before freeing it.
struct Store {
    entries: HashMap<u64, Entry, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
    value_bytes: usize,
    seq: u64,
    failed: u64,
}

impl Store {
    fn check(&mut self, key: u64, e: &Entry) {
        // SAFETY: every pointer in a stored entry is a live allocation of
        // at least the size written at insertion.
        let ok = unsafe {
            stamp_ok(e.value as *const u8, e.len, key)
                && stamp_ok(e.key_sds as *const u8, KEY_SDS_BYTES, key)
                && stamp_ok(e.robj as *const u8, ROBJ_BYTES, e.value as u64)
                && stamp_ok(e.dict as *const u8, DICT_ENTRY_BYTES, e.robj as u64)
        };
        if !ok {
            eprintln!("perfbench: redis_lru: stamp mismatch for key {key}");
            self.failed += 1;
        }
    }

    fn remove(&mut self, heap: &mut Timed, key: u64) {
        let Some(e) = self.entries.remove(&key) else {
            return;
        };
        self.check(key, &e);
        // SAFETY: the entry owned these allocations and is now unlinked.
        unsafe {
            heap.free(e.value as *mut u8, false);
            heap.free(e.key_sds as *mut u8, false);
            heap.free(e.robj as *mut u8, false);
            heap.free(e.dict as *mut u8, false);
        }
        self.value_bytes -= e.len;
        let last = self.keys.pop().expect("keys and entries in sync");
        if last != key {
            self.keys[e.idx] = last;
            self.entries.get_mut(&last).expect("moved key is live").idx = e.idx;
        }
    }

    fn set(&mut self, heap: &mut Timed, cfg: &RedisConfig, key: u64, len: usize, rng: &mut Rng) {
        self.remove(heap, key);
        let EvictionPolicy::SampledLru { samples } = cfg.eviction else {
            unreachable!("the paper's shape uses sampled LRU")
        };
        while self.value_bytes + len > cfg.max_memory && !self.keys.is_empty() {
            let victim = (0..samples.max(1))
                .map(|_| self.keys[rng.below(self.keys.len() as u32) as usize])
                .min_by_key(|k| self.entries[k].seq)
                .expect("store is non-empty");
            self.remove(heap, victim);
        }
        let ptrs = [
            heap.malloc(len),
            heap.malloc(KEY_SDS_BYTES),
            heap.malloc(ROBJ_BYTES),
            heap.malloc(DICT_ENTRY_BYTES),
        ];
        if ptrs.iter().any(|p| p.is_null()) {
            // The nulls themselves are counted by `Timed::malloc`.
            for p in ptrs.into_iter().filter(|p| !p.is_null()) {
                // SAFETY: just allocated and never published.
                unsafe { heap.free(p, false) };
            }
            return;
        }
        let [value, key_sds, robj, dict] = ptrs;
        // SAFETY: each pointer is a fresh allocation of the size stamped;
        // the value is also filled end to end so its pages are dirtied.
        unsafe {
            std::ptr::write_bytes(value, (key % 251) as u8, len);
            stamp(value, len, key);
            stamp(key_sds, KEY_SDS_BYTES, key);
            stamp(robj, ROBJ_BYTES, value as u64);
            stamp(dict, DICT_ENTRY_BYTES, robj as u64);
        }
        self.seq += 1;
        let idx = self.keys.len();
        self.keys.push(key);
        self.entries.insert(
            key,
            Entry {
                value: value as usize,
                len,
                key_sds: key_sds as usize,
                robj: robj as usize,
                dict: dict as usize,
                seq: self.seq,
                idx,
            },
        );
        self.value_bytes += len;
    }
}

fn redis_lru(seed: u64, trace: bool) -> Out {
    let t_setup = Instant::now();
    let cfg = RedisConfig {
        seed,
        ..RedisConfig::paper().scaled(REDIS_SCALE)
    };
    let mesh = Mesh::new(MeshConfig::default().seed(seed).max_heap_bytes(HEAP_CAP))
        .expect("heap construction");
    let mut heap = Timed::new(mesh.thread_heap(), trace);
    // The SET stream: mostly fresh keys with occasional overwrites, then
    // fresh keys with the larger value size.
    let mut rng = Rng::with_seed(seed);
    let mut sets: Vec<(u64, usize)> = Vec::with_capacity(cfg.phase1_keys + cfg.phase2_keys);
    let mut next_key = 0u64;
    for _ in 0..cfg.phase1_keys {
        let key = if next_key > 0 && rng.chance(1, 16) {
            rng.next_u64() % next_key
        } else {
            next_key += 1;
            next_key
        };
        sets.push((key, cfg.phase1_value_len));
    }
    for _ in 0..cfg.phase2_keys {
        next_key += 1;
        sets.push((next_key, cfg.phase2_value_len));
    }
    let mut victims = Rng::with_seed(mix(seed));
    let mut store = Store {
        entries: HashMap::default(),
        keys: Vec::new(),
        value_bytes: 0,
        seq: 0,
        failed: 0,
    };
    if trace {
        heap.malloc_ns.reserve(4 * sets.len());
        heap.free_ns.reserve(4 * sets.len());
    }
    let setup = t_setup.elapsed();

    let before = mesh.stats();
    let t0 = Instant::now();
    let mut set_ns = Vec::with_capacity(sets.len());
    for &(key, len) in &sets {
        let t = Instant::now();
        store.set(&mut heap, &cfg, key, len, &mut victims);
        set_ns.push(ns(t.elapsed()));
    }
    let mid = mesh.stats();
    let mut pass_ns = Vec::with_capacity(cfg.idle_ticks);
    for _ in 0..cfg.idle_ticks {
        let t = Instant::now();
        mesh.mesh_now();
        pass_ns.push(ns(t.elapsed()));
    }
    let wall = t0.elapsed();
    let heap_final = mesh.heap_bytes() as f64 / MIB;
    let rss_final = vm_rss_mb();
    let maps = map_count();
    let t = Instant::now();
    mesh.purge_dirty();
    let purge_ns = ns(t.elapsed());
    let end = mesh.stats();

    let mut out = Out::new();
    out.insert("setup_s".into(), setup.as_secs_f64());
    out.insert("wall_s".into(), wall.as_secs_f64());
    let ops = (end.mallocs + end.frees).saturating_sub(before.mallocs + before.frees);
    out.insert("ops".into(), ops as f64);
    out.insert("ops_per_s".into(), ops as f64 / wall.as_secs_f64());
    out.insert("heap_peak_mb".into(), end.peak_heap_bytes() as f64 / MIB);
    out.insert("heap_final_mb".into(), heap_final);
    out.insert("rss_final_mb".into(), rss_final);
    put_pause(&mut out, &dist(set_ns));
    if trace {
        put_deltas(&mut out, &before, &mid, &end);
        put_spent(
            &mut out,
            heap.call_ns(),
            pass_ns.iter().sum(),
            purge_ns,
            ns(wall) + purge_ns,
        );
        out.insert("arena.map_count".into(), maps);
        out.insert("meshing.pass_ms_p50".into(), dist(pass_ns).p50 / 1e6);
        out.insert("meshing.pass_n".into(), cfg.idle_ticks as f64);
        call_dists(&mut out, &mut [&mut heap]);
    }

    // Final sweep: every surviving entry is checked once more and freed.
    heap.trace = false;
    for key in store.keys.clone() {
        store.remove(&mut heap, key);
    }
    heap.heap.flush();
    let failed = store.failed + heap.nulls + balance_failures(&mesh.stats());
    out.insert("attempted".into(), sets.len() as f64);
    out.insert("failed".into(), failed as f64);
    out
}

// ---------------------------------------------------------------------
// churn_2t
// ---------------------------------------------------------------------

const THREADS: usize = 2;
/// Live objects per thread: ~4 MiB per thread over 16 size classes, at
/// least four spans per class and twice a 2 MiB L2. A larger live set
/// spills into the last-level cache the machine's other tenants share,
/// and its times then follow their load.
const LIVE: usize = 1 << 14;
/// Churn steps per thread (one malloc and one free each).
const STEPS: usize = 500_000;
/// Steps in one turn. The threads take turns, so one churns while the
/// other waits: the run measures the heap, not how the machine schedules
/// two busy threads on its cores. One turn is one latency sample (about
/// 8 ms of churn).
const TURN: usize = 8192;
/// Handed-off frees travel in batches of this many objects.
const HANDOFF: usize = 256;
const SIZES: [usize; 16] = [
    16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 256, 320, 384, 512, 768, 1024,
];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread to `cpu`. Both churn threads share one CPU:
/// passing the turn is then a local context switch, and the CPU never
/// idles between turns. On a virtual machine, a turn passed to an idle
/// virtual CPU first waits for the host to run that CPU again, a delay
/// set by the host's other tenants.
fn pin(cpu: i32) {
    let mut mask = [0u64; 16];
    if let Some(word) = mask.get_mut(cpu as usize / 64) {
        *word = 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a 1024-bit CPU set that outlives the call; an
    // empty set (no CPU known) is refused with EINVAL.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("perfbench: churn_2t: cannot bind to CPU {cpu}; the threads stay unbound");
    }
}

/// One live object: address, stamp, size.
#[derive(Clone, Copy)]
struct Obj {
    p: usize,
    stamp: u64,
    len: usize,
}

/// A step of a thread's script: the slot to replace, the new object's
/// size class, and whether the old object is handed to the other thread
/// to free (about one step in four).
fn script(seed: u64, thread: usize) -> Vec<u32> {
    let mut rng = Rng::with_seed(mix(seed ^ ((thread as u64 + 1) << 56)));
    (0..LIVE + STEPS)
        .map(|_| {
            let slot = rng.below(LIVE as u32);
            let size = rng.below(SIZES.len() as u32);
            let handoff = rng.chance(1, 4) as u32;
            slot | size << 16 | handoff << 20
        })
        .collect()
}

struct Worker {
    heap: Timed,
    batch_ns: Vec<u64>,
    failed: u64,
}

impl Worker {
    fn new_obj(&mut self, step: u64, size: usize, tag: u64) -> Option<Obj> {
        let p = self.heap.malloc(size);
        if p.is_null() {
            return None;
        }
        let s = mix(tag ^ step);
        // SAFETY: `p` is a fresh allocation of `size >= 16` bytes.
        unsafe { stamp(p, size, s) };
        Some(Obj {
            p: p as usize,
            stamp: s,
            len: size,
        })
    }

    fn free_obj(&mut self, o: Obj, xthread: bool) {
        // SAFETY: `o` is a live object this benchmark allocated; it is
        // freed exactly once, by whichever thread holds it now.
        unsafe {
            if !stamp_ok(o.p as *const u8, o.len, o.stamp) {
                eprintln!("perfbench: churn_2t: stamp mismatch at {:#x}", o.p);
                self.failed += 1;
            }
            self.heap.free(o.p as *mut u8, xthread);
        }
    }
}

fn churn_2t(seed: u64, trace: bool) -> Out {
    let t_setup = Instant::now();
    // Meshing is deferred beyond the run: this workload measures the
    // allocation tiers and must leave the meshing layer untouched.
    let mesh = Mesh::new(
        MeshConfig::default()
            .seed(seed)
            .max_heap_bytes(HEAP_CAP)
            .mesh_period(Duration::from_secs(3600)),
    )
    .expect("heap construction");
    let scripts: Vec<Vec<u32>> = (0..THREADS).map(|t| script(seed, t)).collect();
    let setup = t_setup.elapsed();

    let mailboxes: Vec<Mutex<Vec<Vec<Obj>>>> =
        (0..THREADS).map(|_| Mutex::new(Vec::new())).collect();
    let phase = Barrier::new(THREADS + 1);
    let produced = Barrier::new(THREADS);
    // Whose turn it is: thread `*baton % THREADS`.
    let (baton, passed) = (Mutex::new(0usize), Condvar::new());
    // SAFETY: no arguments; returns the CPU this thread runs on, or -1.
    let cpu = unsafe { sched_getcpu() };
    let mut before = HeapStats::default();
    let mut mid = HeapStats::default();
    let mut end = HeapStats::default();
    let (mut wall, mut purge_ns, mut heap_final, mut rss_final, mut maps) =
        (Duration::ZERO, 0u64, 0.0, 0.0, 0.0);

    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (mesh, script, mailboxes) = (&mesh, &scripts[t], &mailboxes);
                let (phase, produced) = (&phase, &produced);
                let (baton, passed) = (&baton, &passed);
                s.spawn(move || {
                    pin(cpu);
                    let tag = mix(seed ^ t as u64);
                    let mut w = Worker {
                        heap: Timed::new(mesh.thread_heap(), false),
                        batch_ns: Vec::with_capacity(STEPS / TURN + 1),
                        failed: 0,
                    };
                    let mut live: Vec<Option<Obj>> = Vec::with_capacity(LIVE);
                    for (i, &op) in script[..LIVE].iter().enumerate() {
                        let obj = w.new_obj(i as u64, SIZES[(op >> 16 & 0xf) as usize], tag);
                        live.push(obj);
                    }
                    if trace {
                        w.heap.malloc_ns.reserve(STEPS);
                        w.heap.free_ns.reserve(STEPS);
                        w.heap.xfree_ns.reserve(STEPS / 2);
                    }
                    w.heap.trace = trace;
                    phase.wait(); // filled
                    phase.wait(); // start
                    let other = &mailboxes[(t + 1) % THREADS];
                    let mine = &mailboxes[t];
                    let mut outbox: Vec<Obj> = Vec::with_capacity(HANDOFF);
                    for (k, ops) in script[LIVE..].chunks(TURN).enumerate() {
                        let mut turn = baton.lock().expect("baton lock");
                        while *turn % THREADS != t {
                            turn = passed.wait(turn).expect("baton lock");
                        }
                        drop(turn);
                        let bt = Instant::now();
                        // The objects the other thread handed off in its turn.
                        let inbox = std::mem::take(&mut *mine.lock().expect("mailbox lock"));
                        for o in inbox.into_iter().flatten() {
                            w.free_obj(o, true);
                        }
                        for (i, &op) in ops.iter().enumerate() {
                            let slot = (op & 0xffff) as usize;
                            if let Some(old) = live[slot].take() {
                                if op >> 20 & 1 == 1 {
                                    outbox.push(old);
                                    if outbox.len() == HANDOFF {
                                        let full = std::mem::replace(
                                            &mut outbox,
                                            Vec::with_capacity(HANDOFF),
                                        );
                                        other.lock().expect("mailbox lock").push(full);
                                    }
                                } else {
                                    w.free_obj(old, false);
                                }
                            }
                            let step = (LIVE + k * TURN + i) as u64;
                            live[slot] = w.new_obj(step, SIZES[(op >> 16 & 0xf) as usize], tag);
                        }
                        w.batch_ns.push(ns(bt.elapsed()));
                        *baton.lock().expect("baton lock") += 1;
                        passed.notify_all();
                    }
                    other.lock().expect("mailbox lock").push(outbox);
                    produced.wait();
                    let inbox = std::mem::take(&mut *mine.lock().expect("mailbox lock"));
                    for o in inbox.into_iter().flatten() {
                        w.free_obj(o, true);
                    }
                    phase.wait(); // done
                    phase.wait(); // measured
                    w.heap.trace = false;
                    for o in live.into_iter().flatten() {
                        w.free_obj(o, false);
                    }
                    w.heap.heap.flush();
                    w
                })
            })
            .collect();
        phase.wait(); // filled
        before = mesh.stats();
        phase.wait(); // start
        let t0 = Instant::now();
        phase.wait(); // done
        wall = t0.elapsed();
        heap_final = mesh.heap_bytes() as f64 / MIB;
        rss_final = vm_rss_mb();
        maps = map_count();
        mid = mesh.stats();
        let t = Instant::now();
        mesh.purge_dirty();
        purge_ns = ns(t.elapsed());
        end = mesh.stats();
        phase.wait(); // measured
        handles
            .into_iter()
            .map(|h| h.join().expect("churn worker panicked"))
            .collect()
    });
    let mut workers = workers;

    let mut out = Out::new();
    out.insert("setup_s".into(), setup.as_secs_f64());
    out.insert("wall_s".into(), wall.as_secs_f64());
    let ops = (mid.mallocs + mid.frees).saturating_sub(before.mallocs + before.frees);
    out.insert("ops".into(), ops as f64);
    out.insert("ops_per_s".into(), ops as f64 / wall.as_secs_f64());
    out.insert("heap_peak_mb".into(), end.peak_heap_bytes() as f64 / MIB);
    out.insert("heap_final_mb".into(), heap_final);
    out.insert("rss_final_mb".into(), rss_final);
    let batches: Vec<u64> = workers
        .iter_mut()
        .flat_map(|w| std::mem::take(&mut w.batch_ns))
        .collect();
    put_pause(&mut out, &dist(batches));
    if trace {
        put_deltas(&mut out, &before, &mid, &end);
        put_spent(
            &mut out,
            workers.iter().map(|w| w.heap.call_ns()).sum(),
            0,
            purge_ns,
            ns(wall) + purge_ns,
        );
        out.insert("arena.map_count".into(), maps);
        out.insert("meshing.pass_ms_p50".into(), 0.0);
        out.insert("meshing.pass_n".into(), 0.0);
        let mut heaps: Vec<&mut Timed> = workers.iter_mut().map(|w| &mut w.heap).collect();
        call_dists(&mut out, &mut heaps);
    }
    let worker_failed: u64 = workers.iter().map(|w| w.failed + w.heap.nulls).sum();
    drop(workers);
    let failed = worker_failed + balance_failures(&mesh.stats());
    out.insert("attempted".into(), (THREADS * (LIVE + STEPS)) as f64);
    out.insert("failed".into(), failed as f64);
    out
}
