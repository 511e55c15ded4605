//! **mesh_pause** — mutator pause accounting under active meshing.
//!
//! The paper's latency story is that meshing is concurrent: mutators
//! keep allocating while the mesher selects candidates, copies spans
//! through the copy window, and remaps virtual pages. The cost mutators
//! *do* pay is bounded lock holds — a refill that wants a class shard
//! the mesher holds, or an arena-leaf acquisition behind a remap. The
//! always-on `mutator_pause` histogram records exactly those waits
//! (contended lock acquisitions while a mesh pass is active, measured
//! from the mutator side), and this harness is the experiment that
//! populates it:
//!
//! * N mutator threads churn a meshable workload — allocate one size
//!   class, free ~⅞ of each window at random so spans go sparse — for
//!   the whole run;
//! * the driver thread loops `mesh_now()` back to back, so candidate
//!   selection / copy / remap are continuously holding and releasing
//!   the locks the mutators' slow paths want.
//!
//! Output: a human table of the mesh-phase and pause histograms (count,
//! p50/p99/max), one `BENCH_PAUSE.json` line on stdout, and the same
//! JSON written to `BENCH_PAUSE.json` in the working directory (CI
//! uploads it with the perf artifacts). Pauses are contention, not a
//! guarantee: a fast mesher on a lightly loaded machine can legitimately
//! finish passes without ever blocking a mutator, so a zero pause count
//! is reported, not failed. What *is* enforced (unless
//! `MESH_BENCH_NO_ENFORCE=1`): the mesh passes actually ran and recorded
//! their phase latencies, and any recorded pause percentiles are
//! internally consistent (p50 ≤ p99 ≤ `max_ns`: the percentiles are
//! log-bucket upper bounds clamped to the exact observed maximum).

use mesh_bench::banner;
use mesh_core::{LatencySnapshot, Mesh, MeshConfig, TimedOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const MESH_PASSES: usize = 200;
/// Objects a mutator accumulates before the random ⅞ cull.
const WINDOW: usize = 4096;
const OBJ_SIZE: usize = 256;

/// One op's delta as a table row and a JSON fragment.
fn summarize(delta: &LatencySnapshot, op: TimedOp) -> (u64, u64, u64, u64) {
    (
        delta.count(op),
        delta.percentile_ns(op, 0.50),
        delta.percentile_ns(op, 0.99),
        delta.max_ns(op),
    )
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.clamp(2, 8);
    banner("mesh_pause: mutator pauses while the mesher runs");

    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(42)
            .background_meshing(false)
            .mesh_period(Duration::from_secs(3600)),
    )
    .expect("bench heap");

    let before = mesh.stats().latency;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut mesh_wall = Duration::ZERO;
    std::thread::scope(|s| {
        for t in 0..threads {
            let mesh = mesh.clone();
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut th = mesh.thread_heap();
                // Cheap xorshift so the cull pattern differs per thread:
                // random survivors are what make spans meshable.
                let mut rng = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1) | 1;
                let mut live: Vec<usize> = Vec::with_capacity(WINDOW);
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    let p = th.malloc(OBJ_SIZE);
                    assert!(!p.is_null());
                    live.push(p as usize);
                    if live.len() >= WINDOW {
                        while live.len() > WINDOW / 8 {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            let idx = (rng >> 32) as usize % live.len();
                            unsafe { th.free(live.swap_remove(idx) as *mut u8) };
                        }
                    }
                }
                for p in live {
                    unsafe { th.free(p as *mut u8) };
                }
            });
        }
        barrier.wait();
        let t0 = Instant::now();
        for _ in 0..MESH_PASSES {
            mesh.mesh_now();
        }
        mesh_wall = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
    });
    // Thread heaps dropped at scope exit: their local histogram tiers are
    // merged, so this snapshot holds every recorded wait.
    let delta = mesh.stats().latency.minus(&before);

    let phases = [
        TimedOp::MeshCandidates,
        TimedOp::MeshCopy,
        TimedOp::MeshRemap,
        TimedOp::MeshPass,
        TimedOp::Madvise,
        TimedOp::MutatorPause,
    ];
    println!();
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>12}",
        "op", "count", "p50_ns", "p99_ns", "max_ns"
    );
    for &op in &phases {
        let (count, p50, p99, max) = summarize(&delta, op);
        // A histogram this run never hit would render an all-zero row
        // that reads like "measured instant": skip it.
        if count == 0 {
            continue;
        }
        println!("{:<18} {count:>10} {p50:>12} {p99:>12} {max:>12}", op.name());
    }
    let (pause_count, pause_p50, pause_p99, pause_max) = summarize(&delta, TimedOp::MutatorPause);
    println!(
        "\n{MESH_PASSES} mesh passes over {threads} mutator threads in {:.1} ms \
         ({} pauses, {} ns paused in total)",
        mesh_wall.as_secs_f64() * 1e3,
        pause_count,
        delta.sum_ns(TimedOp::MutatorPause),
    );

    // --- trajectory JSON --------------------------------------------------
    let phases_json: Vec<String> = phases
        .iter()
        .map(|&op| {
            let (count, p50, p99, max) = summarize(&delta, op);
            format!(
                "{{\"op\":\"{}\",\"count\":{count},\"p50_ns\":{p50},\
                 \"p99_ns\":{p99},\"max_ns\":{max},\"sum_ns\":{}}}",
                op.name(),
                delta.sum_ns(op)
            )
        })
        .collect();
    let json = format!(
        "{{\"threads\":{threads},\"cores\":{cores},\"mesh_passes\":{MESH_PASSES},\
         \"mesh_wall_ms\":{:.1},\
         \"pause\":{{\"count\":{pause_count},\"p50_ns\":{pause_p50},\
         \"p99_ns\":{pause_p99},\"max_ns\":{pause_max},\"sum_ns\":{}}},\
         \"phases\":[{}]}}",
        mesh_wall.as_secs_f64() * 1e3,
        delta.sum_ns(TimedOp::MutatorPause),
        phases_json.join(",")
    );
    println!("\nBENCH_PAUSE.json {json}");
    if let Err(e) = std::fs::write("BENCH_PAUSE.json", format!("{json}\n")) {
        eprintln!("warning: could not write BENCH_PAUSE.json: {e}");
    }

    // --- sanity enforcement -----------------------------------------------
    if std::env::var_os("MESH_BENCH_NO_ENFORCE").is_none() {
        let passes = delta.count(TimedOp::MeshPass);
        assert!(
            passes >= MESH_PASSES as u64,
            "only {passes} mesh_pass latencies recorded for {MESH_PASSES} \
             mesh_now calls (set MESH_BENCH_NO_ENFORCE=1 to bypass)"
        );
        assert!(
            delta.count(TimedOp::MeshCandidates) >= MESH_PASSES as u64,
            "candidate-selection phase went unrecorded"
        );
        // Percentiles are bucket bounds clamped to the exact max.
        assert!(
            pause_p50 <= pause_p99 && pause_p99 <= pause_max,
            "pause percentiles not monotone: p50={pause_p50} p99={pause_p99} max={pause_max}"
        );
        println!(
            "pause accounting OK: {passes} passes recorded, pause p50/p99/max = \
             {pause_p50}/{pause_p99}/{pause_max} ns over {pause_count} pauses"
        );
    }
}
