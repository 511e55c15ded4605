//! A mesh pass at the process's mapping limit.
//!
//! Write-protecting a span inside a larger mapping splits that mapping,
//! so once the process holds `vm.max_map_count` mappings `mprotect` fails
//! with `ENOMEM`. A pass that hits this must unwind the pair (restore
//! write access, drop the barrier), count it as a copy abort and leave
//! every object as it was — not panic inside the allocator.
//!
//! Own test binary with a single test: while the map budget is used up,
//! no other thread of the process may need a new mapping.

use mesh::core::{sys, Mesh, MeshConfig, RejectReason, PAGE_SIZE};
use std::time::Duration;

const ENOMEM: i32 = 12;
const SIZE: usize = 256;

/// `vm.max_map_count`, the per-process mapping limit.
fn max_map_count() -> usize {
    std::fs::read_to_string("/proc/sys/vm/max_map_count")
        .expect("read /proc/sys/vm/max_map_count")
        .trim()
        .parse()
        .expect("max_map_count is an integer")
}

/// Uses up the process's map budget: write-protects every other page of
/// one private mapping (each protect splits off two mappings) until the
/// kernel refuses with `ENOMEM`. Returns the mapping for the caller to
/// unmap, which gives the whole budget back.
fn exhaust_map_budget(limit: usize) -> (*mut u8, usize) {
    let pages = 2 * limit + 4;
    let len = pages * PAGE_SIZE;
    let base = sys::reserve_region(len).expect("reserve the splitting region");
    for page in (1..pages).step_by(2) {
        // SAFETY: the page lies inside the reservation made just above,
        // which nothing else uses.
        match unsafe { sys::protect_read(base.add(page * PAGE_SIZE), PAGE_SIZE) } {
            Ok(()) => {}
            Err(e) if e.raw_os_error() == Some(ENOMEM) => return (base, len),
            Err(e) => panic!("mprotect failed with {e}, not ENOMEM"),
        }
    }
    panic!("{pages} pages of splits never reached the map limit of {limit}");
}

/// Fills object `i` with its own byte pattern.
fn fill_byte(i: usize) -> u8 {
    (i % 251) as u8 + 1
}

fn assert_intact(kept: &[(usize, *mut u8)], when: &str) {
    for &(i, p) in kept {
        // SAFETY: `p` is a live `SIZE`-byte allocation of the heap.
        let bytes = unsafe { std::slice::from_raw_parts(p, SIZE) };
        assert!(
            bytes.iter().all(|&b| b == fill_byte(i)),
            "object {i} corrupted {when}"
        );
    }
}

#[test]
fn mesh_pass_at_map_limit_aborts_cleanly_then_recovers() {
    let limit = max_map_count();
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(21)
            .mesh_period(Duration::from_secs(3600))
            .sense_interval(None),
    )
    .unwrap();

    // A fragmented heap: allocate everything, then free three objects in
    // four, leaving many detached spans at ~25% occupancy.
    let ptrs: Vec<*mut u8> = (0..16_384).map(|_| mesh.malloc(SIZE)).collect();
    let mut kept = Vec::new();
    for (i, &p) in ptrs.iter().enumerate() {
        assert!(!p.is_null());
        // SAFETY: `p` is a fresh, non-null `SIZE`-byte allocation.
        unsafe { std::ptr::write_bytes(p, fill_byte(i), SIZE) };
    }
    for (i, &p) in ptrs.iter().enumerate() {
        if i % 4 == 0 {
            kept.push((i, p));
        } else {
            unsafe { mesh.free(p) };
        }
    }
    let settled = mesh.stats();
    assert_eq!(settled.live_bytes, kept.len() * SIZE);

    let (region, len) = exhaust_map_budget(limit);
    let summary = mesh.mesh_now();
    let aborts = mesh.ledger_reject_totals()[RejectReason::CopyAbort as usize];
    // SAFETY: `region` is the reservation `exhaust_map_budget` made;
    // nothing refers to it.
    unsafe { sys::unmap(region, len) };

    assert_eq!(
        summary.pairs_meshed, 0,
        "meshed with no map budget: {summary:?}"
    );
    assert!(aborts > 0, "refused mprotect not counted as a copy abort");
    assert_intact(&kept, "by the aborted pass");

    // With the budget back, the same heap meshes.
    let summary = mesh.mesh_now();
    assert!(
        summary.pairs_meshed > 0,
        "no pair meshed after unmap: {summary:?}"
    );
    assert_intact(&kept, "by meshing");
    for &(_, p) in &kept {
        unsafe { mesh.free(p) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}
