//! The meshing-effectiveness ledger: one record per mesh pass.
//!
//! Aggregate counters (`spans_meshed`, `mesh_pages_released`) say *how
//! much* meshing recovered overall; they cannot say why a given pass
//! recovered little. This ledger keeps the last [`LEDGER_PASSES`] passes
//! with their candidate counts, per-reason rejection tallies, and the
//! bytes actually recovered and returned to the OS — the per-pass
//! effectiveness data a compaction policy (the ROADMAP's memory
//! autopilot) needs to decide whether meshing harder would help.
//!
//! The ring is guarded by a leaf mutex taken once per pass (passes are
//! rate-limited to ~10 Hz, §4.5); the per-reason totals are plain atomics
//! so `prom_text` can export `mesh_pass_rejected_total{reason=...}`
//! without the lock.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mesh passes retained in the ring.
pub const LEDGER_PASSES: usize = 64;

/// Number of distinct rejection reasons.
pub const REJECT_REASONS: usize = 4;

/// Why a candidate pair (or candidate span) failed to mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bitmaps overlap (§3.3 probe miss), or merging would exceed the
    /// `max_span_count` alias budget.
    OccupancyOverlap = 0,
    /// The class shard lock was contended when the pass claimed it, so the
    /// pass ran against a heap another thread was mutating moments before.
    ClassContention = 1,
    /// A pair was abandoned mid-copy because the kernel refused to
    /// write-protect a source span (`mprotect` fails with `ENOMEM` once
    /// the process reaches `vm.max_map_count` mappings). The pass meshes
    /// no further pairs of that class.
    CopyAbort = 2,
    /// Hardened mode found a corrupted free-slot canary inside the copy
    /// window and refused to mesh the pair (`MESH_HARDEN` with the canary
    /// sweep on; also surfaces as a `harden_canary` violation).
    CanaryTrip = 3,
}

/// Every reason, in counter-index order.
pub const ALL_REJECT_REASONS: [RejectReason; REJECT_REASONS] = [
    RejectReason::OccupancyOverlap,
    RejectReason::ClassContention,
    RejectReason::CopyAbort,
    RejectReason::CanaryTrip,
];

impl RejectReason {
    /// Stable snake_case name, used as the Prometheus `reason` label and
    /// the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::OccupancyOverlap => "occupancy_overlap",
            RejectReason::ClassContention => "class_contention",
            RejectReason::CopyAbort => "copy_abort",
            RejectReason::CanaryTrip => "canary_trip",
        }
    }
}

/// What one mesh pass did, as recorded at the end of the pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassRecord {
    /// Pass end time, milliseconds since heap construction.
    pub at_ms: u64,
    /// Candidate spans scanned across all size classes.
    pub candidates: u64,
    /// SplitMesher probes attempted (bounded by `t`, §3.3).
    pub probes: u64,
    /// Rejections by reason, indexed by `RejectReason as usize`.
    pub rejected: [u64; REJECT_REASONS],
    /// Pairs actually meshed.
    pub pairs_meshed: u64,
    /// Physical bytes recovered by meshing (released span pages).
    pub bytes_recovered: u64,
    /// Bytes returned to the OS during the pass (purge/madvise work the
    /// pass triggered, including the §4.4.1 dirty-threshold purge).
    pub madvise_bytes: u64,
}

impl PassRecord {
    /// Total rejections across all reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Renders the record as one JSON object (no trailing newline).
    pub(crate) fn json(&self) -> String {
        let mut reasons = String::new();
        for (i, r) in ALL_REJECT_REASONS.iter().enumerate() {
            if i > 0 {
                reasons.push(',');
            }
            reasons.push_str(&format!("\"{}\":{}", r.name(), self.rejected[i]));
        }
        format!(
            "{{\"at_ms\":{},\"candidates\":{},\"probes\":{},\"rejected\":{{{}}},\
             \"pairs_meshed\":{},\"bytes_recovered\":{},\"madvise_bytes\":{}}}",
            self.at_ms,
            self.candidates,
            self.probes,
            reasons,
            self.pairs_meshed,
            self.bytes_recovered,
            self.madvise_bytes,
        )
    }
}

#[derive(Debug)]
struct LedgerRing {
    /// Ring storage; meaningful up to `min(total, LEDGER_PASSES)` records.
    records: Box<[PassRecord; LEDGER_PASSES]>,
    /// Passes ever recorded (the ring write cursor is `total % LEDGER_PASSES`).
    total: u64,
}

/// The per-heap mesh-pass ledger (always on; one lock + a handful of
/// atomic adds per pass).
#[derive(Debug)]
pub struct MeshLedger {
    ring: Mutex<LedgerRing>,
    reject_totals: [AtomicU64; REJECT_REASONS],
}

impl MeshLedger {
    pub(crate) fn new() -> MeshLedger {
        MeshLedger {
            ring: Mutex::new(LedgerRing {
                records: Box::new([PassRecord::default(); LEDGER_PASSES]),
                total: 0,
            }),
            reject_totals: Default::default(),
        }
    }

    /// Appends one pass record (called at the end of every mesh pass).
    pub(crate) fn record(&self, rec: PassRecord) {
        for (i, &n) in rec.rejected.iter().enumerate() {
            if n > 0 {
                self.reject_totals[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        let mut ring = self.ring.lock();
        let slot = (ring.total % LEDGER_PASSES as u64) as usize;
        ring.records[slot] = rec;
        ring.total += 1;
    }

    /// Passes recorded since heap construction (monotone; the ring only
    /// retains the last [`LEDGER_PASSES`] of them).
    pub fn passes_recorded(&self) -> u64 {
        self.ring.lock().total
    }

    /// The retained records, oldest first.
    pub fn recent(&self) -> Vec<PassRecord> {
        let ring = self.ring.lock();
        let kept = ring.total.min(LEDGER_PASSES as u64) as usize;
        let mut out = Vec::with_capacity(kept);
        for k in 0..kept {
            let idx = (ring.total - kept as u64 + k as u64) % LEDGER_PASSES as u64;
            out.push(ring.records[idx as usize]);
        }
        out
    }

    /// Cumulative rejections by reason since heap construction (feeds
    /// `mesh_pass_rejected_total`).
    pub fn reject_totals(&self) -> [u64; REJECT_REASONS] {
        let mut out = [0u64; REJECT_REASONS];
        for (o, t) in out.iter_mut().zip(&self.reject_totals) {
            *o = t.load(Ordering::Relaxed);
        }
        out
    }

    /// Forgets everything: a forked child starts with an empty ledger
    /// (its parent's passes did not happen in this process).
    pub(crate) fn wipe_for_child(&self) {
        let mut ring = self.ring.lock();
        ring.total = 0;
        for t in &self.reject_totals {
            t.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: u64, meshed: u64, rejected: [u64; REJECT_REASONS]) -> PassRecord {
        PassRecord {
            at_ms,
            candidates: meshed * 2 + rejected.iter().sum::<u64>(),
            probes: 10,
            rejected,
            pairs_meshed: meshed,
            bytes_recovered: meshed * 4096,
            madvise_bytes: meshed * 4096,
        }
    }

    #[test]
    fn records_accumulate_and_totals_track() {
        let l = MeshLedger::new();
        assert_eq!(l.passes_recorded(), 0);
        assert!(l.recent().is_empty());
        l.record(rec(10, 2, [3, 1, 0, 0]));
        l.record(rec(20, 0, [0, 2, 0, 1]));
        assert_eq!(l.passes_recorded(), 2);
        let r = l.recent();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].at_ms, 10, "oldest first");
        assert_eq!(r[1].at_ms, 20);
        assert_eq!(l.reject_totals(), [3, 3, 0, 1]);
        assert_eq!(r[0].rejected_total(), 4);
    }

    #[test]
    fn ring_keeps_only_last_passes() {
        let l = MeshLedger::new();
        for i in 0..(LEDGER_PASSES as u64 + 9) {
            l.record(rec(i, 1, [1, 0, 0, 0]));
        }
        assert_eq!(l.passes_recorded(), LEDGER_PASSES as u64 + 9);
        let r = l.recent();
        assert_eq!(r.len(), LEDGER_PASSES);
        assert_eq!(r[0].at_ms, 9, "oldest retained record");
        assert_eq!(r[LEDGER_PASSES - 1].at_ms, LEDGER_PASSES as u64 + 8);
        assert_eq!(l.reject_totals()[0], LEDGER_PASSES as u64 + 9);
        l.wipe_for_child();
        assert_eq!(l.passes_recorded(), 0);
        assert_eq!(l.reject_totals(), [0; REJECT_REASONS]);
    }

    #[test]
    fn json_names_every_reason() {
        let j = rec(5, 1, [4, 3, 2, 1]).json();
        for r in ALL_REJECT_REASONS {
            assert!(j.contains(&format!("\"{}\":", r.name())), "{j}");
        }
        assert!(j.contains("\"pairs_meshed\":1"));
        assert!(j.contains("\"at_ms\":5"));
    }
}
