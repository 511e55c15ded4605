//! Heap configuration (§4.5's tunables plus experiment controls).
//!
//! The defaults reproduce the paper's shipped configuration: meshing at most
//! once every 100 ms, probe limit `t = 64` (§3.3), randomization on. The
//! ablation switches (`meshing`, `randomize`) correspond to the paper's
//! "Mesh (no meshing)" and "Mesh (no rand)" configurations from §6.3.

use crate::error::MeshError;
use crate::harden::{parse_harden_policy, HardenConfig, HardenPolicy};
use crate::size_classes::PAGE_SIZE;
use std::path::PathBuf;
use std::time::Duration;

/// Longest control-socket path accepted: `sockaddr_un.sun_path` is 108
/// bytes on Linux including the terminating NUL.
pub(crate) const CTL_PATH_MAX: usize = 107;

/// Builder-style configuration for a [`crate::Mesh`] heap.
///
/// # Examples
///
/// ```
/// use mesh_core::MeshConfig;
///
/// let config = MeshConfig::default()
///     .seed(42)
///     .arena_bytes(64 * 1024 * 1024)
///     .probe_limit(64);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// Hard cap on the heap in bytes: the size of the virtual reservation
    /// the segmented arena grows into. Allocation fails (null) only when
    /// no segment can be placed under this cap.
    pub(crate) max_heap_bytes: usize,
    /// Size of the initial segment mapped at heap construction (clamped
    /// to the hard cap).
    pub(crate) initial_segment_bytes: usize,
    /// Preferred size of segments mapped on demand when allocation misses
    /// every existing segment (clamped to the cap; oversized span requests
    /// get a dedicated segment sized to the request).
    pub(crate) segment_bytes: usize,
    /// PRNG seed; `None` seeds from entropy.
    pub(crate) seed: Option<u64>,
    /// Master switch for meshing (§6.3 "Mesh (no meshing)" when false).
    pub(crate) meshing: bool,
    /// Master switch for randomized allocation (§6.3 "Mesh (no rand)"
    /// when false).
    pub(crate) randomize: bool,
    /// Minimum interval between meshing passes (default 100 ms, §4.5).
    pub(crate) mesh_period: Duration,
    /// If the last pass freed less than this many bytes, the timer is not
    /// restarted until another free reaches the global heap (§4.5).
    pub(crate) min_mesh_gain_bytes: usize,
    /// SplitMesher probe limit `t` (§3.3; the paper uses 64).
    pub(crate) probe_limit: usize,
    /// Spans with occupancy above this fraction are not mesh candidates.
    pub(crate) occupancy_cutoff: f64,
    /// Maximum virtual spans aliasing one physical span (bounds page-table
    /// growth; the reference implementation uses 3).
    pub(crate) max_span_count: usize,
    /// Dirty (freed but still committed) pages are released to the OS once
    /// they exceed this many bytes (§4.4.1; 64 MB in the paper).
    pub(crate) max_dirty_bytes: usize,
    /// Install the mprotect/SIGSEGV write barrier during meshing (§4.5.2).
    pub(crate) write_barrier: bool,
    /// Run meshing on a dedicated background thread instead of the
    /// allocation/free path. The thread honours the same §4.5 rate limiter
    /// and pause rule; it only moves *where* passes run.
    pub(crate) background_meshing: bool,
    /// Master switch for the sampled heap profiler (`MESH_PROF`). Off by
    /// default: no telemetry state exists and the fast path pays only one
    /// predictable branch.
    pub(crate) profiling: bool,
    /// Mean bytes between allocation samples (`MESH_PROF_SAMPLE_BYTES`,
    /// tcmalloc's classic default of 512 KiB). Smaller = more samples =
    /// sharper profiles and more overhead.
    pub(crate) prof_sample_bytes: usize,
    /// Interval between automatic profile dumps (`MESH_PROF_INTERVAL_MS`;
    /// `None` = only on request/at exit). Dumps ride the background
    /// telemetry thread.
    pub(crate) prof_interval: Option<Duration>,
    /// Profile-dump destination (`MESH_PROF_PATH`; `None` = stderr as a
    /// single `mesh-prof: ` line). The file is rewritten on each dump.
    pub(crate) prof_path: Option<PathBuf>,
    /// Master switch for slow-path event tracing (`MESH_TRACE`). Off by
    /// default: no rings exist and each slow-path record is one `Option`
    /// load. The always-on latency histograms are independent of this.
    pub(crate) trace: bool,
    /// Per-ring trace capacity in events (`MESH_TRACE_BUF_EVENTS`,
    /// rounded up to a power of two; 32 bytes per event). Rings
    /// overwrite oldest when full.
    pub(crate) trace_buf_events: usize,
    /// Trace-dump destination (`MESH_TRACE_PATH`; `None` = stderr as a
    /// single `mesh-trace: ` line). The file is rewritten on each dump.
    pub(crate) trace_path: Option<PathBuf>,
    /// Interval between mesh-sense polls (`MESH_SENSE_INTERVAL_MS`;
    /// `None` = sensing off). On by default at 1 Hz: each poll reads
    /// pressure/RSS sources, decomposes residency, and appends one
    /// snapshot to the in-memory ring — cheap enough to leave running.
    pub(crate) sense_interval: Option<Duration>,
    /// Snapshots retained in the sense ring (`MESH_SENSE_HISTORY`). At
    /// the default 1 s interval, 120 snapshots = two minutes of history.
    pub(crate) sense_history: usize,
    /// Pages sampled with `mincore(2)` per sense poll
    /// (`MESH_SENSE_MINCORE_PAGES`; 0 disables the sweep and
    /// `est_resident_bytes` falls back to committed bytes).
    pub(crate) sense_mincore_pages: usize,
    /// Sense-dump destination (`MESH_SENSE_PATH`; `None` = stderr as a
    /// single `mesh-sense: ` line on explicit request only — sensing is
    /// on by default, so there is no unsolicited at-exit dump without a
    /// path). The file is rewritten on each dump.
    pub(crate) sense_path: Option<PathBuf>,
    /// mesh-ctl control-socket path (`MESH_CTL`; `None` = no socket, the
    /// default). When set, the background thread binds a Unix-domain
    /// listener here and answers the line-oriented mesh-ctl protocol —
    /// live introspection and a whitelisted knob surface for running
    /// processes. A forked child unlinks and re-binds the path.
    pub(crate) ctl_path: Option<PathBuf>,
    /// Maximum concurrently connected mesh-ctl clients
    /// (`MESH_CTL_MAX_CLIENTS`); further connections are accepted and
    /// immediately dropped so a misbehaving scraper cannot pile up fds.
    pub(crate) ctl_max_clients: usize,
    /// Hardened-mode configuration (`MESH_HARDEN` and friends): policy
    /// off/count/abort plus per-feature switches for poisoning,
    /// quarantine, guard pages, and the mesh-time canary sweep. Off by
    /// default — the hardened branches collapse to one predictable test.
    pub(crate) harden: HardenConfig,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            max_heap_bytes: 1 << 30,         // 1 GiB hard cap (virtual)
            initial_segment_bytes: 64 << 20, // 64 MiB initial segment
            segment_bytes: 256 << 20,        // 256 MiB growth segments
            seed: None,
            meshing: true,
            randomize: true,
            mesh_period: Duration::from_millis(100),
            min_mesh_gain_bytes: 1 << 20,
            probe_limit: 64,
            occupancy_cutoff: 0.8,
            max_span_count: 3,
            max_dirty_bytes: 64 << 20,
            write_barrier: true,
            background_meshing: false,
            profiling: false,
            prof_sample_bytes: 512 << 10, // tcmalloc's classic rate
            prof_interval: None,
            prof_path: None,
            trace: false,
            trace_buf_events: 64 << 10, // 64 Ki events = 2 MiB per ring
            trace_path: None,
            sense_interval: Some(Duration::from_millis(1000)),
            sense_history: 120,
            sense_mincore_pages: 256,
            sense_path: None,
            ctl_path: None,
            ctl_max_clients: 4,
            harden: HardenConfig::default(),
        }
    }
}

impl MeshConfig {
    /// Sets the heap's hard cap in bytes — the virtual reservation the
    /// segmented arena grows into on demand. Legacy name from the
    /// fixed-size-arena era; alias of [`MeshConfig::max_heap_bytes`].
    pub fn arena_bytes(self, bytes: usize) -> Self {
        self.max_heap_bytes(bytes)
    }

    /// Sets the heap's hard cap in bytes. Allocation returns null only
    /// once no segment can be placed under this cap.
    pub fn max_heap_bytes(mut self, bytes: usize) -> Self {
        self.max_heap_bytes = bytes;
        self
    }

    /// Sets the size of the initial segment mapped at construction
    /// (clamped to the hard cap).
    pub fn initial_segment_bytes(mut self, bytes: usize) -> Self {
        self.initial_segment_bytes = bytes;
        self
    }

    /// Sets the preferred size of on-demand growth segments (clamped to
    /// the hard cap; oversized requests get a dedicated segment).
    pub fn segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Fixes the PRNG seed for deterministic experiments.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Enables or disables meshing (the compaction mechanism itself).
    pub fn meshing(mut self, enabled: bool) -> Self {
        self.meshing = enabled;
        self
    }

    /// Enables or disables randomized allocation.
    pub fn randomize(mut self, enabled: bool) -> Self {
        self.randomize = enabled;
        self
    }

    /// Sets the minimum interval between meshing passes.
    pub fn mesh_period(mut self, period: Duration) -> Self {
        self.mesh_period = period;
        self
    }

    /// Sets the "don't restart the timer" gain threshold (§4.5).
    pub fn min_mesh_gain_bytes(mut self, bytes: usize) -> Self {
        self.min_mesh_gain_bytes = bytes;
        self
    }

    /// Sets the SplitMesher probe limit `t` (§3.3).
    pub fn probe_limit(mut self, t: usize) -> Self {
        self.probe_limit = t;
        self
    }

    /// Sets the occupancy fraction above which spans are not meshed.
    pub fn occupancy_cutoff(mut self, cutoff: f64) -> Self {
        self.occupancy_cutoff = cutoff;
        self
    }

    /// Sets the maximum number of virtual spans per physical span.
    pub fn max_span_count(mut self, n: usize) -> Self {
        self.max_span_count = n;
        self
    }

    /// Sets the dirty-page release threshold (§4.4.1).
    pub fn max_dirty_bytes(mut self, bytes: usize) -> Self {
        self.max_dirty_bytes = bytes;
        self
    }

    /// Enables or disables the concurrent-meshing write barrier.
    ///
    /// With the barrier disabled, meshing is only safe if no other thread
    /// writes to objects in mesh candidates during a pass; the paper's
    /// design keeps it on and so does the default.
    pub fn write_barrier(mut self, enabled: bool) -> Self {
        self.write_barrier = enabled;
        self
    }

    /// Enables or disables the dedicated background meshing thread.
    ///
    /// Off by default so seeded experiments stay deterministic: with the
    /// thread running, passes fire on the §4.5 timer from a separate
    /// schedule rather than synchronously with frees.
    pub fn background_meshing(mut self, enabled: bool) -> Self {
        self.background_meshing = enabled;
        self
    }

    /// Whether the background meshing thread is enabled.
    pub fn is_background_meshing(&self) -> bool {
        self.background_meshing
    }

    /// Enables or disables the sampled heap profiler (`MESH_PROF`).
    pub fn profiling(mut self, enabled: bool) -> Self {
        self.profiling = enabled;
        self
    }

    /// Sets the mean bytes between allocation samples
    /// (`MESH_PROF_SAMPLE_BYTES`).
    pub fn prof_sample_bytes(mut self, bytes: usize) -> Self {
        self.prof_sample_bytes = bytes;
        self
    }

    /// Sets (or clears) the automatic profile-dump interval
    /// (`MESH_PROF_INTERVAL_MS`).
    pub fn prof_interval(mut self, interval: Option<Duration>) -> Self {
        self.prof_interval = interval;
        self
    }

    /// Sets (or clears) the profile-dump destination (`MESH_PROF_PATH`).
    pub fn prof_path(mut self, path: Option<PathBuf>) -> Self {
        self.prof_path = path;
        self
    }

    /// Whether the sampled heap profiler is enabled.
    pub fn is_profiling(&self) -> bool {
        self.profiling
    }

    /// The configured mean bytes between allocation samples.
    pub fn prof_sample_size(&self) -> usize {
        self.prof_sample_bytes
    }

    /// The configured automatic profile-dump interval, if any.
    pub fn prof_dump_interval(&self) -> Option<Duration> {
        self.prof_interval
    }

    /// The configured profile-dump destination, if any.
    pub fn prof_dump_path(&self) -> Option<&std::path::Path> {
        self.prof_path.as_deref()
    }

    /// Enables or disables slow-path event tracing (`MESH_TRACE`).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Sets the per-ring trace capacity in events
    /// (`MESH_TRACE_BUF_EVENTS`; rounded up to a power of two).
    pub fn trace_buf_events(mut self, events: usize) -> Self {
        self.trace_buf_events = events;
        self
    }

    /// Sets (or clears) the trace-dump destination (`MESH_TRACE_PATH`).
    pub fn trace_path(mut self, path: Option<PathBuf>) -> Self {
        self.trace_path = path;
        self
    }

    /// Whether slow-path event tracing is enabled.
    pub fn is_tracing(&self) -> bool {
        self.trace
    }

    /// The configured per-ring trace capacity in events.
    pub fn trace_buf_event_count(&self) -> usize {
        self.trace_buf_events
    }

    /// The configured trace-dump destination, if any.
    pub fn trace_dump_path(&self) -> Option<&std::path::Path> {
        self.trace_path.as_deref()
    }

    /// Sets (or clears) the mesh-sense poll interval
    /// (`MESH_SENSE_INTERVAL_MS`; `None` disables sensing).
    pub fn sense_interval(mut self, interval: Option<Duration>) -> Self {
        self.sense_interval = interval;
        self
    }

    /// Sets the number of snapshots retained in the sense ring
    /// (`MESH_SENSE_HISTORY`).
    pub fn sense_history(mut self, snapshots: usize) -> Self {
        self.sense_history = snapshots;
        self
    }

    /// Sets the per-poll `mincore` page budget
    /// (`MESH_SENSE_MINCORE_PAGES`; 0 disables the residency sweep).
    pub fn sense_mincore_pages(mut self, pages: usize) -> Self {
        self.sense_mincore_pages = pages;
        self
    }

    /// Sets (or clears) the sense-dump destination (`MESH_SENSE_PATH`).
    pub fn sense_path(mut self, path: Option<PathBuf>) -> Self {
        self.sense_path = path;
        self
    }

    /// Whether mesh-sense polling is enabled.
    pub fn is_sensing(&self) -> bool {
        self.sense_interval.is_some()
    }

    /// The configured sense poll interval, if sensing is enabled.
    pub fn sense_poll_interval(&self) -> Option<Duration> {
        self.sense_interval
    }

    /// The configured sense-ring capacity in snapshots.
    pub fn sense_history_len(&self) -> usize {
        self.sense_history
    }

    /// The configured per-poll `mincore` page budget.
    pub fn sense_mincore_page_budget(&self) -> usize {
        self.sense_mincore_pages
    }

    /// The configured sense-dump destination, if any.
    pub fn sense_dump_path(&self) -> Option<&std::path::Path> {
        self.sense_path.as_deref()
    }

    /// Sets (or clears) the mesh-ctl control-socket path (`MESH_CTL`;
    /// `None` = no socket).
    pub fn ctl(mut self, path: Option<PathBuf>) -> Self {
        self.ctl_path = path;
        self
    }

    /// Sets the maximum concurrently connected mesh-ctl clients
    /// (`MESH_CTL_MAX_CLIENTS`).
    pub fn ctl_max_clients(mut self, n: usize) -> Self {
        self.ctl_max_clients = n;
        self
    }

    /// The configured control-socket path, if the socket is enabled.
    pub fn ctl_socket_path(&self) -> Option<&std::path::Path> {
        self.ctl_path.as_deref()
    }

    /// The configured mesh-ctl client cap.
    pub fn ctl_client_cap(&self) -> usize {
        self.ctl_max_clients
    }

    /// Sets the hardened-mode policy (`MESH_HARDEN`): [`HardenPolicy::Off`],
    /// count, or abort-on-detection.
    pub fn harden_policy(mut self, policy: HardenPolicy) -> Self {
        self.harden.policy = policy;
        self
    }

    /// Enables or disables free poisoning within hardened mode
    /// (`MESH_HARDEN_POISON`; no effect while the policy is `Off`).
    pub fn harden_poison(mut self, enabled: bool) -> Self {
        self.harden.poison = enabled;
        self
    }

    /// Enables or disables the delayed-reuse quarantine within hardened
    /// mode (`MESH_HARDEN_QUARANTINE`).
    pub fn harden_quarantine(mut self, enabled: bool) -> Self {
        self.harden.quarantine = enabled;
        self
    }

    /// Enables or disables large-object guard pages within hardened mode
    /// (`MESH_HARDEN_GUARD`).
    pub fn harden_guard(mut self, enabled: bool) -> Self {
        self.harden.guard = enabled;
        self
    }

    /// Enables or disables the mesh-time canary sweep within hardened
    /// mode (`MESH_HARDEN_CANARY`; also requires poisoning, which writes
    /// the canaries).
    pub fn harden_canary(mut self, enabled: bool) -> Self {
        self.harden.canary = enabled;
        self
    }

    /// Sets the per-thread quarantine byte cap
    /// (`MESH_HARDEN_QUARANTINE_BYTES`).
    pub fn harden_quarantine_bytes(mut self, bytes: usize) -> Self {
        self.harden.quarantine_bytes = bytes;
        self
    }

    /// Sets the per-thread quarantine slot cap
    /// (`MESH_HARDEN_QUARANTINE_SLOTS`).
    pub fn harden_quarantine_slots(mut self, slots: usize) -> Self {
        self.harden.quarantine_slots = slots;
        self
    }

    /// The resolved hardened-mode configuration.
    pub fn harden_config(&self) -> HardenConfig {
        self.harden
    }

    /// Whether hardened mode is active (policy is not `Off`).
    pub fn is_hardened(&self) -> bool {
        self.harden.active()
    }

    /// Whether meshing is enabled.
    pub fn is_meshing_enabled(&self) -> bool {
        self.meshing
    }

    /// Whether randomized allocation is enabled.
    pub fn is_randomized(&self) -> bool {
        self.randomize
    }

    /// The configured hard heap cap in bytes (legacy name).
    pub fn arena_size(&self) -> usize {
        self.max_heap_bytes
    }

    /// The configured hard heap cap in bytes.
    pub fn max_heap_size(&self) -> usize {
        self.max_heap_bytes
    }

    /// The configured initial segment size in bytes.
    pub fn initial_segment_size(&self) -> usize {
        self.initial_segment_bytes
    }

    /// The configured growth segment size in bytes.
    pub fn segment_size(&self) -> usize {
        self.segment_bytes
    }

    /// The configured SplitMesher probe limit `t`.
    pub fn probe_limit_t(&self) -> usize {
        self.probe_limit
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidConfig`] if the heap cap or a segment
    /// size is smaller than one span, the probe limit is zero, the
    /// occupancy cutoff is outside `(0, 1]`, or `max_span_count < 2`
    /// (meshing needs at least two).
    pub fn validate(&self) -> Result<(), MeshError> {
        if self.max_heap_bytes < 32 * PAGE_SIZE {
            return Err(MeshError::InvalidConfig(format!(
                "heap cap of {} bytes is smaller than the largest span",
                self.max_heap_bytes
            )));
        }
        if self.initial_segment_bytes < 32 * PAGE_SIZE {
            return Err(MeshError::InvalidConfig(format!(
                "initial segment of {} bytes is smaller than the largest span",
                self.initial_segment_bytes
            )));
        }
        if self.segment_bytes < 32 * PAGE_SIZE {
            return Err(MeshError::InvalidConfig(format!(
                "segment size of {} bytes is smaller than the largest span",
                self.segment_bytes
            )));
        }
        if self.probe_limit == 0 {
            return Err(MeshError::InvalidConfig("probe limit must be ≥ 1".into()));
        }
        if !(self.occupancy_cutoff > 0.0 && self.occupancy_cutoff <= 1.0) {
            return Err(MeshError::InvalidConfig(format!(
                "occupancy cutoff {} outside (0, 1]",
                self.occupancy_cutoff
            )));
        }
        if self.max_span_count < 2 {
            return Err(MeshError::InvalidConfig(
                "max_span_count must be ≥ 2 for meshing".into(),
            ));
        }
        if self.profiling && self.prof_sample_bytes == 0 {
            return Err(MeshError::InvalidConfig(
                "prof_sample_bytes must be ≥ 1 when profiling is enabled".into(),
            ));
        }
        if self.trace && !(64..=1 << 22).contains(&self.trace_buf_events) {
            return Err(MeshError::InvalidConfig(format!(
                "trace_buf_events {} outside 64..=4Mi",
                self.trace_buf_events
            )));
        }
        if self.harden.active() && self.harden.quarantine {
            if !(1..=1 << 20).contains(&self.harden.quarantine_slots) {
                return Err(MeshError::InvalidConfig(format!(
                    "harden quarantine_slots {} outside 1..=1Mi",
                    self.harden.quarantine_slots
                )));
            }
            if !(PAGE_SIZE..=1 << 30).contains(&self.harden.quarantine_bytes) {
                return Err(MeshError::InvalidConfig(format!(
                    "harden quarantine_bytes {} outside one page..=1G",
                    self.harden.quarantine_bytes
                )));
            }
        }
        if self.harden.active() && self.harden.canary && !self.harden.poison {
            return Err(MeshError::InvalidConfig(
                "harden canary sweep requires poisoning (canaries are written by the \
                 poison fill); set MESH_HARDEN_CANARY=0 or MESH_HARDEN_POISON=1"
                    .into(),
            ));
        }
        if let Some(path) = &self.ctl_path {
            let len = path.as_os_str().len();
            if len == 0 || len > CTL_PATH_MAX {
                return Err(MeshError::InvalidConfig(format!(
                    "ctl socket path is {len} bytes; sun_path allows 1..={CTL_PATH_MAX}"
                )));
            }
            if !(1..=64).contains(&self.ctl_max_clients) {
                return Err(MeshError::InvalidConfig(format!(
                    "ctl_max_clients {} outside 1..=64",
                    self.ctl_max_clients
                )));
            }
        }
        if self.sense_interval.is_some() {
            if !(2..=100_000).contains(&self.sense_history) {
                return Err(MeshError::InvalidConfig(format!(
                    "sense_history {} outside 2..=100000",
                    self.sense_history
                )));
            }
            if self.sense_mincore_pages > 1 << 24 {
                return Err(MeshError::InvalidConfig(format!(
                    "sense_mincore_pages {} above 16Mi",
                    self.sense_mincore_pages
                )));
            }
        }
        Ok(())
    }

    /// Applies the `MESH_*` environment knobs on top of this
    /// configuration — the tuning surface of the `LD_PRELOAD` deployment
    /// (§4.5's `mallctl` analog for processes we cannot recompile):
    ///
    /// | variable | meaning |
    /// |---|---|
    /// | `MESH_MAX_HEAP_BYTES` (legacy `MESH_ARENA_BYTES`) | hard cap |
    /// | `MESH_INITIAL_SEGMENT_BYTES` | initial segment size |
    /// | `MESH_SEGMENT_BYTES` | growth segment size |
    /// | `MESH_BACKGROUND_MESHING` | run meshing on a dedicated thread |
    /// | `MESH_SEED` | fix the PRNG seed |
    /// | `MESH_PROF` | enable the sampled heap profiler |
    /// | `MESH_PROF_SAMPLE_BYTES` | mean bytes between samples |
    /// | `MESH_PROF_INTERVAL_MS` | periodic profile dumps (0 = off) |
    /// | `MESH_PROF_PATH` | profile-dump file (default: stderr) |
    /// | `MESH_TRACE` | enable slow-path event tracing |
    /// | `MESH_TRACE_BUF_EVENTS` | per-ring trace capacity in events |
    /// | `MESH_TRACE_PATH` | trace-dump file (default: stderr) |
    /// | `MESH_SENSE_INTERVAL_MS` | mesh-sense poll period (0 = off; default 1000) |
    /// | `MESH_SENSE_HISTORY` | snapshots retained in the sense ring |
    /// | `MESH_SENSE_MINCORE_PAGES` | pages sampled per poll (0 = no sweep) |
    /// | `MESH_SENSE_PATH` | sense-dump file (default: stderr, on request) |
    /// | `MESH_CTL` | mesh-ctl Unix-socket path (default: no socket) |
    /// | `MESH_CTL_MAX_CLIENTS` | concurrent ctl clients (1..=64, default 4) |
    /// | `MESH_HARDEN` | hardened mode: `off` / `count` (alias `full`) / `abort` (alias `die`) |
    /// | `MESH_HARDEN_POISON` | free poisoning + reallocation verify |
    /// | `MESH_HARDEN_QUARANTINE` | delayed-reuse quarantine |
    /// | `MESH_HARDEN_GUARD` | trailing guard page on large objects |
    /// | `MESH_HARDEN_CANARY` | canary sweep during mesh copy windows |
    /// | `MESH_HARDEN_QUARANTINE_BYTES` | per-thread quarantine byte cap |
    /// | `MESH_HARDEN_QUARANTINE_SLOTS` | per-thread quarantine slot cap |
    ///
    /// Size knobs accept `K`/`M`/`G`/`T` suffixes (optionally followed by
    /// `B` or `iB`, case-insensitive): `MESH_MAX_HEAP_BYTES=8G`. Malformed
    /// values are ignored with a one-line warning on stderr rather than
    /// silently falling back.
    pub fn apply_env(mut self) -> Self {
        if let Some(bytes) =
            env_size("MESH_MAX_HEAP_BYTES").or_else(|| env_size("MESH_ARENA_BYTES"))
        {
            self = self.max_heap_bytes(bytes);
        }
        if let Some(bytes) = env_size("MESH_INITIAL_SEGMENT_BYTES") {
            self = self.initial_segment_bytes(bytes);
        }
        if let Some(bytes) = env_size("MESH_SEGMENT_BYTES") {
            self = self.segment_bytes(bytes);
        }
        if let Some(enabled) = env_bool("MESH_BACKGROUND_MESHING") {
            self = self.background_meshing(enabled);
        }
        if let Some(seed) = env_u64("MESH_SEED") {
            self = self.seed(seed);
        }
        if let Some(enabled) = env_bool("MESH_PROF") {
            self = self.profiling(enabled);
        }
        if let Some(bytes) = env_size("MESH_PROF_SAMPLE_BYTES") {
            self = self.prof_sample_bytes(bytes);
        }
        if let Some(ms) = env_u64("MESH_PROF_INTERVAL_MS") {
            self = self.prof_interval((ms > 0).then(|| Duration::from_millis(ms)));
        }
        if let Some(path) = env_path("MESH_PROF_PATH") {
            self = self.prof_path(Some(path));
        }
        if let Some(enabled) = env_bool("MESH_TRACE") {
            self = self.tracing(enabled);
        }
        if let Some(events) = env_size("MESH_TRACE_BUF_EVENTS") {
            self = self.trace_buf_events(events);
        }
        if let Some(path) = env_path("MESH_TRACE_PATH") {
            self = self.trace_path(Some(path));
        }
        if let Some(ms) = env_u64("MESH_SENSE_INTERVAL_MS") {
            self = self.sense_interval((ms > 0).then(|| Duration::from_millis(ms)));
        }
        if let Some(n) = env_u64("MESH_SENSE_HISTORY") {
            self = self.sense_history(n as usize);
        }
        if let Some(n) = env_size("MESH_SENSE_MINCORE_PAGES") {
            self = self.sense_mincore_pages(n);
        }
        if let Some(path) = env_path("MESH_SENSE_PATH") {
            self = self.sense_path(Some(path));
        }
        // Bounds are enforced here (warn-and-ignore) rather than left to
        // `validate()`: under LD_PRELOAD a validation failure kills heap
        // construction for the whole process, which is far worse than
        // running without a control socket.
        if let Some(path) = env_parsed(
            "MESH_CTL",
            |s| {
                let t = s.trim();
                (!t.is_empty() && t.len() <= CTL_PATH_MAX).then(|| PathBuf::from(t))
            },
            "a socket path of 1..=107 bytes",
        ) {
            self = self.ctl(Some(path));
        }
        if let Some(n) = env_parsed(
            "MESH_CTL_MAX_CLIENTS",
            |s| s.trim().parse::<usize>().ok().filter(|n| (1..=64).contains(n)),
            "an integer in 1..=64",
        ) {
            self = self.ctl_max_clients(n);
        }
        if let Some(policy) = env_parsed(
            "MESH_HARDEN",
            parse_harden_policy,
            "one of off/count/abort (aliases: full, die, 0/1, on/off)",
        ) {
            self = self.harden_policy(policy);
        }
        if let Some(enabled) = env_bool("MESH_HARDEN_POISON") {
            self = self.harden_poison(enabled);
        }
        if let Some(enabled) = env_bool("MESH_HARDEN_QUARANTINE") {
            self = self.harden_quarantine(enabled);
        }
        if let Some(enabled) = env_bool("MESH_HARDEN_GUARD") {
            self = self.harden_guard(enabled);
        }
        if let Some(enabled) = env_bool("MESH_HARDEN_CANARY") {
            self = self.harden_canary(enabled);
        }
        if let Some(bytes) = env_size("MESH_HARDEN_QUARANTINE_BYTES") {
            self = self.harden_quarantine_bytes(bytes);
        }
        if let Some(n) = env_u64("MESH_HARDEN_QUARANTINE_SLOTS") {
            self = self.harden_quarantine_slots(n as usize);
        }
        self
    }

    /// Number of whole pages under the hard cap.
    pub(crate) fn arena_pages(&self) -> usize {
        self.max_heap_bytes / PAGE_SIZE
    }

    /// Initial-segment size in whole pages.
    pub(crate) fn initial_segment_pages(&self) -> usize {
        self.initial_segment_bytes / PAGE_SIZE
    }

    /// Growth-segment size in whole pages.
    pub(crate) fn segment_pages(&self) -> usize {
        self.segment_bytes / PAGE_SIZE
    }
}

/// Parses a byte-size string with an optional `K`/`M`/`G`/`T` suffix
/// (case-insensitive, optionally followed by `B`/`iB`): `"64M"`,
/// `"8g"`, `"1073741824"`, `"2GiB"`. Returns `None` for anything else
/// (including overflow).
pub fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let lower = s.to_ascii_lowercase();
    let body = lower
        .strip_suffix("ib")
        .or_else(|| lower.strip_suffix('b'))
        .unwrap_or(&lower);
    let (digits, shift) = match body.as_bytes().last()? {
        b'k' => (&body[..body.len() - 1], 10),
        b'm' => (&body[..body.len() - 1], 20),
        b'g' => (&body[..body.len() - 1], 30),
        b't' => (&body[..body.len() - 1], 40),
        b'0'..=b'9' => (body, 0),
        _ => return None,
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_shl(shift).filter(|v| v >> shift == n)
}

/// Parses a boolean knob: `1`/`true`/`yes`/`on` and `0`/`false`/`no`/`off`
/// (case-insensitive). Returns `None` for anything else.
pub fn parse_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

fn env_parsed<T>(name: &str, parse: impl Fn(&str) -> Option<T>, hint: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match parse(&raw) {
        Some(v) => Some(v),
        None => {
            eprintln!("mesh: ignoring malformed {name}={raw:?} (expected {hint})");
            None
        }
    }
}

/// Reads a size knob from the environment ([`parse_size`] syntax),
/// warning on stderr and returning `None` for malformed values.
pub fn env_size(name: &str) -> Option<usize> {
    env_parsed(name, parse_size, "a byte count such as 67108864, 64M, or 8G")
}

/// Reads a boolean knob from the environment ([`parse_bool`] syntax),
/// warning on stderr and returning `None` for malformed values.
pub fn env_bool(name: &str) -> Option<bool> {
    env_parsed(name, parse_bool, "one of 1/0/true/false/yes/no/on/off")
}

/// Reads an integer knob from the environment, warning on stderr and
/// returning `None` for malformed values.
pub fn env_u64(name: &str) -> Option<u64> {
    env_parsed(name, |s| s.trim().parse().ok(), "an unsigned integer")
}

/// Reads a path knob from the environment, warning on stderr and
/// returning `None` for malformed (empty/whitespace) values.
pub fn env_path(name: &str) -> Option<PathBuf> {
    env_parsed(
        name,
        |s| {
            let t = s.trim();
            (!t.is_empty()).then(|| PathBuf::from(t))
        },
        "a non-empty file path",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MeshConfig::default();
        assert_eq!(c.probe_limit, 64, "t = 64 (§3.3)");
        assert_eq!(c.mesh_period, Duration::from_millis(100), "§4.5 rate limit");
        assert_eq!(c.min_mesh_gain_bytes, 1 << 20, "1 MB rule (§4.5)");
        assert_eq!(c.max_dirty_bytes, 64 << 20, "64 MB dirty threshold (§4.4.1)");
        assert!(c.meshing && c.randomize && c.write_barrier);
        assert!(c.validate().is_ok());
        assert!(
            c.initial_segment_bytes <= c.max_heap_bytes
                && c.segment_bytes <= c.max_heap_bytes,
            "default segments fit under the default cap"
        );
    }

    #[test]
    fn segment_builders_and_accessors() {
        let c = MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .initial_segment_bytes(1 << 20)
            .segment_bytes(2 << 20);
        assert_eq!(c.max_heap_size(), 256 << 20);
        assert_eq!(c.initial_segment_size(), 1 << 20);
        assert_eq!(c.segment_size(), 2 << 20);
        assert_eq!(c.arena_size(), 256 << 20, "legacy accessor reads the cap");
        assert!(c.validate().is_ok());
        // The legacy builder name sets the cap.
        assert_eq!(MeshConfig::default().arena_bytes(64 << 20).max_heap_size(), 64 << 20);
    }

    #[test]
    fn builder_chains() {
        let c = MeshConfig::default()
            .seed(7)
            .meshing(false)
            .randomize(false)
            .probe_limit(8)
            .occupancy_cutoff(0.5)
            .arena_bytes(1 << 24);
        assert_eq!(c.seed, Some(7));
        assert!(!c.meshing && !c.randomize);
        assert_eq!(c.probe_limit, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size(" 64k "), Some(64 << 10));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("64KB"), Some(64 << 10));
        assert_eq!(parse_size("64KiB"), Some(64 << 10));
        assert_eq!(parse_size("512M"), Some(512 << 20));
        assert_eq!(parse_size("8G"), Some(8usize << 30));
        assert_eq!(parse_size("2T"), Some(2usize << 40));
        assert_eq!(parse_size("2g"), Some(2usize << 30));
        for bad in ["", "  ", "G", "12Q", "0x10", "-4", "4.5M", "9999999999999999G"] {
            assert_eq!(parse_size(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parse_bool_spellings() {
        for t in ["1", "true", "YES", "On"] {
            assert_eq!(parse_bool(t), Some(true));
        }
        for f in ["0", "false", "No", "OFF"] {
            assert_eq!(parse_bool(f), Some(false));
        }
        assert_eq!(parse_bool("maybe"), None);
        assert_eq!(parse_bool(""), None);
    }

    // `apply_env` itself is covered by `tests/env_knobs.rs` (an
    // integration test with its own process): mutating the process
    // environment from this parallel unit-test harness would race other
    // threads' getenv calls.

    #[test]
    fn profiling_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(!c.is_profiling(), "profiling is off by default");
        assert_eq!(c.prof_sample_size(), 512 << 10, "tcmalloc's classic rate");
        assert_eq!(c.prof_dump_interval(), None);
        assert_eq!(c.prof_dump_path(), None);
        let c = MeshConfig::default()
            .profiling(true)
            .prof_sample_bytes(64 << 10)
            .prof_interval(Some(Duration::from_millis(250)))
            .prof_path(Some("/tmp/prof.json".into()));
        assert!(c.is_profiling());
        assert_eq!(c.prof_sample_size(), 64 << 10);
        assert_eq!(c.prof_dump_interval(), Some(Duration::from_millis(250)));
        assert_eq!(
            c.prof_dump_path(),
            Some(std::path::Path::new("/tmp/prof.json"))
        );
        assert!(c.validate().is_ok());
        // Zero sample rate only matters when profiling is on.
        assert!(MeshConfig::default().prof_sample_bytes(0).validate().is_ok());
        assert!(MeshConfig::default()
            .profiling(true)
            .prof_sample_bytes(0)
            .validate()
            .is_err());
    }

    #[test]
    fn trace_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(!c.is_tracing(), "tracing is off by default");
        assert_eq!(c.trace_buf_event_count(), 64 << 10);
        assert_eq!(c.trace_dump_path(), None);
        let c = MeshConfig::default()
            .tracing(true)
            .trace_buf_events(4096)
            .trace_path(Some("/tmp/trace.json".into()));
        assert!(c.is_tracing());
        assert_eq!(c.trace_buf_event_count(), 4096);
        assert_eq!(
            c.trace_dump_path(),
            Some(std::path::Path::new("/tmp/trace.json"))
        );
        assert!(c.validate().is_ok());
        // Ring bounds only matter when tracing is on.
        assert!(MeshConfig::default().trace_buf_events(1).validate().is_ok());
        assert!(MeshConfig::default()
            .tracing(true)
            .trace_buf_events(1)
            .validate()
            .is_err());
        assert!(MeshConfig::default()
            .tracing(true)
            .trace_buf_events((1 << 22) + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn sense_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(c.is_sensing(), "sensing is on by default");
        assert_eq!(c.sense_poll_interval(), Some(Duration::from_millis(1000)));
        assert_eq!(c.sense_history_len(), 120);
        assert_eq!(c.sense_mincore_page_budget(), 256);
        assert_eq!(c.sense_dump_path(), None);
        let c = MeshConfig::default()
            .sense_interval(Some(Duration::from_millis(100)))
            .sense_history(16)
            .sense_mincore_pages(0)
            .sense_path(Some("/tmp/sense.json".into()));
        assert_eq!(c.sense_poll_interval(), Some(Duration::from_millis(100)));
        assert_eq!(c.sense_history_len(), 16);
        assert_eq!(c.sense_mincore_page_budget(), 0, "0 = no sweep, still valid");
        assert_eq!(
            c.sense_dump_path(),
            Some(std::path::Path::new("/tmp/sense.json"))
        );
        assert!(c.validate().is_ok());
        let off = MeshConfig::default().sense_interval(None);
        assert!(!off.is_sensing());
        // Ring/budget bounds only matter when sensing is on.
        assert!(off.clone().sense_history(1).validate().is_ok());
        assert!(MeshConfig::default().sense_history(1).validate().is_err());
        assert!(MeshConfig::default().sense_history(100_001).validate().is_err());
        assert!(MeshConfig::default()
            .sense_mincore_pages((1 << 24) + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn ctl_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert_eq!(c.ctl_socket_path(), None, "ctl socket is off by default");
        assert_eq!(c.ctl_client_cap(), 4);
        let c = MeshConfig::default()
            .ctl(Some("/tmp/mesh-ctl.sock".into()))
            .ctl_max_clients(8);
        assert_eq!(
            c.ctl_socket_path(),
            Some(std::path::Path::new("/tmp/mesh-ctl.sock"))
        );
        assert_eq!(c.ctl_client_cap(), 8);
        assert!(c.validate().is_ok());
        // sun_path holds at most CTL_PATH_MAX bytes plus the NUL.
        let long = "/tmp/".to_string() + &"x".repeat(CTL_PATH_MAX);
        assert!(MeshConfig::default().ctl(Some(long.into())).validate().is_err());
        assert!(MeshConfig::default().ctl(Some("".into())).validate().is_err());
        // Client-cap bounds only matter while the socket is on.
        let on = MeshConfig::default().ctl(Some("/tmp/s".into()));
        assert!(on.clone().ctl_max_clients(0).validate().is_err());
        assert!(on.ctl_max_clients(65).validate().is_err());
        assert!(MeshConfig::default().ctl_max_clients(0).validate().is_ok());
    }

    #[test]
    fn harden_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(!c.is_hardened(), "hardened mode is off by default");
        let h = c.harden_config();
        assert_eq!(h.policy, HardenPolicy::Off);
        assert!(h.poison && h.quarantine && h.guard && h.canary, "features default on");
        assert_eq!(h.quarantine_bytes, 256 << 10);
        assert_eq!(h.quarantine_slots, 512);
        let c = MeshConfig::default()
            .harden_policy(HardenPolicy::Count)
            .harden_poison(true)
            .harden_quarantine(true)
            .harden_guard(false)
            .harden_canary(false)
            .harden_quarantine_bytes(64 << 10)
            .harden_quarantine_slots(32);
        assert!(c.is_hardened());
        let h = c.harden_config();
        assert!(h.poison_on() && h.quarantine_on());
        assert!(!h.guard_on() && !h.canary_on());
        assert_eq!(h.quarantine_bytes, 64 << 10);
        assert_eq!(h.quarantine_slots, 32);
        assert!(c.validate().is_ok());
        // Quarantine bounds only matter while hardening (and the
        // quarantine) are on.
        assert!(MeshConfig::default().harden_quarantine_slots(0).validate().is_ok());
        let on = MeshConfig::default().harden_policy(HardenPolicy::Count);
        assert!(on.clone().harden_quarantine_slots(0).validate().is_err());
        assert!(on.clone().harden_quarantine_slots((1 << 20) + 1).validate().is_err());
        assert!(on.clone().harden_quarantine_bytes(16).validate().is_err());
        assert!(on.clone().harden_quarantine_bytes(2 << 30).validate().is_err());
        assert!(on
            .clone()
            .harden_quarantine(false)
            .harden_quarantine_slots(0)
            .validate()
            .is_ok());
        // Canary without poison has nothing to verify.
        assert!(on.clone().harden_poison(false).validate().is_err());
        assert!(on.harden_poison(false).harden_canary(false).validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MeshConfig::default().arena_bytes(4096).validate().is_err());
        assert!(MeshConfig::default().initial_segment_bytes(4096).validate().is_err());
        assert!(MeshConfig::default().segment_bytes(4096).validate().is_err());
        assert!(MeshConfig::default().probe_limit(0).validate().is_err());
        assert!(MeshConfig::default().occupancy_cutoff(0.0).validate().is_err());
        assert!(MeshConfig::default().occupancy_cutoff(1.5).validate().is_err());
        assert!(MeshConfig::default().max_span_count(1).validate().is_err());
    }
}
