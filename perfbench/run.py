#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <perl_thin|redis_lru|churn_2t> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `libmesh.so` and the in-process
runner (`perfbench/`) from the checked-out tree, repeats the workload until
`--seconds` have passed, checks every output, prints one table line per
metric (median and quartiles across repetitions) and, as the last line, one
JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. A run record with the provenance and
every repetition's raw figures is written to `perfbench/.runs/`.

Workloads, metrics and the layer-to-end-to-end map are described in
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, ".runs")

# perl_thin size: about 130 MB of RSS under glibc, two seconds under Mesh.
PERL_KEYS = 300_000
PERL_CHURN = 100_000
# Set-up samples (an empty interposed `perl -e 0`) per round.
PERL_SETUP_PER_ROUND = 3
# A healthy repetition takes a few seconds; a run stops at its first failed
# repetition, so a hang costs one timeout and the run still ends in time.
PERL_TIMEOUT_S = 30
INPROC_TIMEOUT_S = 30
BUILD_TIMEOUT_S = 850
# Repetitions per run, whatever --seconds says: medians need a few.
MIN_REPS = 3
# Sources hashed into the run record.
SOURCE_DIRS = ("crates", "perfbench/src")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml", "perfbench/run.py",
                "perfbench/thin.pl")
# The sources each artefact is built from: an artefact older than any of
# them is stale.
ARTEFACT_INPUTS = {
    "libmesh.so": ("crates/core/", "crates/abi/"),
    "perfbench": ("crates/core/", "crates/workloads/", "crates/graph/", "perfbench/src/",
                  "perfbench/Cargo.toml"),
}


class BenchError(Exception):
    pass


def fail(msg):
    raise BenchError(msg)


# ---------------------------------------------------------------------------
# Build and provenance
# ---------------------------------------------------------------------------

def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))


def source_files():
    files = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, names in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".runs"))
            files += [os.path.join(base, n) for n in sorted(names)]
    return [f for f in files if os.path.isfile(f)]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build():
    """Builds libmesh.so and the in-process runner from this tree; refuses a missing or
    stale artefact. Returns their paths."""
    for needed in ("Cargo.toml", "crates/abi/Cargo.toml", "crates/core/src/lib.rs"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a checkout of the repository")
    for cmd in (["cargo", "build", "--release", "--quiet", "-p", "mesh-abi"],
                ["cargo", "build", "--release", "--quiet", "--manifest-path",
                 "perfbench/Cargo.toml"]):
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"{' '.join(cmd)}: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace"))
            fail(f"{' '.join(cmd)} failed")
    so = os.path.join(target_dir(), "release", "libmesh.so")
    exe = os.path.join(target_dir(), "release", "perfbench")
    for art, inputs in ((so, ARTEFACT_INPUTS["libmesh.so"]),
                        (exe, ARTEFACT_INPUTS["perfbench"])):
        if not os.path.isfile(art):
            fail(f"{art} is missing after the build")
        newest = max(os.path.getmtime(f) for f in source_files()
                     if os.path.relpath(f, ROOT).startswith(inputs))
        if os.path.getmtime(art) < newest:
            fail(f"{art} is older than the sources it is built from")
    return so, exe


def provenance(so, exe):
    tree = hashlib.sha256()
    for f in source_files():
        tree.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            tree.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "source_sha256": tree.hexdigest(),
        "libmesh_sha256": sha256_file(so),
        "runner_sha256": sha256_file(exe),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "perl": shutil.which("perl"),
    }


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env(extra):
    """The parent's environment without any MESH_* knob or preload, plus
    `extra`."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MESH_") and k != "LD_PRELOAD"}
    env.update(LC_ALL="C", PERL_HASH_SEED="0", PERL_PERTURB_KEYS="0")
    env.update(extra)
    return env


class Child:
    """A finished child process: wall time from spawn to exit, exit code,
    peak RSS from `wait4`, captured output."""

    def __init__(self, wall_s, code, maxrss_mb, out, err, extra):
        self.wall_s, self.code, self.maxrss_mb = wall_s, code, maxrss_mb
        self.out, self.err, self.extra = out, err, extra


def run_child(args, env, timeout, hold=None):
    """Runs `args` with output in files (no pipe can fill), reaping it with
    `wait4` for its rusage. `hold(alive, out_path, t0, deadline)` runs
    while the child is alive and may return extra data. A child that
    outlives `timeout`, or this process, is killed and reaped."""
    os.makedirs(RUN_DIR, exist_ok=True)
    out_path = os.path.join(RUN_DIR, f"child-{os.getpid()}.out")
    err_path = os.path.join(RUN_DIR, f"child-{os.getpid()}.err")
    reaped = {}
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=fo, stderr=fe,
                                stdin=subprocess.PIPE if hold else subprocess.DEVNULL)

    def reap():
        _, status, ru = os.wait4(proc.pid, 0)
        reaped.update(t=time.perf_counter(), status=status, ru=ru)

    reaper = threading.Thread(target=reap)
    reaper.start()
    extra = None
    try:
        if hold:
            extra = hold(reaper.is_alive, out_path, t0, t0 + timeout)
            proc.stdin.close()
        reaper.join(max(0.0, t0 + timeout - time.perf_counter()))
    finally:
        if reaper.is_alive():
            proc.kill()
            reaper.join()
    code = os.waitstatus_to_exitcode(reaped["status"])
    proc.returncode = code  # already reaped; keeps Popen from waiting again
    with open(out_path, "rb") as f:
        out = f.read().decode(errors="replace")
    with open(err_path, "rb") as f:
        err = f.read().decode(errors="replace")
    os.unlink(out_path)
    os.unlink(err_path)
    return Child(reaped["t"] - t0, code, reaped["ru"].ru_maxrss / 1024.0, out, err, extra)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def pooled_tail(tops, total_n):
    """The highest percentile with at least ten samples beyond it over the
    union of several repetitions' raw samples, given each repetition's
    eleven largest samples and the total sample count: (value, percentile,
    n). Below eleven samples, the maximum."""
    top = sorted((v for t in tops for v in t), reverse=True)
    if not top:
        return 0.0, 0.0, 0
    if total_n > 10:
        return top[10], 100.0 * (total_n - 10) / total_n, total_n
    return top[0], 100.0, total_n


def summary(values):
    """Median and quartiles across repetitions."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def repeat_rounds(kinds, seconds):
    """Yields `kinds` in rotated order, round after round: at least
    MIN_REPS rounds, then only rounds that should end within `seconds`."""
    t0 = time.perf_counter()
    rnd = 0
    while True:
        elapsed = time.perf_counter() - t0
        if rnd >= MIN_REPS and elapsed + elapsed / rnd > seconds:
            return
        shift = rnd % len(kinds)
        yield kinds[shift:] + kinds[:shift]
        rnd += 1


# ---------------------------------------------------------------------------
# perl_thin
# ---------------------------------------------------------------------------

def parse_kv(line):
    return {k: v for k, _, v in (w.partition("=") for w in line.split()) if _}


def ctl_query(path, command, deadline):
    """One request over the heap's control socket (greeting, then
    `ok <len>` framing)."""
    while True:
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(5)
            s.connect(path)
            break
        except OSError:
            s.close()
            if time.perf_counter() > deadline:
                fail(f"control socket {path} never came up")
            time.sleep(0.01)
    with s:
        f = s.makefile("rb")
        f.readline()
        s.sendall(command.encode() + b"\n")
        head = f.readline().decode().split()
        if len(head) != 2 or head[0] != "ok":
            fail(f"control socket answered {head!r} to {command}")
        return f.read(int(head[1])).decode()


def prom_values(text):
    vals = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                vals[name] = float(value)
            except ValueError:
                pass
    return vals


def perl_run(so, seed, mesh, traced):
    args = ["perl", os.path.join("perfbench", "thin.pl"), str(seed), str(PERL_KEYS),
            str(PERL_CHURN)]
    extra = {}
    hold = None
    if mesh:
        extra = {"LD_PRELOAD": so, "MESH_SEED": str(seed), "MESH_PRINT_STATS_AT_EXIT": "1"}
    if traced:
        sock = os.path.relpath(os.path.join(RUN_DIR, f"ctl-{os.getpid()}.sock"), ROOT)
        extra["MESH_CTL"] = sock
        args.append("hold")

        def hold(alive, out_path, t0, deadline):
            while True:
                with open(out_path, "rb") as f:
                    if b"READY\n" in f.read():
                        break
                if not alive() or time.perf_counter() > deadline:
                    return None
                time.sleep(0.002)
            ready_s = time.perf_counter() - t0
            return ready_s, prom_values(ctl_query(sock, "prom", deadline))

    c = run_child(args, child_env(extra), PERL_TIMEOUT_S, hold)
    r = {"wall_s": c.wall_s, "code": c.code, "rss_peak_mb": c.maxrss_mb, "ok": c.code == 0}
    lines = c.out.splitlines()
    res = next((parse_kv(l) for l in lines if l.startswith("result ")), None)
    lat = next((l[len("lat_ms="):] for l in lines if l.startswith("lat_ms=")), "")
    if res is None:
        r["ok"] = False
        sys.stderr.write(f"perl_thin: no result (exit {c.code}): {c.err[-2000:]}\n")
        return r
    r.update(rss_final_mb=int(res["rss_kb"]) / 1024.0, maps=int(res["maps"]),
             ops=int(res["ops"]), digest=res["digest"])
    samples = [float(x) for x in lat.split(",") if x]
    r["pause_top"] = sorted(samples, reverse=True)[:11]
    r["pause_n"] = len(samples)
    if mesh:
        stats = next((parse_kv(l[len("mesh: "):]) for l in c.err.splitlines()
                      if l.startswith("mesh: ")), None)
        if stats is None:
            r["ok"] = False
            sys.stderr.write("perl_thin: no `mesh:` stats line: the preload did not run\n")
            return r
        r["stats"] = {k: int(v) for k, v in stats.items() if v.isdigit()}
        if traced:
            if not c.extra:
                r["ok"] = False
                sys.stderr.write("perl_thin: the traced run never reached READY\n")
                return r
            r["ready_s"], r["prom"] = c.extra
    return r


def perl_violations(r):
    s = r.get("stats", {})
    bad = {k: v for k, v in s.items()
           if (k in ("invalid_frees", "double_frees") or k.startswith("harden_")) and v}
    return bad


def perl_thin(so, seed, seconds, trace):
    setup = []

    def set_up():
        # Samples taken round by round, not all at the start, so one busy
        # moment of the machine does not set the run's median.
        for _ in range(PERL_SETUP_PER_ROUND):
            c = run_child(["perl", "-e", "0"],
                          child_env({"LD_PRELOAD": so, "MESH_SEED": str(seed)}), PERL_TIMEOUT_S)
            if c.code != 0:
                fail(f"perl -e 0 under libmesh.so exited {c.code}: {c.err[-500:]}")
            setup.append(c.wall_s)

    # Untraced, the glibc control runs once, for the digest, before the
    # Mesh runs on even seeds and after them on odd ones. Traced, one round
    # runs every configuration once and the order rotates.
    glibc = ("glibc", False, False)
    kinds = [("traced", True, True), ("mesh", True, False), glibc] if trace \
        else [("mesh", True, False)]
    reps = {"traced": [], "mesh": [], "glibc": []}

    def run(kind):
        name, mesh, traced = kind
        reps[name].append(perl_run(so, seed, mesh, traced))
        return reps[name][-1]["ok"]

    healthy = trace or seed % 2 == 1 or run(glibc)
    for order in repeat_rounds(kinds, seconds) if healthy else ():
        set_up()
        if not all(run(kind) for kind in order):
            break
    if not trace and seed % 2 == 1:
        run(glibc)

    attempted = failed = 0
    digests = {r.get("digest") for r in reps["glibc"] if r["ok"]}
    if len(digests) != 1:
        sys.stderr.write(f"perl_thin: glibc control digests disagree or are missing: {digests}\n")
    for name, rs in reps.items():
        for r in rs:
            ops = PERL_KEYS * 2 + PERL_CHURN
            attempted += ops
            if not r["ok"]:
                failed += ops
            elif len(digests) != 1 or r["digest"] not in digests:
                sys.stderr.write(f"perl_thin: {name} digest {r['digest']} != glibc {digests}\n")
                failed += ops
            else:
                bad = perl_violations(r)
                if bad:
                    sys.stderr.write(f"perl_thin: {name} heap violations {bad}\n")
                    failed += sum(bad.values())

    ok = [r for r in reps["mesh"] if r["ok"]]
    tail_ms, pct, n = pooled_tail([r["pause_top"] for r in ok], sum(r["pause_n"] for r in ok))
    e2e = {
        "setup_s": setup,
        "wall_s": [r["wall_s"] for r in ok],
        "ops_per_s": [(r["stats"]["mallocs"] + r["stats"]["frees"]) / r["wall_s"] for r in ok],
        "rss_peak_mb": [r["rss_peak_mb"] for r in ok],
        "rss_final_mb": [r["rss_final_mb"] for r in ok],
        "heap_peak_mb": [r["stats"]["peak_heap_bytes"] / 2**20 for r in ok],
        "heap_final_mb": [r["stats"]["heap_bytes"] / 2**20 for r in ok],
        "pause_tail_ms": [tail_ms],
    }
    notes = {
        "pause_tail": (pct, n),
        "pause_tail_unit": "wall time of a batch of 1000 perl hash operations, pooled over "
                           "repetitions:",
    }
    layer = {}
    if trace:
        layer, bad = perl_layers(reps)
        failed += bad
    return attempted, failed, e2e, layer, notes, reps


def layer_metrics(p, calls_s, mesh_calls_s, purge_s, wall_s):
    """Per-layer metrics of one traced repetition.

    `p` holds histogram `_sum` (seconds) and `_count` series and counters,
    named as in the heap's Prometheus exposition; `a.`-prefixed sums cover
    the malloc/free phase alone. The other arguments are times the
    benchmark measured at public entry points: malloc/free calls of that
    phase (None when it cannot time them, as inside perl), `mesh_now` and
    `purge_dirty` calls, and the traced thread time.

    An interval is subtracted only from a boundary it always lies inside:
    refills, remote-free flushes and inline mesh passes lie inside
    malloc/free calls; transfer-cache spills and segment growth inside
    refills. Returns the metrics and the names of negative self times,
    which mean an interval was counted twice."""
    def s(op, phase=""):
        return p.get(f"{phase}mesh_{op}_seconds_sum", 0.0)

    def c(name):
        return p.get(f"mesh_{name}_total", 0.0)

    inline_pass = s("mesh_pass", "a.")
    selves = {
        "global_heap.self_s": s("refill") + s("transfer_flush") - s("transfer_spill")
        - s("segment_grow"),
        "transfer_cache.self_s": s("transfer_spill"),
        "meshing.self_s": inline_pass + mesh_calls_s,
        "arena.self_s": s("segment_grow") + purge_s,
    }
    if calls_s is not None:
        selves["local_heap.self_s"] = (calls_s - s("refill", "a.") - s("transfer_flush", "a.")
                                       - inline_pass)
    frees, hits, misses = c("frees"), c("transfer_hits"), c("transfer_misses")
    m = dict(selves)
    m.update({
        "local_heap.refills": c("refills"),
        "global_heap.nonlocal_free_frac": c("remote_frees") / frees if frees else 0.0,
        "global_heap.drained": c("remote_free_drained"),
        "global_heap.drain_s": s("remote_drain"),
        "global_heap.class_lock_waits": p.get("mesh_class_lock_wait_seconds_count", 0.0),
        "global_heap.class_lock_wait_s": s("class_lock_wait"),
        "transfer_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "transfer_cache.spills": c("transfer_spills"),
        "meshing.passes": c("mesh_passes"),
        "meshing.pairs": c("spans_meshed"),
        "meshing.mb_released": c("mesh_pages_released") * 4096 / 2**20,
        "meshing.candidates_s": s("mesh_candidates"),
        "meshing.copy_s": s("mesh_copy"),
        "meshing.remap_s": s("mesh_remap"),
        "meshing.other_s": s("mesh_pass") - s("mesh_candidates") - s("mesh_copy")
        - s("mesh_remap"),
        "arena.purge_ms": purge_s * 1e3,
        "arena.pages_purged": c("pages_purged"),
        "arena.segments_created": c("segments_created"),
        "arena.mapped_mb": p.get("mesh_mapped_bytes", 0.0) / 2**20,
        "arena.madvise_s": s("madvise"),
        "arena.grow_s": s("segment_grow"),
        "other_s": wall_s - sum(selves.values()),
    })
    negative = [k for k in (*selves, "meshing.other_s", "other_s") if m[k] < 0]
    return m, negative


def collect(per_rep):
    """{metric: [value per repetition]} from a list of metric dicts."""
    return {k: [m[k] for m in per_rep] for k in (per_rep[0] if per_rep else {})}


def perl_layers(reps):
    """Per-layer metrics of the interposed process, from the counters and
    histogram sums its heap reports over the control socket at the end of
    the work. The whole process counts as the malloc/free phase. Calls
    inside perl cannot be timed, so `local_heap` call times read 0 and
    perl's own work and Mesh's fast paths stay in `other_s`. Returns the
    metrics and the number of repetitions with a negative self time."""
    per_rep, bad = [], 0
    for r in reps["traced"]:
        if not r["ok"]:
            continue
        p = dict(r["prom"])
        p.update({"a." + k: v for k, v in r["prom"].items() if k.endswith("_seconds_sum")})
        # The process then waits for the socket query: its work ends at READY.
        m, negative = layer_metrics(p, None, 0.0, 0.0, r["ready_s"])
        if negative:
            sys.stderr.write(f"perl_thin: negative self time in {negative}\n")
            bad += 1
        m.update({"arena.map_count": r["maps"], "abi.mallocs": p.get("mesh_mallocs_total", 0.0),
                  "abi.frees": p.get("mesh_frees_total", 0.0)})
        per_rep.append(m)
    out = collect(per_rep)
    for key in ("local_heap.malloc_ns_p50", "local_heap.malloc_ns_p99",
                "local_heap.free_ns_p50", "local_heap.free_ns_p99", "local_heap.self_s",
                "global_heap.xthread_free_ns_p50", "global_heap.xthread_free_ns_p99",
                "meshing.pass_ms_p50"):
        out[key] = [0.0]
    glibc = [r for r in reps["glibc"] if r["ok"]]
    out["abi.glibc_wall_s"] = [r["wall_s"] for r in glibc]
    out["abi.glibc_rss_peak_mb"] = [r["rss_peak_mb"] for r in glibc]
    out["abi.glibc_rss_final_mb"] = [r["rss_final_mb"] for r in glibc]
    traced = [r["wall_s"] for r in reps["traced"] if r["ok"]]
    plain = [r["wall_s"] for r in reps["mesh"] if r["ok"]]
    if traced and plain:
        out["trace_overhead"] = [statistics.median(traced) / statistics.median(plain)]
    return out, bad


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def inproc_run(exe, workload, seed, traced):
    c = run_child([exe, workload, str(seed), "1" if traced else "0"],
                  child_env({}), INPROC_TIMEOUT_S)
    r = {"code": c.code, "rss_peak_mb": c.maxrss_mb, "ok": False}
    try:
        r.update(json.loads(c.out.strip().splitlines()[-1]))
        r["ok"] = c.code == 0
    except (IndexError, ValueError):
        pass
    if not r["ok"]:
        sys.stderr.write(f"{workload}: repetition failed (exit {c.code}): {c.err[-2000:]}\n")
    elif c.err.strip():
        sys.stderr.write(c.err)
    return r


def inproc(exe, workload, seed, seconds, trace):
    kinds = [("plain", False)] + ([("traced", True)] if trace else [])
    reps = {k[0]: [] for k in kinds}
    for rnd, order in enumerate(repeat_rounds(kinds, seconds)):
        for name, traced in order:
            # Each repetition seeds its heap and inputs from the run's seed
            # and its index, so repetitions differ but runs repeat.
            reps[name].append(inproc_run(exe, workload, seed * 1000 + rnd, traced))
        if not all(r["ok"] for rs in reps.values() for r in rs[-1:]):
            break

    attempted = failed = 0
    planned = next((r["attempted"] for rs in reps.values() for r in rs if r["ok"]), 1)
    for rs in reps.values():
        for r in rs:
            if r["ok"]:
                attempted += int(r["attempted"])
                failed += int(r["failed"])
            else:
                attempted += int(planned)
                failed += int(planned)
    ok = [r for r in reps["plain"] if r["ok"]]
    e2e = {k: [r[k] for r in ok] for k in (
        "setup_s", "wall_s", "ops_per_s", "rss_peak_mb", "rss_final_mb", "heap_peak_mb",
        "heap_final_mb")}
    if workload == "churn_2t":
        # A tail pooled over repetitions did not repeat from run to run; the
        # median of the repetitions' own tails does.
        e2e["pause_tail_ms"] = [r["pause_tail_ms"] for r in ok]
        pct = statistics.median(r["pause_tail.pct"] for r in ok) if ok else 0.0
        n = int(statistics.median(r["pause_tail.n"] for r in ok)) if ok else 0
        unit = "wall time of a turn of 8192 churn steps, median over repetitions of"
    else:
        tops = [[v for k, v in r.items() if k.startswith("pause_top.")] for r in ok]
        tail_ms, pct, n = pooled_tail(tops, sum(r["pause_tail.n"] for r in ok))
        e2e["pause_tail_ms"] = [tail_ms]
        unit = "latency of one SET, pooled over repetitions:"
    notes = {"pause_tail": (pct, n), "pause_tail_unit": unit}
    layer = {}
    if trace:
        traced = [r for r in reps["traced"] if r["ok"]]
        per_rep = []
        for r in traced:
            m, negative = layer_metrics(r, r["spent.calls_s"], r["spent.mesh_calls_s"],
                                        r["spent.purge_s"], r["spent.wall_s"])
            if negative:
                sys.stderr.write(f"{workload}: negative self time in {negative}\n")
                failed += 1
            m.update({k: r[k] for k in r if k.startswith(("local_heap.", "global_heap.",
                                                          "meshing.", "arena."))})
            per_rep.append(m)
        layer = collect(per_rep)
        for key in ("abi.mallocs", "abi.frees", "abi.glibc_wall_s", "abi.glibc_rss_peak_mb",
                    "abi.glibc_rss_final_mb"):
            layer[key] = [0.0]
        if traced and ok:
            layer["trace_overhead"] = [statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(r["wall_s"] for r in ok)]
    return attempted, failed, e2e, layer, notes, reps


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("perl_thin", "redis_lru", "churn_2t"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    # A terminated run still kills and reaps its child (run_child's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        so, exe = build()
        prov = provenance(so, exe)
        if args.workload == "perl_thin":
            result = perl_thin(so, args.seed, args.seconds, args.trace)
        else:
            result = inproc(exe, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    attempted, failed, e2e, layer, notes, reps = result
    values = layer if args.trace else e2e
    fail_frac = failed / attempted if attempted else 1.0
    values["fail_frac"] = [fail_frac]
    pct, n = notes["pause_tail"]
    if args.trace:
        values["pause_tail.pct"] = [pct]
        values["pause_tail.n"] = [n]

    metrics = {}
    table = []
    for m in wanted:
        vals = values.get(m["name"])
        if not vals:
            sys.stderr.write(f"perfbench: no value for {m['name']}\n")
            failed += 1
            continue
        med, q1, q3 = summary(vals)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        table.append(f"{m['name']:34s} {med:14.6g} [{q1:.6g}, {q3:.6g}] {m['unit']} "
                     f"(n={len(vals)})")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={prov['nproc']} "
          f"kernel={prov['kernel']} commit={prov['commit']} "
          f"libmesh_sha256={prov['libmesh_sha256'][:16]}")
    print("\n".join(table))
    print(f"# pause_tail_ms: {notes['pause_tail_unit']} the tail at percentile {pct:.5f} "
          f"of n={n} samples")
    print(f"# fail_frac {fail_frac:.3g} ({failed} of {attempted} operations)")

    os.makedirs(RUN_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "attempted": attempted,
              "failed": failed, "notes": notes, "repetitions": reps,
              "summary": {k: dict(zip(("median", "q1", "q3"), summary(v)))
                          for k, v in values.items() if v}}
    with open(os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
