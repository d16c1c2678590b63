#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the simulator's artifact
pipeline (see README.md beside this file).

    python3 perfbench/run.py --workload cold_regen --seed 42 \\
        --seconds 30 --trace 0

Run from the repository root. It builds perfbench/pbdriver from the
checkout's sources into .bench_build/perfbench, sets the workload up,
runs measured iterations (each a fresh one-worker pbdriver process
with address randomisation off) for about --seconds, checks
every iteration's digests, and prints one JSON object as the last line
of standard output. --trace 1 instead runs one untraced and one traced
iteration and reports the per-layer metrics.
"""

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "pbdriver")
WORK = os.path.join(BUILD, "work")
REFS = os.path.join(BUILD, "refs")
TRACES = os.path.join(BUILD, "traces")

ADDR_NO_RANDOMIZE = 0x0040000
# The driver runs with a fixed environment: environment strings sit
# on the initial stack, so a varying one would shift heap addresses
# and with them the captured traces.
DRIVER_ENV = {"PATH": "/usr/bin:/bin", "LC_ALL": "C"}
# One run must end within 180 s; stop starting iterations after this.
RUN_BUDGET_S = 150.0

LONG_BENCHES = "NEW_ORDER,DELIVERY,STOCK_LEVEL"
LONG_TXNS = 60
# The traced run captures this benchmark in two processes with
# randomisation on (capture.cross_process_equal).
PAIR_BENCH = "ORDER_STATUS"
# Quick-scale captures in the set-up of cold_regen and long_capture;
# one takes under a second, so a median of three moved by up to 30 %
# between two sets of runs.
PRECHECKS = 5
HELD_OUT_SEED = 1009

WORKLOADS = {
    "cold_regen": {"mode": "regen", "warm": False, "extra": []},
    "warm_regen": {"mode": "regen", "warm": True, "extra": []},
    "long_capture": {
        "mode": "capture",
        "warm": False,
        "extra": ["--benches=" + LONG_BENCHES,
                  "--txns=%d" % LONG_TXNS],
    },
}

STAGES = ("capture", "table2", "figure5", "figure6", "report")
# Span name prefix -> layer (span name minus its last component).
LAYERS = ("perfbench", "sim.tracecache", "tpcc", "sim.traceio",
          "core.traceindex", "sim.experiment", "core.machine",
          "sim.report")
SIM_COUNTS = (
    "core.violations.primary", "core.violations.secondary",
    "core.squashes", "core.rewound_insts", "core.subthreads_started",
    "core.machine.useful_ratio", "mem.l1_miss_ratio",
    "mem.l2_miss_ratio", "mem.victim_hits", "cpu.mispredict_ratio",
    "cpu.share.busy", "cpu.share.miss", "cpu.share.idle",
    "cpu.share.failed", "cpu.share.sync", "cpu.share.latch",
    "sim.cycles_total", "sim.fig5.baseline_speedup_geomean",
    "sim.fig5.delivery_outer.baseline_speedup",
)
EXEC_MODES = {0: "serial", 1: "tls", 2: "nospec"}
TAIL_LEVELS = (99.9, 99.0, 90.0)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_level(n):
    """Highest reported percentile with at least ten samples beyond it
    (None when n is too small for any)."""
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10.0 - 1e-9:
            return level
    return None


def timing_summary(prefix, values, scale):
    """p50, the tail percentile and its level of per-call timings
    (seconds, multiplied by scale). Zeros when there are no calls."""
    n = len(values)
    level = tail_level(n)
    scaled = [v * scale for v in values]
    return {
        prefix + "_p50": percentile(scaled, 50) if n else 0.0,
        prefix + "_ptail": percentile(scaled, level) if level else 0.0,
        prefix + "_ptail_level": level or 0.0,
    }


# ---------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------

class DigestCheck:
    """Counts operations against the digests first seen for them.

    An operation (a capture, a simulation point, or the artifact
    text) passes when the driver's own check passed and its digest
    equals the reference: the first digest seen for that name in this
    run, or the one a previous run of the same binary, workload and
    seed stored in `ref_path`. Digests never cross binaries, so a
    parent commit's digests are never compared with a child's.
    """

    def __init__(self, ref_path=None):
        self.ref_path = ref_path
        self.stored = {}
        if ref_path and os.path.exists(ref_path):
            with open(ref_path) as f:
                self.stored = json.load(f)
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def check(self, name, digest, ok=True):
        self.attempted += 1
        want = self.stored.setdefault(name, digest)
        if not ok or digest != want:
            self.failed += 1
            self.mismatches.append(name)
        return ok and digest == want

    def fail_all(self, count, why):
        self.attempted += count
        self.failed += count
        self.mismatches.append(why)

    def save(self):
        if self.ref_path and self.failed == 0:
            os.makedirs(os.path.dirname(self.ref_path), exist_ok=True)
            with open(self.ref_path, "w") as f:
                json.dump(self.stored, f, sort_keys=True)


# ---------------------------------------------------------------------
# Build and driver invocation
# ---------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources under ./src: run from "
                           "the repository root")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pbdriver",
                    "-j", "4"], check=True, stdout=sys.stderr)
    with open(DRIVER, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def no_aslr():
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    cur = libc.personality(0xFFFFFFFF)
    if libc.personality(cur | ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality")


class Driver:
    """Runs pbdriver processes inside the run's time budget."""

    def __init__(self, seed, deadline):
        self.seed = seed
        self.deadline = deadline

    def run(self, mode, cache, out, extra=(), spans=0, aslr_off=True):
        """One pbdriver process; its JSON result, or None on failure.
        Paths of runs whose digests are compared must have equal
        lengths (see driver.cpp)."""
        if os.path.exists(out):
            os.remove(out)
        argv = [DRIVER, mode, "--seed=%d" % self.seed,
                "--spans=%d" % spans, "--cache=" + cache,
                "--out=" + out] + list(extra)
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            return None
        try:
            r = subprocess.run(argv, env=DRIVER_ENV, timeout=budget,
                               stdout=sys.stderr,
                               preexec_fn=no_aslr if aslr_off else None)
        except subprocess.TimeoutExpired:
            log("%s timed out" % " ".join(argv))
            return None
        if r.returncode != 0:
            log("%s exited with %d" % (" ".join(argv), r.returncode))
            return None
        with open(out) as f:
            return json.load(f)


def expected_ops(workload):
    spec = WORKLOADS[workload]
    # A capture into an empty cache writes four files (two traces, two
    # indexes), each checked byte for byte.
    files = 0 if spec["warm"] else 4
    if spec["mode"] == "regen":
        # captures + Table 2 rows + Figure 5 bars + Figure 6
        # (SEQUENTIAL + 3 x 6 grid per swept benchmark) + artifact
        return 7 * (1 + files) + 7 + 7 * 5 + 5 * 19 + 1
    return len(LONG_BENCHES.split(",")) * (1 + files)


def check_iteration(res, workload, check, fill=None):
    """Feed one iteration's digests to `check`; False if unusable.
    `res` is what iteration() returns."""
    res, files = res
    if res is None:
        check.fail_all(expected_ops(workload), "crashed iteration")
        return False
    if res["aslr_off"] != 1 or res["jobs"] != 1:
        check.fail_all(expected_ops(workload), "run conditions not met")
        return False
    for name, digest, ok in res["ops"]:
        if fill is not None and name.startswith("capture/"):
            # Loaded from the cache setup filled: must hash the same
            # as the trace that was captured there.
            ok = ok and fill.get(name) == digest
        check.check(name, digest, bool(ok))
    for name, digest in files:
        check.check("file/" + name, digest)
    if "artifact" in res:
        check.check("artifact/text", res["artifact"])
    return True


# ---------------------------------------------------------------------
# Workload phases
# ---------------------------------------------------------------------

def setup(workload, driver, wdir, check):
    """Prepare the workload; returns (setup_s, fill digests or None).

    warm_regen: one full-scale capture of all seven benchmarks into
    the cache the iterations read (ten seconds, so done once).
    cold_regen / long_capture: nothing to prepare but an empty
    directory, so set-up is the run-condition check: PRECHECKS fresh
    quick-scale captures of all seven benchmarks that must agree
    digest for digest. setup_s is their median.
    """
    if WORKLOADS[workload]["warm"]:
        res = driver.run("capture", os.path.join(wdir, "fill"),
                         os.path.join(wdir, "fill.json"))
        if res is None or res["aslr_off"] != 1:
            raise RuntimeError("warm_regen set-up failed")
        fill = {}
        for name, digest, ok in res["ops"]:
            check.check("fill/" + name, digest, bool(ok))
            fill[name] = digest
        return res["wall_s"], fill
    times = []
    for k in range(PRECHECKS):
        res = driver.run("capture", os.path.join(wdir, "pre%02d" % k),
                         os.path.join(wdir, "pre%02d.json" % k),
                         ["--quick"])
        if res is None or res["aslr_off"] != 1:
            raise RuntimeError("%s set-up failed" % workload)
        for name, digest, ok in res["ops"]:
            check.check("precheck/" + name, digest, bool(ok))
        times.append(res["wall_s"])
        shutil.rmtree(os.path.join(wdir, "pre%02d" % k),
                      ignore_errors=True)
    return statistics.median(times), None


def file_digests(cache):
    """(name, sha256) of every file a capture wrote into `cache`."""
    out = []
    for name in sorted(os.listdir(cache)):
        h = hashlib.sha256()
        with open(os.path.join(cache, name), "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        out.append((name, h.hexdigest()[:16]))
    return out


def iteration(workload, driver, wdir, k, spans=0):
    """One measured iteration in a fresh process; returns its result
    (None on failure) and the digests of the cache files it wrote.

    Only iteration 0 digests its fresh captures and reads them back
    from the cache: at long_capture's scale that takes about half as
    long as the measured phase. Every later iteration must write the same
    cache files byte for byte, which checks it as strictly and leaves
    more of the run to measuring."""
    spec = WORKLOADS[workload]
    cache = (os.path.join(wdir, "fill") if spec["warm"]
             else os.path.join(wdir, "it%02d" % k))
    res = driver.run(spec["mode"], cache,
                     os.path.join(wdir, "it%02d.json" % k),
                     spec["extra"] + ["--check-captures=%d" % (k == 0)],
                     spans=spans)
    files = []
    if not spec["warm"]:
        if res is not None:
            files = file_digests(cache)
        shutil.rmtree(cache, ignore_errors=True)
    return res, files


def records_per_s(workload, res):
    """Trace records per host second inside the record-processing
    calls: replay for the regen workloads, capture for long_capture."""
    if WORKLOADS[workload]["mode"] == "regen":
        return res["replay_records"] / res["replay_s"]
    return res["capture_records"] / res["stages"]["capture"]


def end_to_end(workload, setup_s, results, check):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in results), "s"),
        "records_per_s": (statistics.median(
            records_per_s(workload, r) for r in results), "1/s"),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_mb"] for r in results), "MB"),
        "success_ratio": ((check.attempted - check.failed) /
                          check.attempted, "ratio"),
    }


def layer_metrics(workload, res, untraced_wall, pair_equal):
    """Per-layer metrics of one traced iteration."""
    spans = res["spans"]
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def calls(name, pred=lambda s: True):
        return [dur[i] for i, s in enumerate(spans)
                if s[0] == name and pred(s)]

    def total(name, pred=lambda s: True):
        return sum(calls(name, pred))

    def count_a(names):
        return float(sum(s[4] for s in spans if s[0] in names))

    m = {}
    loads = calls("tpcc.load")
    txns = calls("tpcc.txn")
    runs = calls("core.machine.run")
    m["tpcc.load_s"] = sum(loads)
    m["tpcc.load_n"] = float(len(loads))
    m.update(timing_summary("tpcc.load_s", loads, 1.0))
    m["tpcc.txn_s"] = sum(txns)
    m["tpcc.txn_n"] = float(len(txns))
    m.update(timing_summary("tpcc.txn_us", txns, 1e6))
    shared = "sim.tracecache.captureTracesShared"
    m["sim.capture_s"] = total(shared, lambda s: s[4] == 0)
    m["sim.cache_load_s"] = total(shared, lambda s: s[4] == 1)
    counters = res["counters"]
    m["sim.tracecache.hit"] = float(counters.get("tracecache.hit", 0))
    m["sim.tracecache.capture"] = float(
        counters.get("tracecache.capture", 0))
    m["sim.traceio.write_s"] = total("sim.traceio.write")
    m["sim.traceio.read_s"] = total("sim.traceio.read")
    m["sim.traceio.bytes"] = count_a(("sim.traceio.write",
                                      "sim.traceio.read"))
    m["core.traceindex.build_s"] = total("core.traceindex.build")
    m["core.traceindex.builds"] = float(len(calls(
        "core.traceindex.build")))
    m["core.traceindex.io_s"] = (total("core.traceindex.read") +
                                 total("core.traceindex.write"))
    for stage in STAGES[1:]:
        m["sim.%s_s" % stage] = res["stages"][stage]
    m["core.machine.run_s"] = sum(runs)
    m["core.machine.runs"] = float(len(runs))
    m.update(timing_summary("core.machine.run_ms", runs, 1e3))
    m["core.machine.records"] = count_a(("core.machine.run",))
    for mode, label in EXEC_MODES.items():
        sel = [i for i, s in enumerate(spans)
               if s[0] == "core.machine.run" and s[5] == mode]
        recs = sum(spans[i][4] for i in sel)
        secs = sum(dur[i] for i in sel)
        m["core.machine.ns_per_record." + label] = (
            secs * 1e9 / recs if recs else 0.0)
    hits = counters.get("replay.runPoolHits", 0)
    allocs = counters.get("replay.runPoolAllocs", 0)
    m["core.replay.run_pool_hit_ratio"] = (
        hits / (hits + allocs) if hits + allocs else 0.0)
    sim = res.get("sim", {})
    for name in SIM_COUNTS:
        m[name] = float(sim.get(name, 0.0))
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s[0].rsplit(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]
    for layer in LAYERS:
        m["self.%s_s" % layer] = self_s[layer]
    m["trace.wall_s"] = res["wall_s"]
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = res["wall_s"] - untraced_wall
    m["trace.spans"] = float(len(spans))
    m["capture.cross_process_equal"] = 1.0 if pair_equal else 0.0
    m.update(design_checks(workload, res, m))
    return {k: (v, unit_of(k)) for k, v in m.items()}


def design_checks(workload, res, m):
    """The workload-design claims README.md makes, as measured."""
    stages = res["stages"]
    wall = res["wall_s"]
    capture_share = stages["capture"] / wall
    replay_share = res["replay_s"] / wall
    write_index = m["sim.traceio.write_s"] + m["core.traceindex.build_s"]
    over_load = write_index / m["tpcc.load_s"] if m["tpcc.load_s"] else 0
    if workload == "cold_regen":
        ok = stages["capture"] == max(stages.values())
    elif workload == "warm_regen":
        ok = m["sim.tracecache.capture"] == 0 and replay_share > 0.5
    else:
        ok = over_load > 1.0
    return {
        "design.capture_share": capture_share,
        "design.replay_share": replay_share,
        "design.write_index_over_load": over_load,
        "design.ok": 1.0 if ok else 0.0,
    }


def unit_of(name):
    if name.endswith("_us_p50") or name.endswith("_us_ptail"):
        return "us"
    if name.endswith("_ms_p50") or name.endswith("_ms_ptail"):
        return "ms"
    if name.endswith("_s") or name.endswith("_s_p50") or \
            name.endswith("_s_ptail"):
        return "s"
    if name.endswith("_level"):
        return "percentile"
    if name.endswith(".bytes"):
        return "bytes"
    if "ns_per_record" in name:
        return "ns"
    if "ratio" in name or "share" in name or name.startswith("sim.fig5") \
            or name.endswith("_over_load") or name.endswith("equal") \
            or name == "design.ok":
        return "ratio"
    if name == "sim.cycles_total":
        return "cycles"
    return "count"


def capture_pair(driver, wdir):
    """Capture PAIR_BENCH in two processes with randomisation on."""
    digests = []
    for k in range(2):
        res = driver.run("capture", os.path.join(wdir, "aslr%02d" % k),
                         os.path.join(wdir, "aslr%02d.json" % k),
                         ["--benches=" + PAIR_BENCH], aslr_off=False)
        shutil.rmtree(os.path.join(wdir, "aslr%02d" % k),
                      ignore_errors=True)
        if res is None:
            return False
        digests.append(res["ops"][0][1])
    return digests[0] == digests[1]


def write_spans(workload, seed, res):
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump([{"name": s[0], "start_ns": s[1], "end_ns": s[2],
                    "parent": s[3], "a": s[4], "b": s[5],
                    "workload": workload} for s in res["spans"]], f)
    log("spans written to " + path)


def run(args):
    start = time.monotonic()
    binary = build()
    driver = Driver(args.seed, start + RUN_BUDGET_S)
    wdir = os.path.join(WORK, args.workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    check = DigestCheck(os.path.join(
        REFS, "%s-%s-seed%d.json" % (binary, args.workload, args.seed)))

    setup_s, fill = setup(args.workload, driver, wdir, check)
    results = []
    if args.trace:
        plain = iteration(args.workload, driver, wdir, 0)
        traced = iteration(args.workload, driver, wdir, 1, spans=1)
        for res in (plain, traced):
            if check_iteration(res, args.workload, check, fill):
                results.append(res[0])
        plain, traced = plain[0], traced[0]
        if len(results) == 2:
            if traced["spans_overflowed"]:
                raise RuntimeError("span log overflowed or unbalanced")
            write_spans(args.workload, args.seed, traced)
            metrics = layer_metrics(args.workload, traced,
                                    plain["wall_s"],
                                    capture_pair(driver, wdir))
    else:
        # Run two iterations, then more while another, as long as the
        # latest, still ends within --seconds (give or take 15 %). A
        # cold_regen iteration takes 12-18 s, so one more would often
        # not fit, and a median of one would be as noisy as that
        # iteration. On a very slow host the second is skipped: the run
        # must end in time.
        measure_start = time.monotonic()
        k = 0
        last = 0.0
        while k == 0 or (
                (k < 2 or time.monotonic() - measure_start + last <=
                 args.seconds * 1.15) and
                time.monotonic() - start < RUN_BUDGET_S * 0.5):
            it_start = time.monotonic()
            res = iteration(args.workload, driver, wdir, k)
            last = time.monotonic() - it_start
            k += 1
            if check_iteration(res, args.workload, check, fill):
                results.append(res[0])
                log("iteration %d: wall_s %.3f" % (k, res[0]["wall_s"]))
        if results:
            metrics = end_to_end(args.workload, setup_s, results, check)
    check.save()
    if args.trace and len(results) != 2 or not results:
        raise RuntimeError("no usable iteration")
    if check.mismatches:
        log("failed checks: " + ", ".join(check.mismatches[:10]))
    shutil.rmtree(os.path.join(wdir, "fill"), ignore_errors=True)
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42,
                   help="ExperimentConfig::inputSeed (default 42, the "
                        "seed of EXPERIMENTS.md; held-out seed: %d)"
                        % HELD_OUT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        p.error("--seed must be in [0, 2^64)")
    return args


def main(argv):
    args = parse_args(argv)
    os.chdir(ROOT)
    try:
        result = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
