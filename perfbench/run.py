#!/usr/bin/env python3
"""Repository benchmark for the Hopper simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the worker package in this directory (`cargo build --release`,
into `$CARGO_TARGET_DIR` or `perfbench/target`), runs the workload's spec
line on several trial seeds drawn from the seed (untraced: each trial
once in a fresh worker process for its memory peak, then all of them in
turn in one timing process for the rest of the budget; traced: all in
one process), checks the outputs, and prints every metric by name with
its unit. The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a separate traced run with `--trace 1`. A failed check
prints `"correct": false` and exits 1; a bad argument or a failed build
exits 2 or 1 without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every workload is Facebook interactive single-phase jobs at 70%
# utilization through the streaming pipeline; see BENCHMARK.json for why
# each was chosen and NOTES.md for the layers each one stresses.
# BENCHMARK.json declares two, so each of its runs can be long; the
# decentral one also runs its trials on the sharded engine when traced,
# so the two reach every layer. central-steady (suffix-light allocator)
# and decentral-sharded (the PDES engine on two threads, whose barrier
# makes its time swing with the host far more than the reference kernel
# does) are run by hand and by the benchmark's tests.
_SHAPE = "workload=facebook interactive=true single_phase=true util=0.7 stream=on scan_ms=1000"
_CENTRAL = f"engine=central policy=hopper learn_beta=true machines=2000 slots=4 jobs=1000 {_SHAPE}"
_DECENTRAL = f"engine=decentral policy=hopper machines=2000 slots=2 schedulers=20 jobs=750 {_SHAPE}"
SHARDED = " shards=2"
WORKLOADS = {
    "central-steady": _CENTRAL,
    "central-bursty": _CENTRAL
    + " burst_rate=60 burst_mult=4 burst_len_ms=5000 hetero=bimodal fail_rate=1 telemetry_window_ms=1000",
    "decentral-serial": _DECENTRAL,
    "decentral-sharded": _DECENTRAL + SHARDED,
}
DECLARED = ["central-bursty", "decentral-serial"]

# A run simulates its spec on several trial seeds drawn from `--seed`
# (`seed * SEED_STRIDE + k`, so no two seeds share a trial). One seed's
# JCT tail, memory peak and run time hinge on a few huge jobs (a
# central-bursty trial's time varies by about 14% from seed to seed);
# several independent trials per run keep those metrics steady across
# seeds. A central trial needs 1,000 jobs to keep its character (at 500,
# central-bursty's suffix refills nearly vanish); a decentral one keeps
# it at 750 (live high-water, messages and events per job as at 1,500).
SEED_STRIDE = 16


def trials(workload):
    return 8 if workload.startswith("central") else 12


# (name, unit) of every metric, in print order.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_jct_ms", "ms"),
    ("sim_p99_jct_ms", "ms"),
]
PER_LAYER = [
    ("spec.parse_us", "us"),
    ("workload.stream_build_ms", "ms"),
    ("workload.jobs", "count"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_op_ns", "ns"),
    ("alloc.recomputes", "count"),
    ("alloc.suffix_fills", "count"),
    ("alloc.suffix_share", "ratio"),
    ("alloc.reuses", "count"),
    ("alloc.stale_skips", "count"),
    ("alloc.refill_us", "us"),
    ("beta.final", "dimensionless"),
    ("beta.read_ns", "ns"),
    ("proto.next_action_ns", "ns"),
    ("launch.orig", "count"),
    ("launch.spec", "count"),
    ("spec.won", "count"),
    ("spec.useful_ratio", "ratio"),
    ("launch.killed", "count"),
    ("launch.spec_warm_share", "ratio"),
    ("msg.total", "count"),
    ("msg.per_job", "count/job"),
    ("msg.refusals", "count"),
    ("proto.g3_switches", "count"),
    ("pdes.windows", "count"),
    ("pdes.events_per_window", "events/window"),
    ("pdes.horizon_stalls", "count"),
    ("pdes.cross_share", "ratio"),
    ("pdes.run_ratio", "ratio"),
    ("jobs.live_high_water", "count"),
    ("telemetry.windows", "count"),
    ("telemetry.export_ms", "ms"),
    ("span.setup_ms", "ms"),
    ("span.run_ms", "ms"),
    ("span.readout_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

# A run must end within 180 s after the build; its workers share this.
WORKERS_TIMEOUT_S = 170
# Host-time metrics are in reference seconds. On a shared host the
# simulator's speed drifts by up to 1.5x for minutes at a time with the
# load of other tenants, and a run cannot outlast that. The timing
# process therefore runs a fixed reference kernel (no code of the
# repository, so no change to it can move the kernel) between runs, and
# each timed sample is scaled by REF_NOMINAL_S over the kernel's time
# around it: a reference second is the time in which the kernel would
# do REF_NOMINAL_S of its work. REF_NOMINAL_S is about the kernel's
# time on the 2-core container NOTES.md describes when its host is
# quiet, so on that host the metrics read close to wall time.
REF_NOMINAL_S = 0.05
# The timing process runs at least one round, however little of the
# budget the memory probes left.
MIN_TIMING_S = 0.001


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Build the worker and return its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--offline", "--release", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    # Cargo's output goes to stderr so the result stays the last line.
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env={**os.environ, "CARGO_TARGET_DIR": str(target)})
    if done.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return target / "release" / "perfbench"


def host():
    """Core count, CPU model and compiler: numbers from different hosts
    are never compared."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {"cores": os.cpu_count(), "cpu": cpu, "rustc": rustc}


def run_worker(binary, spec, mode, deadline, seconds=None):
    cmd = [str(binary), "--spec", spec, "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"workers exceeded {WORKERS_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def ref_seconds(samples, host):
    """Timed samples in reference seconds: each one scaled by
    REF_NOMINAL_S over the reference kernel's time around it."""
    return [x * REF_NOMINAL_S / h for x, h in zip(samples, host)]


def end_to_end(timed, memory):
    """Aggregate the timing process's trials and the memory probes.

    Host times are in reference seconds and sum over the trials, each
    trial counting the median of its samples. Memory is the median
    trial's peak (each probe ran one trial in a fresh process), and
    `sim_p99_jct_ms` the mean of the trials' p99.
    """
    run_s = sum(statistics.median(ref_seconds(t["run_s"], t["run_host_s"])) for t in timed)
    completed = sum(t["completed"] for t in timed)
    return {
        "setup_s": sum(statistics.median(ref_seconds(t["setup_s"], t["setup_host_s"]))
                       for t in timed),
        "run_s": run_s,
        "jobs_per_s": completed / run_s,
        "peak_rss_mb": statistics.median(m["peak_rss_kib"] for m in memory) / 1024,
        "sim_mean_jct_ms": sum(t["sim_mean_jct_ms"] * t["completed"] for t in timed) / completed,
        "sim_p99_jct_ms": statistics.mean(t["sim_p99_jct_ms"] for t in timed),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not (0 <= args.seed < 2**64 // SEED_STRIDE and args.seconds > 0):
        fail(f"--seed must be in [0, 2^64/{SEED_STRIDE}) and --seconds positive", 2)

    binary = build()
    start = time.monotonic()
    deadline = start + WORKERS_TIMEOUT_S
    seeds = [args.seed * SEED_STRIDE + k for k in range(trials(args.workload))]
    line = WORKLOADS[args.workload]
    spec = f"{line} seeds={','.join(map(str, seeds))}"
    print("host: " + json.dumps(host()))
    print(f"workload: {args.workload} seed={args.seed} trace={args.trace}")
    print(f"spec: {spec}")

    if args.trace:
        # One process runs every trial, so counters sum over the trials.
        raw = run_worker(binary, spec, "trace", deadline, args.seconds)
        table, values, checks = PER_LAYER, raw["metrics"], raw["checks"]
        delivered, completed = raw["delivered"], raw["completed"]
        attempted = raw["runs"] * delivered // len(seeds)
        for span in raw["spans"]:
            print(f"span: {json.dumps(span)}")
        if set(values) != {name for name, _ in table}:
            fail(f"worker metrics differ from the declared per-layer set: {sorted(values)}")
    else:
        # Memory: a fresh process per trial runs it once, so each VmHWM
        # is that trial's own peak.
        memory = [run_worker(binary, f"{line} seeds={s}", "memory", deadline) for s in seeds]
        # Time: one process takes every trial in turn, round after round,
        # for the rest of the budget.
        left = max(args.seconds - (time.monotonic() - start), MIN_TIMING_S)
        raw = run_worker(binary, spec, "time", deadline, left)
        timed = raw["trials"]
        table, values = END_TO_END, end_to_end(timed, memory)
        checks = dict(raw["checks"])
        for m in memory:
            for name, ok in m["checks"].items():
                checks[name] = checks.get(name, True) and ok
        # Every trial gives the same report in its probe process as in
        # the timing process.
        checks["repeat_identical"] = checks.get("repeat_identical", True) and all(
            m["trials"][0]["report"] == t["report"] for m, t in zip(memory, timed))
        if SHARDED in line:
            # Partition independence, on the first trial (the traced run
            # checks every trial): one shard gives the same report.
            one = line.replace(SHARDED, " shards=1")
            probe = run_worker(binary, f"{one} seeds={seeds[0]}", "memory", deadline)
            checks["shards_one_identical"] = probe["trials"][0]["report"] == timed[0]["report"]
        delivered = sum(t["delivered"] for t in timed)
        completed = sum(t["completed"] for t in timed)
        attempted = sum(len(t["run_s"]) * t["delivered"] for t in timed)
        ref = statistics.median(h for t in timed for h in t["run_host_s"])
        wall = sum(statistics.median(t["run_s"]) for t in timed)
        print(f"runs: {[len(t['run_s']) for t in timed]} per trial; wall run time"
              f" {wall:.4f} s (sum of trial medians); reference kernel {ref * 1e3:.2f} ms"
              f" (nominal {REF_NOMINAL_S * 1e3:.0f} ms); jobs_per_s at {delivered} jobs;"
              f" sim_* over {completed} completed jobs")
    for name, unit in table:
        print(f"{name:28} {values[name]:>18.6f} {unit}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")

    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": attempted * (delivered - completed) // delivered,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
