"""Benchmark of the doubleschur library, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--smoke]

Every repetition of a workload runs in its own fresh interpreter
(perfbench/rep.py), one after another, so every repetition starts with
empty lru_caches, as every `doubleschur` command does.  The seed only
permutes the order of operations.  See perfbench/README.md for the
workloads and metrics.

--trace 0 runs ceil(seconds / nominal repetition time) repetitions, with
set-up-only processes spread between them, and reports the end-to-end
metrics, every time normalized for the host's speed by rep.py's probe (the
raw times are in the record).  --trace 1 runs one untraced and one traced
repetition on the same order and reports the per-layer metrics of the
traced one.  The metric names and units are those of BENCHMARK.json.  The
last line of standard output is the result object; the line before it is
the full record (seed, platform, op tail percentile and sample count, fail
ratio), also written to perfbench/out/.  The exit code is 0 only when every process succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Cold repetition times at full size of the seed commit, measured raw on
# 2026-10-17 on two vCPUs of a shared Intel Xeon virtual machine (Python
# 3.11.7) in a fast period of that machine: the host-normalized baseline
# medians in README.md are 1.04 to 1.13 times these.  They only fix the
# repetition count of a run (1, 3 and 4 at 20 s), so that every run of a
# workload does the same work whatever the speed of the code.
NOMINAL_REP_S = {"table-g26": 20.0, "pieri-n4": 6.7, "sigma1-g48": 5.8}
SMOKE_REP_S = 1.0
SETUP_SAMPLES = 40      # set-up times per run, the repetitions' own included
RUN_BUDGET_S = 170.0    # every child must have ended by then
TAIL_LADDER = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
HD_STEPS = 40           # quadrature points per order statistic in harrell_davis

class RunFailed(RuntimeError):
    pass


def platform_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def load_metric_units(kind):
    """{name: unit} of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_child(args, order_seed, deadline, *, trace=False, setup_only=False):
    """Run one repetition in a fresh interpreter and return its record."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--order-seed", str(order_seed)]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("run budget exhausted")
    cmd += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"repetition exceeded the run budget: {cmd}") from exc
    if proc.returncode != 0:
        raise RunFailed(f"repetition failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            best = p
    return best


def harrell_davis(sorted_values, p):
    """Harrell-Davis estimate of percentile p: the mean of all order
    statistics, the i-th weighted by the Beta(a, b) mass on ((i-1)/n, i/n],
    a = p/100 (n+1), b = (1-p/100)(n+1).  Op costs differ by orders of
    magnitude and one order statistic jumps with the noise on the few ops
    next to it; this weighted mean does not (on the table workload it
    halved the spread of both op percentiles)."""
    n = len(sorted_values)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):   # midpoint rule, HD_STEPS points in each interval
        mass = 0.0
        for j in range(HD_STEPS):
            x = (i + (j + 0.5) / HD_STEPS) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def end_to_end(args, rng, deadline):
    nominal = SMOKE_REP_S if args.smoke else NOMINAL_REP_S[args.workload]
    reps = max(1, math.ceil(args.seconds / nominal))
    # set-up-only children in reps + 1 even groups: before each repetition
    # and after the last, so that they sample the whole run
    extra = max(0, SETUP_SAMPLES - reps)
    setup_records, records = [], []
    for i in range(reps + 1):
        group = extra * (i + 1) // (reps + 1) - extra * i // (reps + 1)
        setup_records += [run_child(args, rng.randrange(2**32), deadline, setup_only=True)
                          for _ in range(group)]
        if i < reps:
            records.append(run_child(args, rng.randrange(2**32), deadline))
    setup_records += records
    setups = [r["setup_s"] for r in setup_records]
    raw_setups = [r["raw_setup_s"] for r in setup_records]
    op_ms = sorted(1000 * s for r in records for s in r["op_s"])
    pct = tail_percentile(len(op_ms))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        # start-up noise only adds time: the lower quartile is the steady figure
        "setup_s": statistics.quantiles(setups, n=4)[0],
        "op_p50_ms": harrell_davis(op_ms, 50),
        # with fewer than 10 + 1/0.5 samples no ladder step qualifies: use the maximum
        "op_tail_ms": harrell_davis(op_ms, pct) if pct else op_ms[-1],
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
    }
    detail = {"repetitions": reps, "rep_wall_s": [r["wall_s"] for r in records],
              "rep_raw_wall_s": [r["raw_wall_s"] for r in records],
              "rep_probe_median_s": [r["probe_median_s"] for r in records],
              "setup_samples": len(setups),
              "raw_setup_s": statistics.quantiles(raw_setups, n=4)[0],
              "op_samples": len(op_ms), "op_tail_percentile": pct}
    return records, metrics, detail


def per_layer(args, rng, deadline, names):
    order_seed = rng.randrange(2**32)
    plain = run_child(args, order_seed, deadline)
    traced = run_child(args, order_seed, deadline, trace=True)
    layers = traced["layers"]
    metrics = {name: layers.get(name, 0) for name in names}   # 0: a layer never called
    metrics["bench.self_s"] = layers.get("bench.rep.self_s", 0) + layers.get("bench.op.self_s", 0)
    # raw, probes included, so that the self times of all spans add up to it
    metrics["trace.wall_s"] = traced["elapsed_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]   # both normalized
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "spans_file": traced["spans_file"],
              "self_s_sum": sum(v for k, v in layers.items() if k.endswith(".self_s"))}
    return [plain, traced], metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_REP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the self-tests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    platform = platform_record()
    rng = random.Random(args.seed)
    units = load_metric_units("per_layer" if args.trace else "end_to_end")
    try:
        if args.trace:
            records, metrics, detail = per_layer(args, rng, deadline, units)
        else:
            records, metrics, detail = end_to_end(args, rng, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "platform": platform,
              "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
              "elapsed_s": time.monotonic() - start, **detail, "result": result}
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
