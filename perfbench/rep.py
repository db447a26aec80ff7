"""One repetition of a workload, in a fresh interpreter.

Started by run.py, never imported.  Every repetition starts with the
library's lru_caches empty, as every `doubleschur` command does.  The last
line of standard output is one JSON object with the repetition's numbers.

    python3 -I perfbench/rep.py --workload NAME --order-seed N --t0 EPOCH_S
        [--trace] [--smoke] [--setup-only]

`--t0` is the wall-clock time at which the parent started this process;
set-up time runs from there, through interpreter start, import and input
generation, to the start of the timed region.

Every time reported is normalized for the speed of the shared host, which
drifts by a third within seconds: a probe times a fixed pure-Python kernel
that does not touch the library, at the start and end of the timed region
and, from a SIGALRM timer, every PROBE_EVERY_S inside it (inside ops too).
Each stretch of work between two probes is scaled by PROBE_NOMINAL_S over
the mean of those two probe times, and the probes' own time is left out.
Set-up is scaled by the first probe, taken right after it.  A time so
scaled is the time the work would take on a host where the probe takes
PROBE_NOMINAL_S: a slower library still reads slower, a busier host does
not.  A traced repetition runs no timer, so that no probe time lands in a
layer's self time: it probes between ops only, at most every
PROBE_EVERY_S, inside a "bench.probe" span.

With `--trace` the spans are written to perfbench/out/, under a name made
of the workload and the order seed, and the record names the file.  The outputs are checked against the
digests in perfbench/golden.json.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The probe: the median of PROBE_CALLS sparse products of two fixed
# 60-term dicts, the same kind of work as the library's Poly.__mul__ but
# written here, so that no change to the library changes it.
PROBE_CALLS = 5
PROBE_EVERY_S = 0.05
# probe time on two vCPUs of an Intel Xeon virtual machine, Python 3.11.7,
# so that normalized times read close to raw ones there
PROBE_NOMINAL_S = 0.0006
_PROBE_RNG = random.Random(20261017)
PROBE_A = {_PROBE_RNG.randrange(1 << 40): _PROBE_RNG.randrange(1, 10) for _ in range(60)}
PROBE_B = {_PROBE_RNG.randrange(1 << 40): _PROBE_RNG.randrange(1, 10) for _ in range(60)}


def _probe_kernel():
    out = {}
    for ka, ca in PROBE_A.items():
        for kb, cb in PROBE_B.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb
    return out


class HostProbe:
    """Probes along the timed region, and the normalized time between them."""

    def __init__(self):
        self.start = []      # perf_counter at the start of each probe
        self.end = []        # ... and at its end
        self.probe_s = []    # the probe's kernel time
        self.busy = False

    def take(self):
        if self.busy:        # the timer fired inside a probe
            return
        self.busy = True
        self.start.append(time.perf_counter())
        calls = []
        for _ in range(PROBE_CALLS):
            t = time.perf_counter()
            _probe_kernel()
            calls.append(time.perf_counter() - t)
        self.probe_s.append(sorted(calls)[PROBE_CALLS // 2])
        self.end.append(time.perf_counter())
        self.busy = False

    def due(self):
        return time.perf_counter() - self.end[-1] >= PROBE_EVERY_S

    def start_timer(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def normalized(self, a, b):
        """(normalized, raw) work time in [a, b], probes left out; a and b
        lie between the first probe's end and the last probe's start."""
        norm = raw = 0.0
        i = bisect.bisect_right(self.end, a) - 1   # the last probe ended by a
        while i + 1 < len(self.start) and self.end[i] < b:
            work = min(b, self.start[i + 1]) - max(a, self.end[i])
            if work > 0:
                raw += work
                norm += work * 2 * PROBE_NOMINAL_S / (self.probe_s[i] + self.probe_s[i + 1])
            i += 1
        return norm, raw


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "doubleschur", "__init__.py")):
        sys.exit(f"error: no library source under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import doubleschur
    if not os.path.abspath(doubleschur.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported doubleschur from {doubleschur.__file__}, not {SRC}")
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    tracer = Tracer(doubleschur) if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](random.Random(args.order_seed),
                                        args.smoke, tracer)
    if args.trace:
        tracer.install()   # after input generation: only the timed region is traced

    raw_setup_s = time.time() - args.t0
    probe = HostProbe()
    probe.take()
    setup_s = raw_setup_s * PROBE_NOMINAL_S / probe.probe_s[0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return
    results = []
    op_times = []     # perf_counter at the start and end of each op
    if not args.trace:
        probe.start_timer()
    start = time.perf_counter()
    with tracer.span("bench.rep"):
        workload.prelude()
        for op in workload.ops:
            if args.trace and probe.due():
                with tracer.span("bench.probe"):
                    probe.take()
            t = time.perf_counter()
            with tracer.span("bench.op"):
                results.append(workload.run_op(op))
            op_times.append((t, time.perf_counter()))
        workload.finale(results)
        probe.stop_timer()
        end = time.perf_counter()
        probe.take()
    elapsed_s = time.perf_counter() - start

    wall_s, raw_wall_s = probe.normalized(start, end)
    out = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
           "wall_s": wall_s, "raw_wall_s": raw_wall_s, "elapsed_s": elapsed_s,
           "op_s": [probe.normalized(a, b)[0] for a, b in op_times],
           "probe_median_s": sorted(probe.probe_s)[len(probe.probe_s) // 2],
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        out["layers"] = tracer.layer_metrics()
        size = "smoke" if args.smoke else "full"
        spans = os.path.join(OUT, f"spans-{args.workload}-{size}-order{args.order_seed}.json")
        os.makedirs(OUT, exist_ok=True)
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"names": tracer.names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": [list(s) for s in zip(
                           tracer.span_name, tracer.span_start,
                           tracer.span_end, tracer.span_parent)]},
                      fh, separators=(",", ":"))
        out["spans_file"] = os.path.relpath(spans, ROOT)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh).get(args.workload, {})
    flags = workload.check(results, golden.get("smoke" if args.smoke else "full"))
    out["attempted"] = len(flags)
    out["failed"] = flags.count(False)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
