"""One workload in one fresh, single-threaded process.

run.py starts this script; it is not meant to be run by hand.  Modes:

* ``setup``  import malkit, build the workload's one-time inputs, report
  the time that took (setup_s) and stop;
* ``run``    set up, then run rounds in a closed loop until ``--seconds``
  have passed and at least the workload's ``min_rounds`` are done;
* ``fixed``  set up and run exactly ``min_rounds`` rounds;
* ``trace``  as ``fixed``, with the tracer installed before setup.

The last line of standard output is one JSON object with the results.
"""

import time

START = time.perf_counter()  # setup_s counts every import from here on

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_PRINTED_FAILURES = 5


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def machine_facts(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_rounds(wl, seconds, fixed, tracer):
    round_s, latencies = [], {}
    digest = hashlib.sha256()
    attempted = failed = 0
    begin = time.perf_counter()
    i = 0
    while i < wl.min_rounds or (not fixed and time.perf_counter() - begin < seconds):
        ops = wl.round_ops(i)
        busy = 0.0
        for op in ops:
            if tracer:
                tracer.op = attempted
                tracer.active = True
            attempted += 1
            t = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # a raise or refusal is a failed operation
                busy += time.perf_counter() - t
                if tracer:
                    tracer.active = False
                ok, canonical = False, {"error": traceback.format_exc(limit=1).splitlines()[-1]}
                if failed < MAX_PRINTED_FAILURES:
                    traceback.print_exc()
            else:
                dt = time.perf_counter() - t
                if tracer:
                    tracer.active = False
                busy += dt
                latencies.setdefault(op.kind, []).append(dt * 1e3)
                try:
                    ok, canonical = op.check(out)
                except Exception:
                    ok, canonical = False, {"error": "oracle raised"}
                    traceback.print_exc()
            if not ok:
                failed += 1
                if failed <= MAX_PRINTED_FAILURES:
                    print(f"failed {wl.name} seed={wl.seed} round={i} op={op.kind}: "
                          f"{json.dumps(canonical, default=str)[:300]}", file=sys.stderr)
            if i < wl.min_rounds:
                digest.update(json.dumps([i, op.kind, canonical], sort_keys=True,
                                         separators=(",", ":"), default=str).encode())
        round_s.append(busy)
        i += 1
        if i == wl.min_rounds:
            # measured on fixed work: how many rounds fit in a run depends
            # on speed, and a memo that grows with them would read as memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.op = -1
    timed = sorted(x for k in wl.latency_kinds for x in latencies.get(k, ()))
    return {
        "rounds": i,
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "digest_rounds": wl.min_rounds,
        "peak_rss_mb": peak_rss_mb,
        "latency_n": len(timed),
        "op_p50_ms": percentile(timed, 50),
        "op_p99_ms": percentile(timed, 99),
        "latency_by_kind": {k: {"n": len(v), "p50_ms": percentile(sorted(v), 50),
                                "p99_ms": percentile(sorted(v), 99)}
                            for k, v in sorted(latencies.items())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "fixed", "trace"), required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t = time.perf_counter()
    import malkit.cli  # noqa: F401  -- every malkit module, numpy and scipy
    import_s = time.perf_counter() - t

    from tracer import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.mode == "trace" else None
    result = {"import_s": import_s, "machine": machine_facts(args.seed)}
    if tracer:
        tracer.install()  # active: setup is traced too
    try:
        wl = WORKLOADS[args.workload](args.seed)
        wl.setup()
        result["setup_s"] = time.perf_counter() - START
        if tracer:
            tracer.active = False
        if args.mode != "setup":
            result.update(run_rounds(wl, args.seconds, args.mode != "run", tracer))
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        result["layers"] = tracer.summary()
        result["rebound"] = tracer.rebound
        result["spans"] = len(tracer.start)
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "result": result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
