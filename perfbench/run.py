"""malkit benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh
single-threaded child processes (perfbench/child.py), one at a time, as a
closed loop: the next operation starts when the previous one returns.

--trace 0  prints the end-to-end metrics of BENCHMARK.json.  setup_s is the
           median over SETUP_REPEATS fresh processes; run_s is the median
           round time; op_p50_ms and op_p99_ms are per-operation latencies
           over every round; peak_rss_mb is the measuring child's peak RSS
           after setup and the workload's min_rounds rounds.
--trace 1  runs the workload's fixed rounds twice, untraced and then traced,
           and prints the per-layer metrics of BENCHMARK.json.  It fails the
           run when the two verdict digests differ or when a layer that
           layers.json says a workload exercises shows no work there.  Spans
           go to .perfbench_out/trace-<workload>-<seed>.json.gz.

Every operation's result is checked by the workload's oracle; the final
line is {"correct", "attempted", "failed", "metrics"}.  Exit code 2 means
no result: bad arguments, no malkit sources, a crashed child or the time
limit.
"""

from __future__ import annotations

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
TIME_LIMIT_S = 170
SETUP_REPEATS = 5
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def child(args, mode, deadline, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a child could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child of {args.workload} exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child of {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, deadline):
    # set-up processes go before and after the measuring one, so that a
    # burst of load on the host hits only some of them
    before = (SETUP_REPEATS - 1) // 2
    setups = [child(args, "setup", deadline)["setup_s"] for _ in range(before)]
    main = child(args, "run", deadline)
    setups.append(main["setup_s"])
    setups += [child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1 - before)]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(main["round_s"]),
        "op_p50_ms": main["op_p50_ms"],
        "op_p99_ms": main["op_p99_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "run_s": f"median of {main['rounds']} rounds",
        "op_p50_ms": f"{main['latency_n']} operations",
        "op_p99_ms": f"{main['latency_n']} operations",
        "peak_rss_mb": f"measuring child, after setup and the first {main['digest_rounds']} rounds",
    }
    print(f"latency by kind: {json.dumps(main['latency_by_kind'])}")
    return main, values, notes, []


def traced(args, deadline):
    plain = child(args, "fixed", deadline)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"trace-{args.workload}-{args.seed}.json.gz"
    main = child(args, "trace", deadline, trace_out)
    layers = main["layers"]
    values = dict(layers)
    values["cli.import_s"] = main["import_s"]
    values["trace.overhead"] = statistics.median(main["round_s"]) / statistics.median(plain["round_s"])
    problems = []
    if plain["digest"] != main["digest"]:
        problems.append(f"verdict digest differs: untraced {plain['digest']} traced {main['digest']}")
    for group in json.loads((HERE / "layers.json").read_text())["groups"]:
        exercised = {w for _, w in group["moves"]}
        check = group["metrics"][0]
        if args.workload in exercised and not values.get(check, 0) > 0:
            problems.append(f"{check} is zero on {args.workload}, which should exercise it")
    by_layer: dict[str, float] = {}
    for name, v in layers.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + v
    print(f"self time by layer (s): {json.dumps({k: round(v, 4) for k, v in sorted(by_layer.items())})}")
    print(f"spans: {main['spans']} written to {trace_out.relative_to(ROOT)}")
    notes = {"trace.overhead": "median traced round / median untraced round"}
    return main, values, notes, problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "malkit" / "__init__.py").is_file():
        print(f"no malkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result, values, notes, problems = (traced if args.trace else end_to_end)(args, deadline)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"workload: {args.workload}  rounds: {result['rounds']}  attempted: {attempted}  "
          f"failed: {failed}  error_rate: {failed / attempted:.6g}")
    print(f"digest: {result['digest']} (verdicts of the first {result['digest_rounds']} rounds)")
    for m in listed:
        note = notes.get(m["name"], "")
        print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    for p in problems:
        print(f"self-check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
