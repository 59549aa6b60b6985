"""Record benchmark runs of one or more checkouts as BENCH_<label>.json.

    python tools/bench_record.py --checkout LABEL=DIR [--checkout LABEL=DIR ...]
        --workload NAME [--workload NAME ...] --seeds 101-110 [--seconds 25]
        [--out bench]

Each checkout's own ``perfbench/run.py`` runs unchanged, from the root of
that checkout, once per workload and seed (``--trace 0``).  With several
checkouts the runs alternate: for each seed and workload every checkout runs
once, and the order flips from one seed to the next, so that a slow spell
on the host falls on both sides.  Each checkout gets one file,
``<out>/BENCH_<label>.json``, holding every run's final JSON line with its
workload and seed, the checkout's ``git rev-parse HEAD`` and whether its
tree had uncommitted changes, the Python version and ``nproc``, and per
workload and metric the median and quartiles over the seeds.  The script
refuses, before any run, a label whose file already exists.

With exactly two checkouts, the first is the baseline: for each workload
and metric the script also prints both medians, the baseline's
interquartile range and in how many seed pairs the second checkout was
better.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """``101-110`` or ``4,7,9``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True).stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the checkout's perfbench/run.py; its final JSON line, or
    the exit code and error text when it gave none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each metric, per workload, over the runs
    that gave a result."""
    values: dict[str, dict[str, list[float]]] = {}
    for r in runs:
        for name, m in r["result"].get("metrics", {}).items():
            values.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {name: quartiles(v) for name, v in metrics.items()} for w, metrics in values.items()}


def compare(base: dict, other: dict, better: dict[str, str]) -> None:
    """Print, per workload and metric, the two medians, the baseline's
    interquartile range and the pairs the second side won."""
    pairs: dict[tuple[str, int], list] = {}
    for side, record in ((0, base), (1, other)):
        for r in record["runs"]:
            pairs.setdefault((r["workload"], r["seed"]), [None, None])[side] = r["result"].get("metrics")
    for workload, metrics in base["summary"].items():
        for name, q in metrics.items():
            if name not in other["summary"].get(workload, {}):
                continue
            sign = 1 if better.get(name, "lower") == "lower" else -1
            won = total = 0
            for (w, _seed), (a, b) in pairs.items():
                if w == workload and a and b:
                    total += 1
                    won += sign * (b[name]["value"] - a[name]["value"]) < 0
            o = other["summary"][workload][name]
            print(f"{workload} {name}: {q['median']:.6g} -> {o['median']:.6g} "
                  f"(baseline IQR {q['q3'] - q['q1']:.3g}, medians {abs(o['median'] - q['median']):.3g} apart; "
                  f"better in {won}/{total} pairs)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", default=str(ROOT / "bench"))
    args = parser.parse_args(argv)

    checkouts = []
    for spec in args.checkout:
        label, _, path = spec.partition("=")
        root = Path(path).resolve()
        if not label or not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--checkout {spec!r}: want LABEL=DIR with DIR a checkout holding perfbench/run.py")
        checkouts.append((label, root))
    out = Path(args.out)
    for label, _ in checkouts:
        if (out / f"BENCH_{label}.json").exists():
            parser.error(f"{out / f'BENCH_{label}.json'} exists; give another label or move the file")
    records = [{
        "label": label,
        "commit": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "runs": [],
    } for label, root in checkouts]

    failed = 0
    for k, seed in enumerate(args.seeds):
        for workload in args.workload:
            order = list(range(len(checkouts)))
            if k % 2:
                order.reverse()
            for position, i in enumerate(order):
                result = run_once(checkouts[i][1], workload, seed, args.seconds)
                failed += "error" in result or not result.get("correct", False)
                records[i]["runs"].append({"workload": workload, "seed": seed, "position": position, "result": result})
                print(f"{checkouts[i][0]} {workload} seed {seed}: "
                      f"{json.dumps(result.get('metrics', result))[:300]}", flush=True)

    out.mkdir(parents=True, exist_ok=True)
    for record in records:
        record["summary"] = summary(record["runs"])
        (out / f"BENCH_{record['label']}.json").write_text(json.dumps(record, indent=1) + "\n")
    if len(records) == 2:
        spec = json.loads((checkouts[0][1] / "BENCHMARK.json").read_text())
        compare(records[0], records[1], {m["name"]: m["better"] for m in spec["end_to_end"]})
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
