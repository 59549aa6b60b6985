"""Write coset_outcomes.json: coset-enumeration outcomes of 300 seeded
small presentations, each at caps 30 and 300.

The first 200 presentations have 1-3 generators, a power z^e (1 <= e <= 6)
of each generator, up to three further relators of length at most 8 and up
to two subgroup generators of length at most 5, drawn the way the
Hypothesis strategy in test_cosetenum.py draws them.  Most of their complete
tables have index 1: z^1 kills a generator, and a random relator often
collapses the rest.  So the last 100 are Coxeter-like: 2-3 generators, a
power z^e (2 <= e <= 4) of each, (y z)^m (2 <= m <= 3) for each pair of
generators and at most one subgroup generator of length at most 3.  Of
their complete tables more than half have index above 6.  An outcome is the
live count of the Overflow marker, or the sha256 of ``json.dumps([table,
reps])`` of the complete table.  A standardized complete table is unique,
so its digest does not depend on the enumeration strategy; the live count
of an overflow, and whether a run completes under its cap, do.  So the
fixture pins the strategy's definition and coincidence order through its
overflows, on many presentations, not only the golden one.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_coset_outcomes.py
"""

import hashlib
import json
import random
from pathlib import Path

from malkit.cosetenum import Overflow, todd_coxeter
from malkit.words import Word, alphabet

CASES = 200
COXETER_CASES = 100
CAPS = (30, 300)
OUT = Path(__file__).with_name("coset_outcomes.json")


def draw(rng: random.Random) -> dict:
    k = rng.randint(1, 3)
    signed = [s for i in range(1, k + 1) for s in (i, -i)]

    def words(count: int, max_len: int) -> list[list[int]]:
        return [[rng.choice(signed) for _ in range(rng.randint(0, max_len))] for _ in range(count)]

    relators = [[i] * rng.randint(1, 6) for i in range(1, k + 1)] + words(rng.randint(0, 3), 8)
    return {"generators": k, "relators": relators, "subgroup": words(rng.randint(0, 2), 5)}


def draw_coxeter(rng: random.Random) -> dict:
    k = rng.randint(2, 3)
    signed = [s for i in range(1, k + 1) for s in (i, -i)]
    relators = [[i] * rng.randint(2, 4) for i in range(1, k + 1)]
    relators += [[i, j] * rng.randint(2, 3) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    subgroup = [[rng.choice(signed) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(0, 1))]
    return {"generators": k, "relators": relators, "subgroup": subgroup}


def outcome(case: dict, cap: int) -> dict:
    alpha = alphabet(" ".join("abc"[:case["generators"]]))
    result = todd_coxeter(alpha, [Word(alpha, r) for r in case["relators"]],
                          [Word(alpha, s) for s in case["subgroup"]], cap)
    if isinstance(result, Overflow):
        return {"cap": cap, "overflow": result.live_cosets}
    digest = hashlib.sha256(json.dumps([result.table, result.reps]).encode()).hexdigest()
    return {"cap": cap, "index": result.index, "sha256": digest}


def main() -> None:
    cases = [draw(random.Random(seed)) for seed in range(CASES)]
    cases += [draw_coxeter(random.Random(f"coxeter/{seed}")) for seed in range(COXETER_CASES)]
    for case in cases:
        case["outcomes"] = [outcome(case, cap) for cap in CAPS]
    OUT.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")


if __name__ == "__main__":
    main()
