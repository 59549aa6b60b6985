"""Write hlt_outcomes.json: HLT coset-enumeration outcomes of 200 seeded
small presentations, each at caps 30 and 300.

Each presentation has 1-3 generators, a power z^e (1 <= e <= 6) of each
generator, up to three further relators of length at most 8 and up to two
subgroup generators of length at most 5, drawn the way the Hypothesis
strategy in test_cosetenum.py draws them.  An outcome is the live count of
the Overflow marker, or the sha256 of ``json.dumps([table, reps])`` of the
complete table.  Both follow HLT's definition and coincidence order, so the
fixture pins that order on many presentations, not only the golden one.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_hlt_outcomes.py
"""

import hashlib
import json
import random
from pathlib import Path

from malkit.cosetenum import Overflow, todd_coxeter
from malkit.words import Word, alphabet

CASES = 200
CAPS = (30, 300)
OUT = Path(__file__).with_name("hlt_outcomes.json")


def draw(rng: random.Random) -> dict:
    k = rng.randint(1, 3)
    signed = [s for i in range(1, k + 1) for s in (i, -i)]

    def words(count: int, max_len: int) -> list[list[int]]:
        return [[rng.choice(signed) for _ in range(rng.randint(0, max_len))] for _ in range(count)]

    relators = [[i] * rng.randint(1, 6) for i in range(1, k + 1)] + words(rng.randint(0, 3), 8)
    return {"generators": k, "relators": relators, "subgroup": words(rng.randint(0, 2), 5)}


def outcome(case: dict, cap: int) -> dict:
    alpha = alphabet(" ".join("abc"[:case["generators"]]))
    result = todd_coxeter(alpha, [Word(alpha, r) for r in case["relators"]],
                          [Word(alpha, s) for s in case["subgroup"]], cap)
    if isinstance(result, Overflow):
        return {"cap": cap, "overflow": result.live_cosets}
    digest = hashlib.sha256(json.dumps([result.table, result.reps]).encode()).hexdigest()
    return {"cap": cap, "index": result.index, "sha256": digest}


def main() -> None:
    cases = []
    for seed in range(CASES):
        case = draw(random.Random(seed))
        case["outcomes"] = [outcome(case, cap) for cap in CAPS]
        cases.append(case)
    OUT.write_text("[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n")


if __name__ == "__main__":
    main()
