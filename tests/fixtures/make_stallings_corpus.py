"""Write stallings_corpus.json: the Stallings layer's outputs on a seeded
corpus, so that a change to folding, the spanning tree or the fibre search
can be checked against them.

Small cases: 200 subgroups of F(a, b) and 100 of F(a, b, c), each given by
1-3 random words of at most 15 letters (freely reduced as they are built).
For each case the file holds the words and, computed from them:

* ``canonical``: the folded graph's ``canonical_form()``;
* ``basis``: the words of ``basis()``;
* ``self``: the facts of the graph's fibre product with itself
  (``component_count``, ``failing_root``, ``failing_nondiag_root``) and the
  witness of ``is_malnormal_graph`` (None on a yes);
* ``cross``: the same facts of the product with the next case's graph over
  the same alphabet, and the witness of ``trivial_intersection_graphs``
  read off that product.

Paper-scale cases: the (6,6,6) rho=8 triangle seed pair and its twelve
psi-images, each against the seed pair, with the canonical form and the
basis pinned by sha256.

Run from the repository root:

    PYTHONPATH=src python tests/fixtures/make_stallings_corpus.py
"""

import hashlib
import json
import random
from pathlib import Path

from malkit.malchar import psi_maps, seed_words_triangle
from malkit.stallings import (
    _fibre_analysis,
    basis,
    build_and_fold,
    is_malnormal_graph,
    trivial_intersection_graphs,
)
from malkit.words import Word, alphabet, apply_endo, signed_letters, word

OUT = Path(__file__).with_name("stallings_corpus.json")
SMALL = (("a b", 200), ("a b c", 100))


def draw(rng: random.Random, names: str) -> list[str]:
    alpha = alphabet(names)
    letters = list(signed_letters(len(alpha)))
    return [str(Word(alpha, [rng.choice(letters) for _ in range(rng.randint(1, 15))]))
            for _ in range(rng.randint(1, 3))]


def sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def facts(g, h) -> list:
    fa = _fibre_analysis(g, h)
    return [fa.component_count, fa.failing_root, fa.failing_nondiag_root]


def witness(v):
    return v.witness and v.witness.as_dict()


def small_rows(names: str, words: list[list[str]]) -> list[dict]:
    """The pinned outputs of one alphabet's cases; ``words`` in case order."""
    alpha = alphabet(names)
    graphs = [build_and_fold(alpha, [word(alpha, t) for t in ts]) for ts in words]
    rows = []
    for i, (ts, g) in enumerate(zip(words, graphs)):
        h = graphs[(i + 1) % len(graphs)]
        rows.append({
            "alphabet": names,
            "words": ts,
            "canonical": json.loads(json.dumps(g.canonical_form())),
            "basis": [str(b) for b in basis(g)],
            "self": facts(g, g) + [witness(is_malnormal_graph(g))],
            "cross": facts(g, h) + [witness(trivial_intersection_graphs(h, g))],
        })
    return rows


def paper_rows() -> list[dict]:
    """The rho=8 seed pair against itself and against each psi-image."""
    ab = alphabet("a b")
    pair = list(seed_words_triangle(ab, 8))
    seed = build_and_fold(ab, pair)
    rows = []
    for name, g in [("seed", seed)] + [
            (psi.name, build_and_fold(ab, [apply_endo(psi.spec, x) for x in pair])) for psi in psi_maps(ab)]:
        rows.append({
            "name": name,
            "canonical_sha256": sha(g.canonical_form()),
            "basis_sha256": sha([str(b) for b in basis(g)]),
            "self": facts(g, g) + [witness(is_malnormal_graph(g))],
            "cross": facts(g, seed) + [witness(trivial_intersection_graphs(seed, g))],
        })
    return rows


def main() -> None:
    rng = random.Random(22)
    small = []
    for names, count in SMALL:
        small += small_rows(names, [draw(rng, names) for _ in range(count)])
    doc = {"small": small, "paper": paper_rows()}
    OUT.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
