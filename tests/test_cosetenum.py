import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import malkit
from malkit.cosetenum import (
    CosetEnumError,
    Overflow,
    schreier_kernel_generators,
    todd_coxeter,
)
from malkit.stallings import build_and_fold, same_subgroup
from malkit.words import Word, alphabet, word


Z = alphabet("z")
XY = alphabet("x y")


class TestToddCoxeter:
    def test_cyclic_five(self):
        t = todd_coxeter(Z, [word(Z, "z^5")])
        assert t.index == 5

    def test_klein_four(self):
        ab = alphabet("a b")
        t = todd_coxeter(ab, [word(ab, "a^2"), word(ab, "b^2"), word(ab, "(a b)^2")])
        assert t.index == 4

    def test_s3(self):
        ab = alphabet("a b")
        t = todd_coxeter(ab, [word(ab, "a^2"), word(ab, "b^2"), word(ab, "(a b)^3")])
        assert t.index == 6

    def test_infinite_overflow(self):
        out = todd_coxeter(Z, [], max_cosets=100)
        assert isinstance(out, Overflow)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_refused(self, cap):
        with pytest.raises(CosetEnumError, match="at least 1"):
            todd_coxeter(Z, [word(Z, "z")], max_cosets=cap)

    def test_cap_one(self):
        # the trivial group fits in one coset; Z/2 does not
        assert todd_coxeter(Z, [word(Z, "z")], max_cosets=1).index == 1
        out = todd_coxeter(Z, [word(Z, "z^2")], max_cosets=1)
        assert isinstance(out, Overflow) and out.max_cosets == 1 and out.live_cosets > 1

    def test_subgroup_index(self):
        # <z^2> in Z/6 has index 2
        t = todd_coxeter(Z, [word(Z, "z^6")], [word(Z, "z^2")])
        assert t.index == 2

    def test_table_closed_under_relators(self):
        ab = alphabet("a b")
        rels = [word(ab, "a^2"), word(ab, "b^3"), word(ab, "(a b)^3")]
        t = todd_coxeter(ab, rels)
        for c in range(t.index):
            for r in rels:
                assert t.trace(r.code, c) == c

    def test_transversal_prefix_closed(self):
        ab = alphabet("a b")
        # (2,3,3) triangle group: A4, order 12
        t = todd_coxeter(ab, [word(ab, "a^2"), word(ab, "b^3"), word(ab, "(a b)^3")])
        assert t.index == 12
        reps = {r for r in t.reps}
        for r in t.reps:
            for cut in range(len(r)):
                assert r[:cut] in reps
        # representative of coset i traces from coset 1 to coset i
        for i, r in enumerate(t.rep_codes):
            assert t.trace(r) == i


class TestImageInQuotient:
    def test_relator_trivial(self):
        t = todd_coxeter(Z, [word(Z, "z^5")])
        assert t.image_in_quotient(word(Z, "z^5")) == 1

    def test_square_nontrivial(self):
        t = todd_coxeter(Z, [word(Z, "z^5")])
        assert t.image_in_quotient(word(Z, "z^2")) != 1

    def test_wraparound(self):
        t = todd_coxeter(Z, [word(Z, "z^5")])
        assert t.image_in_quotient(word(Z, "z^7")) == t.image_in_quotient(word(Z, "z^2"))


class TestSchreierKernel:
    def test_zmod3_kernel_matches_explicit_set(self):
        # F(x,y) -> Z/3: x killed, y -> generator
        gens, table = schreier_kernel_generators(XY, [word(XY, "y^3")], killed=[0])
        expected = [word(XY, t) for t in ["y^3", "x", "y^-1 x y", "y^-2 x y^2"]]
        assert same_subgroup(build_and_fold(XY, gens), build_and_fold(XY, expected))

    def test_trivial_quotient_gives_whole_group(self):
        gens, _ = schreier_kernel_generators(XY, [], killed=[0, 1])
        assert same_subgroup(build_and_fold(XY, gens), build_and_fold(XY, [word(XY, "x"), word(XY, "y")]))

    def test_zmod2_diagonal_kernel(self):
        # F(x,y) -> Z/2 via x -> z, y -> z: kernel contains x y^-1, x^2, ...
        gens, table = schreier_kernel_generators(XY, [word(XY, "x^2"), word(XY, "x y^-1")])
        g = build_and_fold(XY, gens)
        # brute-force kernel elements up to length 4
        def sign_image(w):
            return sum(1 for _ in w.letters) % 2
        frontier = [()]
        for _ in range(4):
            frontier = [t + (s,) for t in frontier for s in (1, -1, 2, -2) if not (t and t[-1] == -s)]
            for t in frontier:
                w = Word(XY, t, reduced=True)
                if len(w.letters) % 2 == 0:
                    assert g.contains(w), f"kernel element {w} missing"
                else:
                    assert not g.contains(w)

    def test_every_generator_maps_trivially(self):
        gens, table = schreier_kernel_generators(XY, [word(XY, "y^4")], killed=[0])
        for g in gens:
            assert table.image_in_quotient(g) == 1

    def test_overflow_is_error(self):
        with pytest.raises(CosetEnumError):
            schreier_kernel_generators(XY, [], killed=[0], max_cosets=50)

    def test_paper_kernels_up_to_six(self):
        for k in range(1, 7):
            gens, _ = schreier_kernel_generators(XY, [word(XY, f"y^{k}")], killed=[0])
            expected = [word(XY, f"y^{k}")] + [
                word(XY, f"y^-{j} x y^{j}") if j else word(XY, "x") for j in range(k)
            ]
            assert same_subgroup(
                build_and_fold(XY, gens), build_and_fold(XY, expected)
            ), f"k={k}"


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestGoldenIndex10752:
    """<a, b | a^2, b^3, (ab)^7, [a,b]^8> has order 10,752.  The table, the
    Schreier generators, their folded graph and the overflow counts at two
    caps (which follow Felsch's definition order) are pinned by digest."""

    AB = alphabet("a b")
    RELS = ("a^2", "b^3", "(a b)^7", "(a^-1 b^-1 a b)^8")

    @pytest.fixture(scope="class")
    def table(self):
        return todd_coxeter(self.AB, [word(self.AB, r) for r in self.RELS], (), 400_000)

    def test_table(self, table):
        assert table.index == 10_752
        assert _sha16(json.dumps([table.table, table.reps])) == "828cd0b3984421b6"

    def test_kernel_and_fold(self, table):
        gens = table.kernel_generators()
        assert len(gens) == 10_753
        assert _sha16(json.dumps([list(g.letters) for g in gens])) == "995234dfcdd4c862"
        graph = build_and_fold(self.AB, gens)
        assert (graph.num_vertices, graph.rank()) == (10_752, 10_753)
        assert _sha16(repr(graph.canonical_form())) == "8ae874e5a1289636"

    def test_schreier_kernel_generators_agrees(self, table):
        gens, again = schreier_kernel_generators(self.AB, [word(self.AB, r) for r in self.RELS], (), 400_000)
        assert again.table == table.table and again.reps == table.reps
        assert gens == table.kernel_generators()

    @pytest.mark.parametrize("cap, live", [(12_000, 12_001), (20_000, 20_001)])
    def test_overflow_counts(self, cap, live):
        out = todd_coxeter(self.AB, [word(self.AB, r) for r in self.RELS], (), cap)
        assert out == Overflow(cap, live)

    def test_completes_under_cap_100000(self):
        # the cap counts live cosets, and this enumeration defines 39,745 rows
        out = todd_coxeter(self.AB, [word(self.AB, r) for r in self.RELS], (), 100_000)
        assert _sha16(json.dumps([out.table, out.reps])) == "828cd0b3984421b6"

    def test_memory_peak(self):
        # dead rows are cleared but not reclaimed, so the peak follows the
        # rows defined; an HLT enumeration, defining 272,596, peaked at 18.1 MB
        tracemalloc.start()
        try:
            todd_coxeter(self.AB, [word(self.AB, r) for r in self.RELS], (), 400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestEnumerationOutcomes:
    """Outcomes of 300 seeded small presentations at caps 30 and 300, pinned
    by tests/fixtures/make_coset_outcomes.py: the live count of each
    overflow follows the definition and coincidence order, which a change in
    bookkeeping must keep, and the digest of each complete table is the
    strategy-free standardized table.  The last 100 are Coxeter-like, so
    that tables of index above 6 are pinned too."""

    def test_fixture_outcomes(self):
        cases = json.loads((Path(__file__).parent / "fixtures" / "coset_outcomes.json").read_text())
        assert len(cases) == 300
        mismatches = []
        for n, case in enumerate(cases):
            alpha = alphabet(" ".join("abc"[:case["generators"]]))
            rels = [Word(alpha, r) for r in case["relators"]]
            subgroup = [Word(alpha, s) for s in case["subgroup"]]
            for expected in case["outcomes"]:
                out = todd_coxeter(alpha, rels, subgroup, expected["cap"])
                if isinstance(out, Overflow):
                    got = {"cap": out.max_cosets, "overflow": out.live_cosets}
                else:
                    digest = hashlib.sha256(json.dumps([out.table, out.reps]).encode()).hexdigest()
                    got = {"cap": expected["cap"], "index": out.index, "sha256": digest}
                if got != expected:
                    mismatches.append((n, expected, got))
        assert not mismatches


@st.composite
def _small_presentations(draw):
    alpha = draw(st.sampled_from([alphabet("a"), alphabet("a b"), alphabet("a b c")]))
    letters = [s for i in range(1, len(alpha) + 1) for s in (i, -i)]
    # a power of each generator keeps many of the quotients finite
    rels = [Word(alpha, (i,) * draw(st.integers(1, 6))) for i in range(1, len(alpha) + 1)]
    rels += [Word(alpha, lets) for lets in draw(st.lists(st.lists(st.sampled_from(letters), max_size=8),
                                                           max_size=3))]
    subgroup = [Word(alpha, lets) for lets in draw(st.lists(st.lists(st.sampled_from(letters), max_size=5),
                                                            max_size=2))]
    return alpha, rels, subgroup


class TestCompleteTables:
    @settings(max_examples=200, deadline=None)
    @given(_small_presentations())
    def test_complete_table_is_a_coset_action(self, case):
        alpha, rels, subgroup = case
        t = todd_coxeter(alpha, rels, subgroup, max_cosets=300)
        if isinstance(t, Overflow):
            assert t.live_cosets > t.max_cosets == 300
            return
        n = t.index
        assert len(t.table) == len(t.reps) == n
        for c in range(2 * len(alpha)):
            column = [row[c] for row in t.table]
            assert sorted(column) == list(range(n))
            assert all(t.table[column[v]][c ^ 1] == v for v in range(n))
        for v in range(n):
            for r in rels:
                assert t.trace(r.code, v) == v
        for g in subgroup:
            assert t.trace(g.code) == 0
        for v, rep in enumerate(t.rep_codes):
            assert t.trace(rep) == v
        for g in t.kernel_generators():
            assert t.trace(g.code) == 0
        # the kernel generators fold to the table itself: they generate
        # exactly the stabiliser of coset 1 (hnnforge's membership guard)
        assert build_and_fold(alpha, t.kernel_generators()).table() == t.table


class TestKernelCheck:
    """A Schreier generator whose image is not trivial is a typed error,
    also when Python runs with -O and bare asserts are stripped."""

    def test_bad_representative(self):
        t = todd_coxeter(Z, [word(Z, "z^5")])
        t.rep_codes[1] = t.rep_codes[1] * 2
        with pytest.raises(CosetEnumError):
            t.kernel_generators()

    def test_check_survives_optimised_python(self):
        code = (
            "from malkit.cosetenum import CosetEnumError, todd_coxeter\n"
            "from malkit.words import alphabet, word\n"
            "Z = alphabet('z')\n"
            "t = todd_coxeter(Z, [word(Z, 'z^5')])\n"
            "t.rep_codes[1] = t.rep_codes[1] * 2\n"
            "try:\n"
            "    t.kernel_generators()\n"
            "    print(__debug__, 'no error')\n"
            "except CosetEnumError:\n"
            "    print(__debug__, 'raised')\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "raised"], out.stderr
