"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its elapsed time.

Criteria 1 and 4 pin the exact small cancellation verdicts on the joint set
of triangle relators and seed words at paper scale: a length-2 piece a^2
sits inside the relator a^i (2 >= i/4), so C'(1/4) and C'(1/6) fail, and
the seed words complete the letter-pair star so T(4) fails.  Every witness
the checkers report is re-checked here from first principles (direct
rotation and inversion, free reduction), and criterion 4 asserts that the
composite certificate refuses for exactly that reason.  test_malchar.py
carries the fully certified counterpart at exponent 13, where the joint set
is C'(1/6).
"""

import random
import time
from fractions import Fraction

import pytest

from malkit import hnnforge, presfile
from malkit.cli import counterexample_words
from malkit.cosetenum import schreier_kernel_generators, todd_coxeter
from malkit.malchar import (
    HypothesesViolated,
    decide_malcharacteristic_free,
    decide_malcharacteristic_triangle,
    psi_maps,
    seed_words_free,
    seed_words_triangle,
    triangle_relators,
)
from malkit.quotientcert import certify_malnormal_in_quotient, free_conjugator
from malkit.smallcancel import (
    RelatorSet,
    check_C,
    check_metric,
    check_T,
    dehn_reduce,
    endo_order_in_quotient,
    is_cyclically_dehn_reduced,
    word_problem,
)
from malkit.stallings import build_and_fold, is_malnormal, same_subgroup
from malkit.words import (
    Word,
    alphabet,
    apply_endo,
    conjugate,
    endo,
    endo_power,
    free_reduce_letters,
    identity_endo,
    word,
)

AB = alphabet("a b")
PHI = endo(AB, {"a": "b", "b": "b^-1 a^-1"})
T6_RELATORS = triangle_relators(AB, 6, 6, 6)


class Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        self.elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion:>2}] {status}  ({self.elapsed:.1f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
            )
        return False


JOINT_HYPOTHESIS = "small-cancellation C'(1/6) or C'(1/4)-T(4)"


def _inverse_letters(letters):
    return tuple(-x for x in reversed(letters))


def _symmetrised_closure(relators):
    """All cyclic permutations of the relators and their inverses, built by
    direct rotation and inversion of the letter tuples."""
    closure = set()
    for r in relators:
        letters = r.letters
        assert letters and letters[0] != -letters[-1], f"not cyclically reduced: {r}"
        for base in (letters, _inverse_letters(letters)):
            closure.update(base[i:] + base[:i] for i in range(len(base)))
    return closure


def _assert_piece_witness(closure, piece, relator, lam):
    """``piece`` is a common prefix of two distinct elements of the closure,
    is a subword of a cyclic permutation of ``relator``, and is at least
    ``lam`` times the relator's length, so C'(lam) fails."""
    p = piece.letters
    holders = [w for w in closure if w[: len(p)] == p]
    assert len(holders) >= 2, f"'{piece}' is a prefix of {len(holders)} symmetrised element(s)"
    assert any(w[: len(p)] == p for w in _symmetrised_closure([relator])), (
        f"'{piece}' does not occur inside '{relator}'"
    )
    assert len(p) >= lam * len(relator), (
        f"|{piece}| = {len(p)} < {lam} * {len(relator)}: not a C'({lam}) violation"
    )


def _assert_t4_witness(closure, triple):
    """The triple lies in the closure, no two cyclically consecutive
    elements are mutually inverse, and all three products r1 r2, r2 r3 and
    r3 r1 freely cancel, so T(4) fails."""
    r1, r2, r3 = (w.letters for w in triple)
    for r in (r1, r2, r3):
        assert r in closure, f"triple element {r[:12]}... is not a symmetrised relator"
    for u, v in ((r1, r2), (r2, r3), (r3, r1)):
        assert v != _inverse_letters(u), "consecutive triple elements are inverse"
        assert len(free_reduce_letters(u + v)) < len(u) + len(v), (
            "a product in the triple is freely reduced"
        )


def test_criterion_01_small_cancellation_verdicts():
    with Budget(1, 5):
        t6 = RelatorSet(AB, T6_RELATORS)
        assert check_metric(t6, Fraction(1, 4)).ok
        assert check_T(t6, 4).ok
        sixth = check_metric(t6, Fraction(1, 6))
        assert not sixth.ok, "C'(1/6) must fail at the exact-rational boundary"
        assert max(t6.pieces().max_piece_per_relator) == 1

        # the joint set with the rho=8 seed words is neither C'(1/6) nor
        # C'(1/4)-T(4) under the strict free-group definitions
        x, y = seed_words_triangle(AB, 8)
        joint_relators = T6_RELATORS + [x, y]
        joint = RelatorSet(AB, joint_relators)
        closure = _symmetrised_closure(joint_relators)
        assert set(joint.symmetrised) == closure
        for lam in (Fraction(1, 4), Fraction(1, 6)):
            verdict = check_metric(joint, lam)
            assert not verdict.ok, f"joint set accepted as C'({lam})"
            assert verdict.failing_piece == word(AB, "a^2"), verdict.failing_piece
            assert verdict.failing_relator == word(AB, "a^6"), verdict.failing_relator
            _assert_piece_witness(closure, verdict.failing_piece, verdict.failing_relator, lam)
        t4 = check_T(joint, 4)
        assert not t4.ok, "joint set accepted as T(4)"
        _assert_t4_witness(closure, t4.triple)


def test_criterion_02_malnormality_oracle_agreement():
    with Budget(2, 60):
        rng = random.Random(20260809)
        conjugators = _reduced_tuples(6)
        checked = 0
        while checked < 200:
            gens = []
            for _ in range(rng.randrange(1, 3)):
                letters = free_reduce_letters(
                    tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(1, 7)))
                )
                if letters:
                    gens.append(Word(AB, letters, reduced=True))
            if not gens:
                continue
            checked += 1
            verdict = is_malnormal(AB, gens)
            if verdict.witness is not None:
                wit_g, wit_u = verdict.witness.conjugator, verdict.witness.element
                graph = verdict.graph
                assert wit_u and graph.contains(wit_u)
                assert graph.contains(conjugate(wit_u, wit_g.inverse()))
                assert not graph.contains(wit_g)
            brute = _brute_force_malnormal(gens, conjugators)
            assert verdict.malnormal == brute, (
                f"disagreement on {[str(g) for g in gens]}: "
                f"fibre={verdict.malnormal} brute={brute}"
            )


def _reduced_tuples(n):
    out = []
    frontier = [()]
    for _ in range(n):
        nxt = []
        for t in frontier:
            for s in (1, -1, 2, -2):
                if t and t[-1] == -s:
                    continue
                nxt.append(t + (s,))
        out.extend(nxt)
        frontier = nxt
    return out


def _brute_force_malnormal(gens, conjugators):
    """Search conjugators of length <= 6 and subgroup elements of syllable
    length <= 3 for a nontrivial intersection witness."""
    graph = build_and_fold(AB, gens)
    table = graph.table()

    def read(letters):
        v = 0
        for x in letters:
            v = table[v][2 * (x - 1) if x > 0 else -2 * x - 1]
            if v < 0:
                return -1
        return v

    elems = set()
    frontier = {()}
    glets = [g.letters for g in gens]
    for _ in range(3):
        nxt = set()
        for t in frontier:
            for g in glets:
                for seg in (g, tuple(-x for x in reversed(g))):
                    nxt.add(free_reduce_letters(t + seg))
        frontier = nxt
        elems |= {t for t in nxt if t}
    for g in conjugators:
        if read(g) == 0:
            continue  # conjugator inside the subgroup
        ginv = tuple(-x for x in reversed(g))
        for u in elems:
            if read(free_reduce_letters(g + u + ginv)) == 0:
                return False
    return True


def test_criterion_03_malcharlem_pipeline():
    with Budget(3, 30):
        for rho in (6, 8, 10):
            seeds = seed_words_free(AB, rho)
            assert decide_malcharacteristic_free(AB, list(seeds)).malcharacteristic, rho
        rejected = decide_malcharacteristic_free(AB, [word(AB, "a^3 b^3")])
        assert not rejected.malcharacteristic
        assert rejected.failing_auto is not None and rejected.witness is not None
        # the swap automorphism in particular defeats the subgroup
        from malkit.stallings import trivial_intersection_all_conjugates

        swap = endo(AB, {"a": "b", "b": "a"})
        assert not trivial_intersection_all_conjugates(
            AB, [apply_endo(swap, word(AB, "a^3 b^3"))], [word(AB, "a^3 b^3")]
        ).trivial
        with pytest.raises(HypothesesViolated):
            decide_malcharacteristic_free(AB, [word(AB, "a^2 b^2")])


def test_criterion_04_triangle_certificates():
    with Budget(4, 300):
        maps = psi_maps(AB)
        identity = {m.name for m in maps if m.is_identity()}
        for (i, j, k, rho) in ((6, 6, 6, 8), (7, 8, 9, 10)):
            label = f"({i},{j},{k}) rho={rho}"
            cert = decide_malcharacteristic_triangle(AB, i, j, k, rho)
            verdicts = {h.name: h for h in cert.hypotheses}
            # the certificate refuses, and only because the joint small
            # cancellation hypothesis fails
            assert not cert.certified, (
                f"{label}: certified although the joint set is not small cancellation"
            )
            assert not verdicts["stage 1: M malnormal in the quotient"].ok, label
            assert verdicts["stage 2: free-group shadow malcharacteristic"].ok, label
            stage1 = {h["name"]: h for h in cert.data["stage1"]["hypotheses"]}
            assert [name for name, h in stage1.items() if not h["ok"]] == [JOINT_HYPOTHESIS], label
            assert stage1["relator shift-classes pairwise distinct"]["ok"], label
            assert stage1["no proper powers in s"]["ok"], label
            detail = stage1[JOINT_HYPOTHESIS]["detail"]
            assert f"piece 'a^2' of length 2 inside relator of length {i}" in detail, detail
            assert "T(4) fails" in detail, detail
            # the violating piece, re-derived without the checkers
            x, y = seed_words_triangle(AB, rho)
            closure = _symmetrised_closure(triangle_relators(AB, i, j, k) + [x, y])
            for lam in (Fraction(1, 4), Fraction(1, 6)):
                _assert_piece_witness(closure, word(AB, "a^2"), word(AB, f"a^{i}"), lam)

            assert len(cert.data["stage3"]) == len(maps), label
            for entry in cert.data["stage3"]:
                assert entry["family_ok"], entry
                assert not entry["forbidden_hits"], entry
                if entry["psi"] in identity:
                    continue
                assert entry["free_verdict"] == "trivial", entry
                # the trivial free verdict is not claimed for the quotient
                assert entry["transfer_certified"] is False, entry
                assert not verdicts[f"stage 3: {entry['psi']}"].ok, entry


def test_criterion_05_intro_reproduction(tmp_path):
    with Budget(5, 10):
        z = alphabet("z")
        from importlib import resources

        for k in range(2, 6):
            P = hnnforge.InputPresentation(z, (word(z, f"z^{k}"),))
            hnn = hnnforge.build_tp(AB, 6, 6, 6, P, rho=8, mode="minimal")
            hat = hnn.hat_alphabet
            expected = [word(hat, f"z^{k}")] + [
                word(hat, f"z^-{m} x z^{m}") if m else word(hat, "x") for m in range(k)
            ]
            assert same_subgroup(
                build_and_fold(hat, list(hnn.assoc_abstract)),
                build_and_fold(hat, expected),
            ), f"kernel subgroup differs at k={k}"
            text = presfile.format_presentation(presfile.hnn_to_parsed(hnn))
            golden = resources.files("malkit.fixtures").joinpath(f"tp_p{k}.pres").read_text()
            assert text == golden, f"printed form drifted from the golden file at k={k}"


def test_criterion_06_phi_sanity():
    with Budget(6, 1):
        assert endo_power(PHI, 3) == identity_endo(AB)
        t6 = RelatorSet(AB, T6_RELATORS)
        assert endo_order_in_quotient(t6, PHI, 6) == 3
        for r in T6_RELATORS:
            assert word_problem(t6, apply_endo(PHI, r))


def test_criterion_07_word_problem_oracle():
    with Budget(7, 30):
        t6 = RelatorSet(AB, T6_RELATORS)
        rng = random.Random(777)
        for _ in range(500):
            w = Word(AB, ())
            for _ in range(rng.randrange(1, 4)):
                rel = rng.choice(T6_RELATORS) ** rng.choice((1, -1))
                g = Word(AB, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(4))])
                w = w * conjugate(rel, g)
            assert word_problem(t6, w), f"product of conjugated relators not trivial: {w}"
        found = 0
        while found < 500:
            w = Word(AB, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(1, 16))])
            if w and is_cyclically_dehn_reduced(t6, w):
                found += 1
                assert not word_problem(t6, w), f"reduced word declared trivial: {w}"


def test_criterion_08_counterexample_fixture():
    with Budget(8, 5):
        X, R, S, T = counterexample_words(p=2, q=7)
        rs = RelatorSet(X, [R, S])
        assert check_C(rs, 5).ok
        assert check_T(rs, 4).ok
        metric = check_metric(rs, Fraction(1, 4))
        assert not metric.ok
        assert len(metric.failing_piece) * 2 == len(R), "the half-length piece must be reported"
        cert = certify_malnormal_in_quotient(X, [R], [S])
        assert not cert.certified
        failure = cert.first_failure()
        assert "small-cancellation" in failure.name
        assert free_conjugator(S, T) is None
        # ...while they are conjugate in the quotient: modulo R the leading
        # commutator block flips to the trailing one, and Dehn's algorithm
        # (the single-relator base is even C'(1/6)) confirms the conjugacy
        base = RelatorSet(X, [R])
        g = word(X, "( x3^-1 y3^-1 x3 y3 x4^-1 y4^-1 x4 y4 )^-1")
        assert word_problem(base, conjugate(S, g) * T.inverse())


def test_criterion_09_coset_and_kernel_correctness():
    with Budget(9, 10):
        z = alphabet("z")
        for k in range(1, 7):
            t = todd_coxeter(z, [word(z, f"z^{k}")])
            assert t.index == k
        ab = AB
        klein = todd_coxeter(ab, [word(ab, "a^2"), word(ab, "b^2"), word(ab, "(a b)^2")])
        assert klein.index == 4
        s3 = todd_coxeter(ab, [word(ab, "a^2"), word(ab, "b^2"), word(ab, "(a b)^3")])
        assert s3.index == 6
        xy = alphabet("x y")
        for k in range(1, 7):
            gens, table = schreier_kernel_generators(xy, [word(xy, f"y^{k}")], killed=[0])
            expected = [word(xy, f"y^{k}")] + [
                word(xy, f"y^-{j} x y^{j}") if j else word(xy, "x") for j in range(k)
            ]
            assert same_subgroup(
                build_and_fold(xy, gens), build_and_fold(xy, expected)
            ), f"kernel differs from the explicit set at k={k}"
            for g in gens:
                assert table.image_in_quotient(g) == 1


def test_criterion_10_britton_vs_brute_force():
    with Budget(10, 60):
        z = alphabet("z")
        P = hnnforge.InputPresentation(z, (word(z, "z^2"),))
        hnn = hnnforge.build_tp(AB, 6, 6, 6, P, rho=2, mode="minimal")
        member = hnn.membership()
        base_rs = hnn.base_relator_set()
        symbols = {
            1: hnn.m_word("x"),
            2: hnn.m_word("z"),
            3: word(AB, "a"),
        }

        def realize(expr):
            out = Word(AB, ())
            for s in expr:
                img = symbols[abs(s)]
                out = out * (img if s > 0 else img.inverse())
            return out

        def brute_trivial(bw):
            # exhaustive pinch-by-pinch rewriting over all pinch choices
            frontier = [(list(bw.segments), list(bw.exponents))]
            seen = set()
            while frontier:
                segs, eps = frontier.pop()
                key = (tuple(w.letters for w in segs), tuple(eps))
                if key in seen:
                    continue
                seen.add(key)
                if not eps:
                    if word_problem(base_rs, segs[0]):
                        return True
                    continue
                for idx in range(len(eps) - 1):
                    mid = segs[idx + 1]
                    pinch = None
                    if eps[idx] == 1 and eps[idx + 1] == -1 and member.in_k(mid):
                        pinch = apply_endo(hnn.phi, mid)
                    elif eps[idx] == -1 and eps[idx + 1] == 1 and member.in_k(member.unphi(mid)):
                        pinch = apply_endo(member.phi_inv, mid)
                    if pinch is not None:
                        new_segs = (
                            segs[:idx] + [segs[idx] * pinch * segs[idx + 2]] + segs[idx + 3:]
                        )
                        new_eps = eps[:idx] + eps[idx + 2:]
                        frontier.append((new_segs, new_eps))
            return False

        inner = [t for t in _reduced_syllables(4)]
        outers = [(), (1,), (3,), (-2, 1)]
        checked = 0
        for expr in inner:
            mid = realize(expr)
            for eps_pair in ((1, -1), (-1, 1)):
                for lead in outers:
                    for tail in outers:
                        bw = hnnforge.britton_word(
                            hnn, [realize(lead), mid, realize(tail)], list(eps_pair)
                        )
                        got = hnnforge.britton_trivial(hnn, bw)
                        expected = brute_trivial(bw)
                        assert got == expected, (
                            f"disagreement on lead={lead} mid={expr} tail={tail} eps={eps_pair}"
                        )
                        checked += 1
        assert checked == len(inner) * 2 * len(outers) ** 2
        # words with aligned exponents can never pinch: spot-check a slice
        for expr in inner[:40]:
            bw = hnnforge.britton_word(
                hnn, [Word(AB, ()), realize(expr), Word(AB, ())], [1, 1]
            )
            assert not hnnforge.britton_trivial(hnn, bw)


def _reduced_syllables(max_len):
    out = []
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for t in frontier:
            for s in (1, -1, 2, -2, 3, -3):
                if t and t[-1] == -s:
                    continue
                nxt.append(t + (s,))
        out.extend(nxt)
        frontier = nxt
    return out
