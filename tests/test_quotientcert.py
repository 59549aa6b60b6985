import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import malkit
from malkit import quotientcert
from malkit.quotientcert import (
    CertificateError,
    certify_free_basis,
    certify_malnormal_in_quotient,
    certify_trivial_intersection_in_quotient,
    check_family_cyclically_reduced,
    free_conjugator,
)
from malkit.smallcancel import RelatorSet, check_metric, is_cyclically_dehn_reduced
from malkit.stallings import build_and_fold, is_malnormal
from malkit.words import Word, alphabet, cyclic_reduce, decode_letters, inverse_letters, reduced_words, word

AB = alphabet("a b")


def w(text):
    return word(AB, text)


def ws(*texts):
    return [w(t) for t in texts]


T6 = ws("a^6", "b^6", "(a b)^6")


class TestCertifyFreeBasis:
    def test_free_group_vacuous(self):
        cert = certify_free_basis(AB, [], ws("a", "b"))
        assert cert.certified

    def test_single_letter_fails_against_t6(self):
        # a is a piece of a^6; the joint metric cannot hold
        cert = certify_free_basis(AB, T6, ws("a"))
        assert not cert.certified

    def test_refuses_non_admissible_base(self):
        # a single relator with a huge self-overlap is not Dehn-admissible
        bad = ws("a b a b a b^2 a b a b a b^3")
        rs = RelatorSet(AB, bad)
        if not rs.dehn_admissible()[0]:
            with pytest.raises(CertificateError):
                certify_free_basis(AB, bad, ws("b"))

    def test_whole_basis_certifies(self):
        cert = certify_free_basis(AB, [], ws("a", "b"))
        assert cert.certified

    def test_rotation_pair_caught(self):
        # rotations of one cyclic word defeat set-valued symmetrisation;
        # the shift-class hypothesis must catch them
        cert = certify_malnormal_in_quotient(AB, [], ws("b a^-1", "a^-1 b"))
        assert not cert.certified
        assert not is_malnormal(AB, ws("b a^-1", "a^-1 b")).malnormal


class TestSharedShiftClass:
    # a b a^2 b^2 ... a^12 b^12: long enough that the joint C'(1/4) and
    # C'(1/6) hold, so only the shift-class hypothesis can refuse
    W = w(" ".join(f"a^{k} b^{k}" for k in range(1, 13)))

    @pytest.mark.parametrize("twice", [lambda v: [v, v], lambda v: [v, Word(AB, v.letters)]],
                             ids=["same-object", "equal-copy"])
    @pytest.mark.parametrize("certify", [certify_malnormal_in_quotient, certify_free_basis])
    def test_repeated_word_refused(self, certify, twice):
        cert = certify(AB, [], twice(self.W))
        assert not cert.certified
        failure = cert.first_failure()
        assert failure.name == "relator shift-classes pairwise distinct"
        assert failure.detail == f"'{str(self.W)[:30]}...' and '{str(self.W)[:30]}...' are rotations of one another"
        assert [h.name for h in cert.hypotheses if not h.ok] == [failure.name]

    def test_detail_names_earlier_word_first(self):
        cert = certify_malnormal_in_quotient(AB, ws("a^3 b^-1"), ws("a b", "b^-1 a^3"))
        failure = cert.first_failure()
        assert failure.name == "relator shift-classes pairwise distinct"
        assert failure.detail == "'a^3 b^-1' and 'b^-1 a^3' are rotations of one another"


class TestCertifyMalnormal:
    def test_proper_power_rejected(self):
        cert = certify_malnormal_in_quotient(AB, [], ws("a^2"))
        assert not cert.certified
        assert any("proper power" in h.name for h in cert.hypotheses if not h.ok)

    def test_free_group_reduces_to_wise_style(self):
        rng = random.Random(67)
        agree = 0
        trials = 0
        while trials < 100:
            gens = []
            for _ in range(rng.randrange(1, 3)):
                v = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(2, 7))])
                if v and v.is_cyclically_reduced():
                    gens.append(v)
            if not gens:
                continue
            try:
                rs = RelatorSet(AB, gens)
            except Exception:
                continue
            if not check_metric(rs, Fraction(1, 6)).ok:
                continue
            trials += 1
            cert = certify_malnormal_in_quotient(AB, [], gens)
            if cert.certified:
                agree += 1
                assert is_malnormal(AB, gens).malnormal
        assert agree > 0

    def test_t6_with_seed_words_reports_true_failure(self):
        # piece a^2 inside a^6 and a T(4) violation: the formal joint
        # condition fails, and the certificate must say so honestly
        from malkit.malchar import seed_words_triangle

        seeds = seed_words_triangle(AB, 8)
        cert = certify_malnormal_in_quotient(AB, T6, list(seeds))
        assert not cert.certified
        failure = cert.first_failure()
        assert failure is not None and "small-cancellation" in failure.name


class TestFamilyCheck:
    def test_bound_too_small(self):
        with pytest.raises(CertificateError):
            check_family_cyclically_reduced(AB, T6, ws("a"), 2)

    def test_no_relators_unconditional(self):
        v = check_family_cyclically_reduced(AB, [], ws("a b", "b a^2"), 3)
        assert v.ok and v.unconditional

    def test_relator_killed_family(self):
        # a^3 b words over t = {a^3 b} hit the a^6 relator half? no:
        # (a^3 b)^2 contains a^3 only; check a family that genuinely fails
        v = check_family_cyclically_reduced(AB, ws("a^6"), ws("a^5 b"), 3)
        assert not v.ok  # a^5 b contains a^4 > half of a^6

    def test_seed_family_unconditional(self):
        # seed blocks dwarf the relator halves, so the window-3 scan is
        # unconditionally sufficient
        from malkit.malchar import seed_words_triangle

        v = check_family_cyclically_reduced(
            AB, T6, list(seed_words_triangle(AB, 8)), 3
        )
        assert v.ok and v.unconditional and v.caveat is None

    def test_other_alphabet_refused(self):
        # t-words are spelled on the byte code, which carries no alphabet
        xy = alphabet("x y")
        base = RelatorSet(xy, [word(xy, "x^6")])
        with pytest.raises(CertificateError, match="different alphabet"):
            check_family_cyclically_reduced(AB, [], ws("a^5 b"), 3, base=base)
        with pytest.raises(CertificateError, match="different alphabet"):
            check_family_cyclically_reduced(AB, T6, [w("a"), word(xy, "x y")], 3)

    def test_t6_a3b_family(self):
        v = check_family_cyclically_reduced(AB, ws("a^6"), ws("a^3 b"), 3)
        # a^3 b * a^3 b never accumulates more than a^3: verdict yes,
        # but blocks are short so only the bounded claim is made
        assert v.ok
        assert not v.unconditional
        assert v.caveat is not None

    @pytest.mark.parametrize("r", [T6, []])
    def test_empty_family_is_vacuously_fine(self, r):
        # no t-words: no word to check, and no t-letter for the block
        # criterion to measure
        v = check_family_cyclically_reduced(AB, r, [], 3)
        assert (v.ok, v.unconditional, v.caveat, v.witness, v.checked_words) == (True, True, None, None, 0)


def _family_by_tuples(alpha, r, t, bound):
    """The family check spelled on letter tuples, every t-word a Word
    freely reduced from its spelling: (ok, witness, checked_words,
    unconditional)."""
    base = RelatorSet(alpha, r)
    images = {k: v.letters for k, v in enumerate(t, 1)}
    images.update({-k: inverse_letters(v) for k, v in list(images.items())})
    checked = 0
    for expr in reduced_words(len(t), bound):
        wv = Word(alpha, [x for k in decode_letters(expr) for x in images[k]])
        checked += 1
        if not wv or not is_cyclically_dehn_reduced(base, wv):
            return False, wv, checked, False
    return True, None, checked, quotientcert._block_criterion(base, t) if r else True


# nonempty and distinct; about half of these families fail
_SHORT_WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=2, max_size=8).map(
    lambda raw: Word(AB, raw)).filter(bool)


class TestFamilyAgainstTuples:
    """The family check spells t-words on the byte code; every field of its
    verdict must equal the tuple spelling's, failing families included."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_SHORT_WORDS, min_size=1, max_size=3, unique_by=lambda v: v.letters),
           st.sampled_from([3, 4]))
    @example([Word(AB, ()), Word(AB, (1, 2))], 3)  # an empty t-word fails at once
    @example([Word(AB, (1, 2)), Word(AB, (1, 2, 1, 2))], 3)  # a commuting pair
    @example([Word(AB, (1, 2, -1)), Word(AB, (1, 2, 2, -1))], 3)
    def test_random_families(self, t, bound):
        v = check_family_cyclically_reduced(AB, T6, t, bound)
        assert (v.ok, v.witness, v.checked_words, v.unconditional) == \
            _family_by_tuples(AB, T6, t, bound)

    def test_one_call_per_checked_word(self, monkeypatch):
        # the benchmark's tracer counts is_cyclically_dehn_reduced calls
        # under the family check; each checked word must be one call
        calls = []
        original = quotientcert.is_cyclically_dehn_reduced

        def counting(rs, v):
            calls.append(v)
            return original(rs, v)

        monkeypatch.setattr(quotientcert, "is_cyclically_dehn_reduced", counting)
        from malkit.malchar import seed_words_triangle

        for t in (list(seed_words_triangle(AB, 8)), ws("a^5 b"), ws("a^3 b", "b^2 a")):
            calls.clear()
            v = check_family_cyclically_reduced(AB, T6, t, 3)
            assert v.checked_words == len(calls) > 0


class TestTrivialIntersectionCertificate:
    def test_free_case_trivial(self):
        cert = certify_trivial_intersection_in_quotient(AB, [], ws("a"), ws("b"))
        assert cert.certified
        assert cert.data["free_verdict"] == "trivial"

    def test_conjugates_detected(self):
        cert = certify_trivial_intersection_in_quotient(AB, [], ws("a"), ws("b a^2 b^-1"))
        assert cert.certified
        assert cert.data["free_verdict"] == "intersects"

    def test_basis_read_from_the_folded_t(self):
        # a commuting pair generates a cyclic group: the transfer's fold of t
        # has rank one, so the basis hypothesis fails; a non-commuting pair
        # and a triple of free generators' words pass
        for t, basis in ((ws("a b", "a b a b"), False), (ws("a b", "b a"), True),
                         (ws("a", "b", "a b"), False), (ws("a^2", "b^2", "a b"), True)):
            cert = certify_trivial_intersection_in_quotient(AB, [], ws("a"), t)
            (hyp,) = [h for h in cert.hypotheses if h.name == "t-words form a free basis"]
            assert hyp.ok == basis
            assert hyp.detail == ("" if basis else "folded rank differs from |t|")
            assert cert.certified == basis

    def test_failed_transfer_keeps_free_verdict(self):
        names = ["a", "b"] + [f"x{i}" for i in range(1, 5)] + [f"y{i}" for i in range(1, 5)]
        X = alphabet(" ".join(names))

        def comm(i):
            return f"x{i}^-1 y{i}^-1 x{i} y{i}"

        ab_chain = " ".join(f"a b^{k}" if k > 1 else "a b" for k in range(1, 8))
        R = word(X, " ".join(comm(i) for i in range(1, 5)))
        S = word(X, " ".join(comm(i) for i in (1, 2)) + " " + ab_chain)
        T = word(X, ab_chain + " (" + " ".join(comm(i) for i in (3, 4)) + ")^-1")
        cert = certify_trivial_intersection_in_quotient(X, [R], [S], [T], 3)
        assert not cert.certified
        assert cert.data["free_verdict"] == "trivial"  # S and T are not freely conjugate
        assert any("does not lift" in c for c in cert.caveats)


class TestFreeConjugator:
    def test_rotation(self):
        assert free_conjugator(w("a b"), w("b a")) == w("a")

    def test_none_for_different_letters(self):
        assert free_conjugator(w("a"), w("b")) is None

    def test_unwrap(self):
        assert free_conjugator(w("b^-1 a b"), w("a")) == w("b^-1")

    def test_verified_on_random_conjugates(self):
        rng = random.Random(71)
        for _ in range(80):
            u = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 8))])
            g = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(6))])
            if not u:
                continue
            v = g.inverse() * u * g
            found = free_conjugator(u, v)
            assert found is not None
            assert found.inverse() * u * found == v


class TestConjugatorCheck:
    """free_conjugator re-checks W^-1 u W = v before returning W; a failure
    is a typed error, also under python -O."""

    def test_bad_conjugator(self, monkeypatch):
        # dropping the peeled conjugator a^-1 of u = a b a^-1 makes W = 1
        monkeypatch.setattr(quotientcert, "cyclic_reduce", lambda x: (cyclic_reduce(x)[0], Word(AB, ())))
        with pytest.raises(CertificateError, match="does not conjugate"):
            free_conjugator(w("a b a^-1"), w("b"))

    def test_check_survives_optimised_python(self):
        code = (
            "from malkit import quotientcert\n"
            "from malkit.words import Word, alphabet, cyclic_reduce, word\n"
            "AB = alphabet('a b')\n"
            "quotientcert.cyclic_reduce = lambda x: (cyclic_reduce(x)[0], Word(AB, ()))\n"
            "try:\n"
            "    quotientcert.free_conjugator(word(AB, 'a b a^-1'), word(AB, 'b'))\n"
            "    raised = 0\n"
            "except quotientcert.CertificateError:\n"
            "    raised = 1\n"
            "print(__debug__, raised)\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "1"], out.stderr
