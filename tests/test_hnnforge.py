import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import malkit
from malkit import cosetenum, hnnforge, presfile, smallcancel, stallings
from malkit.cosetenum import todd_coxeter
from malkit.hnnforge import (
    HnnError,
    InputPresentation,
    britton_reduce,
    britton_trivial,
    britton_word,
    build_tp,
    free_product_morphism,
    hat_presentation,
    quotient_morphism,
    residual_witness,
)
from malkit.stallings import build_and_fold, same_subgroup
from malkit.words import Alphabet, Word, alphabet, apply_endo, reduced_words, signed_letters, word

AB = alphabet("a b")
Z = alphabet("z")


def pres(gens, rels=()):
    return hnnforge.presentation(gens, rels)


@pytest.fixture(scope="module")
def tp2():
    """The rank-two extension over the order-two cyclic input, small seeds."""
    return build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal")


class TestHatPresentation:
    def test_pq_mode(self):
        hat = hat_presentation(pres("z", ["z^3"]), "pq")
        assert hat.presentation.alphabet.names == ("z", "p", "q")
        assert [str(r) for r in hat.presentation.relators] == ["z^3", "p", "q"]

    def test_pq_mode_padding_takes_the_first_family_words(self):
        # pq is the one mode whose hat order (z, p, q) is not the family order
        from malkit.malchar import rank_n_family, seed_words_triangle

        hnn = build_tp(AB, 6, 6, 6, pres("z", ["z^3"]), rho=2, mode="pq")
        family = rank_n_family(seed_words_triangle(AB, 2), 3, r=hnn.base_relators).words
        assert [hnn.m_word(n) for n in ("p", "q", "z")] == list(family[:3])
        assert hnn.m_gens == tuple(map(hnn.m_word, hnn.hat_alphabet.names))

    def test_minimal_mode_one_padding(self):
        hat = hat_presentation(pres("z", ["z^3"]), "minimal")
        assert hat.presentation.alphabet.names == ("x", "z")
        assert [str(r) for r in hat.presentation.relators] == ["x", "z^3"]
        assert hat.padding == ("x",)

    def test_minimal_mode_unchanged(self):
        hat = hat_presentation(pres("a b", ["a^-1 b^-1 a b"]), "minimal")
        assert hat.presentation.alphabet.names == ("a", "b")
        assert hat.padding == ()

    def test_minimal_empty_presentation(self):
        hat = hat_presentation(pres("z"), "minimal")
        assert len(hat.presentation.alphabet) == 2
        assert len(hat.presentation.relators) == 1

    def test_name_collisions_are_avoided(self):
        hat = hat_presentation(pres("p q", ["p^2"]), "pq")
        assert len(set(hat.presentation.alphabet.names)) == 4


def _respell_by_letters(src, dst, letters):
    """The letter-tuple respelling that the translation of the code replaced."""
    trans = [dst.index(n) + 1 for n in src.names]
    return tuple(trans[x - 1] if x > 0 else -trans[-x - 1] for x in letters)


@st.composite
def _respell_cases(draw):
    # a shuffled wider alphabet, up to 80 generators so that code points
    # pass 127, a sub-alphabet of it in its own random order, and a random
    # reduced word over the sub-alphabet
    wide = draw(st.permutations([f"g{i}" for i in range(draw(st.integers(1, 80)))]))
    names = draw(st.permutations(wide))[:draw(st.integers(0, len(wide)))]
    src = Alphabet(tuple(names))
    letters = draw(st.lists(st.sampled_from(list(signed_letters(len(src)))), max_size=40)) if names else []
    return Word(src, letters), Alphabet(tuple(wide))


class TestRespell:
    @given(_respell_cases())
    def test_code_translation_matches_the_letter_mapping(self, case):
        w, dst = case
        got = hnnforge._respell(w, dst)
        assert got.alphabet is dst
        assert got.letters == _respell_by_letters(w.alphabet, dst, w.letters)
        assert got.code == Word(dst, got.letters).code  # still freely reduced


class TestBuildTp:
    def test_intro_schema_kernel(self, tp2):
        hat = tp2.hat_alphabet
        expected = [word(hat, "z^2"), word(hat, "x"), word(hat, "z^-1 x z")]
        assert same_subgroup(
            build_and_fold(hat, list(tp2.assoc_abstract)),
            build_and_fold(hat, expected),
        )

    def test_equilateral_phi_order_three(self, tp2):
        assert tp2.phi_order == 3
        assert str(tp2.phi.images[0]) == "b"

    def test_scalene_phi_inversion(self):
        hnn = build_tp(AB, 6, 7, 8, pres("z", ["z^2"]), rho=2, mode="minimal")
        assert hnn.phi_order == 2
        assert str(hnn.phi.images[0]) == "a^-1"

    def test_kernel_generators_lie_in_family(self):
        # build_tp does not check this itself: assoc_concrete spells each
        # kernel generator through the family words
        for mode in ("pq", "minimal"):
            for k in range(2, 6):
                hnn = build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=2, mode=mode)
                g = build_and_fold(AB, list(hnn.m_gens))
                assert all(map(g.contains, hnn.assoc_concrete))

    def test_pq_mode_rank_three(self):
        hnn = build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="pq")
        assert len(hnn.m_gens) == 3
        assert hnn.table.index == 2

    def test_infinite_quotient_truncates(self):
        # <z | > pads to <x, z | x>, which maps onto Z: nothing is
        # truncated, K is the normal closure of x in M, and membership
        # decides it by free reduction once x is deleted.  Every conjugate
        # z^-m x z^m is in K, and no z^m with m != 0 is
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        assert hnn.table is None and hnn.assoc_abstract == hnn.hat.presentation.relators
        member = hnn.membership()
        assert member.route == "free reduction"
        for m in range(-3, 4):
            assert member.in_k(hnn.substitute(word(hnn.hat_alphabet, f"z^{-m} x z^{m}")))
            assert member.in_k(hnn.substitute(word(hnn.hat_alphabet, f"z^{m}"))) is (m == 0)

    def test_truncated_kernel_golden(self):
        # <z | > pads to <x, z | x>: the file lists the one padded relator,
        # whose normal closure in M is K, and its spelling through the
        # family words
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        assert [u.letters for u in hnn.assoc_abstract] == [(1,)]

        def digest(words):
            return hashlib.sha256(json.dumps([list(u.letters) for u in words]).encode()).hexdigest()[:16]

        assert hnn.assoc_concrete == (hnn.m_word("x"),)
        assert digest(hnn.assoc_concrete) == "e9786bb640636756"
        assert hnn.hnn_relator_texts() == [f"t (x) t^-1 ({apply_endo(hnn.phi, hnn.m_word('x'))})^-1"]

    @pytest.mark.parametrize("gens, rels", [("z", []), ("y z", ["y z y^-1 z^-1"]), ("y z", ["y^3", "z y z^-1 y"]),
                                            ("y z", ["y z^2"]), ("y z", ["y^2 z^4"])])
    def test_visibly_infinite_skips_enumeration(self, monkeypatch, gens, rels):
        # an exponent-sum matrix of the padded relators with rank below the
        # number of generators maps the quotient onto Z, so the padded
        # relators are listed at once: with a zero column (z in <x, z | x>, y and z
        # in <y, z | [y, z]>, z in <y, z | y^3, z y z^-1 y>) or without one
        # (the inputs <y, z | y z^2> and <y, z | y^2 z^4> have rank 1 in two
        # generators)
        def never(*args, **kwargs):
            raise AssertionError("todd_coxeter called on a visibly infinite quotient")

        monkeypatch.setattr(hnnforge, "todd_coxeter", never)
        hnn = build_tp(AB, 6, 6, 6, pres(gens, rels), rho=2, mode="minimal")
        assert hnn.table is None and hnn.assoc_abstract == hnn.hat.presentation.relators

    def test_finite_quotient_still_enumerates(self):
        assert not hnnforge._maps_onto_z(hat_presentation(pres("z", ["z^2"]), "pq").presentation)
        assert not hnnforge._maps_onto_z(hat_presentation(pres("y z", ["y^2", "z^3", "(y z)^2"]), "minimal").presentation)

    @pytest.mark.parametrize("gens, rels, onto_z", [
        ("y z", ["y z", "y z^-1"], False),  # Z/2, determinant -2
        ("y z", ["y z^2", "y^2 z^4"], True),  # second row twice the first
        ("x y z", ["x y", "y z", "x z^-1"], True),  # third row: first minus second
        ("x y z", ["x y", "y z", "x z"], False),  # determinant 2
        ("y z", [], True),
    ])
    def test_exponent_sum_rank(self, gens, rels, onto_z):
        assert hnnforge._maps_onto_z(pres(gens, rels)) is onto_z

    def test_britton_refuses_truncated(self):
        # <z | > has no coset table, and Britton reduction decides over it:
        # t x t^-1 phi(x)^-1 pinches to the identity, t z t^-1 stays reduced
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        e = Word(AB, ())
        x, z = hnn.m_word("x"), hnn.m_word("z")
        assert britton_trivial(hnn, britton_word(hnn, [e, x, apply_endo(hnn.phi, x).inverse()], [1, -1]))
        reduced, log = britton_reduce(hnn, britton_word(hnn, [e, z, e], [1, -1]))
        assert reduced.stable_count == 2 and not log

    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("rels", [["z^2"], []])
    def test_cap_below_one_refused(self, cap, rels):
        # <z | > maps onto Z and skips enumeration, so build_tp checks the
        # cap itself
        with pytest.raises(HnnError, match="at least 1"):
            build_tp(AB, 6, 6, 6, pres("z", rels), rho=2, mode="minimal", max_cosets=cap)

    def test_cap_one_truncates(self, tp2):
        # the padded quotient of <z | z^2> has two cosets, so it overflows
        # a cap of one: the padded relators are listed, x is deleted, and
        # Dehn's algorithm over z^2 decides what the coset table decides
        hnn = build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal", max_cosets=1)
        assert hnn.table is None and [str(u) for u in hnn.assoc_abstract] == ["x", "z^2"]
        assert hnn.m_gens == tp2.m_gens
        member, tabled = hnn.membership(), tp2.membership()
        assert member.route == "Dehn's algorithm under C'(1/6)"
        rng = random.Random(2)
        verdicts = set()
        for _ in range(200):
            h = Word(AB, ())
            for _ in range(rng.randint(1, 5)):
                h = h * rng.choice(hnn.m_gens) ** rng.choice((1, -1))
            verdicts.add(member.in_k(h))
            assert member.in_k(h) == tabled.in_k(h), h
        assert verdicts == {True, False}

    def test_m_folded_once(self, monkeypatch):
        # build_tp does not fold M; membership's rewriter folds it once,
        # and nothing folds it again
        folded = []

        def counting(alpha, gens):
            folded.append(list(gens))
            return build_and_fold(alpha, gens)

        monkeypatch.setattr(hnnforge, "build_and_fold", counting)
        monkeypatch.setattr(stallings, "build_and_fold", counting)
        hnn = build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal")
        m = list(hnn.m_gens)
        assert folded.count(m) == 0 and "rewriter" not in vars(hnn)
        member = hnn.membership()
        assert member.rewriter is hnn.rewriter and folded.count(m) == 1
        assert member.in_k(hnn.assoc_concrete[0]) and not member.in_k(word(AB, "a"))
        assert folded.count(m) == 1

    def test_morphisms_build_no_rewriter(self, monkeypatch):
        built = []
        monkeypatch.setattr(stallings.BasisRewriter, "__init__",
                            lambda *args: built.append(args) or pytest.fail("rewriter built"))
        data = quotient_morphism(AB, 6, 6, 6, pres("z", ["z^4"]), pres("z", ["z^2"]), rho=2)
        assert data.extra_abstract and not built

    def test_low_exponent_rejected(self):
        with pytest.raises(HnnError):
            build_tp(AB, 5, 6, 6, pres("z", ["z^2"]), rho=2)

    @pytest.mark.parametrize("gens, rels, mode", [("a", ["a^2"], "pq"), ("b z", ["z^2"], "minimal"),
                                                  ("t", ["t^3"], "minimal")])
    def test_hat_names_must_not_collide(self, gens, rels, mode):
        # a hat generator named like a base generator or the stable letter
        # would make an HNN file that no parser reads back
        with pytest.raises(HnnError, match="collide"):
            build_tp(AB, 6, 6, 6, pres(gens, rels), rho=2, mode=mode)

    def test_reproduces_intro_relator_count(self):
        for k in (2, 3, 4):
            hnn = build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=2, mode="minimal")
            # kernel of F(x, z) -> Z/k has rank 1 + k (Nielsen-Schreier)
            g = build_and_fold(hnn.hat_alphabet, list(hnn.assoc_abstract))
            assert g.rank() == 1 + k


class TestBuildTpChecks:
    """endo_order_in_quotient re-checks that the base automorphism
    preserves the relators; a failure is a typed error, also under
    python -O."""

    def test_relator_not_preserved(self, monkeypatch):
        monkeypatch.setattr(smallcancel, "word_problem", lambda rs, w: False)
        with pytest.raises(smallcancel.SmallCancelError, match="does not preserve"):
            build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal")

    def test_checks_survive_optimised_python(self):
        code = (
            "from malkit import hnnforge, smallcancel\n"
            "from malkit.words import alphabet\n"
            "AB = alphabet('a b')\n"
            "P = hnnforge.presentation('z', ['z^2'])\n"
            "raised = []\n"
            "smallcancel.word_problem = lambda rs, w: False\n"
            "try:\n"
            "    hnnforge.build_tp(AB, 6, 6, 6, P, rho=2, mode='minimal')\n"
            "except smallcancel.SmallCancelError:\n"
            "    raised.append('word_problem')\n"
            "print(__debug__, len(raised))\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "1"], out.stderr


class TestMorphisms:
    def test_quotient_z4_to_z2(self):
        data = quotient_morphism(
            AB, 6, 6, 6, pres("z", ["z^4"]), pres("z", ["z^2"]), rho=2, mode="minimal"
        )
        hat = alphabet("x z")
        assert any(u == word(hat, "z^2") for u in data.extra_abstract)

    def test_equal_presentations_rejected(self):
        with pytest.raises(HnnError, match="proper"):
            quotient_morphism(
                AB, 6, 6, 6, pres("z", ["z^2"]), pres("z", ["z^2"]), rho=2, mode="minimal"
            )

    def test_non_quotient_rejected(self):
        with pytest.raises(HnnError, match="quotient"):
            quotient_morphism(
                AB, 6, 6, 6, pres("z", ["z^2"]), pres("z", ["z^3"]), rho=2, mode="minimal"
            )

    def test_truncated_source_emits_schema_difference(self):
        # a kernel comparison needs both coset tables: <z | > maps onto Z,
        # so it is refused as source and as target; over <z | z^6> the
        # difference is z^3
        for source, target in (([], ["z^3"]), (["z^6"], [])):
            with pytest.raises(HnnError, match="coset table"):
                quotient_morphism(AB, 6, 6, 6, pres("z", source), pres("z", target), rho=2, mode="minimal")
        data = quotient_morphism(AB, 6, 6, 6, pres("z", ["z^6"]), pres("z", ["z^3"]), rho=2, mode="minimal")
        assert [str(u) for u in data.extra_abstract] == ["z^3"]

    def test_functoriality_chain(self):
        # P1 -> P2 -> P3 composed relators generate the same kernel piece
        # as the direct morphism P1 -> P3
        p1, p2, p3 = pres("z", ["z^8"]), pres("z", ["z^4"]), pres("z", ["z^2"])
        d12 = quotient_morphism(AB, 6, 6, 6, p1, p2, rho=2, mode="minimal")
        d23 = quotient_morphism(AB, 6, 6, 6, p2, p3, rho=2, mode="minimal")
        d13 = quotient_morphism(AB, 6, 6, 6, p1, p3, rho=2, mode="minimal")
        hat = alphabet("x z")
        h1 = build_tp(AB, 6, 6, 6, p1, rho=2, mode="minimal")
        base = list(h1.assoc_abstract)
        composed = build_and_fold(hat, base + d12.extra_abstract + d23.extra_abstract)
        direct = build_and_fold(hat, base + d13.extra_abstract)
        assert same_subgroup(composed, direct)

    def test_free_product_adds_block_relators(self):
        # Z/2 * Z is infinite and has no coset table, so the morphism is
        # refused; with the trivial factor <w | w> every extra relator is
        # a block relator that involves w
        with pytest.raises(HnnError, match="coset table"):
            free_product_morphism(AB, 6, 6, 6, pres("z", ["z^2"]), pres("w"), rho=2)
        data = free_product_morphism(AB, 6, 6, 6, pres("z", ["z^2"]), pres("w", ["w"]), rho=2)
        assert [str(u) for u in data.extra_abstract] == ["w", "z w z^-1"]
        assert all("w" in str(u) for u in data.extra_abstract)

    def test_trivial_free_factor_no_extras(self):
        empty = InputPresentation(alphabet(()), ())
        data = free_product_morphism(AB, 6, 6, 6, pres("z", ["z^2"]), empty, rho=2)
        assert data.extra_abstract == []

    def test_nested_family_prefixes(self):
        from malkit.malchar import rank_n_family, seed_words_triangle

        seed = seed_words_triangle(AB, 2)
        for n in range(3, 8):
            small = rank_n_family(seed, n)
            big = rank_n_family(seed, n + 1)
            assert big.words[:n] == small.words


class TestBritton:
    def test_defining_relator_trivial(self, tp2):
        x = tp2.m_word("x")
        phi_x = apply_endo(tp2.phi, x)
        bw = britton_word(tp2, [Word(AB, ()), x, phi_x.inverse()], [1, -1])
        assert britton_trivial(tp2, bw)

    def test_base_generator_not_pinchable(self, tp2):
        bw = britton_word(tp2, [Word(AB, ()), word(AB, "a"), Word(AB, ())], [1, -1])
        reduced, log = britton_reduce(tp2, bw)
        assert reduced.stable_count == 2 and not log
        assert not britton_trivial(tp2, bw)

    def test_m_but_not_k_not_pinchable(self, tp2):
        z = tp2.m_word("z")
        bw = britton_word(tp2, [Word(AB, ()), z, Word(AB, ())], [1, -1])
        reduced, _ = britton_reduce(tp2, bw)
        assert reduced.stable_count == 2

    def test_k_element_pinches(self, tp2):
        z = tp2.m_word("z")
        bw = britton_word(tp2, [Word(AB, ()), z * z, Word(AB, ())], [1, -1])
        reduced, log = britton_reduce(tp2, bw)
        assert reduced.stable_count == 0
        assert log[0].kind == "t k t^-1"

    def test_inverse_pinch(self, tp2):
        z = tp2.m_word("z")
        phi_z2 = apply_endo(tp2.phi, z * z)
        bw = britton_word(tp2, [Word(AB, ()), phi_z2, Word(AB, ())], [-1, 1])
        reduced, log = britton_reduce(tp2, bw)
        assert reduced.stable_count == 0
        assert log[0].kind == "t^-1 phi(k) t"

    def test_never_increases_stable_letters(self, tp2):
        z = tp2.m_word("z")
        x = tp2.m_word("x")
        segs = [Word(AB, ()), z * z, x, Word(AB, ())]
        bw = britton_word(tp2, segs, [1, -1, 1])
        reduced, _ = britton_reduce(tp2, bw)
        assert reduced.stable_count <= 3

    def test_exponent_sum_obstruction(self, tp2):
        # one stable letter can never cancel
        bw = britton_word(tp2, [Word(AB, ()), Word(AB, ())], [1])
        assert not britton_trivial(tp2, bw)

    def test_nested_pinch_stops_at_phi_image(self, tp2):
        # t^2 k t^-2: the inner pair pinches, but phi(k) does not lie in K,
        # so the outer pair survives
        z = tp2.m_word("z")
        e = Word(AB, ())
        bw = britton_word(tp2, [e, e, z * z, e, e], [1, 1, -1, -1])
        reduced, log = britton_reduce(tp2, bw)
        assert len(log) == 1 and reduced.stable_count == 2
        member = tp2.membership()
        assert not member.in_k(apply_endo(tp2.phi, z * z))

    # t^2 t^-2 is trivial and t^0 is no stable letter at all: a word with
    # such exponents was read with no pinch and called nontrivial
    def test_exponent_two_refused(self, tp2):
        e = Word(AB, ())
        with pytest.raises(HnnError, match="1 or -1"):
            britton_word(tp2, [e, e, e], [2, -2])

    def test_exponent_zero_refused(self, tp2):
        e = Word(AB, ())
        with pytest.raises(HnnError, match="1 or -1"):
            britton_word(tp2, [e, e], [0])

    def test_foreign_segment_refused(self, tp2):
        # a segment over another alphabet was called nontrivial
        e = Word(AB, ())
        with pytest.raises(HnnError, match="base alphabet"):
            britton_word(tp2, [e, word(alphabet("x y"), "x y"), e], [1, -1])


class TestPinchMaps:
    """A t k t^-1 pinch reads phi(k) off the hat spelling that in_k made,
    when k is Dehn-reduced as written; a t^-1 h t pinch reuses the phi^-1
    image that unphi memoised.  Both give the code of the substitution."""

    @staticmethod
    def fresh():
        # membership memoises per extension, so each call-count test
        # starts from its own
        H = build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal")
        return H, H.membership()

    def test_corpus_digest(self):
        # reduced text and pinch log of 180 seeded words over eight built
        # extensions and one read from a file, pinned from letter-by-letter
        # substitution at every pinch
        assert _corpus_digest(_corpus_extensions()) == "286402e3f8669818"

    def test_pq_corpus_digest(self):
        # the same corpus over the pq extensions, the one mode where the hat
        # order (z, p, q) is not the family order (p, q, z); pinned from
        # m_gens kept in family order
        assert _corpus_digest(_pq_extensions()) == "1ab5e61d5cea0c9d"

    @pytest.mark.parametrize("k", [2, 5])
    def test_spelled_phi_is_the_substitution(self, k):
        H = build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=2, mode="minimal")
        member = H.membership()
        spelled = 0
        for bw in _pinch_corpus(H, k, 20):
            for h in bw.segments[1:]:
                if member.in_k(h):
                    spelled += h.code in member._spelled
                    assert member.phi_k(h) == apply_endo(H.phi, h)
        assert spelled >= 8

    def test_unreduced_k_element_falls_back(self):
        H, member = self.fresh()
        h = H.assoc_concrete[0] * word(AB, "a^6")
        assert smallcancel.dehn_reduce(member.rs, h) != h
        assert member.in_k(h) and h.code not in member._spelled
        assert member.phi_k(h) == apply_endo(H.phi, h)
        e = Word(AB, ())
        reduced, log = britton_reduce(H, britton_word(H, [e, h, e], [1, -1]))
        assert len(log) == 1 and reduced.segments[0] == apply_endo(H.phi, h)

    def counting(self, monkeypatch):
        calls = []

        def apply(e, w):
            calls.append(e)
            return apply_endo(e, w)

        monkeypatch.setattr(hnnforge, "apply_endo", apply)
        return calls

    def test_reduced_k_pinch_substitutes_nothing(self, monkeypatch):
        H, member = self.fresh()
        z = H.m_word("z")
        calls = self.counting(monkeypatch)
        e = Word(AB, ())
        reduced, log = britton_reduce(H, britton_word(H, [e, z * z, e], [1, -1]))
        assert len(log) == 1 and reduced.segments[0] == apply_endo(H.phi, z * z)
        assert not [c for c in calls if c is H.phi]

    def test_phi_k_pinch_applies_phi_inverse_once(self, monkeypatch):
        H, member = self.fresh()
        phi_z2 = apply_endo(H.phi, H.m_word("z") ** 2)
        calls = self.counting(monkeypatch)
        e = Word(AB, ())
        reduced, log = britton_reduce(H, britton_word(H, [e, phi_z2, e], [-1, 1]))
        assert [p.kind for p in log] == ["t^-1 phi(k) t"] and reduced.segments[0] == H.m_word("z") ** 2
        assert len(calls) == 1 and calls[0] is member.phi_inv


def _pinch_corpus(H, seed, count):
    """Seeded Britton words over ``H``: t K t^-1 and t^-1 phi(K) t pinches,
    a chain in which the first pinch exposes the second, K elements times a
    base relator (in K, but not Dehn-reduced as written), and words that do
    not pinch.  K elements are products of conjugates c u c^-1 of signed
    kernel generators u by signed family words c."""
    rng = random.Random(seed)
    base = H.base_alphabet
    e = Word(base, ())
    # family words by hat name, so the corpus does not depend on the order of m_gens
    fam = [H.m_word(n) ** s for n in H.hat_alphabet.names for s in (1, -1)]
    gens = [u ** s for u in H.assoc_concrete for s in (1, -1)]
    relator = H.base_relators[0]

    def k_element():
        h = e
        for _ in range(rng.randint(1, 2)):
            c = rng.choice(fam + [e])
            h = h * c * rng.choice(gens) * c.inverse()
        return h

    def short():
        return Word(base, [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 4))])

    out = []
    for i in range(count):
        h, phi_h = k_element(), None
        case = i % 5
        if case == 0:
            segs, eps = [short(), h, short()], [1, -1]
        elif case == 1:
            segs, eps = [short(), apply_endo(H.phi, h), short()], [-1, 1]
        elif case == 2:
            phi_h = apply_endo(H.phi, k_element())
            segs, eps = [short(), h, short(), phi_h, short()], [1, -1, -1, 1]
        elif case == 3:
            segs, eps = [short(), h * relator, short()], [1, -1]
        else:
            segs, eps = [short(), rng.choice(fam) * short(), short(), h, short()], [-1, 1, 1, -1]
        out.append(britton_word(H, segs, eps))
    return out


def _corpus_extensions():
    for k in (2, 3, 4, 5):
        for rho in (2, 8):
            yield f"z^{k} rho={rho}", build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=rho, mode="minimal")
    text = resources.files("malkit.fixtures").joinpath("tp_p2.pres").read_text()
    yield "tp_p2.pres", presfile.parsed_to_hnn(presfile.parse_presentation(text))


def _pq_extensions():
    for k in (2, 3, 4, 5):
        yield f"pq z^{k} rho=2", build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=2, mode="pq")


def _corpus_digest(extensions):
    """sha256 over every corpus word's reduced text and pinch log."""
    digest = hashlib.sha256()
    for seed, (name, H) in enumerate(extensions):
        for bw in _pinch_corpus(H, seed, 20):
            reduced, log = britton_reduce(H, bw)
            digest.update(json.dumps([name, reduced.text(H.stable),
                                      [[p.position, p.kind, list(p.pinched.letters)] for p in log]]).encode())
    return digest.hexdigest()[:16]


class TestMembershipOracle:
    def test_pq_mode_kernel_membership(self):
        hnn = build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="pq")
        member = hnn.membership()
        p_w, q_w, z_w = (hnn.m_word(n) for n in ("p", "q", "z"))
        assert member.in_k(p_w) and member.in_k(q_w)  # killed generators
        assert not member.in_k(z_w)                   # order two survivor
        assert member.in_k(z_w * z_w)
        assert member.in_k(z_w.inverse() * p_w * z_w)
        assert not member.in_k(word(AB, "a"))
        assert not member.in_k(word(AB, "1") * z_w * word(AB, "a"))

    @given(factors=st.lists(st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), max_size=8))
    def test_abstract_image_spells_the_element(self, tp2, factors):
        # M is free on the family words, so an element of M has one reduced
        # spelling over the hat letters, and it substitutes back to the element
        names = tp2.hat_alphabet.names
        h = Word(AB, ())
        letters = []
        for i, s in factors:
            name = names[i % len(names)]
            h = h * tp2.m_word(name) ** s
            letters.append(s * (tp2.hat_alphabet.index(name) + 1))
        abstract = tp2.membership().abstract_image(h)
        assert abstract == Word(tp2.hat_alphabet, letters)
        assert tp2.substitute(abstract) == h
        assert tp2.membership().abstract_image(h * word(AB, "a")) is None

    def test_rewriter_round_trips_across_ranks(self):
        import random

        from malkit.malchar import rank_n_family, seed_words_triangle
        from malkit.stallings import BasisRewriter

        for n in (2, 3, 4):
            fam = rank_n_family(seed_words_triangle(AB, 2), n)
            rw = BasisRewriter(AB, fam.words)
            rng = random.Random(n)
            for _ in range(8):
                target = Word(AB, ())
                expr = [(rng.randrange(n), rng.choice([1, -1])) for _ in range(rng.randrange(1, 6))]
                for i, s in expr:
                    target = target * fam.words[i] ** s
                assert rw.rewrite(target) is not None


class TestTableFreeRoutes:
    """Membership without a coset table, checked against quotients that
    have one.  A hat word w is read through its substitution, so each
    check runs the whole of in_k: Dehn reduction, rewriting over M and the
    padded quotient's word problem."""

    def test_free_route_agrees_with_finite_cyclic_quotients(self):
        # K for <z | > is the kernel onto Z; K for <z | z^n> is the kernel
        # onto Z/n, which contains it.  A word outside K has a z-exponent
        # sum s with 0 < |s| <= 6, and z^7 does not divide it
        free = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        cyclic = [build_tp(AB, 6, 6, 6, pres("z", [f"z^{n}"]), rho=2, mode="minimal") for n in range(2, 8)]
        assert all(H.m_gens == free.m_gens for H in cyclic)
        member, members = free.membership(), [H.membership() for H in cyclic]
        inside = 0
        for code in ["", *reduced_words(2, 6)]:
            h = free.substitute(Word.from_code(free.hat_alphabet, code))
            verdicts = [m.in_k(h) for m in members]
            if member.in_k(h):
                inside += 1
                assert all(verdicts), code
            else:
                assert not all(verdicts), code
        assert inside == 237

    def test_dehn_route_agrees_with_finite_quotients(self):
        # <z, w | z^2> is Z/2 * Z; its quotients <z, w | z^2, w^n, (z w)^2>
        # (dihedral, n = 2..6) and <z, w | z^2, w^3, (z w)^m> (A4, S4, A5)
        # separate every nontrivial word of length at most 4, so they decide
        # the route's verdicts both ways
        H = build_tp(AB, 6, 6, 6, pres("z w", ["z^2"]), rho=2, mode="pq")
        hat = H.hat_alphabet
        assert H.table is None and hat.names == ("z", "w", "p", "q")
        member = H.membership()
        assert member.route == "Dehn's algorithm under C'(1/6)"
        quotients = [todd_coxeter(hat, [word(hat, r) for r in ("z^2", *rels, "p", "q")], ())
                     for rels in [(f"w^{n}", "(z w)^2") for n in range(2, 7)]
                     + [("w^3", f"(z w)^{m}") for m in (3, 4, 5)]]
        assert [T.index for T in quotients] == [4, 6, 8, 10, 12, 12, 24, 60]
        trivial = 0
        for code in ["", *reduced_words(4, 4)]:
            w = Word.from_code(hat, code)
            verdict = member.in_k(H.substitute(w))
            trivial += verdict
            assert verdict == all(T.image_in_quotient(w) == 1 for T in quotients), w
        assert trivial == 553

    def test_reading_a_file_over_a_quotient_onto_z_never_enumerates(self, monkeypatch):
        # <x, z | x> maps onto Z, which the exponent sums show at once
        H = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        text = presfile.format_presentation(presfile.hnn_to_parsed(H))

        def never(*args, **kwargs):
            raise AssertionError("todd_coxeter called on a quotient that maps onto Z")

        monkeypatch.setattr(hnnforge, "todd_coxeter", never)
        monkeypatch.setattr(cosetenum, "todd_coxeter", never)
        read = presfile.parsed_to_hnn(presfile.parse_presentation(text))
        assert read.table is None and [str(u) for u in read.assoc_abstract] == ["x"]
        assert read.membership().route == "free reduction"

    def test_conjugated_one_letter_relator_kills_its_generator(self):
        # assoc words z^2 p, w p^-1 w^-1, q have the normal closure of z^2, p, q:
        # the cyclic core of w p^-1 w^-1 kills p, which leaves z^2.  Read as a
        # Dehn set, p and z^2 p share the piece p, a whole relator, so
        # membership would refuse
        H = build_tp(AB, 6, 6, 6, pres("z w", ["z^2"]), rho=2, mode="pq")
        text = presfile.format_presentation(presfile.hnn_to_parsed(H))
        assert "\nassoc: z^2, p, q\n" in text
        read = presfile.parsed_to_hnn(presfile.parse_presentation(
            text.replace("\nassoc: z^2, p, q\n", "\nassoc: z^2 p, w p^-1 w^-1, q\n")))
        assert read.table is None and read.m_gens == H.m_gens
        member, reference = read.membership(), H.membership()
        assert member.route == reference.route == "Dehn's algorithm under C'(1/6)"
        verdicts = [member.in_k(H.substitute(Word.from_code(H.hat_alphabet, code)))
                    for code in ["", *reduced_words(4, 3)]]
        assert verdicts == [reference.in_k(H.substitute(Word.from_code(H.hat_alphabet, code)))
                            for code in ["", *reduced_words(4, 3)]]
        assert 0 < sum(verdicts) < len(verdicts)


class TestConcreteFoldOracle:
    """The concrete kernel fold, which the library no longer builds, is the
    reference: in_k(h) must say whether the Dehn-reduced h reads as a loop
    of the folded graph of the concrete kernel generators."""

    CASES = [(k, 2, "minimal") for k in (2, 3, 4, 5)] + [(5, 2, "pq"), (2, 8, "minimal")]

    @pytest.mark.parametrize("k, rho, mode", CASES)
    def test_in_k_matches_the_concrete_fold(self, k, rho, mode):
        import random

        hnn = build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=rho, mode=mode)
        fold = build_and_fold(AB, list(hnn.assoc_concrete))
        member = hnn.membership()
        rng = random.Random(100 * k + rho)
        verdicts = set()
        for _ in range(300):
            # a product of 1-5 signed family words, ending in a one time in five
            h = Word(AB, ())
            for _ in range(rng.randint(1, 5)):
                h = h * rng.choice(hnn.m_gens) ** rng.choice((1, -1))
            if rng.randrange(5) == 0:
                h = h * word(AB, "a")
            verdict = member.in_k(h)
            assert verdict == fold.contains(smallcancel.dehn_reduce(member.rs, h)), h
            verdicts.add(verdict)
        assert verdicts == {True, False}


class TestKernelGuard:
    """The kernel generators must generate the stabiliser of coset 1: their
    folded graph over the hat alphabet is the coset table itself.  This is
    checked once, when membership is first asked, and a failure is a typed
    refusal that names the generators, also under python -O."""

    MALFORMED = {
        "dropped generator": lambda H: H.assoc_abstract[1:],
        "not normal": lambda H: (word(H.hat_alphabet, "x"), word(H.hat_alphabet, "z^2")),
    }

    @pytest.mark.parametrize("how", sorted(MALFORMED))
    def test_malformed_assoc_raises(self, tp2, how):
        bad = dataclasses.replace(tp2, assoc_abstract=self.MALFORMED[how](tp2))
        with pytest.raises(HnnError) as e:
            bad.membership()
        assert "do not generate the kernel" in str(e.value) and "internal" not in str(e.value)
        assert ", ".join(map(str, bad.assoc_abstract)) in str(e.value)
        assert tp2.membership().in_k(tp2.assoc_concrete[0])

    def test_guard_survives_optimised_python(self):
        code = (
            "import dataclasses\n"
            "from malkit import hnnforge\n"
            "from malkit.words import alphabet\n"
            "AB = alphabet('a b')\n"
            "H = hnnforge.build_tp(AB, 6, 6, 6, hnnforge.presentation('z', ['z^2']), rho=2, mode='minimal')\n"
            "raised = []\n"
            "try:\n"
            "    dataclasses.replace(H, assoc_abstract=H.assoc_abstract[1:]).membership()\n"
            "except hnnforge.HnnError:\n"
            "    raised.append(True)\n"
            "print(__debug__, len(raised))\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "1"], out.stderr


class TestResidualWitness:
    def test_constrained_entry(self, tp2):
        z = tp2.m_word("z")
        bw = britton_word(tp2, [Word(AB, ()), z, Word(AB, ())], [1, -1])
        report = residual_witness(tp2, bw)
        assert report.separating_quotient == "input-presentation"
        assert report.entries[0].constrained and report.entries[0].image_coset != 1

    def test_unconstrained_entry(self, tp2):
        bw = britton_word(tp2, [Word(AB, ()), word(AB, "a"), Word(AB, ())], [1, -1])
        report = residual_witness(tp2, bw)
        assert report.separating_quotient == "trivial"
        assert not report.entries[0].constrained

    def test_base_word_case(self, tp2):
        bw = britton_word(tp2, [word(AB, "a")], [])
        report = residual_witness(tp2, bw)
        assert report.nontrivial and report.separating_quotient == "trivial"

    def test_phi_k_entry_reads_the_coset_of_its_preimage(self, tp2):
        z = tp2.m_word("z")
        e = Word(AB, ())
        down = residual_witness(tp2, britton_word(tp2, [e, z, e], [1, -1])).entries[0]
        up = residual_witness(tp2, britton_word(tp2, [e, apply_endo(tp2.phi, z), e], [-1, 1])).entries[0]
        assert (up.kind, up.constrained, up.image_coset) == ("t^-1 h t", True, down.image_coset)

    def test_phi_inverse_applied_once(self, monkeypatch):
        # both t^-1 h t entries read the phi^-1 image that britton_reduce
        # memoised while checking the word is reduced
        H, member = TestPinchMaps.fresh()
        phi_z = apply_endo(H.phi, H.m_word("z"))
        calls = TestPinchMaps().counting(monkeypatch)
        e = Word(AB, ())
        report = residual_witness(H, britton_word(H, [e, phi_z, word(AB, "a"), phi_z, e], [-1, 1, -1, 1]))
        assert calls == [member.phi_inv]
        assert [(x.kind, x.image_coset) for x in report.entries] == [
            ("t^-1 h t", 2), ("t h t^-1", None), ("t^-1 h t", 2)]
        assert [x.constrained for x in report.entries] == [True, False, True]

    def test_truncated_family_refused(self):
        # the padded quotient of <z | > maps onto Z: it has no coset table
        # whose cosets a witness could name
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        with pytest.raises(HnnError, match="needs a complete coset table"):
            residual_witness(hnn, britton_word(hnn, [word(AB, "a")], []))

    def test_rejects_unreduced(self, tp2):
        z = tp2.m_word("z")
        bw = britton_word(tp2, [Word(AB, ()), z * z, Word(AB, ())], [1, -1])
        with pytest.raises(HnnError):
            residual_witness(tp2, bw)
