import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import malkit
from malkit import hnnforge
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
from malkit.stallings import SubgroupGraph, build_and_fold, same_subgroup
from malkit.words import Word, alphabet, apply_endo, word

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
        assert hat.slots == {"p": 0, "q": 1, "z": 2}

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

    def test_kernel_generators_lie_in_family(self, tp2):
        g = build_and_fold(AB, list(tp2.m_gens))
        for u in tp2.assoc_concrete:
            assert g.contains(u)

    def test_pq_mode_rank_three(self):
        hnn = build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="pq")
        assert len(hnn.m_gens) == 3
        assert hnn.table.index == 2

    def test_infinite_quotient_truncates(self):
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal", truncate=3)
        assert hnn.truncated == 3
        hat = hnn.hat_alphabet
        # schema words z^-j x z^j for |j| <= 3 appear up to subgroup equality
        fold_schema = build_and_fold(
            hat, [word(hat, f"z^{-m} x z^{m}") if m else word(hat, "x") for m in range(-3, 4)]
        )
        fold_truncated = build_and_fold(hat, list(hnn.assoc_abstract))
        assert same_subgroup(fold_schema, fold_truncated)

    def test_truncated_kernel_golden(self):
        # <z | > pads to <x, z | x>: the conjugates of x over reduced
        # conjugators of length <= 3, in enumeration order, and their
        # spellings through the family words, pinned from the hand-written
        # loops that substitute and reduced_words replaced
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        assert hnn.truncated == 3 and len(hnn.assoc_abstract) == 27

        def digest(words):
            return hashlib.sha256(json.dumps([list(u.letters) for u in words]).encode()).hexdigest()[:16]

        assert digest(hnn.assoc_abstract) == "bc87a1c3fde0f1df"
        assert digest(hnn.assoc_concrete) == "2b756ef055156808"

    @pytest.mark.parametrize("gens, rels", [("z", []), ("y z", ["y z y^-1 z^-1"]), ("y z", ["y^3", "z y z^-1 y"]),
                                            ("y z", ["y z^2"]), ("y z", ["y^2 z^4"])])
    def test_visibly_infinite_skips_enumeration(self, monkeypatch, gens, rels):
        # an exponent-sum matrix of the padded relators with rank below the
        # number of generators maps the quotient onto Z, so the truncated
        # kernel comes at once: with a zero column (z in <x, z | x>, y and z
        # in <y, z | [y, z]>, z in <y, z | y^3, z y z^-1 y>) or without one
        # (the inputs <y, z | y z^2> and <y, z | y^2 z^4> have rank 1 in two
        # generators)
        def never(*args, **kwargs):
            raise AssertionError("todd_coxeter called on a visibly infinite quotient")

        monkeypatch.setattr(hnnforge, "todd_coxeter", never)
        hnn = build_tp(AB, 6, 6, 6, pres(gens, rels), rho=2, mode="minimal", truncate=2)
        assert hnn.truncated == 2 and hnn.table is None

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
        hnn = build_tp(AB, 6, 6, 6, pres("z"), rho=2, mode="minimal")
        with pytest.raises(HnnError):
            hnn.membership()

    def test_low_exponent_rejected(self):
        with pytest.raises(HnnError):
            build_tp(AB, 5, 6, 6, pres("z", ["z^2"]), rho=2)

    def test_reproduces_intro_relator_count(self):
        for k in (2, 3, 4):
            hnn = build_tp(AB, 6, 6, 6, pres("z", [f"z^{k}"]), rho=2, mode="minimal")
            # kernel of F(x, z) -> Z/k has rank 1 + k (Nielsen-Schreier)
            g = build_and_fold(hnn.hat_alphabet, list(hnn.assoc_abstract))
            assert g.rank() == 1 + k


class TestBuildTpChecks:
    """build_tp re-checks that every kernel generator lies in the family
    subgroup and that the base automorphism preserves the relators; a
    failure is a typed error, also under python -O."""

    def test_kernel_outside_family(self, monkeypatch):
        monkeypatch.setattr(SubgroupGraph, "contains", lambda graph, u: False)
        with pytest.raises(HnnError, match="family subgroup"):
            build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal")

    def test_relator_not_preserved(self, monkeypatch):
        monkeypatch.setattr(hnnforge, "word_problem", lambda rs, w: False)
        with pytest.raises(HnnError, match="does not preserve"):
            build_tp(AB, 6, 6, 6, pres("z", ["z^2"]), rho=2, mode="minimal")

    def test_checks_survive_optimised_python(self):
        code = (
            "from malkit import hnnforge\n"
            "from malkit.stallings import SubgroupGraph\n"
            "from malkit.words import alphabet\n"
            "AB = alphabet('a b')\n"
            "P = hnnforge.presentation('z', ['z^2'])\n"
            "raised = []\n"
            "for owner, name, bad in ((SubgroupGraph, 'contains', lambda graph, u: False),\n"
            "                         (hnnforge, 'word_problem', lambda rs, w: False)):\n"
            "    good = getattr(owner, name)\n"
            "    setattr(owner, name, bad)\n"
            "    try:\n"
            "        hnnforge.build_tp(AB, 6, 6, 6, P, rho=2, mode='minimal')\n"
            "    except hnnforge.HnnError:\n"
            "        raised.append(name)\n"
            "    setattr(owner, name, good)\n"
            "print(__debug__, len(raised))\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "2"], out.stderr


class TestMorphisms:
    def test_quotient_z4_to_z2(self):
        data = quotient_morphism(
            AB, 6, 6, 6, pres("z", ["z^4"]), pres("z", ["z^2"]), rho=2, mode="minimal"
        )
        hat = alphabet("x z")
        assert any(u == word(hat, "z^2") for u in data.extra_abstract)
        assert not data.caveats

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
        data = quotient_morphism(
            AB, 6, 6, 6, pres("z"), pres("z", ["z^3"]), rho=2, mode="minimal", truncate=3
        )
        hat = alphabet("x z")
        assert any(u == word(hat, "z^3") for u in data.extra_abstract)
        assert data.source_truncated and data.caveats

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
        data = free_product_morphism(
            AB, 6, 6, 6, pres("z", ["z^2"]), pres("w"), rho=2, truncate=2
        )
        assert data.target_truncated  # Z/2 * Z is infinite
        assert data.extra_abstract
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


class _FlippedGraph:
    """A folded graph whose membership answers are negated."""

    def __init__(self, graph):
        self.graph = graph

    def contains(self, h):
        return not self.graph.contains(h)


class TestMembershipAgreement:
    """in_k answers only when the rewriting through the padded quotient and
    the direct reading through the kernel graph agree; a disagreement is a
    typed error, also under python -O."""

    @pytest.mark.parametrize("which", ["kernel generator", "outside the family"])
    def test_disagreement_raises(self, tp2, which):
        h = tp2.assoc_concrete[0] if which == "kernel generator" else word(AB, "a")
        member = hnnforge._KMembership(tp2)
        assert member.in_k(h) == (which == "kernel generator")
        member = hnnforge._KMembership(tp2)
        member.k_graph = _FlippedGraph(member.k_graph)
        with pytest.raises(HnnError, match="disagree"):
            member.in_k(h)

    def test_check_survives_optimised_python(self):
        code = (
            "from malkit import hnnforge\n"
            "from malkit.words import alphabet, word\n"
            "AB = alphabet('a b')\n"
            "H = hnnforge.build_tp(AB, 6, 6, 6, hnnforge.presentation('z', ['z^2']), rho=2, mode='minimal')\n"
            "class Flipped:\n"
            "    def __init__(self, graph):\n"
            "        self.graph = graph\n"
            "    def contains(self, h):\n"
            "        return not self.graph.contains(h)\n"
            "raised = []\n"
            "for h in (H.assoc_concrete[0], word(AB, 'a')):\n"
            "    member = hnnforge._KMembership(H)\n"
            "    member.k_graph = Flipped(member.k_graph)\n"
            "    try:\n"
            "        member.in_k(h)\n"
            "    except hnnforge.HnnError:\n"
            "        raised.append(True)\n"
            "print(__debug__, len(raised))\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "2"], out.stderr


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

    def test_rejects_unreduced(self, tp2):
        z = tp2.m_word("z")
        bw = britton_word(tp2, [Word(AB, ()), z * z, Word(AB, ())], [1, -1])
        with pytest.raises(HnnError):
            residual_witness(tp2, bw)
