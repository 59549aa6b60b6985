import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import malkit
from malkit import malchar
from malkit.malchar import (
    HypothesesViolated,
    MalcharError,
    decide_malcharacteristic_free,
    decide_malcharacteristic_triangle,
    length_preserving_autos,
    malcharlem_hypotheses,
    psi_maps,
    psi_transversal,
    rank_n_family,
    seed_block_substitution,
    seed_words_free,
    seed_words_triangle,
    triangle_relators,
    verify_psi_images,
)
from malkit.smallcancel import RelatorSet, word_problem
from malkit.stallings import build_and_fold
from malkit.words import Word, alphabet, apply_endo, compose_endos, conjugate, identity_endo, signed_letters, word

AB = alphabet("a b")


def w(text):
    return word(AB, text)


class TestLengthPreservingAutos:
    def test_count(self):
        autos = length_preserving_autos(AB)
        assert len(autos) == 8
        assert sum(1 for a in autos if not a.is_identity()) == 7

    def test_contains_swap_and_inversion(self):
        autos = set(length_preserving_autos(AB))
        from malkit.words import endo

        assert endo(AB, {"a": "b", "b": "a"}) in autos
        assert endo(AB, {"a": "a^-1", "b": "b^-1"}) in autos

    def test_group_of_order_eight(self):
        autos = length_preserving_autos(AB)
        closure = set(autos)
        for f, g in itertools.product(autos, repeat=2):
            closure.add(compose_endos(f, g))
        assert len(closure) == 8

    def test_each_has_inverse(self):
        autos = length_preserving_autos(AB)
        ident = identity_endo(AB)
        for f in autos:
            assert any(compose_endos(f, g) == ident for g in autos)


def _reference_run_restricted_acyclic(graph, gen):
    """The run-length product built whole: every (vertex, last signed
    letter, run) state with its adjacency list, then a three-colour DFS
    from every state."""
    n = len(graph.alphabet)
    states, adj = {}, []

    def state_id(v, last, run):
        key = (v, last, run)
        if key not in states:
            states[key] = len(adj)
            adj.append([])
        return states[key]

    signed = tuple(signed_letters(n))
    for v in range(graph.num_vertices):
        for last in signed:
            for run in (1, 2):
                if abs(last) - 1 != gen and run == 2:
                    continue
                src = state_id(v, last, run)
                for m in signed:
                    tgt_v = graph.out[v].get(m)
                    if m == -last or tgt_v is None:
                        continue
                    if abs(m) - 1 == gen:
                        new_run = run + 1 if m == last else 1
                        if new_run >= 3:
                            continue
                    else:
                        new_run = 1
                    adj[src].append(state_id(tgt_v, m, new_run))

    colour = [0] * len(adj)
    for start in range(len(adj)):
        if colour[start]:
            continue
        stack = [(start, iter(adj[start]))]
        colour[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if colour[nxt] == 1:
                    return False
                if colour[nxt] == 0:
                    colour[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                colour[node] = 2
                stack.pop()
    return True


@st.composite
def _run_graphs(draw):
    """Folded graphs on 2 or 3 generators from words made of runs of one
    letter, positive only or of both signs, so that circuits with and
    without a run of 3 both occur."""
    alpha = alphabet("a b c"[:2 * draw(st.integers(2, 3)) - 1])
    n = len(alpha)
    letters = st.integers(1, n) if draw(st.booleans()) else st.sampled_from(list(signed_letters(n)))
    runs = st.lists(st.tuples(letters, st.integers(1, 4)), min_size=1, max_size=5)
    words = draw(st.lists(runs, min_size=1, max_size=3))
    return build_and_fold(alpha, [Word(alpha, [x for x, k in rs for _ in range(k)]) for rs in words])


class TestRunRestrictedAcyclic:
    @settings(max_examples=300, deadline=None)
    @given(_run_graphs())
    def test_matches_explicit_automaton(self, graph):
        for gen in range(len(graph.alphabet)):
            assert malchar._run_restricted_acyclic(graph, gen) == _reference_run_restricted_acyclic(graph, gen)

    def test_seed_pair(self):
        graph = build_and_fold(AB, list(seed_words_free(AB, 8)))
        assert malchar._run_restricted_acyclic(graph, 0) and malchar._run_restricted_acyclic(graph, 1)
        assert not malchar._run_restricted_acyclic(build_and_fold(AB, [w("a^2 b^3")]), 0)


class TestHypotheses:
    def test_a3b3_passes(self):
        assert malcharlem_hypotheses(AB, [w("a^3 b^3")]).ok

    def test_a2b2_circuit_fails(self):
        verdict = malcharlem_hypotheses(AB, [w("a^2 b^2")])
        assert not verdict.ok
        assert "a^3" in verdict.reason

    def test_negative_letters_fail(self):
        verdict = malcharlem_hypotheses(AB, [w("a^3 b^-3")])
        assert not verdict.ok

    def test_duplicates_fail(self):
        assert not malcharlem_hypotheses(AB, [w("a^3 b^3"), w("a^3 b^3")]).ok

    def test_seed_words_pass(self):
        seeds = seed_words_free(AB, 6)
        assert malcharlem_hypotheses(AB, list(seeds)).ok


class TestDecideFree:
    def test_seed_words_certified(self):
        for rho in (6, 8):
            seeds = seed_words_free(AB, rho)
            assert decide_malcharacteristic_free(AB, list(seeds)).malcharacteristic

    def test_a3b3_rejected_with_witness(self):
        verdict = decide_malcharacteristic_free(AB, [w("a^3 b^3")])
        assert not verdict.malcharacteristic
        assert verdict.failing_auto is not None
        # the witness element lies in C and conjugates into the image
        u, g = verdict.witness.element, verdict.witness.conjugator
        c = build_and_fold(AB, [w("a^3 b^3")])
        image = build_and_fold(AB, [apply_endo(verdict.failing_auto, w("a^3 b^3"))])
        assert c.contains(u)
        assert image.contains(conjugate(u, g.inverse()))

    def test_a3b3_swap_witness_from_spec_worked_example(self):
        # the a<->b swap in particular defeats <a^3 b^3>: b^3 a^3 lies in
        # the swapped image and in the a^3-conjugate
        from malkit.stallings import trivial_intersection_all_conjugates
        from malkit.words import endo

        swap = endo(AB, {"a": "b", "b": "a"})
        image = [apply_endo(swap, w("a^3 b^3"))]
        verdict = trivial_intersection_all_conjugates(AB, image, [w("a^3 b^3")])
        assert not verdict.trivial

    def test_a2b2_refused(self):
        with pytest.raises(HypothesesViolated):
            decide_malcharacteristic_free(AB, [w("a^2 b^2")])

    def test_pair_folded_once(self, monkeypatch):
        # the hypotheses, the malnormality check and the seven intersections
        # read one folded graph of the pair; only the images are folded anew
        pair = list(seed_words_free(AB, 8))
        folded = []

        def counting(alpha, gens):
            folded.append(list(gens))
            return build_and_fold(alpha, gens)

        monkeypatch.setattr(malchar, "build_and_fold", counting)
        assert decide_malcharacteristic_free(AB, pair).malcharacteristic
        assert folded.count(pair) == 1 and len(folded) == 8


class TestSeedWords:
    def test_free_rho2_closed_form(self):
        seeds = seed_words_free(AB, 2)
        assert seeds[0] == w("a^3 b^3 a^3 b^4")
        assert seeds[1] == w("a^3 b^5 a^3 b^6")

    def test_free_rho3_first_word(self):
        assert seed_words_free(AB, 3)[0] == w("a^3 b^3 a^3 b^4 a^3 b^5")

    def test_length_formula(self):
        for rho in (2, 5, 9):
            wx, wy = seed_words_free(AB, rho)
            assert len(wx) == 3 * rho + sum(range(3, rho + 3))
            assert len(wy) == 3 * rho + sum(range(rho + 3, 2 * rho + 3))

    def test_triangle_rho2_closed_form(self):
        seeds = seed_words_triangle(AB, 2)
        assert seeds[0] == w("(a b^-1)^3 (a^2 b^-1)^3 (a b^-1)^3 (a^2 b^-1)^4")

    def test_triangle_rho3_second_word(self):
        expected = w(
            "(a b^-1)^3 (a^2 b^-1)^6 (a b^-1)^3 (a^2 b^-1)^7 (a b^-1)^3 (a^2 b^-1)^8"
        )
        assert seed_words_triangle(AB, 3)[1] == expected

    def test_block_substitution_identity(self):
        sub = seed_block_substitution(AB)
        for rho in (2, 4, 8):
            free = seed_words_free(AB, rho)
            tri = seed_words_triangle(AB, rho)
            assert tuple(apply_endo(sub, v) for v in free) == tri

    def test_rho_below_two_rejected(self):
        with pytest.raises(MalcharError):
            seed_words_free(AB, 1)
        with pytest.raises(MalcharError):
            seed_words_triangle(AB, 0)


class TestRankNFamily:
    def test_first_natural_factor(self):
        seed = seed_words_free(AB, 2)
        fam = rank_n_family(seed, 1)
        u, v = seed
        assert fam.words == [u * v * (u * v * v)]

    def test_requested_rank_achieved(self):
        seed = seed_words_free(AB, 2)
        for n in (1, 2, 3, 4):
            fam = rank_n_family(seed, n)
            assert build_and_fold(AB, fam.words).rank() == n

    def test_no_proper_powers(self):
        from malkit.words import proper_power

        fam = rank_n_family(seed_words_free(AB, 2), 3)
        for v in fam.abstract:
            assert proper_power(v) is None

    def test_quotient_coupled_check_records(self):
        fam = rank_n_family(seed_words_triangle(AB, 2), 2, r=triangle_relators(AB, 6, 6, 6))
        assert fam.checks["cyclically_reduced_in_quotient"]

    def test_bad_n(self):
        with pytest.raises(MalcharError):
            rank_n_family(seed_words_free(AB, 2), 0)


class TestPsiMaps:
    def test_twelve_maps(self):
        assert len(psi_maps(AB)) == 12

    def test_transversal_sizes(self):
        assert len(psi_transversal(AB, 6, 7, 8)) == 2
        assert len(psi_transversal(AB, 6, 6, 7)) == 4
        assert len(psi_transversal(AB, 7, 6, 6)) == 4
        assert len(psi_transversal(AB, 6, 7, 6)) == 4
        assert len(psi_transversal(AB, 6, 6, 6)) == 12

    def test_transversal_maps_preserve_relators(self):
        # re-assert outside the internal check: image of each relator trivial
        for (i, j, k) in [(6, 6, 6), (6, 6, 7), (6, 7, 8)]:
            rs = RelatorSet(AB, triangle_relators(AB, i, j, k))
            for m in psi_transversal(AB, i, j, k):
                for rel in rs.relators:
                    assert word_problem(rs, apply_endo(m.spec, rel))

    def test_selection_matches_exhaustive_relator_scan(self):
        # the transversal is exactly the set of maps preserving the relators
        for (i, j, k) in [(6, 7, 8), (6, 6, 7), (6, 7, 6), (7, 6, 6), (6, 6, 6)]:
            rs = RelatorSet(AB, triangle_relators(AB, i, j, k))
            surviving = {
                m.name
                for m in psi_maps(AB)
                if all(word_problem(rs, apply_endo(m.spec, r)) for r in rs.relators)
            }
            selected = {m.name for m in psi_transversal(AB, i, j, k)}
            assert selected == surviving, (i, j, k)

    def test_below_six_rejected(self):
        with pytest.raises(MalcharError):
            psi_transversal(AB, 5, 6, 6)


class TestTransversalCheck:
    """psi_transversal re-checks that every emitted map preserves the
    relators; a failure is a typed error, also under python -O."""

    def test_relator_not_preserved(self, monkeypatch):
        monkeypatch.setattr(malchar, "word_problem", lambda rs, w: False)
        with pytest.raises(MalcharError, match="breaks the relator"):
            psi_transversal(AB, 6, 6, 6)

    def test_check_survives_optimised_python(self):
        code = (
            "from malkit import malchar\n"
            "from malkit.words import alphabet\n"
            "malchar.word_problem = lambda rs, w: False\n"
            "try:\n"
            "    malchar.psi_transversal(alphabet('a b'), 6, 7, 8)\n"
            "    raised = 0\n"
            "except malchar.MalcharError:\n"
            "    raised = 1\n"
            "print(__debug__, raised)\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "1"], out.stderr


class TestVerifyPsiImages:
    def test_equilateral_rho8_all_ok(self):
        reports = verify_psi_images(AB, 6, 6, 6, 8, 3)
        assert len(reports) == 12
        assert all(r.family.ok for r in reports)
        assert all(r.family.unconditional for r in reports)
        assert all(not r.forbidden_hits for r in reports)

    def test_identity_map_reduces_to_seed_check(self):
        reports = verify_psi_images(AB, 6, 6, 6, 8, 3)
        ident = [r for r in reports if r.psi.is_identity()][0]
        assert ident.images == list(seed_words_triangle(AB, 8))

    def test_small_rho_recorded_either_way(self):
        reports = verify_psi_images(AB, 6, 6, 6, 3, 3)
        assert len(reports) == 12  # outcome recorded, whatever it is
        for r in reports:
            assert isinstance(r.family.ok, bool)


def _scan_windows(alpha, words):
    """Forbidden factors by sliding a tuple window over each word; when the
    word is cyclically reduced, a window may start at any of its positions
    and wrap around the end, but it is never longer than the word."""
    hits = []
    patterns = [(t, word(alpha, t).letters) for t in malchar.FORBIDDEN_FACTOR_TEXTS]
    for v in words:
        n = len(v.letters)
        for text, pat in patterns:
            m = len(pat)
            if v.is_cyclically_reduced():
                found = m <= n and any(
                    tuple(v.letters[(p + q) % n] for q in range(m)) == pat for p in range(n))
            else:
                found = any(v.letters[p:p + m] == pat for p in range(n - m + 1))
            if found:
                hits.append((text, str(v)[:40]))
    return hits


_CHUNKS = ("a", "a^-1", "b", "b^-1", "a^2", "b^-2", "a^4", "b^-4", "(a b)^3", "(b^-1 a^-1)^3", "(b a)^2")


class TestScanForbidden:
    @given(st.lists(st.lists(st.sampled_from(_CHUNKS), max_size=8), min_size=1, max_size=4))
    def test_matches_window_scan(self, chunks):
        words = [w(" ".join(c) or "1") for c in chunks]
        assert malchar._scan_forbidden(malchar._forbidden_codes(AB), words) == _scan_windows(AB, words)

    def test_hits_found(self):
        words = [w("a^4 b"), w("a^2 b a^2"), w("a^2 b a^-2"), w("b (a b)^3 b"), w("a^2"), w("1")]
        hits = malchar._scan_forbidden(malchar._forbidden_codes(AB), words)
        assert hits == _scan_windows(AB, words)
        assert hits == [
            ("a^4", "a^4 b"),
            ("a^4", "a^2 b a^2"),  # across the cyclic seam
            ("(a b)^3", "b a b a b a b^2"),
            ("(b a)^3", "b a b a b a b^2"),
            ("b (a b)^3", "b a b a b a b^2"),
        ]  # a cyclic a^2 is shorter than a^4, so it holds none


def _certificate_text(i, j, k, rho):
    cert = decide_malcharacteristic_triangle(AB, i, j, k, rho)
    return json.dumps(cert.to_dict(), sort_keys=True, default=str)


class TestTriangleCertificate:
    def test_structure_at_paper_scale(self):
        cert = decide_malcharacteristic_triangle(AB, 6, 6, 6, 8)
        # the joint small cancellation hypothesis fails at this scale
        # (acceptance criteria 1 and 4 pin the violating data); everything
        # the run-length arguments cover is green
        assert not cert.certified
        stage1 = cert.data["stage1"]
        assert not stage1["certified"]
        assert any("stage 2" in h.name and h.ok for h in cert.hypotheses)
        for entry in cert.data["stage3"]:
            assert entry["family_ok"] and not entry["forbidden_hits"]
            if "free_verdict" in entry:
                assert entry["free_verdict"] == "trivial"
                assert entry["transfer_certified"] is False

    def test_golden_certificate(self):
        # the whole certificate JSON at (6,6,6) rho=8, pinned byte for byte
        text = _certificate_text(6, 6, 6, 8)
        golden = (Path(__file__).parent / "fixtures" / "triangle_cert_6_6_6_rho8.json").read_text()
        assert text == golden.rstrip("\n")
        assert hashlib.sha256(text.encode()).hexdigest().startswith("4f75dcd954e9d88a")

    def test_golden_scalene_certificate(self):
        # the scalene certificate at (7,8,9) rho=10, pinned by digest
        text = _certificate_text(7, 8, 9, 10)
        assert hashlib.sha256(text.encode()).hexdigest().startswith("858937e97535775d")

    def test_below_six_rejected(self):
        with pytest.raises(MalcharError):
            decide_malcharacteristic_triangle(AB, 5, 5, 5, 8)

    @pytest.mark.slow
    def test_fully_certified_where_hypotheses_hold(self):
        # at exponent 13 with long seeds the joint set genuinely satisfies
        # C'(1/6), and the whole composite certificate goes green
        cert = decide_malcharacteristic_triangle(AB, 13, 13, 13, 19)
        assert cert.certified
        assert cert.data["stage1"]["route"] == "C'(1/6)"
        text = json.dumps(cert.to_dict(), sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest().startswith("dbf1b07d97a9ba44")
