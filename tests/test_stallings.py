import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import malkit
from malkit import stallings
from malkit.stallings import (
    _fibre_analysis,
    BasisRewriter,
    IntersectionWitness,
    StallingsError,
    WitnessError,
    build_and_fold,
    basis,
    is_malnormal,
    is_malnormal_graph,
    same_subgroup,
    trivial_intersection_all_conjugates,
)
from malkit.words import (
    LETTER_UNIT,
    Word,
    alphabet,
    apply_endo,
    code_product,
    conjugate,
    decode_letters,
    encode_letters,
    free_reduce_letters,
    inverse_letters,
    invert_code,
    signed_letters,
    word,
)

AB = alphabet("a b")


def w(text):
    return word(AB, text)


def over_gens(n, letters):
    """The code of the reduced word over n generators with these signed
    letters: symbol k is generator k, as BasisRewriter.rewrite spells it."""
    return Word(alphabet(" ".join(f"g{i}" for i in range(n))), letters).code


def ws(*texts):
    return [w(t) for t in texts]


def fold(*texts):
    return build_and_fold(AB, ws(*texts))


class TestFolding:
    def test_single_loop(self):
        g = fold("a")
        assert g.num_vertices == 1 and g.num_edges == 1 and g.rank() == 1

    def test_conjugated_loops_collapse(self):
        # <aba^-1, ab^2a^-1> = a<b>a^-1: the b-loop and b^2-cycle fold together
        g = fold("a b a^-1", "a b^2 a^-1")
        assert g.rank() == 1
        assert same_subgroup(g, fold("a b a^-1"))

    def test_genuine_rank_two(self):
        g = fold("a b a^-1", "a b^2 a")
        assert g.rank() == 2

    def test_duplicates_fold_away(self):
        assert same_subgroup(fold("a", "a"), fold("a"))

    def test_powers_collapse(self):
        assert fold("a^2", "a^3").rank() == 1
        assert same_subgroup(fold("a^2", "a^3"), fold("a"))

    def test_empty_gens(self):
        g = build_and_fold(AB, [])
        assert g.num_vertices == 1 and g.num_edges == 0 and g.rank() == 0

    def test_folding_confluent_under_order(self):
        rng = random.Random(23)
        gens = ws("a b a^-1 b^-1", "a^2 b", "b a b")
        reference = build_and_fold(AB, gens).canonical_form()
        for _ in range(20):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert build_and_fold(AB, shuffled).canonical_form() == reference


def _bouquet_then_fold(alpha, gens):
    """Reference fold: the whole bouquet of generator loops first, then
    identify the ends of two edges that leave or enter one vertex with one
    label until none remain, trim, and number by BFS from the basepoint in
    the signed-label order a, a^-1, b, b^-1, ..."""
    edges = set()  # (u, s, v) with s > 0
    n = 1
    for g in gens:
        lets = g.letters
        prev = 0
        for k, x in enumerate(lets):
            if k == len(lets) - 1:
                nxt = 0
            else:
                nxt, n = n, n + 1
            edges.add((prev, x, nxt) if x > 0 else (nxt, -x, prev))
            prev = nxt
    verts = set(range(n))
    while True:
        pair = None
        for u, s, v in edges:
            for u2, s2, v2 in edges:
                if s == s2 and ((u == u2 and v != v2) or (v == v2 and u != u2)):
                    pair = (v, v2) if u == u2 else (u, u2)
                    break
            if pair:
                break
        if pair is None:
            break
        keep, drop = min(pair), max(pair)
        edges = {(keep if u == drop else u, s, keep if v == drop else v) for u, s, v in edges}
        verts.discard(drop)
    while True:
        degree = {v: 0 for v in verts}
        for u, _, v in edges:
            degree[u] += 1
            degree[v] += 1
        dead = {v for v in verts if v != 0 and degree[v] <= 1}
        if not dead:
            break
        verts -= dead
        edges = {e for e in edges if e[0] not in dead and e[2] not in dead}
    number, order = {0: 0}, [0]
    for v in order:
        for i in range(1, len(alpha) + 1):
            for s in (i, -i):
                targets = [e[2] for e in edges if e[0] == v and e[1] == s] if s > 0 else \
                          [e[0] for e in edges if e[2] == v and e[1] == -s]
                for t in targets:
                    if t not in number:
                        number[t] = len(order)
                        order.append(t)
    canon = sorted((number[u], s, number[v]) for u, s, v in edges)
    return alpha.names, len(order), tuple(canon)


@st.composite
def _overlapping_gens(draw):
    """Generator lists built from a small pool of pieces, so generators
    share prefixes and suffixes, repeat, appear inverted and conjugated,
    and the two reads of a loop often meet."""
    alpha = draw(st.sampled_from([alphabet("a"), AB, alphabet("a b c")]))
    letters = [s for i in range(1, len(alpha) + 1) for s in (i, -i)]
    pieces = draw(st.lists(st.lists(st.sampled_from(letters), max_size=4), min_size=1, max_size=4))
    pieces = [Word(alpha, p) for p in pieces]
    gens = []
    for _ in range(draw(st.integers(0, 6))):
        parts = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=3))
        g = Word(alpha, ())
        for part in parts:
            g = g * (part if draw(st.booleans()) else part.inverse())
        if draw(st.booleans()):
            c = draw(st.sampled_from(pieces))
            g = c * g * c.inverse()
        gens.append(g)
        if gens and draw(st.booleans()):
            old = draw(st.sampled_from(gens))
            gens.append(old if draw(st.booleans()) else old.inverse())
    return alpha, gens


class TestReadAheadFold:
    """Folding reads each loop ahead from both ends before adding vertices;
    the folded graph is unique, so it must equal the graph obtained by
    folding the whole bouquet."""

    @settings(max_examples=300, deadline=None)
    @given(_overlapping_gens())
    def test_matches_bouquet_then_fold(self, case):
        alpha, gens = case
        assert build_and_fold(alpha, gens).canonical_form() == _bouquet_then_fold(alpha, gens)

    def test_reads_that_meet(self):
        # later loops read wholly along earlier edges, or read from both
        # ends until the reads meet
        for gens in (["a b^-1", "b a^-1"], ["a b", "a b a b^-1 a^-1"], ["a b a^-1", "a b^2 a^-1"],
                     ["a", "a^-1", "a^2"], ["a b a^-1 b^-1", "b a b^-1 a^-1"]):
            gens = ws(*gens)
            assert build_and_fold(AB, gens).canonical_form() == _bouquet_then_fold(AB, gens)


class TestMembership:
    def test_contains_examples(self):
        g = fold("a^2", "b")
        assert g.contains(w("a^2 b"))
        assert not g.contains(w("a"))
        assert fold("a b a^-1").contains(w("a b^3 a^-1"))

    def test_contains_rejects_another_alphabet(self):
        g = fold("a^2 b")
        assert g.contains(word(alphabet("a b"), "a^2 b"))  # an equal alphabet is the same
        with pytest.raises(StallingsError, match="alphabet mismatch"):
            g.contains(word(alphabet("a b c"), "a^2 b"))

    def test_agrees_with_bounded_bruteforce(self):
        rng = random.Random(31)
        for _ in range(25):
            gens = [
                Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 5))])
                for _ in range(2)
            ]
            gens = [g for g in gens if g]
            if not gens:
                continue
            g = build_and_fold(AB, gens)
            # all products of <= 4 generators
            pool = {Word(AB, ())}
            frontier = {Word(AB, ())}
            for _ in range(4):
                frontier = {
                    p * q ** e for p in frontier for q in gens for e in (1, -1)
                }
                pool |= frontier
            for v in pool:
                assert g.contains(v)
            # short words outside the pool get the same verdict as folding
            for _ in range(20):
                v = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(4))])
                if g.contains(v):
                    # verify by a slightly deeper search
                    assert any(p == v for p in pool) or g.contains(v)


class TestBasis:
    def test_loop_basis(self):
        assert basis(fold("a")) == [w("a")]

    def test_single_vertex(self):
        assert basis(build_and_fold(AB, [])) == []

    def test_basis_generates_same_subgroup(self):
        g = fold("a b a^-1", "a b^2 a")
        b = basis(g)
        assert len(b) == g.rank() == 2
        assert same_subgroup(build_and_fold(AB, b), g)

    def test_mutual_membership_oracle(self):
        g1 = fold("a b", "b a")
        g2 = fold("a b", "a^2")
        expected = all(g2.contains(x) for x in basis(g1)) and all(
            g1.contains(x) for x in basis(g2)
        )
        assert same_subgroup(g1, g2) == expected


class TestRewriting:
    def test_simple(self):
        assert BasisRewriter(AB, ws("a^2", "b")).rewrite(w("a^2 b a^2")) == over_gens(2, [1, 2, 1])

    def test_not_member(self):
        assert BasisRewriter(AB, ws("a^2", "b")).rewrite(w("a")) is None

    def test_not_a_basis(self):
        with pytest.raises(StallingsError):
            BasisRewriter(AB, ws("a^2", "a^3")).rewrite(w("a"))

    def test_folding_required_case(self):
        # generators share a long prefix, so provenance is nontrivial
        gens = ws("a b a b^2", "a b a b^3")
        for target, expected in [
            (w("a b a b^2") * w("a b a b^3"), [1, 2]),
            (w("a b a b^3") ** -1 * w("a b a b^2"), [-2, 1]),
        ]:
            assert BasisRewriter(AB, gens).rewrite(target) == over_gens(2, expected)

    def test_triangle_seed_conjugate(self):
        from malkit.malchar import seed_words_triangle
        from malkit.words import conjugate

        x, y = seed_words_triangle(AB, 6)
        assert BasisRewriter(AB, [x, y]).rewrite(conjugate(x, y)) == over_gens(2, [-2, 1, 2])

    def test_random_roundtrips(self):
        rng = random.Random(41)
        gens = ws("a^2", "b a b^-1", "b^2 a")
        rewriter = BasisRewriter(AB, gens)
        for _ in range(100):
            expr = [
                (rng.randrange(3), rng.choice([1, -1]))
                for _ in range(rng.randrange(1, 7))
            ]
            target = Word(AB, ())
            for i, s in expr:
                target = target * gens[i] ** s
            # the basis is free, so the rewriting is the reduced expression
            assert rewriter.rewrite(target) == over_gens(3, [s * (i + 1) for i, s in expr])


def _reference_fibre(g1, g2):
    """Brute-force fibre product: the explicit pair graph, its components
    by BFS in least-vertex order, and forest <=> edges = vertices - 1."""
    edges = []
    for u1, d1 in enumerate(g1.out):
        for s, v1 in d1.items():
            if s < 0:
                continue
            for u2, d2 in enumerate(g2.out):
                if s in d2:
                    edges.append(((u1, u2), s, (v1, d2[s])))
    adj = {}
    for a, _s, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    comp_of = {}
    comps = []
    for root in sorted(adj):
        if root in comp_of:
            continue
        comp_of[root] = len(comps)
        verts = [root]
        queue = deque([root])
        while queue:
            for x in adj[queue.popleft()]:
                if x not in comp_of:
                    comp_of[x] = len(comps)
                    verts.append(x)
                    queue.append(x)
        comps.append((sorted(verts), []))
    for e in edges:
        comps[comp_of[e[0]]][1].append(e)
    comps = [(verts, sorted(es)) for verts, es in comps]
    same = g1.canonical_form() == g2.canonical_form()
    diag = comp_of.get((0, 0)) if same else None
    failing = [i for i, (verts, es) in enumerate(comps) if len(es) != len(verts) - 1]
    return comps, diag, failing


def _reference_witness(g1, g2, edges):
    """The witness of an explicit component, given by its edge list: trim
    edges at pairs of degree one until none is left, run a BFS from the
    least core pair taking each pair's edges by label, and close the cycle
    at the first edge that is not the tree edge back to the parent."""
    while True:
        degree = {}
        for a, _s, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        core = [e for e in edges if degree[e[0]] > 1 and degree[e[2]] > 1]
        if core == edges:
            break
        edges = core
    adj = {}
    for idx, (a, s, b) in enumerate(edges):
        adj.setdefault(a, []).append((s, b, idx))
        adj.setdefault(b, []).append((-s, a, idx))
    root = min(adj)
    parent = {root: (root, 0, -1)}
    queue = deque([root])

    def path(x):
        rev = []
        while x != root:
            x, s, _idx = parent[x]
            rev.append(s)
        return tuple(reversed(rev))

    while queue:
        v = queue.popleft()
        for s, x, idx in sorted(adj[v]):
            if x not in parent:
                parent[x] = (v, s, idx)
                queue.append(x)
            elif idx != parent[v][2]:
                cycle = free_reduce_letters(path(v) + (s,) + inverse_letters(path(x)))
                if cycle:
                    p, q = g1.path_from_basepoint(root[0]), g2.path_from_basepoint(root[1])
                    g, u = Word(g1.alphabet, q + inverse_letters(p)), Word(g1.alphabet, p + cycle + inverse_letters(p))
                    return str(g), str(u)
    raise AssertionError("no cycle in a component that is not a forest")


@st.composite
def _reduced_word(draw, min_len, max_len):
    """A freely reduced word: each letter is one of the three that do not
    cancel the previous one."""
    first = draw(st.sampled_from([1, -1, 2, -2]))
    turns = draw(st.lists(st.integers(0, 2), min_size=min_len - 1, max_size=max_len - 1))
    letters = [first]
    for turn in turns:
        letters.append([x for x in (1, -1, 2, -2) if x != -letters[-1]][turn])
    return Word(AB, tuple(letters), reduced=True)


def _folded_graphs(min_len, max_len):
    return st.lists(_reduced_word(min_len, max_len), min_size=1, max_size=3).map(
        lambda gens: build_and_fold(AB, gens))


# products are drawn on both sides of this edge count, so that the search
# is checked on small products and on large ones with many tree components;
# nothing in the search changes at this size
_SIZE_SPLIT = 384


@st.composite
def _chain_graphs(draw):
    """Folded graphs made mostly of chains: words p x_i q for long x_i,
    with p and q short and possibly empty, so that the basepoint has
    degree 1 (a stem), 2 (inside a cycle) or more.  At most one vertex in
    twenty is a stop (the basepoint, or of degree other than 2)."""
    p, q = draw(_reduced_word(1, 4)), draw(_reduced_word(1, 4))
    if draw(st.booleans()):
        p = Word(AB, ())
    if draw(st.booleans()):
        q = Word(AB, ())
    middles = draw(st.lists(_reduced_word(40, 120), min_size=1, max_size=3))
    g = build_and_fold(AB, [p * x * q for x in middles if p * x * q])
    assume(20 * sum(len(d) != 2 or not v for v, d in enumerate(g.out)) <= g.num_vertices)
    return g


@st.composite
def _looped_graphs(draw):
    """Folded graphs with one-letter loops, at the basepoint or at the end
    of a stem p, which give loops in the product."""
    p = draw(_reduced_word(1, 4)) if draw(st.booleans()) else Word(AB, ())
    loops = draw(st.lists(st.sampled_from(ws("a", "b")), min_size=1, max_size=2))
    others = draw(st.lists(_reduced_word(1, 6), max_size=2))
    return build_and_fold(AB, [p * x * p.inverse() for x in loops] + others)


@st.composite
def _shared_source_graphs(draw):
    """Folded graphs where two non-tree edges are recorded at one vertex:
    two or three cycles hung at the end of one stem."""
    p = draw(_reduced_word(1, 4)) if draw(st.booleans()) else Word(AB, ())
    cycles = draw(st.lists(_reduced_word(1, 3), min_size=2, max_size=3))
    g = build_and_fold(AB, [p * x * p.inverse() for x in cycles])
    assume(any(bits & (bits - 1) for bits in g.fibre_facts().sources.values()))
    return g


def _bfs_tree_parent(g):
    """Reference tree: a BFS from the basepoint with a queue, taking each
    vertex's edges in signed-letter order; (parent, letter into v) at each
    vertex v, None at the basepoint."""
    parent = [None] * g.num_vertices
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for s in signed_letters(len(g.alphabet)):
            t = g.out[v].get(s)
            if t is not None and t != 0 and parent[t] is None:
                parent[t] = (v, s)
                queue.append(t)
    return parent


def _tree_as_parents(g, tree):
    """The tree of ``fibre_facts`` (the letter into each vertex) as
    (parent, letter into v) at each vertex v, None at the basepoint."""
    return [(g.out[v][-s], s) if v else None for v, s in enumerate(tree)]


def _reference_nontree_edges(g, parent):
    """Every edge (u, s, v), s > 0, that is not an edge of the tree ``parent``, sorted."""
    return sorted((v, s, t) for v, d in enumerate(g.out) for s, t in d.items()
                  if s > 0 and parent[t] != (v, s) and parent[v] != (t, -s))


class TestSpanningTree:
    """The one-pass tree and fibre facts against a BFS with a queue and an
    edge filter."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_folded_graphs(1, 8), _chain_graphs(), _looped_graphs(), _shared_source_graphs()))
    def test_matches_bfs(self, g):
        masks, groups, sources, tree, nontree = g.fibre_facts()
        parent = _bfs_tree_parent(g)
        assert _tree_as_parents(g, tree) == parent
        assert nontree == _reference_nontree_edges(g, parent)
        assert len(nontree) == g.rank()
        assert masks == [sum(1 << ord(LETTER_UNIT[s]) for s in d) for d in g.out]
        assert groups == {m: [v for v, x in enumerate(masks) if x == m] for m in masks}
        # each non-tree edge is recorded once: at its higher end, or by its
        # positive label for a loop
        recorded = {}
        for u, s, v in nontree:
            at, label = (u, s) if u >= v else (v, -s)
            recorded[at] = recorded.get(at, 0) | 1 << ord(LETTER_UNIT[label])
        assert sources == recorded

    def test_seed_pair(self):
        from malkit.malchar import seed_words_triangle

        g = build_and_fold(AB, list(seed_words_triangle(AB, 8)))
        parent = _bfs_tree_parent(g)
        assert _tree_as_parents(g, g.fibre_facts().tree) == parent
        assert g.fibre_facts().nontree == _reference_nontree_edges(g, parent)
        assert same_subgroup(build_and_fold(AB, basis(g)), g)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_reduced_word(1, 6), min_size=1, max_size=3),
           st.lists(_reduced_word(1, 6), min_size=1, max_size=3), st.data())
    def test_same_subgroup_is_canonical_form_equality(self, gens1, gens2, data):
        if data.draw(st.booleans()):  # a Nielsen move: a second generating set of <gens1>
            k = data.draw(st.integers(0, len(gens1) - 1))
            gens2 = [x * gens1[k] if i != k else x for i, x in enumerate(gens1)]
        g1, g2 = build_and_fold(AB, gens1), build_and_fold(AB, gens2)
        assert same_subgroup(g1, g2) == (g1.canonical_form() == g2.canonical_form())

    def test_same_subgroup_needs_the_same_alphabet(self):
        a = alphabet("a")
        assert not same_subgroup(fold("a"), build_and_fold(a, [word(a, "a")]))


class TestFibreAnalysisDifferential:
    """The seeded component search against a brute-force pair graph, on
    products below and above a size split."""

    @staticmethod
    def _compare(g1, g2):
        fa = _fibre_analysis(g1, g2)
        comps, diag, failing = _reference_fibre(g1, g2)
        assert fa.component_count == len(comps)
        off_diag = [i for i in failing if i != diag]
        # each root is the least pair of the least such component, and its
        # witness is the one the explicit component gives, and it checks
        for root, which in ((fa.failing_root, failing), (fa.failing_nondiag_root, off_diag)):
            if not which:
                assert root is None
                continue
            verts, edges = comps[which[0]]
            assert divmod(root, g2.num_vertices) == verts[0]
            wit = fa.witness(root)
            stallings._verify_witness(wit, g1, g2)
            assert (str(wit.conjugator), str(wit.element)) == _reference_witness(g1, g2, edges)
        # every component with a cycle is explored, and nothing outside the product
        assert sum(len(comps[i][0]) for i in failing) <= fa.explored <= sum(len(v) for v, _es in comps)
        return fa

    @staticmethod
    def _product_edges(g1, g2):
        return sum(
            sum(1 for d in g1.out for x in d if x == s) * sum(1 for d in g2.out for x in d if x == s)
            for s in (1, 2)
        )

    @settings(max_examples=60, deadline=None)
    @given(_folded_graphs(1, 8), _folded_graphs(1, 8), st.booleans())
    def test_below_cut(self, g1, g2, diagonal):
        g2 = g1 if diagonal else g2
        assume(self._product_edges(g1, g2) < _SIZE_SPLIT)
        self._compare(g1, g2)

    @settings(max_examples=30, deadline=None)
    @given(_folded_graphs(20, 40), _folded_graphs(20, 40), st.booleans())
    def test_above_cut(self, g1, g2, diagonal):
        g2 = g1 if diagonal else g2
        assume(self._product_edges(g1, g2) >= _SIZE_SPLIT)
        self._compare(g1, g2)

    # graphs that stress the seed rule: a product loop has both labels of
    # its letter at one pair, a vertex with two non-tree edges seeds by
    # either label, and long chains give large products with few cycles

    @settings(max_examples=60, deadline=None)
    @given(_looped_graphs(), st.one_of(_looped_graphs(), _folded_graphs(1, 6)), st.booleans())
    def test_one_letter_loops(self, g1, g2, swap):
        self._compare(*((g2, g1) if swap else (g1, g2)))

    @settings(max_examples=60, deadline=None)
    @given(_shared_source_graphs(), st.one_of(_shared_source_graphs(), _folded_graphs(1, 6)), st.booleans())
    def test_shared_sources(self, g1, g2, swap):
        self._compare(*((g2, g1) if swap else (g1, g2)))

    @settings(max_examples=15, deadline=None)
    @given(_chain_graphs(), st.one_of(_chain_graphs(), _folded_graphs(1, 8)), st.booleans())
    def test_chain_graphs(self, g1, g2, diagonal):
        self._compare(g1, g1 if diagonal else g2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_reduced_word(1, 8), min_size=1, max_size=3), st.data())
    def test_equal_distinct_graphs(self, gens, data):
        # the same subgroup from a second generating set: the diagonal is
        # found by comparing canonical forms, not by identity
        k = data.draw(st.integers(0, len(gens) - 1))
        other = [x * gens[k] if i != k else x for i, x in enumerate(gens)]
        g1, g2 = build_and_fold(AB, gens), build_and_fold(AB, data.draw(st.permutations(other)))
        assert g1 is not g2 and same_subgroup(g1, g2)
        self._compare(g1, g2)
        self._compare(g2, g1)

    def test_explores_few_pairs_on_a_psi_image(self):
        # a psi-image of the (6,6,6) rho=8 seed pair against the seed pair:
        # 749 x 551 vertices and every component a tree.  Seeding every pair
        # at a source of a non-tree edge explores more than 2,000 pairs here.
        from malkit.malchar import psi_maps, seed_words_triangle

        pair = list(seed_words_triangle(AB, 8))
        psi = next(p for p in psi_maps(AB) if p.name == "psi(2,+1)")
        t_graph = build_and_fold(AB, [apply_endo(psi.spec, x) for x in pair])
        s_graph = build_and_fold(AB, pair)
        assert (t_graph.num_vertices, s_graph.num_vertices) == (749, 551)
        fa = _fibre_analysis(t_graph, s_graph)
        assert fa.failing_root is None and fa.component_count == 178595
        assert fa.explored <= 20


class TestFibreProduct:
    """Small products, each checked against the brute-force pair graph."""

    compare = staticmethod(TestFibreAnalysisDifferential._compare)

    def test_disjoint_letters_forest(self):
        assert self.compare(fold("a"), fold("b")).failing_root is None

    def test_nondiagonal_cycle_for_a2_b(self):
        g = fold("a^2", "b")
        fa = self.compare(g, g)
        assert fa.witness(fa.failing_nondiag_root).element

    def test_same_graph_diagonal_only(self):
        g = fold("a")
        fa = self.compare(g, g)
        assert fa.failing_nondiag_root is None and fa.failing_root == 0

    def test_diagonal_rank_matches(self):
        # the diagonal holds the basepoint pair, so it is the least failing component
        g = fold("a b a^-1 b^-1", "a^2 b")
        comps, diag, _failing = _reference_fibre(g, g)
        assert self.compare(g, g).failing_root == 0
        verts, edges = comps[diag]
        assert verts[0] == (0, 0) and len(edges) - len(verts) + 1 == g.rank()


class TestFibreAnalysisAdversarial:
    """Products the seeded search could get wrong: factors with no seeds
    (rank 0), cycles without a branch vertex, where every component is
    explored whole, single-letter loops, and self-products that fail off
    the diagonal."""

    compare = staticmethod(TestFibreAnalysisDifferential._compare)

    @pytest.mark.parametrize("left, right", [
        ((), ()),                                 # rank 0 on both sides
        ((), ("a b a^-1 b^-1",)),                 # rank 0 against rank 1
        (("a b^2 a^-1",), ()),                    # a cycle on a stem against rank 0
        (("a b a b^-1",), ("a b a b^-1",)),       # a cycle, no branch vertex
        (("a b a b^-1",), ("b a^2 b^-1 a",)),
        (("b a b a b^-1 b^-1",), ("a b a b^-1",)),  # a cycle on a stem
        (("b^2 a b^-2",), ("b a b^-1",)),
        (("a",), ("a",)),                         # single-letter loops
        (("a",), ("b",)),
        (("a", "b"), ("a",)),
        (("a", "b"), ("a", "b")),
    ])
    def test_against_reference(self, left, right):
        self.compare(fold(*left), fold(*right))

    def test_seeds_need_the_non_tree_label(self):
        # the b-loop of <a^-1 b^-1 a> sits at a vertex with labels a, b and
        # b^-1, and it is the only non-tree edge there; vertex 1 of the
        # 2-cycle <a^-1 b^-1> has labels a and b^-1.  That pair has product
        # degree 2 but no b-edge, so no cycle crosses the loop there: the
        # loop's side gives no seed, and the product, a forest, is not
        # searched at all
        fa = self.compare(fold("a^-1 b^-1"), fold("a^-1 b^-1 a"))
        assert fa.failing_root is None and fa.explored == 0

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (2, 3), (4, 6), (6, 9), (12, 18), (7, 7)])
    def test_power_cycles(self, m, n):
        # a^m x a^n is gcd(m, n) cycles of length lcm(m, n), none of them a tree
        fa = self.compare(fold(f"a^{m}"), fold(f"a^{n}"))
        assert fa.component_count == math.gcd(m, n)
        assert fa.failing_root is not None

    @pytest.mark.parametrize("gens", [("a^2", "b"), ("a^3",), ("a b a b",), ("a b a^-1", "b^2"),
                                      ("a^2 b^-1 a^2 b^-1",), ("a b^2 a^-1", "b a^2 b^-1")])
    def test_self_products_failing_off_diagonal(self, gens):
        g = fold(*gens)
        fa = self.compare(g, g)
        assert fa.failing_root == 0
        assert fa.failing_nondiag_root not in (None, 0)


class TestWitnessChecks:
    """A witness that fails re-verification is a typed error, also when
    Python runs with -O and bare asserts are stripped."""

    BAD_MALNORMAL = [
        ("a", "1"),    # trivial element
        ("a", "a"),    # element outside <a^2, b>
        ("a", "b"),    # conjugate a b a^-1 outside <a^2, b>
        ("b", "a^2"),  # conjugator inside <a^2, b>
    ]

    @pytest.mark.parametrize("g, u", BAD_MALNORMAL)
    def test_bad_malnormality_witness(self, monkeypatch, g, u):
        bad = IntersectionWitness(conjugator=w(g), element=w(u))
        monkeypatch.setattr(stallings._FibreAnalysis, "witness", lambda *args: bad)
        with pytest.raises(WitnessError):
            is_malnormal(AB, ws("a^2", "b"))

    @pytest.mark.parametrize("g, u", [("a", "1"), ("1", "b"), ("b", "a^2")])
    def test_bad_intersection_witness(self, monkeypatch, g, u):
        # <a^2> meets <a^3> in every conjugate; u = b is not in <a^2>, and
        # b a^2 b^-1 is not in <a^3>
        bad = IntersectionWitness(conjugator=w(g), element=w(u))
        monkeypatch.setattr(stallings._FibreAnalysis, "witness", lambda *args: bad)
        with pytest.raises(WitnessError):
            trivial_intersection_all_conjugates(AB, ws("a^3"), ws("a^2"))

    def test_checks_survive_optimised_python(self):
        code = (
            "from malkit import stallings\n"
            "from malkit.words import alphabet, word\n"
            "AB = alphabet('a b')\n"
            "bad = stallings.IntersectionWitness(conjugator=word(AB, 'a'), element=word(AB, 'b'))\n"
            "stallings._FibreAnalysis.witness = lambda *args: bad\n"
            "raised = []\n"
            "for call in (lambda: stallings.is_malnormal(AB, [word(AB, 'a^2'), word(AB, 'b')]),\n"
            "             lambda: stallings.trivial_intersection_all_conjugates(\n"
            "                 AB, [word(AB, 'a^3')], [word(AB, 'a^2')])):\n"
            "    try:\n"
            "        call()\n"
            "    except stallings.WitnessError:\n"
            "        raised.append(True)\n"
            "print(__debug__, len(raised))\n"
        )
        src = str(Path(malkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["False", "2"], out.stderr


class TestWitnessCorpus:
    """The verdicts, component counts and witnesses of a seeded corpus of
    small malnormality and conjugate-intersection questions over two and
    three letters, about a third of them answered with a witness, pinned
    by one digest."""

    DIGEST = "5ff8cb20daaf62012ec680afaaf2af936ddb2d8c4c2c771fa58739d28197f202"

    @staticmethod
    def _corpus():
        rng = random.Random(16)
        for names in ("a b", "a b c"):
            alpha = alphabet(names)
            letters = list(signed_letters(len(alpha)))

            def gens():
                return [Word(alpha, [rng.choice(letters) for _ in range(rng.randrange(1, 8))])
                        for _ in range(rng.randrange(1, 4))]

            for _ in range(750):
                v = is_malnormal(alpha, gens())
                yield v.malnormal, v.component_count, v.witness and v.witness.as_dict()
                v = trivial_intersection_all_conjugates(alpha, gens(), gens())
                yield v.trivial, v.component_count, v.witness and v.witness.as_dict()

    def test_digest(self):
        rows = list(self._corpus())
        assert len(rows) == 3000 and sum(1 for r in rows if r[2]) == 1035
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.DIGEST


def _corpus_maker():
    """tests/fixtures/make_stallings_corpus.py, imported by path."""
    import importlib.util

    path = Path(__file__).parent / "fixtures" / "make_stallings_corpus.py"
    spec = importlib.util.spec_from_file_location("make_stallings_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPinnedCorpus:
    """Folds, bases, fibre-product facts and witnesses on the seeded corpus
    of ``tests/fixtures/stallings_corpus.json``, recomputed from its words
    and compared case by case."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads((Path(__file__).parent / "fixtures" / "stallings_corpus.json").read_text())

    def test_small_cases(self, pinned):
        maker = _corpus_maker()
        cases = pinned["small"]
        assert len(cases) == 300 and sum(1 for c in cases if c["self"][3]) == 62
        assert sum(1 for c in cases if c["cross"][3]) == 78
        for names, _count in maker.SMALL:
            mine = [c for c in cases if c["alphabet"] == names]
            rows = json.loads(json.dumps(maker.small_rows(names, [c["words"] for c in mine])))
            for want, got in zip(mine, rows):
                assert got == want, want["words"]

    def test_paper_cases(self, pinned):
        rows = json.loads(json.dumps(_corpus_maker().paper_rows()))
        assert [r["name"] for r in rows] == [r["name"] for r in pinned["paper"]]
        for want, got in zip(pinned["paper"], rows):
            assert got == want, want["name"]


class TestFoldGuards:
    def test_disconnected_graph_refused(self):
        # two vertices, each with a loop, and no edge between them
        out = [{LETTER_UNIT[1]: 0, LETTER_UNIT[-1]: 0}, {LETTER_UNIT[2]: 1, LETTER_UNIT[-2]: 1}]
        with pytest.raises(StallingsError, match="not connected"):
            stallings._canonicalize(AB, out, 0, 2)

    def test_connected_graph_renumbered(self):
        out = [{LETTER_UNIT[1]: 1}, {LETTER_UNIT[-1]: 0, LETTER_UNIT[2]: 1, LETTER_UNIT[-2]: 1}]
        g = stallings._canonicalize(AB, out, 0, 2)
        assert g.out == [{1: 1}, {-1: 0, 2: 1, -2: 1}]

    @settings(max_examples=200, deadline=None)
    @given(_overlapping_gens())
    def test_basis_words_are_reduced_as_spelled(self, case):
        # basis() builds its words without reducing them
        alpha, gens = case
        g = build_and_fold(alpha, gens)
        words = basis(g)
        assert len(words) == g.rank()
        for b in words:
            assert b.letters == free_reduce_letters(b.letters) and b
            assert g.contains(b)


class TestMalnormality:
    def test_maximal_cyclic_is_malnormal(self):
        assert is_malnormal(AB, ws("a")).malnormal

    def test_a2_b_witness(self):
        verdict = is_malnormal(AB, ws("a^2", "b"))
        assert not verdict.malnormal
        g, u = verdict.witness.conjugator, verdict.witness.element
        graph = verdict.graph
        assert u and graph.contains(u)
        assert graph.contains(conjugate(u, g.inverse()))
        assert not graph.contains(g)

    def test_whole_group_malnormal(self):
        assert is_malnormal(AB, ws("a", "b")).malnormal

    @pytest.mark.parametrize("gens", [("a",), ("a^2", "b"), ("a^3 b^3",), ("a b a^-1", "a b^2 a")])
    def test_graph_level_verdict_equals_word_level(self, gens):
        # is_malnormal folds and asks is_malnormal_graph, which reads the
        # caller's graph without folding again
        graph = build_and_fold(AB, ws(*gens))
        on_graph, on_words = is_malnormal_graph(graph), is_malnormal(AB, ws(*gens))
        assert on_graph.graph is graph
        assert (on_graph.malnormal, on_graph.witness, on_graph.component_count) == (
            on_words.malnormal, on_words.witness, on_words.component_count)

    def test_single_generator_characterisation(self):
        # <w> is malnormal exactly when w is not a proper power
        from malkit.words import proper_power

        rng = random.Random(61)
        for _ in range(80):
            v = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 9))])
            if not v:
                continue
            assert is_malnormal(AB, [v]).malnormal == (proper_power(v) is None), v

    def test_brute_force_agreement(self):
        rng = random.Random(59)
        conjugators = _reduced_words_up_to(6)
        for trial in range(40):
            gens = []
            total = 0
            for _ in range(rng.randrange(1, 3)):
                v = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 5))])
                if v and total + len(v) <= 8:
                    gens.append(v)
                    total += len(v)
            if not gens:
                continue
            verdict = is_malnormal(AB, gens)
            brute = _brute_malnormal(gens, conjugators)
            assert verdict.malnormal == brute, f"disagreement on {gens}"


def _reduced_words_up_to(n):
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
    return [Word(AB, t, reduced=True) for t in out]


def _brute_malnormal(gens, conjugators):
    graph = build_and_fold(AB, gens)
    # nontrivial elements of <gens> of syllable length <= 3
    elems = set()
    frontier = {Word(AB, ())}
    for _ in range(3):
        frontier = {p * q ** e for p in frontier for q in gens for e in (1, -1)}
        elems |= {x for x in frontier if x}
    for g in conjugators:
        if graph.contains(g):
            continue
        for u in elems:
            if graph.contains(conjugate(u, g.inverse())):
                return False
    return True


class TestTrivialIntersection:
    def test_disjoint(self):
        assert trivial_intersection_all_conjugates(AB, ws("a"), ws("b")).trivial

    def test_conjugate_caught(self):
        verdict = trivial_intersection_all_conjugates(AB, ws("a"), ws("b a^2 b^-1"))
        assert not verdict.trivial
        g, u = verdict.witness.conjugator, verdict.witness.element
        t_graph = build_and_fold(AB, ws("b a^2 b^-1"))
        s_graph = build_and_fold(AB, ws("a"))
        assert t_graph.contains(u)
        assert s_graph.contains(conjugate(u, g.inverse()))

    def test_self_intersection_diagonal_counts(self):
        verdict = trivial_intersection_all_conjugates(AB, ws("a"), ws("a"))
        assert not verdict.trivial


# -- chain reads ----------------------------------------------------------------

SIGNED = (1, -1, 2, -2)


def _read_by_letters(g, code):
    """The per-letter reader: one step along the rows ``g.out`` per letter,
    so that it does not share the dense table that ``read`` walks on large
    graphs."""
    v = 0
    for s in decode_letters(code):
        v = g.out[v].get(s, -1)
        if v < 0:
            return -1
    return v


def _symbols_by_edge(g):
    """(vertex, code unit) of each non-tree edge, both ways -> the unit of
    the tree-basis symbol it crosses."""
    symbol = {}
    for idx, (u, s, v) in enumerate(g.fibre_facts().nontree):
        symbol[u, encode_letters(AB, [s])] = chr(2 * idx)
        symbol[v, encode_letters(AB, [-s])] = chr(2 * idx + 1)
    return symbol


def _check_steps(rw):
    """Each of the rewriter's steps read one table step per code unit: from
    a stop, by each label leaving it, its path passes only vertices that
    are not stops and ends at the step's stop, crossing the step's symbols;
    and the step back from that stop is the inverse of both codes.  Returns
    the stops."""
    g, steps = rw.graph, rw._steps
    symbol, tbl = _symbols_by_edge(g), g.table()
    stops = [v for v, row in enumerate(steps) if row is not None]
    for v in stops:
        assert set(steps[v]) == {LETTER_UNIT[s] for s in g.out[v]}
        for first, (path, end, symbols) in steps[v].items():
            assert path[0] == first
            u, crossed = v, []
            for k, c in enumerate(path):
                assert k == 0 or steps[u] is None
                crossed.append(symbol.get((u, c), ""))
                u = tbl[u][ord(c)]
            assert (u, "".join(crossed)) == (end, symbols) and steps[end] is not None
            assert steps[end][invert_code(path[-1])] == (invert_code(path), v, invert_code(symbols))
    return stops


def _crossing_by_letters(rw, code):
    """The rewriter's crossing word read one table step per code unit: the
    non-tree edges crossed, freely reduced, or None off a basepoint loop;
    and the positions of the crossing steps."""
    symbol, tbl = _symbols_by_edge(rw.graph), rw.graph.table()
    v, crossed, at = 0, [], []
    for k, c in enumerate(code):
        t = tbl[v][ord(c)]
        if t < 0:
            return None, at
        if (v, c) in symbol:
            crossed.append(symbol[v, c])
            at.append(k)
        v = t
    return (code_product(crossed) if v == 0 else None), at


def _a5_kernel_generators():
    """Schreier generators of the kernel of F(a, b) -> A5, a free basis of
    a subgroup of index 60."""
    from malkit.cosetenum import schreier_kernel_generators

    return schreier_kernel_generators(AB, ws("a^2", "b^3", "(a b)^5"), (), 1000)[0]


def _bend(data, letters):
    """``letters`` as they are, cut short, bent off at some position or
    padded with a cancelling pair, and encoded without reduction."""
    letters = list(letters)
    k = data.draw(st.integers(0, len(letters)))
    kind = data.draw(st.sampled_from(["same", "cut", "bend", "pad"]))
    if kind == "cut":
        letters = letters[:k]
    elif kind == "bend":
        letters = letters[:k] + [data.draw(st.sampled_from(SIGNED))] + letters[k + 1:]
    elif kind == "pad":
        x = data.draw(st.sampled_from(SIGNED))
        letters[k:k] = [x, -x]
    return encode_letters(AB, letters)


def _walk(data, g):
    """The letters of a walk from the basepoint that never turns back: long
    walks end inside chains, and most pass through several."""
    letters, v = [], 0
    for turn in data.draw(st.lists(st.integers(0, 3), max_size=400)):
        options = [s for s in sorted(g.out[v]) if not letters or s != -letters[-1]]
        if not options:
            break
        s = options[turn % len(options)]
        letters.append(s)
        v = g.out[v][s]
    return letters


class TestChainReads:
    """Membership's reader, and basis rewriting's reading by its steps
    along chains, against the per-letter table reader."""

    @settings(max_examples=150, deadline=None)
    @given(_chain_graphs(), st.data())
    def test_read_matches_letters(self, g, data):
        letters = _walk(data, g)
        code = _bend(data, letters)
        assert g.read(code) == _read_by_letters(g, code)
        assert g.contains(Word.from_code(AB, code)) == (_read_by_letters(g, code) == 0)
        # the walk closed by the tree path back is a loop, crossed by chains
        back = g.path_from_basepoint(g.read(encode_letters(AB, letters)))
        loop = _bend(data, letters + list(inverse_letters(back)))
        rw = BasisRewriter(AB, basis(g))
        assert rw._crossing(Word.from_code(AB, loop)) == _crossing_by_letters(rw, loop)[0]

    @settings(max_examples=40, deadline=None)
    @given(_chain_graphs(), st.data())
    def test_every_prefix(self, g, data):
        # each prefix of a walk ends at a stop or inside a chain
        code = encode_letters(AB, _walk(data, g))
        for k in range(len(code) + 1):
            assert g.read(code[:k]) == _read_by_letters(g, code[:k])

    @settings(max_examples=60, deadline=None)
    @given(_chain_graphs(), st.data())
    def test_unreduced_random_codes(self, g, data):
        # a walk reaches vertices far from the basepoint; detours out and
        # back along an edge, put in at random steps, and a random tail make
        # the code unreduced
        letters, v = [], 0
        for s in _walk(data, g) + [0]:
            if data.draw(st.booleans()):
                t = data.draw(st.sampled_from(sorted(g.out[v])))
                letters += [t, -t]
            if not s:
                break
            letters.append(s)
            v = g.out[v][s]
        letters += data.draw(st.lists(st.sampled_from(SIGNED), max_size=10))
        code = encode_letters(AB, letters)
        assert g.read(code) == _read_by_letters(g, code)

    @pytest.mark.parametrize("gens", [("(a b^2)^12",),
                                      ("a^2 (b a^-1)^15 b a^2", "a^2 (b^-1 a^-1)^15 b a^2")])
    def test_basepoint_of_degree_two(self, gens):
        # the basepoint is a stop inside a cycle: chains start and end there
        rw = BasisRewriter(AB, ws(*gens))
        g = rw.graph
        assert len(g.out[0]) == 2 and 0 in _check_steps(rw)
        for x in ws(*gens):
            for code in (x.code, (x * x).code, x.code[:-1], x.code[1:], x.code + x.inverse().code):
                assert g.read(code) == _read_by_letters(g, code)
                assert rw._crossing(Word.from_code(AB, code)) == _crossing_by_letters(rw, code)[0]
            assert g.contains(x) and g.contains(x.inverse())

    def test_stops_decide(self):
        # the stops are the basepoint, which always is one, and the
        # vertices of degree other than 2
        steps = BasisRewriter(AB, ws("a^20"))._steps
        assert steps[0] == {"\x00": ("\x00" * 20, 0, "\x00"), "\x01": ("\x01" * 20, 0, "\x01")}
        assert all(row is None for row in steps[1:])
        # a lollipop: the basepoint and the vertex m where the stem meets
        # the cycle are the stops; the stem crosses no non-tree edge
        steps = BasisRewriter(AB, ws("b^10 a^30 b^-10"))._steps
        m = steps[0]["\x02"][1]
        assert [v for v, row in enumerate(steps) if row is not None] == [0, m]
        assert steps[0] == {"\x02": ("\x02" * 10, m, "")}
        assert steps[m] == {"\x00": ("\x00" * 30, m, "\x00"), "\x01": ("\x01" * 30, m, "\x01"),
                            "\x03": ("\x03" * 10, 0, "")}
        # the triangle seed pair at rho=6: 335 vertices, its stops found by the steps
        from malkit.malchar import seed_words_triangle

        rw = BasisRewriter(AB, list(seed_words_triangle(AB, 6)))
        assert rw.graph.num_vertices == 335
        assert _check_steps(rw) == [v for v, d in enumerate(rw.graph.out) if len(d) != 2 or v == 0]

    @settings(max_examples=40, deadline=None)
    @given(_chain_graphs())
    def test_steps_match_letters(self, g):
        # every step of a graph made mostly of chains, and its reverse
        rw = BasisRewriter(AB, basis(g))
        assert _check_steps(rw) == [v for v, d in enumerate(rw.graph.out) if len(d) != 2 or v == 0]

    def test_no_degree_two_vertices_read_by_table(self):
        # the kernel of F(a, b) -> A5: a finite-index subgroup whose 60
        # vertices all have degree 4.  Membership reads it through the
        # table
        g = build_and_fold(AB, _a5_kernel_generators())
        assert g.num_vertices == 60 and all(len(d) == 4 for d in g.out)
        assert g._table is None
        rng = random.Random(7)
        for _ in range(200):
            code = encode_letters(AB, [rng.choice(SIGNED) for _ in range(rng.randrange(30))])
            assert g.read(code) == _read_by_letters(g, code)
        assert g._table is not None

    def test_rewriter_with_no_degree_two_vertices(self):
        # every vertex of the A5 kernel's graph is a stop, so each step
        # the rewriter reads is a single edge
        gens = _a5_kernel_generators()
        rw = BasisRewriter(AB, gens)
        assert _check_steps(rw) == list(range(60))
        assert all(len(path) == 1 for row in rw._steps for path, _end, _symbols in row.values())
        rng, symbols = random.Random(11), tuple(signed_letters(len(gens)))
        for _ in range(50):
            letters = [rng.choice(symbols) for _ in range(rng.randrange(1, 6))]
            element = Word(AB, ())
            for t in letters:
                element = element * gens[abs(t) - 1] ** (1 if t > 0 else -1)
            assert rw.rewrite(element) == over_gens(len(gens), letters)
            assert rw._crossing(element) == _crossing_by_letters(rw, element.code)[0]
        assert rw.rewrite(w("a")) is None

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.lists(_reduced_word(1, 8), min_size=1, max_size=3),
                     st.lists(_reduced_word(40, 120), min_size=1, max_size=3)), st.data())
    def test_crossings_match_letters(self, gens, data):
        try:
            rw = BasisRewriter(AB, gens)
        except StallingsError:
            assume(False)
        letters = data.draw(st.lists(st.sampled_from(list(signed_letters(len(gens)))), max_size=5))
        element = Word(AB, ())
        for t in letters:
            element = element * gens[abs(t) - 1] ** (1 if t > 0 else -1)
        code = _bend(data, element.letters)
        assert rw._crossing(Word.from_code(AB, code)) == _crossing_by_letters(rw, code)[0]
        # turning back on a non-tree edge crosses it there and back
        for k in _crossing_by_letters(rw, element.code)[1]:
            code = element.code[:k + 1] + invert_code(element.code[k]) + element.code[k:]
            assert rw._crossing(Word.from_code(AB, code)) == _crossing_by_letters(rw, code)[0]
        assert rw.rewrite(element) == over_gens(len(gens), letters)
