"""Stallings subgroup graphs of free groups.

A finitely generated subgroup of F(X) is represented by its folded core
graph: a basepointed graph with edges labeled by generators, no vertex
having two outgoing edges with the same signed label.  Folding is done by
union-find over vertices, followed by at most one pass over the surviving
vertices (resolve, count, collect leaves) and a BFS that numbers them.
Fibre products of folded graphs decide malnormality and
conjugate-intersection questions.

Each folded graph has one spanning tree, its BFS tree from the basepoint,
recorded by the walk that numbers the vertices together with what a fibre
product needs (:meth:`SubgroupGraph.fibre_facts`).  Free bases, witnesses,
basis rewriting and the fibre-product search all use that tree.

A fibre product is never built whole.  A cycle in it projects to a closed
non-backtracking walk in each folded factor, and every such walk crosses a
non-tree edge of the factor.  So only the components of the pairs where a
cycle can cross one are searched; the rest are trees, counted by the Euler
characteristic of the whole product.  The diagonal of a self-product is a
copy of the graph and is counted without a search.  A witness is read off
the same implicit product: one failing component is searched again,
trimmed to its core by pair degrees, and a BFS over the core closes a
cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Optional, Sequence

from .words import (
    LETTER_UNIT,
    UNIT_INVERSE,
    UNIT_LETTER,
    Alphabet,
    Word,
    code_product,
    decode_letters,
    free_reduce_letters,
    images_by_unit,
    invert_code,
    inverse_letters,
    signed_letters,
)


# a graph of fewer vertices than this reads words along its rows, which
# costs less than building its dense table; a larger one reads through the
# table
_ROWS_BELOW = 20


class StallingsError(ValueError):
    pass


class WitnessError(StallingsError):
    """A witness read off a fibre product failed its re-verification."""


class FibreFacts(NamedTuple):
    """A folded graph's one spanning tree, its BFS tree from the basepoint,
    and what a fibre product reads off it: ``masks``, the mask of each
    vertex (bit c for each label leaving it whose code unit has ordinal c);
    ``groups``, the vertices grouped by mask, in increasing order;
    ``sources``, at each vertex where non-tree edges are recorded, the bits
    of their labels read from it; ``tree``, the signed letter of the tree
    edge into each vertex, 0 at the basepoint (the parent of v is
    ``out[v][-tree[v]]``); and ``nontree``, the non-tree edges (u, s, v),
    s > 0, sorted.  A non-tree edge is recorded for the fibre product once:
    at its higher end, or by its positive label for a loop.
    :func:`_canonicalize` builds them while it numbers the vertices."""
    masks: list[int]
    groups: dict[int, list[int]]
    sources: dict[int, int]
    tree: list[int]
    nontree: list[tuple[int, int, int]]


class SubgroupGraph:
    """Folded, core, basepointed subgroup graph.

    Vertices are 0..n-1 in canonical (BFS from basepoint, label-ordered)
    numbering; the basepoint is vertex 0.  ``out[v]`` maps signed letters
    to target vertices.  Membership reads a word along these rows in a graph
    of fewer than ``_ROWS_BELOW`` vertices, and through the dense
    :meth:`table` in a larger one; :class:`BasisRewriter` reads it by its
    own steps along branch-free paths.
    """

    __slots__ = ("alphabet", "out", "_table", "_fibre")

    def __init__(self, alpha: Alphabet, out: list[dict[int, int]], fibre: FibreFacts):
        self.alphabet = alpha
        self.out = out
        self._table = None
        self._fibre = fibre

    # -- size & invariants ---------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.out)

    @property
    def num_edges(self) -> int:
        return sum(len(d) for d in self.out) // 2

    def rank(self) -> int:
        return self.num_edges - self.num_vertices + 1

    # -- reading -------------------------------------------------------------
    def table(self) -> list[list[int]]:
        """Dense transition table: table[v][c] = target or -1, where c is the
        ordinal of the letter's code unit."""
        if self._table is None:
            tbl = [[-1] * (2 * len(self.alphabet)) for _ in self.out]
            for row, d in zip(tbl, self.out):
                for s, w in d.items():
                    row[2 * s - 2 if s > 0 else -2 * s - 1] = w  # ord(LETTER_UNIT[s])
            self._table = tbl
        return self._table

    def fibre_facts(self) -> FibreFacts:
        """The spanning tree and fibre-product facts (:class:`FibreFacts`)."""
        return self._fibre

    def read(self, code: str) -> int:
        """Trace a code from the basepoint; return the final vertex or -1.
        A graph of fewer than ``_ROWS_BELOW`` vertices reads along its rows
        (:func:`_read_rows`), a larger one through its dense table."""
        out = self.out
        if len(out) < _ROWS_BELOW:
            return _read_rows(out, code)
        tbl = self.table()
        v = 0
        for c in map(ord, code):
            v = tbl[v][c]
            if v < 0:
                return -1
        return v

    def contains(self, w: Word) -> bool:
        """Membership of ``w`` in the subgroup: does w read as a basepoint loop?"""
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise StallingsError("alphabet mismatch")
        return self.read(w.code) == 0

    # -- spanning tree -------------------------------------------------------
    def path_code(self, v: int) -> str:
        """The code of the BFS tree path basepoint -> v."""
        tree, out, unit = self.fibre_facts().tree, self.out, LETTER_UNIT
        rev = []
        while v:
            s = tree[v]
            rev.append(unit[s])
            v = out[v][-s]
        return "".join(reversed(rev))

    def path_from_basepoint(self, v: int) -> tuple[int, ...]:
        """Letters of the BFS tree path basepoint -> v."""
        return decode_letters(self.path_code(v))

    # -- canonical form -------------------------------------------------------
    def canonical_form(self):
        """The alphabet, the vertex count and the sorted positive edges; two
        graphs hold the same subgroup exactly when these are equal."""
        edges = sorted((v, s, w) for v, d in enumerate(self.out) for s, w in d.items() if s > 0)
        return self.alphabet.names, self.num_vertices, tuple(edges)

    def __repr__(self):
        return f"SubgroupGraph(V={self.num_vertices}, E={self.num_edges}, rank={self.rank()})"


def _read_rows(out: list[dict[int, int]], code: str) -> int:
    """Read ``code`` letter by letter along the rows ``out`` from the
    basepoint, with no table built: the final vertex, or -1."""
    v = 0
    for s in map(UNIT_LETTER.__getitem__, code):
        v = out[v].get(s, -1)
        if v < 0:
            return -1
    return v


# -- folding -----------------------------------------------------------------

class _Folder:
    """Union-find folding of a labeled graph under construction; edges are
    labeled by code units."""

    def __init__(self):
        # vertex 0, the basepoint; a vertex merged into another keeps None
        self.parent: list[int] = [0]
        self.adj: list[Optional[dict[str, int]]] = [{}]

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def _merge(self, a: int, b: int):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if len(self.adj[a]) < len(self.adj[b]):
                a, b = b, a
            self.parent[b] = a
            db = self.adj[b]
            self.adj[b] = None
            da = self.adj[a]
            for s, t in db.items():
                if s in da:
                    queue.append((da[s], t))
                else:
                    da[s] = t

    def add_edge(self, u: int, s: str, v: int):
        """Insert edge u --s--> v, folding as necessary."""
        u, v = self.find(u), self.find(v)
        du = self.adj[u]
        t = du.get(s)
        if t is not None:
            if self.find(t) != v:
                self._merge(t, v)
            return
        s_inv = UNIT_INVERSE[s]
        r = self.adj[v].get(s_inv)
        if r is not None:
            if self.find(r) != u:
                self._merge(r, u)
            return
        du[s] = v
        self.adj[v][s_inv] = u


def build_and_fold(alpha: Alphabet, gens: Sequence[Word]) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by ``gens``.

    Adds each generator as a loop at the basepoint and folds with
    union-find.  A loop is first read forward from the basepoint, then
    backward along inverse letters, over edges already present; only the
    unread middle gets fresh vertices, and two reads that meet merge their
    endpoints.  The middle is a freely reduced path between fresh vertices
    that leaves the forward read by a letter it lacks, so it is laid down
    without a fold; only its closing edge can fold.  The folded graph is
    unique, so this gives the same graph as folding the whole bouquet.
    Then renumbers canonically.
    """
    for g in gens:
        if g.alphabet is not alpha and g.alphabet != alpha:
            raise StallingsError("generator over a different alphabet")
    f = _Folder()
    adj, parent, find = f.adj, f.parent, f.find
    inverse = UNIT_INVERSE
    for g in gens:
        code = g.code
        i, j = 0, len(code) - 1
        v = u = find(0)
        while i <= j:
            t = adj[v].get(code[i])
            if t is None:
                break
            v = t if parent[t] == t else find(t)
            i += 1
        while j >= i:
            t = adj[u].get(inverse[code[j]])
            if t is None:
                break
            u = t if parent[t] == t else find(t)
            j -= 1
        if i > j:
            if v != u:
                f._merge(v, u)
            continue
        w = len(parent)
        for s in code[i:j]:
            parent.append(w)
            adj.append({inverse[s]: v})
            adj[v][s] = w
            v = w
            w += 1
        f.add_edge(v, code[j], u)
    bp = find(0)
    alive = len(adj)
    # No vertex but the basepoint is a leaf, so there is no core to trim: a
    # fresh vertex leaves its freely reduced generator by two distinct
    # labels, the letters on either side of it, and folding only unites
    # label sets.  With no vertex merged away every target is its own
    # representative; otherwise one pass over the surviving vertices
    # resolves each target and counts the vertices
    if None in adj:
        alive = 0
        for d in adj:
            if d is not None:
                alive += 1
                for s, t in d.items():
                    if parent[t] != t:
                        d[s] = find(t)
    return _canonicalize(alpha, adj, bp, alive)


@cache
def _labels(n: int) -> tuple[tuple[str, int, int], ...]:
    """(code unit, signed letter, mask bit) over n generators, in
    signed-letter order."""
    return tuple((chr(c), x, 1 << c) for c, x in enumerate(signed_letters(n)))


def _canonicalize(alpha: Alphabet, out: list[Optional[dict[str, int]]], bp: int, alive: int) -> SubgroupGraph:
    """BFS renumbering from the basepoint with fixed signed-label order; the
    labels go from code units to signed letters on the way.  ``alive`` is
    the number of vertices the BFS must reach.  Each row of ``out`` is
    dropped once read, so the graph's rows reuse its memory.

    The same walk gives the graph's :class:`FibreFacts`: the edge by which
    the BFS first reaches a vertex is its tree edge, and every other edge at
    vertex i, save the reverse of i's own tree edge, is a non-tree edge."""
    labels = _labels(len(alpha.names))
    number = [-1] * len(out)
    number[bp] = 0
    order = [bp]
    new_out = []
    masks = []
    groups: dict[int, list[int]] = {}
    sources: dict[int, int] = {}
    tree = [0]
    edges = []
    for i, v in enumerate(order):
        d = out[v]
        out[v] = None
        row = {}
        back = -tree[i]  # the label of i's tree edge, read from i
        m = nontree = 0
        for s, x, bit in labels:
            w = d.get(s)
            if w is not None:
                m |= bit
                k = number[w]
                if k < 0:
                    k = number[w] = len(order)
                    order.append(w)
                    tree.append(x)
                elif x != back:
                    if x > 0:
                        edges.append((i, x, k))
                    if k < i or (k == i and x > 0):
                        nontree |= bit
                row[x] = k
        new_out.append(row)
        masks.append(m)
        groups.setdefault(m, []).append(i)
        if nontree:
            sources[i] = nontree
    if len(order) != alive:
        raise StallingsError("subgroup graph is not connected")
    return SubgroupGraph(alpha, new_out, FibreFacts(masks, groups, sources, tree, edges))


def basis(g: SubgroupGraph) -> list[Word]:
    """A free basis of the subgroup: one word per non-tree edge (u, s, v),
    spelled P(u) s P(v)^-1 from the tree paths P.

    Each word is freely reduced as spelled.  A tree path never turns back,
    and the letter s cannot cancel against either path: the last letter of
    P(u) enters u by the tree edge, so s cancelling it would be that edge's
    label read back from u, and the first letter of P(v)^-1 leaves v by the
    inverse of the letter of the tree edge into v, so cancelling it would
    make s that letter.  Either way a second edge would carry the tree
    edge's label at the same end, which a folded graph does not have."""
    path, unit = g.path_code, LETTER_UNIT
    return [Word.from_code(g.alphabet, path(u) + unit[s] + invert_code(path(v)))
            for u, s, v in g.fibre_facts().nontree]


def same_subgroup(g1: SubgroupGraph, g2: SubgroupGraph) -> bool:
    """Equality of subgroups: basepointed labeled-graph isomorphism.  The
    numbering is canonical, so that is equality of alphabets and of ``out``."""
    return g1.alphabet == g2.alphabet and g1.out == g2.out


# -- rewriting over a free basis ----------------------------------------------

class BasisRewriter:
    """Rewrites subgroup elements as words over a fixed free basis.

    The generators are folded; elements are first expressed over the
    spanning-tree basis of the folded graph (crossing word), then carried
    to the given basis through a tracked Nielsen reduction.  Every result
    is verified by substitution before being returned.  Words over either
    basis are codes whose symbol k is the k-th non-tree edge or generator.
    """

    def __init__(self, alpha: Alphabet, gens: Sequence[Word]):
        self.alphabet = alpha
        self.gens = list(gens)
        self.graph = graph = build_and_fold(alpha, gens)
        if graph.rank() != len(gens):
            raise StallingsError("not a free basis")
        # (vertex, code unit) of each non-tree edge, both ways -> the unit
        # of the tree-basis symbol it crosses
        self._symbol_at: dict[tuple[int, str], str] = {}
        for idx, (u, s, v) in enumerate(graph.fibre_facts().nontree):
            self._symbol_at[u, LETTER_UNIT[s]] = chr(2 * idx)
            self._symbol_at[v, LETTER_UNIT[-s]] = chr(2 * idx + 1)
        # the steps _crossing reads by.  A stop is the basepoint or a vertex
        # whose degree is not 2; every other vertex lies inside one
        # branch-free path between stops.  At a stop v, steps[v] maps each
        # code unit leaving it to the code of the path that starts with it,
        # the stop where that path ends and the symbols it crosses; it is
        # None elsewhere.  Each path is walked once, and its reverse step is
        # the inverse of both codes
        out, unit, symbol_at = graph.out, LETTER_UNIT, self._symbol_at
        self._steps = steps = [{} if len(d) != 2 or not v else None for v, d in enumerate(out)]
        for a, row in enumerate(steps):
            if row is None:
                continue
            for s, w in out[a].items():
                first = unit[s]
                if first in row:  # the reverse of a path walked before
                    continue
                path, symbols = [first], [symbol_at.get((a, first), "")]
                while steps[w] is None:  # w has degree 2: leave by the other letter
                    d = out[w]
                    s1, s2 = d
                    s = s2 if s1 == -s else s1
                    path.append(unit[s])
                    symbols.append(symbol_at.get((w, unit[s]), ""))
                    w = d[s]
                code, crossed = "".join(path), "".join(symbols)
                row[first] = (code, w, crossed)
                steps[w][unit[-s]] = (invert_code(code), a, invert_code(crossed))
        self._gen_codes = images_by_unit([g.code for g in self.gens])
        self._basis_over_gens = images_by_unit(self._invert_basis())

    def _walk(self, v: int, code: str) -> tuple[int, str]:
        """Read ``code`` letter by letter from ``v``: the final vertex, or -1,
        and the symbols of the non-tree edges crossed on the way."""
        out, symbol_at = self.graph.out, self._symbol_at
        symbols = []
        for u in code:
            t = out[v].get(UNIT_LETTER[u], -1)
            if t < 0:
                return -1, ""
            symbols.append(symbol_at.get((v, u), ""))
            v = t
        return v, "".join(symbols)

    def _crossing(self, w: Word) -> Optional[str]:
        """Express a subgroup element over the tree basis (non-tree edges
        crossed, in order); None if the word is not in the subgroup.  It
        reads by the steps, each a whole path taken with one
        ``startswith``, and finishes letter by letter where the code leaves
        a path or ends inside one, so every code, reduced or not, reads as
        the table reads it."""
        steps, code = self._steps, w.code
        v, i, n = 0, 0, len(code)
        crossed = []
        while i < n:
            step = steps[v].get(code[i])
            if step is None:
                return None
            path, end, symbols = step
            if not code.startswith(path, i):
                v, symbols = self._walk(v, code[i:])
                crossed.extend(symbols)  # one factor per letter: the code may not be reduced
                break
            crossed.append(symbols)
            i += len(path)
            v = end
        if v != 0:
            return None
        return code_product(crossed)

    def _invert_basis(self) -> list[str]:
        """Expression of each tree-basis symbol over the generator symbols,
        via Nielsen reduction with transformation tracking."""
        n = len(self.gens)
        rows = []
        for i, g in enumerate(self.gens):
            cw = self._crossing(g)
            if cw is None:
                raise StallingsError(f"internal: generator {g} does not read as a loop of its own folded graph")
            rows.append([cw, chr(2 * i)])

        changed = True
        while changed:
            changed = False
            for j in range(n):
                uj, ej = rows[j]
                best = None
                for i in range(n):
                    if i == j:
                        continue
                    ui, ei = rows[i]
                    for ue, ee in ((ui, ei), (invert_code(ui), invert_code(ei))):
                        for order in ((0, 1), (1, 0)):
                            cand = code_product([(ue, uj)[k] for k in order])
                            if len(cand) < len(uj) and (best is None or len(cand) < len(best[0])):
                                best = (cand, code_product([(ee, ej)[k] for k in order]))
                if best is not None:
                    rows[j] = [best[0], best[1]]
                    changed = True
        # a basis must have reduced to distinct single symbols
        expr = [None] * n
        for u, e in rows:
            sym = UNIT_LETTER[u] if len(u) == 1 else 0
            if not sym or expr[abs(sym) - 1] is not None:
                raise StallingsError(
                    "Nielsen reduction did not terminate at a letter tuple; "
                    "generators do not form a recognised free basis"
                )
            expr[abs(sym) - 1] = e if sym > 0 else invert_code(e)
        return expr  # type: ignore[return-value]

    def rewrite(self, w: Word) -> Optional[str]:
        """``w`` as a reduced word over the generators, a code whose symbol
        k is generator k; None if w is not in the subgroup."""
        cw = self._crossing(w)
        if cw is None:
            return None
        out = code_product(map(self._basis_over_gens.__getitem__, cw))
        # verify by substitution
        if code_product(map(self._gen_codes.__getitem__, out)) != w.code:
            raise StallingsError("internal rewriting verification failed")
        return out


# -- fibre products ------------------------------------------------------------
#
# A verdict only needs the components of a fibre product that hold a
# cycle, and those can be found without building the product.  Both graphs
# are folded, so the product is folded too: no two edges leave a pair with
# the same label.  A simple cycle in the product therefore never turns
# back, and it projects to a closed non-backtracking walk in g1.  Such a
# walk cannot stay inside a spanning tree, so it crosses some non-tree edge
# of g1, in one direction or the other.  Let u be either end of that edge
# and s its label read from u.  At the crossing the cycle passes a pair
# (u, v), and the product edge it crosses leaves (u, v) with label s, so
# mask2[v] holds s's bit.  The cycle enters and leaves (u, v) by two
# edges, so the pair's product degree, the number of labels the two masks
# share, is at least 2; a loop gives both bits s and -s.  The same holds at
# the far end of the crossed edge, (w, x) with w = u.s and x = v.s.  So
# every component that is not a tree contains a seed pair
#
#     (u, v):  a non-tree edge of g1 has label s read from u,
#              s in mask2[v], and (mask1[u] & mask2[v]).bit_count() > 1,
#              and (mask1[u.s] & mask2[v.s]).bit_count() > 1,
#
# where each non-tree edge is taken at one end only, and the same holds
# from g2's side.  The search explores the components of the smaller of
# the two seed sets only.  Each graph keeps its masks, its vertices grouped
# by mask and its non-tree labels (SubgroupGraph.fibre_facts), so the first
# two conditions cost one step per distinct mask of the other factor; the
# last is checked pair by pair on the smaller side only.  A seed can still
# lie in a tree, which costs its search and nothing else.  Every component
# never seeded is a tree, so the component count follows from the Euler
# characteristic: components = V - E + sum(E_c - V_c + 1) over the
# explored components, with V the pairs on at least one edge and E the
# product's edge count, both counted from the mask groups alone.  When
# every component holds a cycle, as in a^m x a^n, the search visits the
# whole product.


def _seeds(masks: list[int], sources: dict[int, int], other: dict[int, list[int]]):
    """The candidate seed pairs seen from one factor: each vertex ``u``
    where it records non-tree edges, with each group of the other factor's
    vertices whose mask holds one of those labels and meets u's mask in at
    least two labels."""
    return [(u, vs) for u, bits in sources.items() for b, vs in other.items()
            if b & bits and (masks[u] & b).bit_count() > 1]


def _far_ends_meet(g: SubgroupGraph, h: SubgroupGraph, seeds):
    """The pairs (u, v) of g's candidate seeds where the product edge over
    one of u's non-tree edges ends at a pair whose masks also meet in at
    least two labels."""
    mg, _groups, sources = g.fibre_facts()[:3]
    mh = h.fibre_facts().masks
    for u, vs in seeds:
        bits = sources[u]
        ends = [(s, mg[w]) for s, w in g.out[u].items()
                if bits >> (2 * s - 2 if s > 0 else -2 * s - 1) & 1]
        for v in vs:
            dv = h.out[v]
            for s, m in ends:
                x = dv.get(s)
                if x is not None and (m & mh[x]).bit_count() > 1:
                    yield u, v
                    break


class _FibreAnalysis:
    """Component and forest statistics of the fibre product of two folded
    graphs, from a search of the seed pairs' components only: the pairs
    where a cycle can cross a non-tree edge of one factor (see the comment
    above).

    Product vertices are the pairs incident to at least one product edge,
    encoded as ``u1 * n2 + u2``; components are compared by their least
    vertex.  A component is a forest exactly when its edge count is one
    less than its vertex count.  ``explored`` is the number of pairs the
    search visited, a self-product's diagonal counted as visited.
    ``failing_root`` is the least pair of the least component that is not
    a forest, and ``failing_nondiag_root`` that of the least one off the
    diagonal; each is None when there is none.
    :meth:`witness` reads a witness off either.
    """

    def __init__(self, g1: SubgroupGraph, g2: SubgroupGraph):
        if g1.alphabet is not g2.alphabet and g1.alphabet != g2.alphabet:
            raise StallingsError("alphabet mismatch")
        self._g1, self._g2 = g1, g2
        n2 = self._n2 = len(g2.out)
        m1, groups1, sources1, _tree, nontree1 = g1.fibre_facts()
        m2, groups2, sources2 = g2.fibre_facts()[:3]
        # V counts the pairs whose masks meet, and E half their common labels
        touched = doubled_edges = 0
        for a, us in groups1.items():
            k1 = len(us)
            for b, vs in groups2.items():
                ab = a & b
                if ab:
                    k = k1 * len(vs)
                    touched += k
                    doubled_edges += k * ab.bit_count()
        count = touched - doubled_edges // 2
        seen: set[int] = set()
        bad = []
        seeds1 = _seeds(m1, sources1, groups2)
        if g1 is g2:
            # a self-product seeds alike from both sides.  Its diagonal is a
            # copy of the graph; when that holds a cycle it is seeded, so it
            # is taken as explored, with its rank as its Euler term
            roots = (u * n2 + v for u, v in _far_ends_meet(g1, g1, seeds1))
            if nontree1:
                seen.update(range(0, n2 * n2, n2 + 1))
                count += len(nontree1)
                bad.append(0)
        else:
            seeds2 = _seeds(m2, sources2, groups1)
            if sum(len(vs) for _u, vs in seeds1) <= sum(len(us) for _v, us in seeds2):
                roots = (u * n2 + v for u, v in _far_ends_meet(g1, g2, seeds1))
            else:
                roots = (u * n2 + v for v, u in _far_ends_meet(g2, g1, seeds2))
        for root in roots:
            if root not in seen:
                comp, ne = self._explore(root, seen)
                count += ne - len(comp) + 1
                if ne >= len(comp):
                    bad.append(min(comp))
        # the diagonal component holds the basepoint pair, the least of all
        self.failing_root = min(bad, default=None)
        if self.failing_root == 0 and same_subgroup(g1, g2):
            bad.remove(0)
        self.failing_nondiag_root = min(bad, default=None)
        self.component_count = count
        self.explored = len(seen)

    def _explore(self, root: int, seen: set[int]) -> tuple[list[int], int]:
        """The pairs of root's component, added to ``seen``, and its edge count."""
        out1, out2, n2 = self._g1.out, self._g2.out, self._n2
        comp = [root]
        seen.add(root)
        half_edges = 0
        for c in comp:
            d2 = out2[c % n2]
            for s, t1 in out1[c // n2].items():
                t2 = d2.get(s)
                if t2 is not None:
                    half_edges += 1
                    t = t1 * n2 + t2
                    if t not in seen:
                        seen.add(t)
                        comp.append(t)
        return comp, half_edges // 2

    def witness(self, root: int) -> IntersectionWitness:
        """Witness (g, u) with u in <g1> and g u g^-1 in <g2>, read off a
        cycle c in root's component: u = P c P^-1 with P the basepoint path
        of g1 to the cycle's base pair, and g = Q P^-1 with Q that of g2.

        The component's core is what survives deleting pairs of degree one
        (a pair's degree is the number of labels its masks share).  A BFS
        over the core from its least pair, trying labels in increasing
        order, closes c at the first edge off its tree: the tree path to
        the edge, the edge, and the tree path back, freely reduced only
        (cyclic reduction would move the base pair).  c is never empty: the
        walk crosses an edge off the tree once, and in a folded product free
        reduction of its label only removes the walk's backtracks."""
        g1, g2, n2 = self._g1, self._g2, self._n2
        m1, m2 = g1.fibre_facts().masks, g2.fibre_facts().masks

        def edges(c):
            """(label, target pair) of each product edge at c, by label."""
            d2 = g2.out[c % n2]
            return [(s, t1 * n2 + d2[s]) for s, t1 in sorted(g1.out[c // n2].items()) if s in d2]

        degree = {c: (m1[c // n2] & m2[c % n2]).bit_count() for c in self._explore(root, set())[0]}
        leaves = [c for c, k in degree.items() if k == 1]
        while leaves:
            c = leaves.pop()
            degree[c] = 0
            for _s, t in edges(c):
                if degree[t]:
                    degree[t] -= 1
                    if degree[t] == 1:
                        leaves.append(t)
        base = min(c for c, k in degree.items() if k)
        parent = {base: (base, 0)}  # (parent, label into the pair) on the BFS tree
        order = [base]

        def path(c):
            rev = []
            while c != base:
                c, s = parent[c]
                rev.append(s)
            return tuple(reversed(rev))

        for c in order:
            back = -parent[c][1]  # the tree edge to the parent, read from c
            for s, t in edges(c):
                if not degree[t]:
                    continue
                if t not in parent:
                    parent[t] = (c, s)
                    order.append(t)
                elif s != back:
                    cycle = free_reduce_letters(path(c) + (s,) + inverse_letters(path(t)))
                    p, q = g1.path_from_basepoint(base // n2), g2.path_from_basepoint(base % n2)
                    u = Word(g1.alphabet, p + cycle + inverse_letters(p))
                    return IntersectionWitness(conjugator=Word(g1.alphabet, q + inverse_letters(p)), element=u)
        raise StallingsError("no cycle found in a non-forest component")


def _fibre_analysis(g1: SubgroupGraph, g2: SubgroupGraph) -> _FibreAnalysis:
    """The fibre product of two folded graphs, split into components.

    Every product is built here, never by calling :class:`_FibreAnalysis`
    directly: this is the one entry point that ``perfbench/tracer.py``
    wraps as the ``stallings.fibre`` span, and a traced benchmark run
    fails when that span reads zero."""
    return _FibreAnalysis(g1, g2)


# -- verdicts -------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionWitness:
    conjugator: Word  # g
    element: Word     # u != 1

    def as_dict(self):
        return {"witness_g": str(self.conjugator), "witness_u": str(self.element)}


@dataclass(frozen=True)
class MalnormalVerdict:
    malnormal: bool
    witness: Optional[IntersectionWitness]
    graph: SubgroupGraph
    component_count: int


@dataclass(frozen=True)
class TrivialIntersectionVerdict:
    trivial: bool
    witness: Optional[IntersectionWitness]
    component_count: int


def _verify_witness(wit: IntersectionWitness, g_left: SubgroupGraph, g_right: SubgroupGraph) -> None:
    """Re-check a witness against the graphs it was read from: u != 1 lies
    in <left> and g u g^-1 lies in <right>."""
    if not wit.element:
        raise WitnessError("intersection witness: the element is trivial")
    if not g_left.contains(wit.element):
        raise WitnessError("intersection witness: the element is not in the subgroup")
    if not g_right.contains(wit.conjugator * wit.element * wit.conjugator.inverse()):
        raise WitnessError("intersection witness: the conjugated element is not in the subgroup")


def is_malnormal(alpha: Alphabet, gens: Sequence[Word]) -> MalnormalVerdict:
    """Malnormality of <gens> in the ambient free group.

    Yes exactly when every non-diagonal component of the fibre product of
    the folded graph with itself is a forest.  A "no" ships a verified
    witness (g, u): u != 1 lies in <gens> and in <gens>^g while g does not
    lie in <gens>.
    """
    return is_malnormal_graph(build_and_fold(alpha, gens))


def is_malnormal_graph(graph: SubgroupGraph) -> MalnormalVerdict:
    """:func:`is_malnormal` on a folded graph, for callers that read other
    facts off the same graph."""
    fa = _fibre_analysis(graph, graph)
    if fa.failing_nondiag_root is not None:
        wit = fa.witness(fa.failing_nondiag_root)
        _verify_witness(wit, graph, graph)
        if graph.contains(wit.conjugator):
            raise WitnessError("malnormality witness: the conjugator lies in the subgroup")
        return MalnormalVerdict(False, wit, graph, fa.component_count)
    return MalnormalVerdict(True, None, graph, fa.component_count)


def trivial_intersection_all_conjugates(
    alpha: Alphabet, s: Sequence[Word], t: Sequence[Word]
) -> TrivialIntersectionVerdict:
    """Is <t> ∩ <s>^g trivial for every g in the free group?  Folds both
    lists and asks :func:`trivial_intersection_graphs`."""
    return trivial_intersection_graphs(build_and_fold(alpha, s), build_and_fold(alpha, t))


def trivial_intersection_graphs(gs: SubgroupGraph, gt: SubgroupGraph) -> TrivialIntersectionVerdict:
    """:func:`trivial_intersection_all_conjugates` on folded graphs, for
    callers that check one subgroup against several.

    Yes exactly when the fibre product of the folded graphs of t and s is
    a forest (every component, the diagonal included when t = s)."""
    fa = _fibre_analysis(gt, gs)
    if fa.failing_root is not None:
        wit = fa.witness(fa.failing_root)
        _verify_witness(wit, gt, gs)
        return TrivialIntersectionVerdict(False, wit, fa.component_count)
    return TrivialIntersectionVerdict(True, None, fa.component_count)
