"""Stallings subgroup graphs of free groups.

A finitely generated subgroup of F(X) is represented by its folded core
graph: a basepointed graph with edges labeled by generators, no vertex
having two outgoing edges with the same signed label.  Folding is done by
union-find over vertices.  Fibre products of folded graphs decide
malnormality and conjugate-intersection questions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as _np
from scipy.sparse import coo_matrix as _coo
from scipy.sparse.csgraph import connected_components as _ccomp

from .words import Alphabet, Word, free_reduce_letters, inverse_letters, signed_letters, substitute


class StallingsError(ValueError):
    pass


class WitnessError(StallingsError):
    """A witness read off a fibre product failed its re-verification."""


class SubgroupGraph:
    """Folded, core, basepointed subgroup graph.

    Vertices are 0..n-1 in canonical (BFS from basepoint, label-ordered)
    numbering; the basepoint is vertex 0.  ``out[v]`` maps signed letters
    to target vertices.
    """

    __slots__ = ("alphabet", "out", "_table", "_tree_parent", "_canon")

    def __init__(self, alpha: Alphabet, out: list[dict[int, int]]):
        self.alphabet = alpha
        self.out = out
        self._table = None
        self._tree_parent = None
        self._canon = None

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
        """Dense transition table: table[v][code] = target or -1, where
        code = 2*(gen) for a positive letter and 2*gen+1 for its inverse."""
        if self._table is None:
            n = len(self.alphabet)
            tbl = [[-1] * (2 * n) for _ in range(self.num_vertices)]
            for v, d in enumerate(self.out):
                for s, w in d.items():
                    code = 2 * (abs(s) - 1) + (0 if s > 0 else 1)
                    tbl[v][code] = w
            self._table = tbl
        return self._table

    def read(self, letters: Sequence[int], start: int = 0) -> int:
        """Trace a signed-letter sequence; return final vertex or -1."""
        tbl = self.table()
        v = start
        for x in letters:
            v = tbl[v][2 * (x - 1) if x > 0 else -2 * x - 1]
            if v < 0:
                return -1
        return v

    def contains(self, w: Word) -> bool:
        """Membership of ``w`` in the subgroup: does w read as a basepoint loop?"""
        if w.alphabet is not self.alphabet and w.alphabet != self.alphabet:
            raise StallingsError("alphabet mismatch")
        return self.read(w.letters) == 0

    # -- spanning tree -------------------------------------------------------
    def tree_parent(self):
        """BFS tree from the basepoint: list of (parent, signed letter into v)."""
        if self._tree_parent is None:
            n = len(self.alphabet)
            parent: list[Optional[tuple[int, int]]] = [None] * self.num_vertices
            seen = [False] * self.num_vertices
            seen[0] = True
            q = deque([0])
            while q:
                v = q.popleft()
                for s in signed_letters(n):
                    w = self.out[v].get(s)
                    if w is not None and not seen[w]:
                        seen[w] = True
                        parent[w] = (v, s)
                        q.append(w)
            self._tree_parent = parent
        return self._tree_parent

    def path_from_basepoint(self, v: int) -> tuple[int, ...]:
        """Letters of the BFS tree path basepoint -> v."""
        parent = self.tree_parent()
        rev = []
        while v != 0:
            p, s = parent[v]
            rev.append(s)
            v = p
        return tuple(reversed(rev))

    # -- canonical form -------------------------------------------------------
    def canonical_form(self):
        if self._canon is None:
            edges = []
            for v, d in enumerate(self.out):
                for s, w in d.items():
                    if s > 0:
                        edges.append((v, s, w))
            self._canon = (self.alphabet.names, self.num_vertices, tuple(sorted(edges)))
        return self._canon

    def __repr__(self):
        return f"SubgroupGraph(V={self.num_vertices}, E={self.num_edges}, rank={self.rank()})"


# -- folding -----------------------------------------------------------------

class _Folder:
    """Union-find folding of a labeled graph under construction."""

    def __init__(self):
        self.parent: list[int] = []
        self.adj: list[Optional[dict[int, int]]] = []

    def new_vertex(self) -> int:
        v = len(self.parent)
        self.parent.append(v)
        self.adj.append({})
        return v

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

    def add_edge(self, u: int, s: int, v: int):
        """Insert edge u --s--> v, folding as necessary."""
        u, v = self.find(u), self.find(v)
        du = self.adj[u]
        t = du.get(s)
        if t is not None:
            if self.find(t) != v:
                self._merge(t, v)
            return
        r = self.adj[v].get(-s)
        if r is not None:
            if self.find(r) != u:
                self._merge(r, u)
            return
        du[s] = v
        self.adj[v][-s] = u


def build_and_fold(alpha: Alphabet, gens: Sequence[Word]) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by ``gens``.

    Adds each generator as a loop at the basepoint and folds with
    union-find.  A loop is first read forward from the basepoint, then
    backward along inverse letters, over edges already present; only the
    unread middle gets fresh vertices, and two reads that meet merge their
    endpoints.  The folded graph is unique, so this gives the same graph as
    folding the whole bouquet.  Then trims non-basepoint vertices of
    degree <= 1 and renumbers canonically.
    """
    for g in gens:
        if g.alphabet != alpha:
            raise StallingsError("generator over a different alphabet")
    f = _Folder()
    bp = f.new_vertex()
    adj, parent, find = f.adj, f.parent, f.find
    for g in gens:
        lets = g.letters
        i, j = 0, len(lets) - 1
        v = u = find(bp)
        while i <= j:
            t = adj[v].get(lets[i])
            if t is None:
                break
            v = t if parent[t] == t else find(t)
            i += 1
        while j >= i:
            t = adj[u].get(-lets[j])
            if t is None:
                break
            u = t if parent[t] == t else find(t)
            j -= 1
        if i > j:
            if v != u:
                f._merge(v, u)
            continue
        for s in lets[i:j]:
            w = f.new_vertex()
            f.add_edge(v, s, w)
            v = find(w)
        f.add_edge(v, lets[j], u)
    # collect representative adjacency, with resolved targets
    reps = [v for v in range(len(f.parent)) if f.find(v) == v]
    out = {v: {s: f.find(t) for s, t in f.adj[v].items()} for v in reps}
    bp = f.find(bp)
    # core-trim: drop degree<=1 vertices other than the basepoint
    degree = {v: len(d) for v, d in out.items()}
    stack = [v for v in reps if v != bp and degree[v] <= 1]
    dead = set()
    while stack:
        v = stack.pop()
        if v in dead:
            continue
        dead.add(v)
        for s, w in out[v].items():
            if w in dead:
                continue
            del out[w][-s]
            degree[w] -= 1
            if w != bp and degree[w] <= 1:
                stack.append(w)
        out[v] = {}
    return _canonicalize(alpha, out, bp)


def _canonicalize(alpha: Alphabet, out: dict[int, dict[int, int]], bp: int) -> SubgroupGraph:
    """BFS renumbering from the basepoint with fixed signed-label order."""
    signed = tuple(signed_letters(len(alpha)))
    number = {bp: 0}
    order = [bp]
    for v in order:
        d = out[v]
        for s in signed:
            w = d.get(s)
            if w is not None and w not in number:
                number[w] = len(order)
                order.append(w)
    if len(number) != sum(1 for v, d in out.items() if d or v == bp):
        raise StallingsError("subgroup graph is not connected")
    new_out = [{s: number[w] for s, w in out[v].items()} for v in order]
    return SubgroupGraph(alpha, new_out)


def basis(g: SubgroupGraph) -> list[Word]:
    """A free basis of the subgroup: one word per non-tree edge."""
    path = g.path_from_basepoint
    return [Word(g.alphabet, substitute((path(u), (s,), path(v)), (1, 2, -3)), reduced=True)
            for u, s, v in _nontree_edges(g)]


def _nontree_edges(g: SubgroupGraph) -> list[tuple[int, int, int]]:
    """Non-tree edges (u, s, v), s > 0 canonical orientation, sorted."""
    parent = g.tree_parent()
    tree = set()
    for v in range(g.num_vertices):
        if parent[v] is not None:
            p, s = parent[v]
            tree.add((p, s, v))
            tree.add((v, -s, p))
    edges = []
    for v, d in enumerate(g.out):
        for s, w in d.items():
            if s > 0 and (v, s, w) not in tree:
                edges.append((v, s, w))
    return sorted(edges)


def same_subgroup(g1: SubgroupGraph, g2: SubgroupGraph) -> bool:
    """Equality of subgroups: basepointed labeled-graph isomorphism, via
    canonical BFS numbering."""
    return g1.canonical_form() == g2.canonical_form()


# -- rewriting over a free basis ----------------------------------------------

class BasisRewriter:
    """Rewrites subgroup elements as words over a fixed free basis.

    The generators are folded; elements are first expressed over the
    spanning-tree basis of the folded graph (crossing word), then carried
    to the given basis through a tracked Nielsen reduction.  Every result
    is verified by substitution before being returned.
    """

    def __init__(self, alpha: Alphabet, gens: Sequence[Word]):
        self.alphabet = alpha
        self.gens = list(gens)
        self.graph = build_and_fold(alpha, gens)
        if self.graph.rank() != len(gens):
            raise StallingsError("not a free basis")
        self._edges = _nontree_edges(self.graph)
        self._edge_code = {}
        for idx, (u, s, v) in enumerate(self._edges):
            self._edge_code[(u, s)] = idx + 1
            self._edge_code[(v, -s)] = -(idx + 1)
        self._tree = None
        self._gen_letters = [g.letters for g in self.gens]
        self._basis_over_gens = self._invert_basis()

    def _crossing(self, w: Word) -> Optional[tuple[int, ...]]:
        """Express a subgroup element over the tree basis (non-tree edges
        crossed, in order); None if the word is not in the subgroup."""
        if self._tree is None:
            parent = self.graph.tree_parent()
            tree = set()
            for v in range(self.graph.num_vertices):
                if parent[v] is not None:
                    p, s = parent[v]
                    tree.add((p, s))
                    tree.add((v, -s))
            self._tree = tree
        v = 0
        outsyms = []
        for x in w.letters:
            nxt = self.graph.out[v].get(x)
            if nxt is None:
                return None
            if (v, x) not in self._tree:
                outsyms.append(self._edge_code[(v, x)])
            v = nxt
        if v != 0:
            return None
        return free_reduce_letters(outsyms)

    def _invert_basis(self) -> list[tuple[int, ...]]:
        """Expression of each tree-basis symbol over the generator symbols,
        via Nielsen reduction with transformation tracking."""
        n = len(self.gens)
        rows = []
        for i, g in enumerate(self.gens):
            cw = self._crossing(g)
            if cw is None:
                raise StallingsError(f"internal: generator {g} does not read as a loop of its own folded graph")
            rows.append([cw, (i + 1,)])

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
                    for e1 in (1, -1):
                        for order in ((e1, 2), (2, e1)):
                            cand = substitute((ui, uj), order)
                            if len(cand) < len(uj) and (best is None or len(cand) < len(best[0])):
                                best = (cand, substitute((ei, ej), order))
                if best is not None:
                    rows[j] = [best[0], best[1]]
                    changed = True
        # a basis must have reduced to distinct single symbols
        expr = [None] * len(self._edges)
        seen = set()
        for u, e in rows:
            if len(u) != 1 or abs(u[0]) in seen:
                raise StallingsError(
                    "Nielsen reduction did not terminate at a letter tuple; "
                    "generators do not form a recognised free basis"
                )
            seen.add(abs(u[0]))
            sym = u[0]
            if sym > 0:
                expr[sym - 1] = e
            else:
                expr[-sym - 1] = inverse_letters(e)
        return expr  # type: ignore[return-value]

    def rewrite(self, w: Word) -> Optional[list[tuple[int, int]]]:
        """``w`` as a reduced word over the generators: list of
        (generator index, sign); None if w is not in the subgroup."""
        cw = self._crossing(w)
        if cw is None:
            return None
        out = substitute(self._basis_over_gens, cw)
        # verify by substitution
        if substitute(self._gen_letters, out) != w.letters:
            raise StallingsError("internal rewriting verification failed")
        return [(abs(t) - 1, 1 if t > 0 else -1) for t in out]


def rewrite_over_generators(
    alpha: Alphabet, gens: Sequence[Word], w: Word
) -> Optional[list[tuple[int, int]]]:
    """Unique reduced expression of ``w`` over the free basis ``gens``,
    or None if w is not in the subgroup.  Raises if gens is not a basis."""
    return BasisRewriter(alpha, gens).rewrite(w)


# -- fibre products ------------------------------------------------------------

# Products with at least this many edges are labelled by scipy; below it a
# pure-Python union-find is faster.  scipy's graph set-up costs a fixed
# 0.3-0.4 ms, and the two cross between 256 and 512 edges on random folded
# graphs over F(a, b) (2-vCPU x86-64 host, CPython 3.11).
_SCIPY_MIN_EDGES = 384


@dataclass
class FibreComponent:
    vertices: list[tuple[int, int]]
    edges: list[tuple[tuple[int, int], int, tuple[int, int]]]
    core_vertices: list[tuple[int, int]] = field(default_factory=list)
    core_edges: list[tuple[tuple[int, int], int, tuple[int, int]]] = field(default_factory=list)

    @property
    def is_forest(self) -> bool:
        return not self.core_edges


def _trim_core(verts, edges):
    """Iteratively delete degree-1 vertices; what survives carries the cycles."""
    deg: dict[int, int] = {v: 0 for v in verts}
    inc: dict[int, list[int]] = {v: [] for v in verts}
    for idx, (a, _lab, b) in enumerate(edges):
        deg[a] += 1
        deg[b] += 1
        inc[a].append(idx)
        inc[b].append(idx)
    alive_v = {v: True for v in verts}
    alive_e = [True] * len(edges)
    stack = [v for v in verts if deg[v] <= 1]
    while stack:
        v = stack.pop()
        if not alive_v.get(v, False) or deg[v] > 1:
            continue
        alive_v[v] = False
        for idx in inc[v]:
            if not alive_e[idx]:
                continue
            alive_e[idx] = False
            a, _lab, b = edges[idx]
            other = b if a == v else a
            if alive_v.get(other, False):
                deg[other] -= 1
                if deg[other] <= 1:
                    stack.append(other)
    core_v = [v for v in verts if alive_v[v]]
    core_e = [e for idx, e in enumerate(edges) if alive_e[idx]]
    return core_v, core_e


class _FibreAnalysis:
    """Component and forest statistics of a fibre product.

    Product vertices are the pairs incident to at least one product edge
    (isolated pairs carry no cycles), numbered in increasing order of the
    encoded pair ``u1 * n2 + u2``; components are compared by their least
    vertex.  A component is a forest exactly when its edge count is one
    less than its vertex count.  Only the least failing component, and the
    least failing one off the diagonal, are built as ``FibreComponent``s.
    """

    def __init__(self, n2, pu, labs, pv, edge_comp, vert_comp, diagonal):
        self._n2 = n2
        self._pu, self._labs, self._pv = pu, labs, pv
        self._edge_comp = edge_comp
        self._vert_comp = vert_comp
        self._diagonal = diagonal  # component of the basepoint pair, or -1
        ncomp = int(vert_comp.max()) + 1 if len(vert_comp) else 0
        n_vert = _np.bincount(vert_comp, minlength=ncomp)
        n_edge = _np.bincount(edge_comp, minlength=ncomp)
        in_bad = (n_edge >= n_vert)[vert_comp]
        bad_verts = _np.flatnonzero(in_bad)
        off_diag = bad_verts[vert_comp[bad_verts] != diagonal]
        self.component_count = ncomp
        self.all_forests = not len(bad_verts)
        self.diagonal_ok = not len(off_diag)
        self.failing_component = (
            None if self.all_forests else self._component(int(vert_comp[bad_verts[0]])))
        self.failing_nondiag_component = (
            None if self.diagonal_ok else self._component(int(vert_comp[off_diag[0]])))

    def _component(self, cid: int) -> FibreComponent:
        sel = _np.flatnonzero(self._edge_comp == cid)
        n2 = self._n2
        es = sorted(
            ((a // n2, a % n2), lab, (b // n2, b % n2))
            for a, lab, b in zip(self._pu[sel].tolist(), self._labs[sel].tolist(), self._pv[sel].tolist())
        )
        verts = sorted({e[0] for e in es} | {e[2] for e in es})
        core_v, core_e = _trim_core(verts, es)
        return FibreComponent(verts, es, core_v, core_e)

    def components(self) -> tuple[list[FibreComponent], Optional[int]]:
        """Every component, ordered by least vertex, and the position of the
        diagonal component among them (None when there is none).  Built on
        demand from the same labels the verdicts are read from."""
        firsts = _np.unique(self._vert_comp, return_index=True)[1]
        order = self._vert_comp[_np.sort(firsts)].tolist()
        diag = order.index(self._diagonal) if self._diagonal >= 0 else None
        return [self._component(c) for c in order], diag


def _edges_by_label(g: SubgroupGraph) -> list[list[tuple[int, int]]]:
    """(source, target) of every edge, grouped by its positive label."""
    by: list[list[tuple[int, int]]] = [[] for _ in range(len(g.alphabet))]
    for v, d in enumerate(g.out):
        for s, w in d.items():
            if s > 0:
                by[s - 1].append((v, w))
    return by


def _union_find_labels(cu: list[int], cv: list[int], nvert: int) -> list[int]:
    """Component label of each vertex 0..nvert-1 of a small edge list."""
    parent = list(range(nvert))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(cu, cv):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    label: dict[int, int] = {}
    return [label.setdefault(find(x), len(label)) for x in range(nvert)]


def _fibre_analysis(g1: SubgroupGraph, g2: SubgroupGraph) -> _FibreAnalysis:
    """The fibre product of two folded graphs, split into components.

    Product edges pair equally labelled edges of the two graphs.  The pair
    space is dense and bounded by n1 * n2, so the touched pairs are
    relabelled by a boolean mark and its running count, without hashing."""
    if g1.alphabet != g2.alphabet:
        raise StallingsError("alphabet mismatch")
    n2 = g2.num_vertices
    pu_parts, pv_parts, lab_parts = [], [], []
    for lab, (e1, e2) in enumerate(zip(_edges_by_label(g1), _edges_by_label(g2)), start=1):
        if not e1 or not e2:
            continue
        a1 = _np.array(e1, dtype=_np.int64)
        a2 = _np.array(e2, dtype=_np.int64)
        pu_parts.append((a1[:, 0, None] * n2 + a2[None, :, 0]).ravel())
        pv_parts.append((a1[:, 1, None] * n2 + a2[None, :, 1]).ravel())
        lab_parts.append(_np.full(len(e1) * len(e2), lab, dtype=_np.int64))
    empty = _np.zeros(0, dtype=_np.int64)
    pu, pv, labs = (_np.concatenate(parts or [empty]) for parts in (pu_parts, pv_parts, lab_parts))

    mark = _np.zeros(g1.num_vertices * n2, dtype=bool)
    mark[pu] = True
    mark[pv] = True
    ids = _np.cumsum(mark) - 1
    cu, cv = ids[pu], ids[pv]
    nvert = int(ids[-1]) + 1
    if len(pu) < _SCIPY_MIN_EDGES:
        vert_comp = _np.array(_union_find_labels(cu.tolist(), cv.tolist(), nvert), dtype=_np.int64)
    else:
        graph = _coo((_np.ones(len(cu), dtype=_np.int8), (cu, cv)), shape=(nvert, nvert))
        vert_comp = _ccomp(graph, directed=False)[1]
    same = g1 is g2 or g1.canonical_form() == g2.canonical_form()
    diagonal = int(vert_comp[0]) if same and mark[0] else -1
    return _FibreAnalysis(n2, pu, labs, pv, vert_comp[cu], vert_comp, diagonal)


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


def _component_cycle(core_vertices, core_edges):
    """A nonempty reduced cycle label based at the component's BFS root.

    BFS from the least core vertex; the first non-tree edge closes a cycle
    through the tree paths.  The label is freely reduced only (free
    reduction keeps path endpoints in a folded graph; cyclic reduction
    would move the base vertex)."""
    adj: dict[tuple[int, int], list[tuple[int, tuple[int, int], int]]] = {}
    for idx, (a, lab, b) in enumerate(core_edges):
        adj.setdefault(a, []).append((lab, b, idx))
        adj.setdefault(b, []).append((-lab, a, idx))
    root = min(core_vertices)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int, int]] = {root: (root, 0, -1)}
    orderq = deque([root])
    while orderq:
        v = orderq.popleft()
        for lab, w, idx in sorted(adj[v]):
            if w not in parent:
                parent[w] = (v, lab, idx)
                orderq.append(w)
            elif idx != parent[v][2]:
                # non-tree edge v --lab--> w closes a cycle through root paths
                def path(x):
                    rev = []
                    while x != root:
                        p, s, _ = parent[x]
                        rev.append(s)
                        x = p
                    return tuple(reversed(rev))

                pv, pw = path(v), path(w)
                letters = substitute((pv, (lab,), pw), (1, 2, -3))
                if letters:
                    return root, letters
    raise StallingsError("no cycle found in a non-forest component")


def _witness_from_component(
    comp: FibreComponent, g_left: SubgroupGraph, g_right: SubgroupGraph
) -> IntersectionWitness:
    """Witness (g, u) with u in <left> and g u g^-1 in <right>, read off a
    core cycle: u = P c P^-1 along the left projection, g = Q P^-1 with Q
    the right-projection basepoint path."""
    base, cyc = _component_cycle(comp.core_vertices, comp.core_edges)
    left_v, right_v = base
    alpha = g_left.alphabet
    p_letters = g_left.path_from_basepoint(left_v)
    q_letters = g_right.path_from_basepoint(right_v)
    u = Word(alpha, substitute((p_letters, cyc), (1, 2, -1)), reduced=True)
    g = Word(alpha, substitute((q_letters, p_letters), (1, -2)), reduced=True)
    return IntersectionWitness(conjugator=g, element=u)


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
    graph = build_and_fold(alpha, gens)
    fa = _fibre_analysis(graph, graph)
    if not fa.diagonal_ok:
        wit = _witness_from_component(fa.failing_nondiag_component, graph, graph)
        _verify_witness(wit, graph, graph)
        if graph.contains(wit.conjugator):
            raise WitnessError("malnormality witness: the conjugator lies in the subgroup")
        return MalnormalVerdict(False, wit, graph, fa.component_count)
    return MalnormalVerdict(True, None, graph, fa.component_count)


def trivial_intersection_all_conjugates(
    alpha: Alphabet, s: Sequence[Word], t: Sequence[Word]
) -> TrivialIntersectionVerdict:
    """Is <t> ∩ <s>^g trivial for every g in the free group?

    Yes exactly when the fibre product of the folded graphs of t and s is
    a forest (every component, the diagonal included when t = s)."""
    gt = build_and_fold(alpha, t)
    gs = build_and_fold(alpha, s)
    fa = _fibre_analysis(gt, gs)
    if not fa.all_forests:
        wit = _witness_from_component(fa.failing_component, gt, gs)
        _verify_witness(wit, gt, gs)
        return TrivialIntersectionVerdict(False, wit, fa.component_count)
    return TrivialIntersectionVerdict(True, None, fa.component_count)
