"""Todd-Coxeter coset enumeration and Schreier kernel generators.

Felsch's strategy with standard coincidence merging (union-find on cosets;
Holt-Eick-O'Brien, Handbook of Computational Group Theory, 5.2; Havas,
Coset enumeration strategies, ISSAC 1991).  Overflow - exceeding the coset
cap, which counts live cosets - is a distinguished outcome, not an error:
callers legitimately probe for finiteness.  A cap below one is refused.

The subgroup generators are scanned and filled at the subgroup coset
first.  Then the first undefined entry of the least live row is defined,
and a stack of deductions is drained before the next definition.  Every
entry set - defined, deduced by a scan or moved by a coincidence - is
pushed as the int ``coset * ncols + column``.  A deduction (a, x) scans
from a, without filling, every distinct cyclic conjugate of each relator
and of its inverse that starts with x.  No scan from a.x is needed: a
relator cycle that crosses the edge a -> a.x backwards is a conjugate of
the inverse relator that starts with x at a.

The table is stored column-major, ``cols[c][coset]`` per letter code with
-1 for undefined, in blocks of rows; a coincidence clears a dead coset's
row without reclaiming it.  The live cosets are renumbered by BFS from the
subgroup coset into a :class:`CosetTable` and its Schreier transversal.  A
standardized complete table is unique, so no complete output depends on
the strategy; the order above fixes the live count of an overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import Alphabet, Word, decode_letters, invert_code

DEFAULT_MAX_COSETS = 10 ** 5
_BLOCK = 1024  # coset rows are allocated this many at a time
_PAD = [-1] * _BLOCK


class CosetEnumError(ValueError):
    pass


@dataclass(frozen=True)
class Overflow:
    max_cosets: int
    live_cosets: int


class CosetTable:
    """Complete coset table with a Schreier transversal.

    Cosets are numbered 0..n-1 internally with 0 the subgroup coset;
    public coset ids are 1-based (1 = trivial/subgroup coset).
    ``table[v][c]`` is the coset reached from v by the letter of code c, and
    ``rep_codes[v]`` the code of coset v's representative."""

    def __init__(self, alpha: Alphabet, table: list[list[int]], rep_codes: list[str]):
        self.alphabet = alpha
        self.table = table
        self.rep_codes = rep_codes

    @property
    def index(self) -> int:
        return len(self.table)

    @property
    def reps(self) -> list[tuple[int, ...]]:
        """The representatives as signed-letter tuples, decoded."""
        return [decode_letters(code) for code in self.rep_codes]

    def trace(self, code: str, start: int = 0) -> int:
        """The coset reached from ``start`` by a word's code."""
        v = start
        tbl = self.table
        for c in map(ord, code):
            v = tbl[v][c]
        return v

    def image_in_quotient(self, w: Word) -> int:
        """1-based coset id of the image of w; 1 means trivial image."""
        if w.alphabet != self.alphabet:
            raise CosetEnumError("word over a different alphabet")
        return self.trace(w.code) + 1

    def kernel_generators(self) -> list[Word]:
        """Schreier generators rep(c) g rep(cg)^-1 of the preimage of the
        subgroup in the free group (for the trivial subgroup, the kernel of
        F -> Q), one per edge c --g--> cg with g a generator that is not an
        edge of the BFS tree of the representatives, in coset and generator
        order.  Cancellation could only happen next to g, and it happens
        exactly on tree edges, so the words are freely reduced as spelled
        and pairwise distinct.  Each is traced through the table, which
        must take coset 0 back to itself."""
        tbl, reps = self.table, self.rep_codes
        units = [(2 * gen, chr(2 * gen), chr(2 * gen + 1)) for gen in range(len(self.alphabet))]
        gens: list[Word] = []
        for c, rep_c in enumerate(reps):
            for col, unit, inv_unit in units:
                rep_t = reps[tbl[c][col]]
                if rep_t == rep_c + unit or rep_c == rep_t + inv_unit:
                    continue
                code = rep_c + unit + invert_code(rep_t)
                v = self.trace(code)
                if v != 0:
                    raise CosetEnumError(
                        f"internal: Schreier generator {decode_letters(code)} maps to coset {v + 1}")
                gens.append(Word.from_code(self.alphabet, code))
        return gens


def todd_coxeter(
    alpha: Alphabet,
    relators: Sequence[Word],
    subgroup_gens: Sequence[Word] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable | Overflow:
    """Enumerate cosets of <subgroup_gens> in the presented group.

    Returns a complete, standardized CosetTable if the index is discovered
    within ``max_cosets`` live cosets, else an Overflow marker.  A cap below
    one, which not even the first coset fits, is refused."""
    if max_cosets < 1:
        raise CosetEnumError(f"the coset cap must be at least 1, not {max_cosets}")
    ncols = 2 * len(alpha)
    cols: list[list[int]] = [[-1] * _BLOCK for _ in range(ncols)]
    inv_cols = [cols[c ^ 1] for c in range(ncols)]
    pairs = list(zip(range(ncols), cols, inv_cols))
    # union-find parent, appended per definition so that each coset id is
    # one int object shared with the columns; the smaller coset survives
    p = [0]
    dead = 0
    stack: list[int] = []  # ints, which the garbage collector does not track
    push = stack.append

    def grow():
        for col in cols:
            col.extend(_PAD)

    def coincidence(a: int, b: int):
        # a, b are distinct live cosets; every coset that dies is queued and
        # its row moved onto the survivor, queueing the merges this forces
        # and pushing each entry moved.  A queued coset is never a root, and
        # mu tracks its root across the merges made while its row is
        # processed.  Moving clears both ends of each edge: no row is read
        # after it dies, and a cleared row keeps no coset id alive
        nonlocal dead
        if a > b:
            a, b = b, a
        p[b] = a
        q = [b]
        for g in q:
            mu = g
            while p[mu] != mu:
                p[mu] = mu = p[p[mu]]
            for c, col, icol in pairs:
                d = col[g]
                if d < 0:
                    continue
                col[g] = icol[d] = -1
                nu = d
                while p[nu] != nu:
                    p[nu] = nu = p[p[nu]]
                t = col[mu]
                if t >= 0:
                    x = nu
                else:
                    t = icol[nu]
                    if t < 0:
                        col[mu] = nu
                        icol[nu] = mu
                        push(mu * ncols + c)
                        continue
                    x = mu
                while p[t] != t:
                    p[t] = t = p[p[t]]
                if x != t:
                    if x > t:
                        x, t = t, x
                    p[t] = x
                    q.append(t)
                    if t == mu:
                        mu = x
        dead += len(q)

    def define(a: int, c: int):
        col, n = cols[c], len(p)
        if n == len(col):
            grow()
        p.append(n)
        col[a] = n
        inv_cols[c][n] = a
        push(a * ncols + c)

    # Outside coincidence processing every entry of a live row names a live
    # coset (processing a dead coset clears its partners' entries to it), so
    # a scan reads entries without find; _standardize re-checks this on the
    # final table
    def scan_and_fill(codes: list[int]):
        # a subgroup generator from coset 0, defining cosets to close it
        i, j = 0, len(codes) - 1
        f = b = 0
        while True:
            while i <= j and cols[codes[i]][f] >= 0:
                f = cols[codes[i]][f]
                i += 1
            while j >= i and inv_cols[codes[j]][b] >= 0:
                b = inv_cols[codes[j]][b]
                j -= 1
            if j < i:
                if f != b:
                    coincidence(f, b)
                return
            if j == i:
                cols[codes[i]][f] = b
                inv_cols[codes[i]][b] = f
                push(f * ncols + codes[i])
                return
            define(f, codes[i])

    # the cyclic conjugates under their first letter: forward columns,
    # inverse columns last letter first, codes and last position
    cycles: list[list] = [[] for _ in range(ncols)]
    for code in dict.fromkeys(s[k:] + s[:k] for w in relators for s in (w.code, invert_code(w.code))
                              for k in range(len(s))):
        codes = list(map(ord, code))
        cycles[codes[0]].append(([cols[c] for c in codes], [inv_cols[c] for c in reversed(codes)],
                                 codes, len(codes) - 1))

    def deduce():
        # scan, without filling, every cycle that starts with the letter of
        # a pushed entry from its coset: a gap of one letter is a deduction,
        # two ends that meet at different cosets a coincidence
        while stack:
            a, x = divmod(stack.pop(), ncols)
            if p[a] != a:
                continue
            for fwd, rbwd, codes, j in cycles[x]:
                f = a
                for i, col in enumerate(fwd):
                    t = col[f]
                    if t < 0:
                        break
                    f = t
                else:
                    if f != a:
                        coincidence(f, a)
                        if p[a] != a:
                            break
                    continue
                b = a
                for col in rbwd:
                    t = col[b]
                    if j == i:
                        if t < 0:
                            fwd[i][f] = b
                            col[b] = f
                            push(f * ncols + codes[i])
                        break
                    if t < 0:
                        break
                    b = t
                    j -= 1
                if t >= 0:
                    coincidence(f, t)
                    if p[a] != a:
                        break

    for w in subgroup_gens:
        scan_and_fill(list(map(ord, w.code)))
    deduce()
    a = 0
    while a < len(p) and len(p) - dead <= max_cosets:
        for c, col in enumerate(cols):
            if p[a] != a or len(p) - dead > max_cosets:
                break
            if col[a] < 0:
                define(a, c)
                deduce()
        a += 1
    if len(p) - dead > max_cosets:
        return Overflow(max_cosets, len(p) - dead)
    return _standardize(alpha, cols, p)


def _standardize(alpha, cols, p) -> CosetTable:
    """Number the live cosets in BFS order from coset 0, columns in code
    order, and record the code of each coset's BFS-tree word as its
    representative."""
    units = [chr(c) for c in range(len(cols))]
    number = [-1] * len(p)
    number[0] = 0
    order = [0]
    reps: list[str] = [""]
    for v in order:
        rep_v = reps[number[v]]
        for col, unit in zip(cols, units):
            w = col[v]
            if w < 0 or p[w] != w:
                raise CosetEnumError("internal: incomplete table after enumeration")
            if number[w] < 0:
                number[w] = len(order)
                order.append(w)
                reps.append(rep_v + unit)
    # each column renumbered by its own iterator and zipped into rows, so no
    # renumbered column is held whole
    renumbered = (map(number.__getitem__, map(col.__getitem__, order)) for col in cols)
    table = [list(row) for row in zip(*renumbered)]
    return CosetTable(alpha, table, reps)


def schreier_kernel_generators(
    alpha: Alphabet,
    relators: Sequence[Word],
    killed: Sequence[int] = (),
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> tuple[list[Word], CosetTable]:
    """Generators of the kernel of F(gens) -> Q, where Q is presented by
    the relators together with the killed generators.

    Enumerates the quotient, which must be finite within the cap, and
    returns ``CosetTable.kernel_generators()`` with the table."""
    killed_words = [Word(alpha, (i + 1,), reduced=True) for i in killed]
    outcome = todd_coxeter(alpha, list(relators) + killed_words, (), max_cosets)
    if isinstance(outcome, Overflow):
        raise CosetEnumError("finite quotient required")
    return outcome.kernel_generators(), outcome
