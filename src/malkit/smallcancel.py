"""Symmetrised relator sets, pieces, small cancellation conditions, and
Dehn's algorithm.

Pieces are common initial segments of two distinct elements of the
symmetrised closure (the closure is a *set*: coinciding shifts of a proper
power are one element).  All metric comparisons use exact rational
arithmetic.  Dehn's algorithm works on the letter code of words
(:mod:`malkit.words`): its scans are ``str`` searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .words import (
    UNIT_INVERSE,
    Alphabet,
    EndomorphismSpec,
    Word,
    apply_endo,
    code_product,
    common_prefix,
    compose_endos,
    core_bounds,
    cyclic_reduce,
    decode_letters,
    invert_code,
    signed_letters,
)

# the alphabets small cancellation is tested and benchmarked on: up to
# here every code unit is one byte of a CPython string
MAX_GENERATORS = 128


class SmallCancelError(ValueError):
    pass


class RelatorSet:
    """A finite relator list with its symmetrised closure and piece table.

    The closure is kept as codes in letter order: the order of their
    letter tuples, -n < ... < -1 < 1 < ... < n letter by letter, which
    ``_rank`` translates a code into.  ``shift_class_pair`` is the first
    pair (i, j), i < j, of relator indices whose cores share a symmetrised
    element - are rotations of one another up to inversion - or None.
    Set-valued symmetrisation merges such a pair, hiding the whole-relator
    pieces it creates."""

    def __init__(self, alpha: Alphabet, relators: Sequence[Word]):
        if len(alpha) > MAX_GENERATORS:
            raise SmallCancelError(
                f"alphabet of {len(alpha)} generators: at most {MAX_GENERATORS} are supported")
        self.alphabet = alpha
        cores = []
        for r in relators:
            if r.alphabet != alpha:
                raise SmallCancelError("relator over a different alphabet")
            core, _ = cyclic_reduce(r)
            if not core:
                raise SmallCancelError("trivial relator")
            cores.append(core)
        self.relators = tuple(cores)
        # each symmetrised element's code -> the first relator index producing it
        first: dict[str, int] = {}
        # per relator, every rotation of its core and of its inverse: the
        # strings the closure is built from, which the piece table reads
        self._rotations: list[tuple[list[str], list[str]]] = []
        self.shift_class_pair: Optional[tuple[int, int]] = None
        for j, r in enumerate(self.relators):
            pair = tuple([base[k:] + base[:k] for k in range(len(base))] for base in (r.code, invert_code(r.code)))
            self._rotations.append(pair)
            for rots in pair:
                for rot in rots:
                    i = first.setdefault(rot, j)
                    if i != j and self.shift_class_pair is None:
                        self.shift_class_pair = (i, j)
        n = len(alpha)
        letters = list(signed_letters(n))
        self._rank = {c: r for r, c in enumerate(sorted(range(2 * n), key=letters.__getitem__))}
        self._codes: tuple[str, ...] = tuple(sorted(first, key=self._letter_order))
        self._pieces: Optional[PieceTable] = None
        self._admissible = None

    def __len__(self):
        return len(self.relators)

    def _letter_order(self, code: str) -> str:
        return code.translate(self._rank)

    @cached_property
    def symmetrised(self) -> tuple[tuple[int, ...], ...]:
        """The symmetrised closure as letter tuples, in order."""
        return tuple(map(decode_letters, self._codes))

    def pieces(self) -> "PieceTable":
        if self._pieces is None:
            self._pieces = compute_pieces(self)
        return self._pieces

    # -- Dehn machinery ------------------------------------------------------
    @cached_property
    def _patterns(self):
        """Minimal Dehn violations: for each symmetrised element of length L,
        its cyclic subwords of length L//2+1, as codes, so that scanning is
        a ``str`` search.  Each pattern keeps its occurrences (element
        index, offset) for the replacement step; an element is read from
        its doubled code, also returned."""
        occ: dict[str, list[tuple[int, int]]] = {}
        doubled = [code * 2 for code in self._codes]
        for e, code in enumerate(self._codes):
            L = len(code)
            h = L // 2 + 1
            for p in range(L):
                occ.setdefault(doubled[e][p:p + h], []).append((e, p))
        return sorted(occ), occ, doubled

    def dehn_admissible(self) -> tuple[bool, Optional[str]]:
        """Dehn's algorithm applies under C'(1/6), or C'(1/4) plus T(4)."""
        if self._admissible is None:
            if check_metric(self, Fraction(1, 6)).ok:
                self._admissible = (True, "C'(1/6)")
            elif check_metric(self, Fraction(1, 4)).ok and check_T(self, 4).ok:
                self._admissible = (True, "C'(1/4)-T(4)")
            else:
                self._admissible = (False, None)
        return self._admissible


# -- piece tables ----------------------------------------------------------------

@dataclass
class PieceTable:
    # per relator, the piece-prefix length of every rotation of the relator
    # and of its inverse
    rotation_jumps: list[tuple[list[int], list[int]]]

    NO_COVER = 10 ** 9

    @cached_property
    def max_piece_per_relator(self) -> list[int]:
        return [max(map(max, jumps)) for jumps in self.rotation_jumps]

    @cached_property
    def min_factorization_per_relator(self) -> list[int]:
        """Fewest pieces concatenating to some shift of each relator, or
        NO_COVER; only C(m) reads it, so it is computed on first use."""
        return [
            min(_min_cover_at(jump, i) for jump in jumps for i in range(len(jump)))
            for jumps in self.rotation_jumps
        ]


def compute_pieces(rs: RelatorSet) -> PieceTable:
    """The piece-prefix length of every rotation, via sorted-neighbour
    common prefixes.

    In sorted order the longest common prefix of an element with any other
    distinct element is attained at an adjacent element, so one pass gives,
    for every symmetrised element, the longest piece that is a prefix of it.
    The rotations are the ones the closure was built from."""
    elems = rs._codes
    # bounds[i], bounds[i + 1]: the common prefixes of element i with its neighbours
    bounds = [0, *(common_prefix(a, b) for a, b in zip(elems, elems[1:])), 0]
    prefix_len = {w: max(bounds[i], bounds[i + 1]) for i, w in enumerate(elems)}
    return PieceTable([tuple([prefix_len[rot] for rot in rots] for rots in pair) for pair in rs._rotations])


def _min_cover_at(jump: list[int], start: int) -> int:
    """Minimum number of pieces concatenating to the rotation starting at
    ``start``, given the piece-prefix length of every rotation.

    A subword starting at position i is a piece exactly when its length is
    at most the longest piece-prefix of the shift starting at i (prefixes
    of pieces are pieces), so this is minimum jumps with a jump table."""
    L = len(jump)
    if L == 0:
        return 0
    count = 0
    frontier = 0
    farthest = 0
    i = 0
    while frontier < L:
        while i <= frontier:
            j = i + jump[(start + i) % L]
            if j > farthest:
                farthest = j
            i += 1
        if farthest <= frontier:
            return PieceTable.NO_COVER
        count += 1
        frontier = farthest
    return count


# -- verdicts ------------------------------------------------------------------

@dataclass
class MetricVerdict:
    ok: bool
    lam: Fraction
    failing_relator: Optional[Word] = None
    failing_piece: Optional[Word] = None

    def __bool__(self):
        return self.ok


@dataclass
class CVerdict:
    ok: bool
    m: int
    failing_relator: Optional[Word] = None
    pieces_needed: Optional[int] = None

    def __bool__(self):
        return self.ok


@dataclass
class TVerdict:
    ok: bool
    q: int
    triple: Optional[tuple[Word, Word, Word]] = None

    def __bool__(self):
        return self.ok


def check_metric(rs: RelatorSet, lam: Fraction) -> MetricVerdict:
    """C'(lam): every piece inside a relator R has length < lam*|R|, strictly."""
    lam = Fraction(lam)
    if not (0 < lam < 1):
        raise SmallCancelError("lambda must lie in (0, 1)")
    pt = rs.pieces()
    for r, plen, jumps, pair in zip(rs.relators, pt.max_piece_per_relator, pt.rotation_jumps, rs._rotations):
        if plen * lam.denominator >= lam.numerator * len(r):
            # the first rotation, r's before r^-1's, with the longest piece prefix
            piece = next(rot[:plen] for jump, rots in zip(jumps, pair) for pl, rot in zip(jump, rots) if pl == plen)
            return MetricVerdict(False, lam, failing_relator=r, failing_piece=Word.from_code(rs.alphabet, piece))
    return MetricVerdict(True, lam)


def check_C(rs: RelatorSet, m: int) -> CVerdict:
    """C(m): no symmetrised relator concatenates from fewer than m pieces."""
    if m < 2:
        raise SmallCancelError("m must be at least 2")
    pt = rs.pieces()
    for r, fact in zip(rs.relators, pt.min_factorization_per_relator):
        if fact < m:
            return CVerdict(False, m, failing_relator=r, pieces_needed=fact)
    return CVerdict(True, m)


def check_T(rs: RelatorSet, q: int) -> TVerdict:
    """T(q) for q in {3, 4}.  T(3) is vacuous.  T(4): among any cyclically
    non-inverse triple from the symmetrised set, some consecutive product
    is reduced without cancellation."""
    if q == 3:
        return TVerdict(True, q)
    if q != 4:
        raise SmallCancelError("only T(3) and T(4) are implemented")
    # group elements by (first, last) letter; three exemplars per class are
    # enough to decide the non-inverse side conditions
    classes: dict[tuple[str, str], list[str]] = {}
    for w in rs._codes:
        key = (w[0], w[-1])
        lst = classes.setdefault(key, [])
        if len(lst) < 3:
            lst.append(w)
    units = [chr(c) for c in range(2 * len(rs.alphabet))]  # signed-letter order
    inverse = UNIT_INVERSE
    for a in units:
        for b in units:
            e1 = classes.get((a, inverse[b]))
            if not e1:
                continue
            for c in units:
                e2 = classes.get((b, inverse[c]))
                if not e2:
                    continue
                e3 = classes.get((c, inverse[a]))
                if not e3:
                    continue
                for r1 in e1:
                    for r2 in e2:
                        if r2 == invert_code(r1):
                            continue
                        for r3 in e3:
                            if r3 == invert_code(r2) or r1 == invert_code(r3):
                                continue
                            triple = tuple(Word.from_code(rs.alphabet, t) for t in (r1, r2, r3))
                            return TVerdict(False, q, triple=triple)
    return TVerdict(True, q)


# -- Dehn reduction ---------------------------------------------------------------

def _check_alphabet(rs: RelatorSet, w: Word) -> None:
    if w.alphabet != rs.alphabet:
        raise SmallCancelError("word over a different alphabet")


def _find_violation(rs: RelatorSet, code: str, start: int = 0):
    """Leftmost position at or after ``start`` carrying a subword W of some
    symmetrised relator R with |W| > |R|/2; returns (pos, matched length,
    element index, offset).  At the leftmost position the match is
    extended maximally; ties go to the least (element, offset), elements
    in letter order."""
    pattern_list, occ, doubled = rs._patterns
    n = len(code)
    # leftmost hit over all patterns (C substring search per pattern)
    leftmost = None
    for pb in pattern_list:
        pos = code.find(pb, start)
        if pos != -1 and (leftmost is None or pos < leftmost):
            leftmost = pos
            if leftmost == start:
                break
    if leftmost is None:
        return None
    i = leftmost
    best = None
    for pb in pattern_list:
        h = len(pb)
        if not code.startswith(pb, i):
            continue
        for (e, off) in occ[pb]:
            d = doubled[e]
            L = len(d) // 2
            ln = h
            while ln < L and i + ln < n and code[i + ln] == d[off + ln]:
                ln += 1
            cand = (-ln, e, off)
            if best is None or cand < best:
                best = cand
    return (i, -best[0], best[1], best[2])


def dehn_reduce(rs: RelatorSet, w: Word) -> Word:
    """Replace any subword longer than half a relator by the inverse of the
    complement, leftmost-longest first, until no such subword remains.

    Before a splice at position i no violation starts left of i, and the
    splice leaves all but the last c letters before i alone, where c is
    at most the number of letters it cancelled.  A violation wholly inside
    the untouched part would have been found, so the next scan starts the
    longest pattern's length before it."""
    _check_alphabet(rs, w)
    pattern_list, _, doubled = rs._patterns
    longest = max(map(len, pattern_list), default=0)
    code, start = w.code, 0
    while True:
        hit = _find_violation(rs, code, start)
        if hit is None:
            return Word.from_code(rs.alphabet, code)
        i, ln, e, off = hit
        d = doubled[e]
        complement = invert_code(d[off + ln:off + len(d) // 2])
        spliced = code_product((code[:i], complement, code[i + ln:]))
        cancelled = (len(code) - ln + len(complement) - len(spliced)) // 2
        start = max(0, i - cancelled - longest + 1)
        code = spliced


def is_cyclically_dehn_reduced(rs: RelatorSet, w: Word) -> bool:
    """Every free reduction of every cyclic shift of w is nonempty and
    Dehn reduced over the symmetrised set.

    For w = A^-1 M A with M the cyclic core, the shift reductions are
    exactly the rotations of M together with the nested conjugates
    (A[:p])^-1 M A[:p] - and the latter are subwords of w itself.  So one
    scan of w plus one scan of the doubled core decide the question; the
    core is found by index on the code, where a letter's inverse is its
    code ``^ 1``.  M lies in w, so of the doubled core only the part across
    its seam is scanned: the last and first ``longest - 1`` letters of M,
    with ``longest`` the longest pattern."""
    _check_alphabet(rs, w)
    code = w.code
    i, j = core_bounds(code)
    m = j - i
    if not m:
        return False
    pattern_list = rs._patterns[0]
    reach = max(map(len, pattern_list), default=1) - 1
    seam = code[max(i, j - reach):j] + code[i:min(j, i + reach)]
    for pb in pattern_list:
        if pb in code or (len(pb) <= m and pb in seam):
            return False
    return True


def word_problem(rs: RelatorSet, w: Word) -> bool:
    """Is w trivial in the group presented by the relators?  Requires a
    Dehn-admissible presentation (C'(1/6) or C'(1/4)-T(4))."""
    ok, _route = rs.dehn_admissible()
    if not ok:
        raise SmallCancelError("presentation not Dehn-admissible")
    return len(dehn_reduce(rs, w)) == 0


def endo_order_in_quotient(
    rs: RelatorSet, e: EndomorphismSpec, max_k: int
) -> Optional[int]:
    """Least k <= max_k with e^k acting as the identity on the quotient's
    generators; None if no such k.  e must preserve the relators."""
    for r in rs.relators:
        if not word_problem(rs, apply_endo(e, r)):
            raise SmallCancelError("does not preserve relators")
    alpha = rs.alphabet
    gens = [Word(alpha, (i + 1,), reduced=True) for i in range(len(alpha))]
    current = e
    for k in range(1, max_k + 1):
        if all(word_problem(rs, current(g) * g.inverse()) for g in gens):
            return k
        if k < max_k:
            current = compose_endos(e, current)
    return None
