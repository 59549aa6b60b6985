"""Automorphism-induced HNN-extensions over triangle groups: the builder,
Britton reduction, quotient and free-product morphisms, and per-element
residual witnesses.

The construction: pad the input presentation, choose a free malcharacteristic
subgroup of matching rank inside the triangle group, pull the padded
presentation's kernel through that identification, and attach a stable
letter conjugating the kernel subgroup by the chosen base automorphism.
The family subgroup M is folded once per extension, by the basis rewriter
that membership reads, when membership is first asked; the kernel
generators lie in M by construction, so the builder never folds it.
K is the normal closure in M of the listed words, and membership decides
the padded quotient's word problem: in its coset table, or by free
reduction or Dehn's algorithm once the killed generators are deleted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .cosetenum import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    Overflow,
    todd_coxeter,
)
from .malchar import rank_n_family, seed_words_triangle, triangle_relators
from .smallcancel import RelatorSet, dehn_reduce, endo_order_in_quotient, word_problem
from .stallings import BasisRewriter, build_and_fold, same_subgroup
from .words import (
    Alphabet,
    EndomorphismSpec,
    Word,
    alphabet,
    apply_endo,
    code_product,
    core_bounds,
    endo,
    endo_power,
    images_by_unit,
    word,
)


class HnnError(ValueError):
    pass


@dataclass(frozen=True)
class InputPresentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self):
        for r in self.relators:
            if r.alphabet != self.alphabet:
                raise HnnError("relator over a different alphabet")


def presentation(gens: str, rels: Sequence[str] = ()) -> InputPresentation:
    alpha = alphabet(gens)
    return InputPresentation(alpha, tuple(word(alpha, t) for t in rels))


@dataclass(frozen=True)
class HatPresentation:
    presentation: InputPresentation
    padding: tuple[str, ...]       # freshly adjoined killed generators


def _fresh_names(wanted: Sequence[str], taken: set[str]) -> list[str]:
    out = []
    for base in wanted:
        name = base
        counter = 0
        while name in taken or name in out:
            name = f"{base}{counter}"
            counter += 1
        out.append(name)
    return out


def hat_presentation(P: InputPresentation, mode: str = "pq") -> HatPresentation:
    """Pad the presentation so the padded generator count is at least two
    and the relator list nonempty, killing every added generator.

    pq mode adjoins exactly two killed generators p, q; minimal mode
    adjoins the fewest needed (reproducing the one-generator examples)."""
    names = list(P.alphabet.names)
    taken = set(names)
    if mode == "pq":
        padding = _fresh_names(["p", "q"], taken)
        new_names = names + padding
    elif mode == "minimal":
        padding = []
        pool = iter(["x", "y", "z", "w", "v", "u"])
        while len(names) + len(padding) < 2 or (not P.relators and not padding):
            padding = padding + _fresh_names([next(pool)], taken | set(padding))
        new_names = padding + names
    else:
        raise HnnError(f"unknown padding mode {mode!r}")
    alpha = Alphabet(tuple(new_names))
    pad_relators = tuple(word(alpha, p) for p in padding)
    old_relators = tuple(_respell(r, alpha) for r in P.relators)
    relators = (pad_relators + old_relators) if mode == "minimal" else (old_relators + pad_relators)
    return HatPresentation(InputPresentation(alpha, relators), tuple(padding))


def _respell(w: Word, dst: Alphabet) -> Word:
    """The word spelled over ``dst``, an alphabet that holds every
    generator name of its own: generator k goes to the unit pair of its
    name's index in ``dst``."""
    table = {2 * k + s: 2 * dst.index(name) + s for k, name in enumerate(w.alphabet.names) for s in (0, 1)}
    return Word.from_code(dst, w.code.translate(table))


@dataclass(frozen=True)
class HnnPresentation:
    base_alphabet: Alphabet
    base_relators: tuple[Word, ...]
    stable: str
    phi: EndomorphismSpec
    phi_order: int
    hat: HatPresentation
    m_gens: tuple[Word, ...]            # concrete family words, hat-alphabet order
    assoc_abstract: tuple[Word, ...]    # normal generators of the kernel, over the hat alphabet
    table: Optional[CosetTable]         # hat quotient, None when not finite within the cap

    @property
    def hat_alphabet(self) -> Alphabet:
        return self.hat.presentation.alphabet

    def m_word(self, name: str) -> Word:
        return self.m_gens[self.hat_alphabet.index(name)]

    @cached_property
    def _m_images(self) -> dict[str, str]:
        return images_by_unit([g.code for g in self.m_gens])

    def substitute(self, abstract: Word) -> Word:
        """Spell a hat-alphabet word through the concrete family words."""
        images = self._m_images
        return Word.from_code(self.base_alphabet, code_product(map(images.__getitem__, abstract.code)))

    @cached_property
    def assoc_concrete(self) -> tuple[Word, ...]:
        """The kernel generators substituted into the family."""
        return tuple(map(self.substitute, self.assoc_abstract))

    def hnn_relator_texts(self) -> list[str]:
        t = self.stable
        return [f"{t} ({u}) {t}^-1 ({apply_endo(self.phi, c)})^-1"
                for u, c in zip(self.assoc_abstract, self.assoc_concrete)]

    @cached_property
    def _membership(self) -> "_KMembership":
        return _KMembership(self)

    def membership(self) -> "_KMembership":
        return self._membership

    @cached_property
    def rewriter(self) -> BasisRewriter:
        """M's basis rewriting, which folds M once per extension; membership
        builds it, and callers that only read kernel generators never pay
        for it."""
        return BasisRewriter(self.base_alphabet, list(self.m_gens))

    def base_relator_set(self) -> RelatorSet:
        return RelatorSet(self.base_alphabet, self.base_relators)


def _triangle_phi(alpha: Alphabet, i: int, j: int, k: int) -> EndomorphismSpec:
    if i == j == k:
        return endo(alpha, {"a": "b", "b": "b^-1 a^-1"})  # non-inner, order three
    return endo(alpha, {"a": "a^-1", "b": "b^-1"})        # non-inner, order two


def build_tp(
    alpha: Alphabet,
    i: int,
    j: int,
    k: int,
    P: InputPresentation,
    rho: int = 8,
    mode: str = "pq",
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> HnnPresentation:
    """The HNN-extension of the (i, j, k) triangle group realising the
    padded presentation's group as (a finite-index piece of) the outer
    automorphism group.

    The associated subgroup K is the normal closure in M of the listed
    words.  When the padded quotient is finite within the cap, they are the
    Schreier generators of its coset table, which already generate K; when
    it maps onto Z or overflows the cap, they are the padded relators, and
    membership decides the padded quotient's word problem without a table.
    A coset cap below one is refused here, since a quotient that maps onto
    Z skips enumeration."""
    if min(i, j, k) < 6:
        raise HnnError("exponents below 6 are outside the supported range")
    if max_cosets < 1:
        raise HnnError(f"the coset cap must be at least 1, not {max_cosets}")
    rels = triangle_relators(alpha, i, j, k)
    rs = RelatorSet(alpha, rels)
    phi = _triangle_phi(alpha, i, j, k)
    order = endo_order_in_quotient(rs, phi, 6)
    if order is None:
        raise HnnError("internal: base automorphism has unexpected order")
    hat = hat_presentation(P, mode)
    hat_alpha = hat.presentation.alphabet
    clash = [name for name in hat_alpha.names if name in alpha or name == "t"]
    if clash:
        raise HnnError(f"padded generator names {clash} collide with the base generators or the stable letter t")
    n = len(hat_alpha)
    family = rank_n_family(seed_words_triangle(alpha, rho), n, r=rels)
    # the padding takes the first family words, then the original generators
    by_name = dict(zip(hat.padding + P.alphabet.names, family.words))
    table = padded_quotient(hat.presentation, max_cosets)

    # the kernel generators need no check against the family subgroup:
    # assoc_concrete spells each one through the family words
    return HnnPresentation(
        base_alphabet=alpha,
        base_relators=tuple(rels),
        stable="t",
        phi=phi,
        phi_order=order,
        hat=hat,
        m_gens=tuple(map(by_name.__getitem__, hat_alpha.names)),
        assoc_abstract=hat.presentation.relators if table is None else tuple(table.kernel_generators()),
        table=table,
    )


def padded_quotient(p: InputPresentation, max_cosets: int = DEFAULT_MAX_COSETS) -> Optional[CosetTable]:
    """The complete coset table of the group ``p`` presents, or None when it
    maps onto Z, which skips enumeration, or overflows the cap."""
    if _maps_onto_z(p):
        return None
    outcome = todd_coxeter(p.alphabet, p.relators, (), max_cosets)
    return None if isinstance(outcome, Overflow) else outcome


def _maps_onto_z(p: InputPresentation) -> bool:
    """The exponent-sum matrix (relators x generators) has rank below the
    number of generators: the abelianisation then has a free part, so the
    group maps onto Z, is infinite, and coset enumeration could only run to
    its cap.  The rank comes from fraction-free integer elimination, so it
    is exact.  A generator with exponent sum zero in every relator is the
    case of a zero column."""
    n = len(p.alphabet)
    rows = [[r.code.count(chr(2 * g)) - r.code.count(chr(2 * g + 1)) for g in range(n)] for r in p.relators]
    rank = 0
    for c in range(n):
        top = next((row for row in rows if row[c]), None)
        if top is not None:
            rows = [[top[c] * x - row[c] * y for x, y in zip(row, top)] for row in rows if row is not top]
            rank += 1
    return rank < n


# -- morphisms -------------------------------------------------------------------

@dataclass
class MorphismData:
    extra_abstract: list[Word]
    extra_concrete: list[Word]


def quotient_morphism(
    alpha: Alphabet,
    i: int,
    j: int,
    k: int,
    P1: InputPresentation,
    P2: InputPresentation,
    rho: int = 8,
    mode: str = "pq",
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> MorphismData:
    """Extra HNN relators t U t^-1 phi(U)^-1 presenting the surjection from
    the source extension to the target: U runs over kernel generators of
    the target's padded presentation not already inside the source kernel.

    P2 must be a quotient presentation of P1 (same alphabet, strictly
    larger normal closure), verified in the target's coset table; both
    padded quotients need one."""
    if P1.alphabet != P2.alphabet:
        raise HnnError("quotient presentations must share the alphabet")
    h1 = build_tp(alpha, i, j, k, P1, rho=rho, mode=mode, max_cosets=max_cosets)
    h2 = build_tp(alpha, i, j, k, P2, rho=rho, mode=mode, max_cosets=max_cosets)
    hat_alpha = h1.hat_alphabet
    if hat_alpha != h2.hat_alphabet:
        raise HnnError("internal: the two padded presentations have different alphabets")
    _require_tables("a kernel comparison", h1, h2)
    for r in h1.hat.presentation.relators:
        if h2.table.image_in_quotient(r) != 1:
            raise HnnError(f"not a quotient: relator '{r}' survives in the target")

    # The relator check above shows K1 <= K2, so K1 = K2 exactly when every
    # generator of K2 lies in K1: an empty extra list is the whole kernel
    # comparison.
    data = _morphism(build_and_fold(hat_alpha, list(h1.assoc_abstract)), h2)
    if not data.extra_abstract:
        raise HnnError("not a proper quotient")
    return data


def free_product_morphism(
    alpha: Alphabet,
    i: int,
    j: int,
    k: int,
    P: InputPresentation,
    Q: InputPresentation,
    rho: int = 8,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> MorphismData:
    """Extra HNN relators presenting the surjection onto the extension of
    the free product (pq padding; the nested family convention makes the
    source kernel a subgroup of the target kernel).  Both padded quotients
    need a coset table, so two nontrivial factors are refused."""
    shared = set(P.alphabet.names) & set(Q.alphabet.names)
    if shared:
        raise HnnError(f"free product factors share generators: {sorted(shared)}")
    pq_alpha = Alphabet(P.alphabet.names + Q.alphabet.names)
    PQ = InputPresentation(pq_alpha, tuple(_respell(r, pq_alpha) for r in P.relators + Q.relators))

    hp = build_tp(alpha, i, j, k, P, rho=rho, mode="pq", max_cosets=max_cosets)
    hpq = build_tp(alpha, i, j, k, PQ, rho=rho, mode="pq", max_cosets=max_cosets)
    _require_tables("a kernel comparison", hp, hpq)

    # the nested family convention: shared generators must receive the same
    # concrete words in both builds
    for name in hp.hat_alphabet.names:
        if hp.m_word(name) != hpq.m_word(name):
            raise HnnError("incompatible family convention (non-nested cuts)")

    big_alpha = hpq.hat_alphabet
    g1 = build_and_fold(big_alpha, [_respell(u, big_alpha) for u in hp.assoc_abstract])
    if not Q.alphabet.names and not Q.relators:
        # trivial free factor: the kernels must agree
        g2 = build_and_fold(big_alpha, list(hpq.assoc_abstract))
        if not same_subgroup(g1, g2):
            raise HnnError("internal: a trivial free factor changed the kernel")
    return _morphism(g1, hpq)


def _require_tables(what: str, *extensions: HnnPresentation) -> None:
    if any(H.table is None for H in extensions):
        raise HnnError(f"{what} needs a complete coset table of every padded quotient")


def _morphism(g1, target: HnnPresentation) -> MorphismData:
    """The target's kernel generators outside the source kernel, whose
    folded graph over the target's hat alphabet is ``g1``."""
    extra = [u for u in target.assoc_abstract if not g1.contains(u)]
    return MorphismData(extra, [target.substitute(u) for u in extra])


# -- Britton reduction --------------------------------------------------------------

@dataclass
class BrittonWord:
    """Alternating form h0 t^e1 h1 ... t^em hm over the base group: the
    segments h0..hm and the exponents e1..em, one fewer."""

    segments: tuple[Word, ...]
    exponents: tuple[int, ...]

    @property
    def stable_count(self) -> int:
        return len(self.exponents)

    def text(self, stable: str = "t") -> str:
        parts = [str(self.segments[0])] if self.segments[0] else []
        for eps, w in zip(self.exponents, self.segments[1:]):
            parts.append(stable if eps > 0 else f"{stable}^-1")
            if w:
                parts.append(str(w))
        return " ".join(parts) if parts else "1"


def britton_word(H: HnnPresentation, segments: Sequence[Word], exponents: Sequence[int]) -> BrittonWord:
    if len(segments) != len(exponents) + 1:
        raise HnnError("need one more base segment than stable letters")
    if any(e not in (1, -1) for e in exponents):
        raise HnnError(f"stable letter exponents must be 1 or -1, not {list(exponents)}")
    if any(w.alphabet != H.base_alphabet for w in segments):
        raise HnnError("a base segment is not over the base alphabet")
    return BrittonWord(tuple(segments), tuple(exponents))


class _KMembership:
    """Membership oracle for K, the normal closure in M of the listed words.

    A word h is read in K when its Dehn-reduced form hn lies in the family
    subgroup M, its rewriting w over the family basis is spelled over the
    hat alphabet, and w is trivial in the padded quotient.  In the free
    group this decides whether hn lies in the normal closure in M of the
    concrete kernel generators, exactly:

    - M is free on the family words (the rewriter's rank check), so the map
      sending each hat letter to its family word is an isomorphism from the
      free group on the hat alphabet onto M, and takes the abstract kernel
      generators to the concrete ones;
    - w is verified by substitution before it is returned, so it is the one
      preimage of hn; hn outside M has none;
    - the normal closure of the listed words in the free group on the hat
      alphabet is the padded quotient's kernel, which holds w exactly when
      :func:`_word_problem` calls w trivial.  With a coset table, a guard
      folds the listed words once and requires the folded graph to be the
      table itself, so that they generate K; a file whose assoc words
      generate a subgroup that is not normal fails it.

    That reading hn in the free group decides whether h lies in the image
    of K in the triangle group is not argued here.

    A pinch needs phi(h) for the h just found in K.  When h is Dehn-reduced
    as written (hn and h have one code), h is the substitution of w in the
    free group, and phi is a homomorphism of the free group, so phi(h) is
    the product of the phi-images of w's family words; free reduction is
    unique, so its code is the one letter-by-letter substitution gives.
    :meth:`phi_k` reads it off w's memoised spelling; other words are
    substituted letter by letter.  A pinch t^-1 h t tests phi^-1(h), which
    :meth:`unphi` memoises."""

    def __init__(self, H: HnnPresentation):
        if H.table is not None and build_and_fold(H.hat_alphabet, list(H.assoc_abstract)).table() != H.table.table:
            raise HnnError(f"the associated generators {', '.join(map(str, H.assoc_abstract))} do not "
                           "generate the kernel of the padded quotient; the subgroup they generate must be normal")
        self.route, self._image = _word_problem(H)
        self.H = H
        self.rewriter = H.rewriter
        self.rs = H.base_relator_set()
        self.phi_inv = endo_power(H.phi, H.phi_order - 1)
        # hat code unit -> phi of its family word
        self._phi_images = images_by_unit([apply_endo(H.phi, g).code for g in H.m_gens])
        self._cosets: dict = {}    # code -> its coset of K, None outside M
        self._spelled: dict = {}   # code of a Dehn-reduced word in K -> its hat code
        self._unphi: dict = {}     # code -> its phi^-1 image

    def in_k(self, h: Word) -> bool:
        return self.k_coset(h) == 1

    def k_coset(self, h: Word) -> Optional[int]:
        """The coset of K that h's hat spelling reaches in the padded
        quotient, 1 for K itself (0 for any other without a table); None
        when h lies outside M.  Memoised by code, with the spelling that
        :meth:`phi_k` reads when h is in K and Dehn-reduced as written."""
        if h.code in self._cosets:
            return self._cosets[h.code]
        hn = dehn_reduce(self.rs, h)
        abstract = self.abstract_image(hn)
        coset = self._cosets[h.code] = None if abstract is None else self._image(abstract)
        if coset == 1 and hn.code == h.code:
            self._spelled[h.code] = abstract.code
        return coset

    def phi_k(self, k: Word) -> Word:
        """phi(k) for a word that :meth:`in_k` has put in K."""
        spelled = self._spelled.get(k.code)
        if spelled is None:
            return apply_endo(self.H.phi, k)
        return Word.from_code(self.H.base_alphabet, code_product(map(self._phi_images.__getitem__, spelled)))

    def unphi(self, h: Word) -> Word:
        """phi^-1(h), memoised by code."""
        image = self._unphi.get(h.code)
        if image is None:
            image = self._unphi[h.code] = apply_endo(self.phi_inv, h)
        return image

    def abstract_image(self, hn: Word) -> Optional[Word]:
        """The hat-alphabet spelling of a normalised element of M, or None:
        symbol k of its rewriting is family word k, the image of hat letter k."""
        code = self.rewriter.rewrite(hn)
        return None if code is None else Word.from_code(self.H.hat_alphabet, code)


def _word_problem(H: HnnPresentation) -> tuple[str, Callable[[Word], int]]:
    """The route that decides the padded quotient's word problem, and the
    map it gives from hat words to cosets of K, 1 for a trivial word.

    With a complete coset table it is the table.  Otherwise the generators
    killed by relators whose cyclic core is one letter are deleted (a Tietze
    move) until none is left; a word is then trivial when its deletion
    freely reduces to the empty word if no relator is left, or Dehn-reduces
    to it if what is left is Dehn-admissible.  Any other quotient is refused."""
    if H.table is not None:
        return "coset table", H.table.image_in_quotient
    alpha, gone = H.hat_alphabet, {}  # both units of every killed generator -> None, for str.translate
    rels = [r.code for r in H.hat.presentation.relators]
    while killed := [ord(c[i]) & ~1 for c in rels for i, j in [core_bounds(c)] if j - i == 1]:
        gone.update((u, None) for g in killed for u in (g, g + 1))
        rels = [c for c in (code_product(r.translate(gone)) for r in rels) if c]

    def deleted(w: Word) -> Word:
        return Word.from_code(alpha, code_product(w.code.translate(gone)))

    if not rels:
        return "free reduction", lambda w: int(not deleted(w))
    rs = RelatorSet(alpha, [Word.from_code(alpha, r) for r in rels])
    ok, condition = rs.dehn_admissible()
    if not ok:
        raise HnnError(f"the padded quotient's relators {', '.join(map(str, rs.relators))}, left after deleting "
                       "the killed generators, are not Dehn-admissible")
    return f"Dehn's algorithm under {condition}", lambda w: int(not dehn_reduce(rs, deleted(w)))


# (e1, e2) -> for a subword t^e1 h t^e2: the kind of its Britton pinch, the
# kind of its residual witness entry, and the subgroup h lies in when it
# pinches.  Either way the pinch asks whether k is in K, with k = h for
# t h t^-1 and k = phi^-1(h) for t^-1 h t; it then leaves phi(k) or k.
_PINCHES = {(1, -1): ("t k t^-1", "t h t^-1", "K"),
            (-1, 1): ("t^-1 phi(k) t", "t^-1 h t", "phi(K)")}


@dataclass
class PinchStep:
    position: int
    kind: str          # "t k t^-1" or "t^-1 phi(k) t"
    pinched: Word


def britton_reduce(H: HnnPresentation, bw: BrittonWord) -> tuple[BrittonWord, list[PinchStep]]:
    """Remove pinches t k t^-1 (k in K) and t^-1 phi(k) t until none apply.

    The result is Britton-reduced: with any stable letters left it is
    nontrivial in the extension.  K is the normal closure in M of the
    listed words: a pinch is decided in the padded quotient."""
    member = H.membership()
    segs, eps = list(bw.segments), list(bw.exponents)
    log: list[PinchStep] = []
    while True:
        for idx in range(len(eps) - 1):
            pinch = _PINCHES.get((eps[idx], eps[idx + 1]))
            if pinch is None:
                continue
            mid = segs[idx + 1]
            down = eps[idx] == 1
            k = mid if down else member.unphi(mid)
            if member.in_k(k):
                log.append(PinchStep(idx, pinch[0], mid))
                segs[idx] = segs[idx] * (member.phi_k(k) if down else k) * segs[idx + 2]
                del segs[idx + 1:idx + 3]
                del eps[idx:idx + 2]
                break
        else:
            break
    return BrittonWord(tuple(segs), tuple(eps)), log


def britton_trivial(H: HnnPresentation, bw: BrittonWord) -> bool:
    reduced, _ = britton_reduce(H, bw)
    if reduced.stable_count:
        return False
    return word_problem(H.membership().rs, reduced.segments[0])


# -- residual witnesses ---------------------------------------------------------------

@dataclass
class WitnessEntry:
    position: int
    kind: str
    element: Word
    constrained: bool
    image_coset: Optional[int] = None  # 1-based; never 1 for constrained entries


@dataclass
class ResidualWitness:
    entries: list[WitnessEntry]
    separating_quotient: str  # "input-presentation" or "trivial"
    nontrivial: bool
    note: str


def residual_witness(H: HnnPresentation, bw: BrittonWord) -> ResidualWitness:
    """Per-element residual-finiteness data for a Britton-reduced word.

    For stable-letter subwords t h t^-1 with h in the family subgroup, the
    image of h in the (finite) padded quotient is nontrivial and the
    quotient itself separates; subwords whose h lies outside the family
    impose no constraint, and a word with no stable letters is separated by
    the base group alone.  The padded quotient needs a coset table."""
    _require_tables("a residual witness", H)
    member = H.membership()
    _, log = britton_reduce(H, bw)
    if log:
        raise HnnError("word is not Britton-reduced")
    eps, segs = bw.exponents, bw.segments
    if not eps:
        nontrivial = not word_problem(member.rs, segs[0])
        return ResidualWitness(
            [], "trivial", nontrivial,
            "no stable letters: decided in the base group by Dehn's algorithm",
        )
    entries = []
    for idx in range(len(eps) - 1):
        pinch = _PINCHES.get((eps[idx], eps[idx + 1]))
        if pinch is None:
            continue
        _, kind, group = pinch
        mid = segs[idx + 1]
        # britton_reduce has just asked this, so both reads are memoised
        coset = member.k_coset(mid if eps[idx] == 1 else member.unphi(mid))
        if coset is None:
            entries.append(WitnessEntry(idx, kind, mid, False))
            continue
        if coset == 1:  # Britton-reducedness keeps h out of K
            raise HnnError(f"internal: the reduced subword {mid} lies in {group}")
        entries.append(WitnessEntry(idx, kind, mid, True, coset))
    constrained = [e for e in entries if e.constrained]
    quotient = "input-presentation" if constrained else "trivial"
    note = (
        "the padded quotient itself separates: each constrained image is a "
        "nontrivial coset, so the word stays Britton-reduced in the target"
        if constrained
        else "no constrained subwords: the trivial quotient already separates"
    )
    return ResidualWitness(entries, quotient, True, note)
