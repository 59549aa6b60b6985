"""Automorphism-induced HNN-extensions over triangle groups: the builder,
Britton reduction, quotient and free-product morphisms, and per-element
residual witnesses.

The construction: pad the input presentation, choose a free malcharacteristic
subgroup of matching rank inside the triangle group, pull the padded
presentation's kernel through that identification, and attach a stable
letter conjugating the kernel subgroup by the chosen base automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cosetenum import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    Overflow,
    todd_coxeter,
)
from .malchar import rank_n_family, seed_words_triangle, triangle_relators
from .smallcancel import RelatorSet, dehn_reduce, endo_order_in_quotient, symmetrise, word_problem
from .stallings import BasisRewriter, build_and_fold, same_subgroup
from .words import (
    Alphabet,
    EndomorphismSpec,
    Word,
    apply_endo,
    endo,
    endo_power,
    reduced_words,
    substitute,
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
    from .words import alphabet as _alphabet

    alpha = _alphabet(gens)
    return InputPresentation(alpha, tuple(word(alpha, t) for t in rels))


@dataclass(frozen=True)
class HatPresentation:
    presentation: InputPresentation
    padding: tuple[str, ...]       # freshly adjoined killed generators
    slots: dict                    # generator name -> family index (padding first)
    mode: str


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
        order = padding + names  # family slots: p, q, then the originals
    elif mode == "minimal":
        padding = []
        pool = iter(["x", "y", "z", "w", "v", "u"])
        while len(names) + len(padding) < 2 or (not P.relators and not padding):
            padding = padding + _fresh_names([next(pool)], taken | set(padding))
        new_names = padding + names
        order = new_names
    else:
        raise HnnError(f"unknown padding mode {mode!r}")
    alpha = Alphabet(tuple(new_names))
    pad_relators = tuple(word(alpha, p) for p in padding)
    old_relators = tuple(Word(alpha, _respell(P.alphabet, alpha, r.letters), reduced=True)
                         for r in P.relators)
    relators = (pad_relators + old_relators) if mode == "minimal" else (old_relators + pad_relators)
    slots = {name: idx for idx, name in enumerate(order)}
    return HatPresentation(
        InputPresentation(alpha, relators), tuple(padding), slots, mode
    )


def _respell(src: Alphabet, dst: Alphabet, letters: tuple[int, ...]) -> tuple[int, ...]:
    trans = [dst.index(n) + 1 for n in src.names]
    return tuple(trans[x - 1] if x > 0 else -trans[-x - 1] for x in letters)


@dataclass
class HnnPresentation:
    base_alphabet: Alphabet
    base_relators: tuple[Word, ...]
    stable: str
    phi: EndomorphismSpec
    phi_order: int
    hat: HatPresentation
    m_gens: tuple[Word, ...]            # concrete family words, slot order
    assoc_abstract: tuple[Word, ...]    # kernel generators over the hat alphabet
    assoc_concrete: tuple[Word, ...]    # the same, substituted into the family
    table: Optional[CosetTable]         # hat quotient, when finite
    truncated: Optional[int] = None     # truncation depth of a parametric family
    _membership: Optional["_KMembership"] = field(default=None, repr=False)

    @property
    def hat_alphabet(self) -> Alphabet:
        return self.hat.presentation.alphabet

    def m_word(self, name: str) -> Word:
        return self.m_gens[self.hat.slots[name]]

    def substitute(self, abstract: Word) -> Word:
        """Spell a hat-alphabet word through the concrete family words."""
        images = [self.m_word(name).letters for name in self.hat_alphabet.names]
        return Word(self.base_alphabet, substitute(images, abstract.letters), reduced=True)

    def hnn_relator_texts(self) -> list[str]:
        t = self.stable
        return [f"{t} ({u}) {t}^-1 ({apply_endo(self.phi, self.substitute(u))})^-1"
                for u in self.assoc_abstract]

    def membership(self) -> "_KMembership":
        if self._membership is None:
            if self.truncated is not None:
                raise HnnError("finite quotient required")
            self._membership = _KMembership(self)
        return self._membership

    def base_relator_set(self) -> RelatorSet:
        return symmetrise(self.base_alphabet, self.base_relators)


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
    truncate: int = 3,
) -> HnnPresentation:
    """The HNN-extension of the (i, j, k) triangle group realising the
    padded presentation's group as (a finite-index piece of) the outer
    automorphism group.

    The kernel generators of the padded quotient are computed by coset
    enumeration when the quotient is finite within the cap; when it is
    visibly infinite (it maps onto Z) or overflows the cap, a
    parametric conjugate family truncated at the given depth is emitted and
    marked as such."""
    if min(i, j, k) < 6:
        raise HnnError("exponents below 6 are outside the supported range")
    rels = triangle_relators(alpha, i, j, k)
    rs = symmetrise(alpha, rels)
    phi = _triangle_phi(alpha, i, j, k)
    order = endo_order_in_quotient(rs, phi, 6)
    if order is None:
        raise HnnError("internal: base automorphism has unexpected order")
    hat = hat_presentation(P, mode)
    hat_alpha = hat.presentation.alphabet
    n = len(hat_alpha)
    family = rank_n_family(seed_words_triangle(alpha, rho), n, r=rels)
    m_by_slot = tuple(family.words[s] for s in range(n))

    outcome = (None if _maps_onto_z(hat.presentation)
               else todd_coxeter(hat_alpha, hat.presentation.relators, (), max_cosets))
    if outcome is None or isinstance(outcome, Overflow):
        abstract = _truncated_kernel(hat, truncate)
        table = None
        truncated = truncate
    else:
        abstract = tuple(outcome.kernel_generators())
        table = outcome
        truncated = None

    hnn = HnnPresentation(
        base_alphabet=alpha,
        base_relators=tuple(rels),
        stable="t",
        phi=phi,
        phi_order=order,
        hat=hat,
        m_gens=m_by_slot,
        assoc_abstract=abstract,
        assoc_concrete=tuple(),
        table=table,
        truncated=truncated,
    )
    concrete = tuple(hnn.substitute(u) for u in abstract)
    hnn.assoc_concrete = concrete
    # every kernel generator must lie in the family subgroup, and the base
    # automorphism must preserve the base relators
    m_graph = build_and_fold(alpha, list(m_by_slot))
    for u in concrete:
        if not m_graph.contains(u):
            raise HnnError(f"internal: kernel generator {u} is not in the family subgroup")
    for r in rels:
        if not word_problem(rs, apply_endo(phi, r)):
            raise HnnError(f"internal: the base automorphism does not preserve the relator {r}")
    return hnn


def _maps_onto_z(p: InputPresentation) -> bool:
    """The exponent-sum matrix (relators x generators) has rank below the
    number of generators: the abelianisation then has a free part, so the
    group maps onto Z, is infinite, and coset enumeration could only run to
    its cap.  The rank comes from fraction-free integer elimination, so it
    is exact.  A generator with exponent sum zero in every relator is the
    case of a zero column."""
    n = len(p.alphabet)
    rows = [[r.letters.count(g) - r.letters.count(-g) for g in range(1, n + 1)] for r in p.relators]
    rank = 0
    for c in range(n):
        top = next((row for row in rows if row[c]), None)
        if top is not None:
            rows = [[top[c] * x - row[c] * y for x, y in zip(row, top)] for row in rows if row is not top]
            rank += 1
    return rank < n


def _truncated_kernel(hat: HatPresentation, depth: int) -> tuple[Word, ...]:
    """Conjugates g^-1 R g of the padded relators over all reduced
    conjugators of length at most the depth: a marked, truncated slice of
    the (not finitely generated) kernel."""
    alpha = hat.presentation.alphabet
    out: list[Word] = []
    seen = set()
    conjugators = [()] + list(reduced_words(len(alpha), depth))
    for g in conjugators:
        for r in hat.presentation.relators:
            lets = substitute((g, r.letters), (-1, 2, 1))
            if lets and lets not in seen:
                seen.add(lets)
                out.append(Word(alpha, lets, reduced=True))
    return tuple(out)


# -- morphisms -------------------------------------------------------------------

@dataclass
class MorphismData:
    extra_abstract: list[Word]
    extra_concrete: list[Word]
    caveats: list[str]
    source_truncated: bool
    target_truncated: bool


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
    truncate: int = 3,
) -> MorphismData:
    """Extra HNN relators t U t^-1 phi(U)^-1 presenting the surjection from
    the source extension to the target: U runs over kernel generators of
    the target's padded presentation not already inside the source kernel.

    P2 must be a quotient presentation of P1 (same alphabet, strictly
    larger normal closure); verified at desk scale when both padded
    quotients are finite, otherwise taken on the caller's assertion with a
    recorded caveat."""
    if P1.alphabet != P2.alphabet:
        raise HnnError("quotient presentations must share the alphabet")
    h1 = build_tp(alpha, i, j, k, P1, rho=rho, mode=mode, max_cosets=max_cosets, truncate=truncate)
    h2 = build_tp(alpha, i, j, k, P2, rho=rho, mode=mode, max_cosets=max_cosets, truncate=truncate)
    caveats: list[str] = []
    hat_alpha = h1.hat_alphabet
    if hat_alpha != h2.hat_alphabet:
        raise HnnError("internal: the two padded presentations have different alphabets")

    if h2.table is not None:
        for r in h1.hat.presentation.relators:
            if h2.table.image_in_quotient(r) != 1:
                raise HnnError(f"not a quotient: relator '{r}' survives in the target")
    else:
        caveats.append("target quotient infinite: inclusion taken on caller's assertion")

    g1 = build_and_fold(hat_alpha, list(h1.assoc_abstract))
    g2 = build_and_fold(hat_alpha, list(h2.assoc_abstract))
    if h1.truncated is None and h2.truncated is None:
        if same_subgroup(g1, g2):
            raise HnnError("not a proper quotient")
    else:
        caveats.append("kernel comparison on truncated parametric families")

    extra = [u for u in h2.assoc_abstract if not g1.contains(u)]
    if h1.truncated is None and h2.truncated is None and not extra:
        raise HnnError("not a proper quotient")
    return MorphismData(
        extra_abstract=extra,
        extra_concrete=[h2.substitute(u) for u in extra],
        caveats=caveats,
        source_truncated=h1.truncated is not None,
        target_truncated=h2.truncated is not None,
    )


def free_product_morphism(
    alpha: Alphabet,
    i: int,
    j: int,
    k: int,
    P: InputPresentation,
    Q: InputPresentation,
    rho: int = 8,
    max_cosets: int = DEFAULT_MAX_COSETS,
    truncate: int = 3,
) -> MorphismData:
    """Extra HNN relators presenting the surjection onto the extension of
    the free product (pq padding; the nested family convention makes the
    source kernel a subgroup of the target kernel)."""
    shared = set(P.alphabet.names) & set(Q.alphabet.names)
    if shared:
        raise HnnError(f"free product factors share generators: {sorted(shared)}")
    pq_alpha = Alphabet(P.alphabet.names + Q.alphabet.names)
    relators = tuple(
        Word(pq_alpha, _respell(P.alphabet, pq_alpha, r.letters), reduced=True)
        for r in P.relators
    ) + tuple(
        Word(pq_alpha, _respell(Q.alphabet, pq_alpha, r.letters), reduced=True)
        for r in Q.relators
    )
    PQ = InputPresentation(pq_alpha, relators)

    hp = build_tp(alpha, i, j, k, P, rho=rho, mode="pq", max_cosets=max_cosets, truncate=truncate)
    hpq = build_tp(alpha, i, j, k, PQ, rho=rho, mode="pq", max_cosets=max_cosets, truncate=truncate)

    # the nested family convention: shared generators must receive the same
    # concrete words in both builds
    for name in hp.hat_alphabet.names:
        if hp.m_word(name) != hpq.m_word(name):
            raise HnnError("incompatible family convention (non-nested cuts)")

    caveats = []
    big_alpha = hpq.hat_alphabet
    k1 = [
        Word(big_alpha, _respell(hp.hat_alphabet, big_alpha, u.letters), reduced=True)
        for u in hp.assoc_abstract
    ]
    g1 = build_and_fold(big_alpha, k1)
    if hp.truncated is not None or hpq.truncated is not None:
        caveats.append("kernel comparison on truncated parametric families")
    extra = [u for u in hpq.assoc_abstract if not g1.contains(u)]
    if not Q.alphabet.names and not Q.relators:
        # trivial free factor: the kernels must agree
        g2 = build_and_fold(big_alpha, list(hpq.assoc_abstract))
        if not same_subgroup(g1, g2):
            raise HnnError("internal: a trivial free factor changed the kernel")
    return MorphismData(
        extra_abstract=extra,
        extra_concrete=[hpq.substitute(u) for u in extra],
        caveats=caveats,
        source_truncated=hp.truncated is not None,
        target_truncated=hpq.truncated is not None,
    )


# -- Britton reduction --------------------------------------------------------------

@dataclass
class BrittonWord:
    """Alternating form h0 t^e1 h1 ... t^em hm over the base group."""

    head: Word
    tail: tuple[tuple[int, Word], ...]

    @property
    def stable_count(self) -> int:
        return len(self.tail)

    def text(self, stable: str = "t") -> str:
        parts = [str(self.head)] if self.head else []
        for eps, w in self.tail:
            parts.append(stable if eps > 0 else f"{stable}^-1")
            if w:
                parts.append(str(w))
        return " ".join(parts) if parts else "1"


def britton_word(H: HnnPresentation, segments: Sequence[Word], exponents: Sequence[int]) -> BrittonWord:
    if len(segments) != len(exponents) + 1:
        raise HnnError("need one more base segment than stable letters")
    return BrittonWord(segments[0], tuple(zip(exponents, segments[1:])))


class _KMembership:
    """Membership oracle for the associated subgroup.

    An element lies in K when it lies in the family subgroup M, its
    rewriting over the family basis maps into the hat alphabet, and the
    image traces to the trivial coset of the padded quotient.  The direct
    reading through the folded graph of the kernel generators cross-checks
    every answer."""

    def __init__(self, H: HnnPresentation):
        self.H = H
        self.rs = H.base_relator_set()
        self.rewriter = BasisRewriter(H.base_alphabet, list(H.m_gens))
        self.k_graph = build_and_fold(H.base_alphabet, list(H.assoc_concrete))
        self.phi_inv = endo_power(H.phi, H.phi_order - 1)
        hat_names = H.hat_alphabet.names
        by_slot = sorted(hat_names, key=lambda nm: H.hat.slots[nm])
        self._slot_to_hat_letter = [H.hat_alphabet.index(nm) + 1 for nm in by_slot]
        self._k_memo: dict = {}
        self._phi_k_memo: dict = {}

    def normalise(self, h: Word) -> Word:
        return dehn_reduce(self.rs, h)

    def in_k(self, h: Word) -> bool:
        cached = self._k_memo.get(h.letters)
        if cached is not None:
            return cached
        hn = self.normalise(h)
        abstract = self.abstract_image(hn)
        verdict = abstract is not None and self.H.table.image_in_quotient(abstract) == 1
        if verdict != self.k_graph.contains(hn):
            raise HnnError(f"internal: the two membership checks disagree on {h}")
        self._k_memo[h.letters] = verdict
        return verdict

    def in_phi_k(self, h: Word) -> bool:
        cached = self._phi_k_memo.get(h.letters)
        if cached is None:
            cached = self.in_k(apply_endo(self.phi_inv, h))
            self._phi_k_memo[h.letters] = cached
        return cached

    def abstract_image(self, hn: Word) -> Optional[Word]:
        """The hat-alphabet spelling of a normalised element of M, or None."""
        pairs = self.rewriter.rewrite(hn)
        if pairs is None:
            return None
        letters = tuple(self._slot_to_hat_letter[idx] * sign for idx, sign in pairs)
        return Word(self.H.hat_alphabet, letters)


@dataclass
class PinchStep:
    position: int
    kind: str          # "t k t^-1" or "t^-1 phi(k) t"
    pinched: Word
    replaced_by: Word


def britton_reduce(H: HnnPresentation, bw: BrittonWord) -> tuple[BrittonWord, list[PinchStep]]:
    """Remove pinches t k t^-1 (k in K) and t^-1 phi(k) t until none apply.

    The result is Britton-reduced: with any stable letters left it is
    nontrivial in the extension.  Requires a finite padded quotient."""
    member = H.membership()
    segs = [bw.head] + [w for _, w in bw.tail]
    eps = [e for e, _ in bw.tail]
    log: list[PinchStep] = []
    changed = True
    while changed:
        changed = False
        for idx in range(len(eps) - 1):
            mid = segs[idx + 1]
            if eps[idx] == 1 and eps[idx + 1] == -1 and member.in_k(mid):
                image = apply_endo(H.phi, mid)
                log.append(PinchStep(idx, "t k t^-1", mid, image))
                segs[idx] = segs[idx] * image * segs[idx + 2]
                del segs[idx + 1:idx + 3]
                del eps[idx:idx + 2]
                changed = True
                break
            if eps[idx] == -1 and eps[idx + 1] == 1 and member.in_phi_k(mid):
                image = apply_endo(member.phi_inv, mid)
                log.append(PinchStep(idx, "t^-1 phi(k) t", mid, image))
                segs[idx] = segs[idx] * image * segs[idx + 2]
                del segs[idx + 1:idx + 3]
                del eps[idx:idx + 2]
                changed = True
                break
    return BrittonWord(segs[0], tuple(zip(eps, segs[1:]))), log


def britton_trivial(H: HnnPresentation, bw: BrittonWord) -> bool:
    reduced, _ = britton_reduce(H, bw)
    if reduced.stable_count:
        return False
    return word_problem(H.membership().rs, reduced.head)


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
    the base group alone."""
    if H.truncated is not None:
        raise HnnError("finite quotient required")
    member = H.membership()
    reduced, log = britton_reduce(H, bw)
    if log or reduced.tail != bw.tail or reduced.head != bw.head:
        raise HnnError("word is not Britton-reduced")
    if not bw.tail:
        nontrivial = not word_problem(member.rs, bw.head)
        return ResidualWitness(
            [], "trivial", nontrivial,
            "no stable letters: decided in the base group by Dehn's algorithm",
        )
    entries = []
    eps = [e for e, _ in bw.tail]
    segs = [w for _, w in bw.tail]
    for idx in range(len(eps) - 1):
        mid = segs[idx]
        if eps[idx] == 1 and eps[idx + 1] == -1:
            kind, h, group = "t h t^-1", mid, "K"
        elif eps[idx] == -1 and eps[idx + 1] == 1:
            kind, h, group = "t^-1 h t", apply_endo(member.phi_inv, mid), "phi(K)"
        else:
            continue
        abstract = member.abstract_image(member.normalise(h))
        if abstract is None:
            entries.append(WitnessEntry(idx, kind, mid, False))
            continue
        coset = H.table.image_in_quotient(abstract)
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
