"""Certificates lifting free-group facts to small cancellation quotients.

A certificate bundles the hypotheses that were machine-checked with the
conclusion they support.  It is "certified" exactly when every hypothesis
verdict is yes; bounded hypotheses always attach a caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import stallings
from .smallcancel import (
    RelatorSet,
    check_T,
    check_metric,
    is_cyclically_dehn_reduced,
)
from .words import (
    Alphabet,
    Word,
    code_product,
    cyclic_reduce,
    images_by_unit,
    invert_code,
    proper_power,
    reduced_words,
)


class CertificateError(ValueError):
    """Raised when a certification routine refuses to run (hypothesis
    violations that make the question ill-posed, not negative answers)."""


@dataclass
class Hypothesis:
    name: str
    ok: bool
    detail: str = ""
    caveat: Optional[str] = None


@dataclass
class Certificate:
    kind: str
    hypotheses: list[Hypothesis] = field(default_factory=list)
    conclusion: str = ""
    route: Optional[str] = None
    caveats: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    # the word lists the certificate is about, by data key: spelled only
    # by to_dict, after the other data
    words: dict[str, Sequence[Word]] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    def add(self, name, ok, detail="", caveat=None):
        self.hypotheses.append(Hypothesis(name, ok, detail, caveat))
        if caveat:
            self.caveats.append(caveat)
        return ok

    def first_failure(self) -> Optional[Hypothesis]:
        for h in self.hypotheses:
            if not h.ok:
                return h
        return None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "certified": self.certified,
            "route": self.route,
            "conclusion": self.conclusion if self.certified else None,
            "hypotheses": [
                {"name": h.name, "ok": h.ok, "detail": h.detail, "caveat": h.caveat}
                for h in self.hypotheses
            ],
            "caveats": self.caveats,
            "data": {**self.data, **{key: [str(w) for w in ws] for key, ws in self.words.items()}},
        }


@dataclass(frozen=True)
class JointRoute:
    """The small cancellation hypothesis on a joint set r ∪ s, decided once:
    the route that holds (None when neither does), the hypotheses it
    records, and the joint set's ``shift_class_pair``.  Every certificate
    over the same (r, s) records the same."""

    route: Optional[str]
    hypotheses: tuple[Hypothesis, ...]
    shift_class_pair: Optional[tuple[int, int]]

    def record(self, cert: Certificate) -> None:
        if self.route is not None:
            cert.route = self.route
        for h in self.hypotheses:
            cert.add(h.name, h.ok, h.detail, h.caveat)


def _joint_metric_route(alpha: Alphabet, r: Sequence[Word], s: Sequence[Word]) -> JointRoute:
    """The small cancellation hypothesis on the symmetrised r ∪ s, trying
    C'(1/4)-T(4) first and falling back to C'(1/6)."""
    joint = RelatorSet(alpha, list(r) + list(s))
    shared = joint.shift_class_pair
    quarter = check_metric(joint, Fraction(1, 4))
    t4 = check_T(joint, 4)
    if quarter.ok and t4.ok:
        return JointRoute("C'(1/4)-T(4)", (
            Hypothesis("small-cancellation C'(1/4)", True),
            Hypothesis("small-cancellation T(4)", True),
        ), shared)
    sixth = check_metric(joint, Fraction(1, 6))
    if sixth.ok:
        return JointRoute("C'(1/6)", (Hypothesis("small-cancellation C'(1/6)", True),), shared)
    detail = []
    if not quarter.ok:
        detail.append(
            f"C'(1/4) fails: piece '{quarter.failing_piece}' of length "
            f"{len(quarter.failing_piece)} inside relator of length {len(quarter.failing_relator)}"
        )
    if not t4.ok:
        r1, r2, r3 = t4.triple
        detail.append(
            "T(4) fails: all products in the triple "
            f"({_clip(r1)}, {_clip(r2)}, {_clip(r3)}) cancel"
        )
    if not sixth.ok:
        detail.append(
            f"C'(1/6) fails: piece '{sixth.failing_piece}' inside relator of length "
            f"{len(sixth.failing_relator)}"
        )
    return JointRoute(None, (
        Hypothesis("small-cancellation C'(1/6) or C'(1/4)-T(4)", False, "; ".join(detail)),
    ), shared)


def _clip(w: Word, limit: int = 30) -> str:
    s = str(w)
    return s if len(s) <= limit else s[:limit] + "..."


def _distinct_rotation_classes(
    cert: Certificate, words: Sequence[Word], shared: Optional[tuple[int, int]]
) -> bool:
    """No two of the words may share a symmetrised element (be rotations of
    one another, up to inversion).  ``shared`` is the
    ``RelatorSet.shift_class_pair`` of the symmetrised words."""
    if shared is None:
        return cert.add("relator shift-classes pairwise distinct", True)
    i, j = shared
    return cert.add(
        "relator shift-classes pairwise distinct",
        False,
        f"'{_clip(words[i])}' and '{_clip(words[j])}' are rotations of one another",
    )


def certify_free_basis(alpha: Alphabet, r: Sequence[Word], s: Sequence[Word]) -> Certificate:
    """<s> is free with basis s in the group presented by r, provided
    the joint symmetrised set passes C'(1/4).

    Refuses when the base presentation itself is not Dehn-admissible."""
    base = RelatorSet(alpha, r)
    ok, route = base.dehn_admissible()
    if not ok:
        raise CertificateError("base presentation not Dehn-admissible")
    cert = Certificate(kind="free-basis", route=route)
    words = list(r) + list(s)
    joint = RelatorSet(alpha, words)
    _distinct_rotation_classes(cert, words, joint.shift_class_pair)
    quarter = check_metric(joint, Fraction(1, 4))
    cert.add(
        "joint C'(1/4)",
        quarter.ok,
        "" if quarter.ok else (
            f"piece '{quarter.failing_piece}' inside relator of length {len(quarter.failing_relator)}"
        ),
    )
    cert.conclusion = (
        "the listed words are a free basis of the subgroup they generate in the "
        "quotient, and every word over them is cyclically Dehn-reduced"
    )
    cert.words["s"] = s
    return cert


def certify_malnormal_in_quotient(
    alpha: Alphabet, r: Sequence[Word], s: Sequence[Word], joint: Optional[JointRoute] = None
) -> Certificate:
    """<s> is malnormal and free with basis s in the quotient, provided the
    joint set is C'(1/6) or C'(1/4)-T(4) and no s-word is a proper power.
    ``joint``, when given, is ``_joint_metric_route(alpha, r, s)``."""
    cert = Certificate(kind="malnormal")
    joint = joint or _joint_metric_route(alpha, r, s)
    _distinct_rotation_classes(cert, list(r) + list(s), joint.shift_class_pair)
    joint.record(cert)
    for w in s:
        pp = proper_power(w)
        if pp is not None:
            root, e = pp
            cert.add("no proper powers in s", False, f"'{_clip(w)}' = ({_clip(root)})^{e}")
            break
    else:
        cert.add("no proper powers in s", True)
    cert.conclusion = "the subgroup is malnormal in the quotient and free on the listed basis"
    cert.words["s"] = s
    return cert


@dataclass
class FamilyVerdict:
    ok: bool
    unconditional: bool
    caveat: Optional[str] = None
    witness: Optional[Word] = None
    checked_words: int = 0


def check_family_cyclically_reduced(
    alpha: Alphabet,
    r: Sequence[Word],
    t: Sequence[Word],
    syllable_bound: int = 3,
    base: Optional[RelatorSet] = None,
) -> FamilyVerdict:
    """Are all words over t (freely reduced over t) cyclically Dehn-reduced
    over r?  Checked for syllable length up to the bound; additionally
    reports whether the block-length criterion makes the bounded scan
    unconditionally sufficient.  ``base``, when given, is the symmetrised r,
    for callers that check several families against one relator set."""
    if syllable_bound < 3:
        raise CertificateError("syllable bound below 3: the criterion needs window 3")
    if base is None:
        base = RelatorSet(alpha, r)
    if base.alphabet != alpha or any(w.alphabet != alpha for w in t):
        raise CertificateError("relator set or t-word over a different alphabet")

    # each word over t is substituted as a code through the t-words' codes
    images = images_by_unit([w.code for w in t])
    checked = 0
    for expr in reduced_words(len(t), syllable_bound):
        checked += 1
        v = Word.from_code(alpha, code_product(map(images.__getitem__, expr)))
        if not is_cyclically_dehn_reduced(base, v):
            return FamilyVerdict(False, False, witness=v, checked_words=checked)

    # with no t-words there is no word to check, and the scan was exhaustive
    unconditional = _block_criterion(base, t) if r and t else True
    caveat = None if unconditional else f"t-family check bounded at syllable length {syllable_bound}"
    return FamilyVerdict(True, unconditional, caveat=caveat, checked_words=checked)


def _block_criterion(base: RelatorSet, t: Sequence[Word]) -> bool:
    """Worst-case cancellation between adjacent t-letters plus the longest
    minimal relator violation must stay strictly below the residual middle
    of every t-letter; then any violating subword spans at most three
    consecutive blocks and the window-3 scan is exhaustive.  ``base`` must
    have at least one relator, and ``t`` at least one word."""
    letters = list(images_by_unit([w.code for w in t]).values())

    def cancel(g, h):
        # letters cancelled between g and h in the product g*h
        return (len(g) + len(h) - len(code_product((g, h)))) // 2

    max_cancel = 0
    left = {g: 0 for g in letters}
    right = {g: 0 for g in letters}
    for g in letters:
        g_inv = invert_code(g)
        for h in letters:
            if h == g_inv:
                continue  # h = g^-1: not an adjacent pair in a reduced t-word
            c = cancel(g, h)
            max_cancel = max(max_cancel, c)
            right[g] = max(right[g], c)
            left[h] = max(left[h], c)
    viol = max(len(r0) // 2 + 1 for r0 in base.relators)
    res_min = min(len(g) - left[g] - right[g] for g in letters)
    return max_cancel + viol < res_min


def certify_trivial_intersection_in_quotient(
    alpha: Alphabet,
    r: Sequence[Word],
    s: Sequence[Word],
    t: Sequence[Word],
    syllable_bound: int = 3,
    joint: Optional[JointRoute] = None,
    family: Optional[FamilyVerdict] = None,
    s_graph: Optional[stallings.SubgroupGraph] = None,
) -> Certificate:
    """Transfer certificate: when the joint (r, s) presentation is small
    cancellation and every t-word is cyclically Dehn-reduced, the quotient
    question "some conjugate of <s> meets <t>" equals the free-group
    question, which is answered by the fibre product.

    ``joint``, ``family`` and ``s_graph``, when given, are the results of
    ``_joint_metric_route(alpha, r, s)``, of
    ``check_family_cyclically_reduced(alpha, r, t, syllable_bound)`` and of
    ``stallings.build_and_fold(alpha, s)``."""
    cert = Certificate(kind="trivial-intersection")
    (joint or _joint_metric_route(alpha, r, s)).record(cert)
    fam = family or check_family_cyclically_reduced(alpha, r, t, syllable_bound)
    t_graph = stallings.build_and_fold(alpha, t)
    basis_ok = t_graph.rank() == len(t)
    cert.add(
        "t-words form a free basis",
        basis_ok,
        "" if basis_ok else "folded rank differs from |t|",
    )
    cert.add(
        "every t-word cyclically Dehn-reduced",
        fam.ok,
        "" if fam.ok else f"witness: {_clip(fam.witness)}",
        caveat=fam.caveat,
    )
    free = stallings.trivial_intersection_graphs(
        s_graph or stallings.build_and_fold(alpha, s), t_graph)
    cert.data["free_verdict"] = "trivial" if free.trivial else "intersects"
    if free.witness is not None:
        cert.data["free_witness"] = free.witness.as_dict()
    if cert.certified:
        cert.conclusion = (
            "in the quotient, some conjugate of <s> meets <t> nontrivially"
            if not free.trivial
            else "in the quotient, every conjugate of <s> meets <t> trivially"
        )
    else:
        cert.caveats.append("transfer hypotheses failed - free verdict does not lift")
    cert.words.update(s=s, t=t)
    return cert


def free_conjugator(u: Word, v: Word) -> Optional[Word]:
    """A word W with W^-1 u W = v in the free group, or None.

    Exists exactly when the cyclic cores are rotations of one another; W is
    assembled from the two peeling conjugators and the rotation offset."""
    core_u, conj_u = cyclic_reduce(u)
    core_v, conj_v = cyclic_reduce(v)
    if len(core_u) != len(core_v):
        return None
    if not core_u:
        return Word(u.alphabet, ())
    cu = core_u.code
    for d in range(len(cu)):
        if cu[d:] + cu[:d] == core_v.code:
            p = Word.from_code(u.alphabet, cu[:d])
            w = conj_u.inverse() * p * conj_v
            if w.inverse() * u * w != v:
                raise CertificateError(f"internal: {w} does not conjugate {u} to {v}")
            return w
    return None
