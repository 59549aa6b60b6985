"""Length-preserving automorphisms, the malcharacteristic decision
procedure in F(a, b), seed-word families, and the composite triangle-group
certificate.

A subgroup M <= H is malcharacteristic when every automorphism moving M
off itself only meets it trivially: delta(M) ∩ M != 1 forces delta to be
an inner automorphism by an element of M.  For the subgroup class handled
here (positive words built from a^2/a^3/b^2/b^3 blocks whose circuits
carry both an a^3- and a b^3-run), the property reduces to malnormality
plus finitely many fibre-product checks against the length-preserving
automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import stallings
from .quotientcert import (
    Certificate,
    FamilyVerdict,
    _joint_metric_route,
    certify_malnormal_in_quotient,
    certify_trivial_intersection_in_quotient,
    check_family_cyclically_reduced,
)
from .smallcancel import RelatorSet, is_cyclically_dehn_reduced, word_problem
from .stallings import (
    IntersectionWitness,
    build_and_fold,
    is_malnormal_graph,
    same_subgroup,
    trivial_intersection_graphs,
)
from .words import (
    Alphabet,
    EndomorphismSpec,
    Word,
    alphabet,
    apply_endo,
    code_product,
    endo,
    images_by_unit,
    positive_subsemigroup_member,
    proper_power,
    word,
)


class MalcharError(ValueError):
    pass


class HypothesesViolated(MalcharError):
    """The decision procedure does not apply to the given subgroup (this is
    a refusal, not a negative answer)."""


# -- length-preserving automorphisms ------------------------------------------

def length_preserving_autos(alpha: Alphabet) -> list[EndomorphismSpec]:
    """The 8 automorphisms of F(a, b) sending each generator to a single
    signed letter (bijective single-letter substitutions)."""
    if len(alpha) != 2:
        raise MalcharError("length-preserving automorphisms are for rank two")
    autos = []
    for ia in (1, -1, 2, -2):
        for ib in (1, -1, 2, -2):
            if abs(ia) == abs(ib):
                continue
            autos.append(
                EndomorphismSpec(
                    alpha,
                    [Word(alpha, (ia,), reduced=True), Word(alpha, (ib,), reduced=True)],
                )
            )
    if len(autos) != 8:
        raise MalcharError("internal: expected 8 length-preserving automorphisms")
    return autos


# -- the decision procedure hypotheses -----------------------------------------

@dataclass
class HypothesesVerdict:
    ok: bool
    reason: str = ""
    graph: Optional[stallings.SubgroupGraph] = None  # the folded graph of s, on a yes


def _run_restricted_acyclic(graph: stallings.SubgroupGraph, gen: int) -> bool:
    """Is the product of the graph with the run-length automaton acyclic
    once runs of the tracked generator are capped below 3?

    States are (vertex, last signed letter, capped run length), made as the
    search reaches them; a directed cycle is exactly a cyclically reduced
    circuit avoiding gen^{+-3}.  Every state on a cycle is entered by an
    edge, and a run-2 state only from a run-1 state, so the search starts
    from the run-1 states at edge targets alone."""
    out = graph.out
    tracked = gen + 1

    def successors(state):
        v, last, run = state
        for m, w in out[v].items():
            if m == -last:
                continue
            if m != last or abs(m) != tracked:
                yield w, m, 1
            elif run == 1:  # from run 2, a third letter would make the forbidden run
                yield w, m, 2

    colour: dict[tuple[int, int, int], int] = {}  # 1 on the search path, 2 done
    for v, d in enumerate(out):
        for s in d:
            start = (v, -s, 1)
            if start in colour:
                continue
            colour[start] = 1
            stack = [(start, successors(start))]
            while stack:
                state, it = stack[-1]
                for nxt in it:
                    seen = colour.get(nxt)
                    if seen == 1:
                        return False  # back edge: directed cycle
                    if seen is None:
                        colour[nxt] = 1
                        stack.append((nxt, successors(nxt)))
                        break
                else:
                    colour[state] = 2
                    stack.pop()
    return True


def malcharlem_hypotheses(alpha: Alphabet, s: Sequence[Word]) -> HypothesesVerdict:
    """The subgroup class the decider handles: pairwise distinct words in
    the positive subsemigroup generated by a^2, a^3, b^2, b^3, whose folded
    graph has every circuit carrying an a^3-run and a b^3-run."""
    if len(alpha) != 2:
        raise MalcharError("the decision procedure lives in rank two")
    if len(set(w.code for w in s)) != len(s):
        return HypothesesVerdict(False, "generators not pairwise distinct")
    blocks = [word(alpha, t) for t in ("a^2", "a^3", "b^2", "b^3")]
    for v in s:
        if not positive_subsemigroup_member(v, blocks):
            return HypothesesVerdict(
                False, f"'{v}' is not a product of a^2, a^3, b^2, b^3"
            )
    graph = build_and_fold(alpha, s)
    for gen, name in ((0, "a"), (1, "b")):
        if not _run_restricted_acyclic(graph, gen):
            return HypothesesVerdict(
                False, f"some circuit in the folded graph avoids {name}^3"
            )
    return HypothesesVerdict(True, graph=graph)


@dataclass
class MalcharVerdict:
    malcharacteristic: bool
    failing_auto: Optional[EndomorphismSpec] = None
    witness: Optional[IntersectionWitness] = None
    malnormal_witness: Optional[IntersectionWitness] = None

    def __bool__(self):
        return self.malcharacteristic


def decide_malcharacteristic_free(alpha: Alphabet, s: Sequence[Word]) -> MalcharVerdict:
    """Decide whether <s> is malcharacteristic in F(a, b).

    Requires the hypotheses above (raises HypothesesViolated otherwise):
    the subgroup is malcharacteristic iff it is malnormal and, for each of
    the 7 nontrivial length-preserving automorphisms, the image subgroup
    meets every conjugate of <s> trivially.  The malnormality check and
    every intersection read the graph the hypotheses check folded."""
    hyp = malcharlem_hypotheses(alpha, s)
    if not hyp.ok:
        raise HypothesesViolated(f"hypotheses violated: {hyp.reason}")
    mal = is_malnormal_graph(hyp.graph)
    if not mal.malnormal:
        return MalcharVerdict(False, malnormal_witness=mal.witness)
    for auto in length_preserving_autos(alpha):
        if auto.is_identity():
            continue
        image = [apply_endo(auto, v) for v in s]
        verdict = trivial_intersection_graphs(build_and_fold(alpha, image), hyp.graph)
        if not verdict.trivial:
            return MalcharVerdict(False, failing_auto=auto, witness=verdict.witness)
    return MalcharVerdict(True)


# -- seed words -----------------------------------------------------------------

def _seed_pair(alpha: Alphabet, rho: int, A: tuple[int, ...], B: tuple[int, ...]) -> tuple[Word, Word]:
    """(prod_{k=3}^{rho+2} A^3 B^k, prod_{k=rho+3}^{2rho+2} A^3 B^k) for the
    blocks A and B, given as letters; no free reduction occurs."""
    if rho < 2:
        raise MalcharError("rho must be at least 2")

    def factor(lo, hi):
        return Word(alpha, sum((A * 3 + B * k for k in range(lo, hi)), ()), reduced=True)

    return factor(3, rho + 3), factor(rho + 3, 2 * rho + 3)


def seed_words_free(alpha: Alphabet, rho: int) -> tuple[Word, Word]:
    """The pair (prod_{k=3}^{rho+2} a^3 b^k, prod_{k=rho+3}^{2rho+2} a^3 b^k)."""
    return _seed_pair(alpha, rho, (1,), (2,))


def seed_block_substitution(alpha: Alphabet) -> EndomorphismSpec:
    """The basis change a -> a b^-1, b -> a^2 b^-1 carrying the free-flavor
    seed pair onto the triangle-flavor pair."""
    return endo(alpha, {"a": "a b^-1", "b": "a^2 b^-1"})


def seed_words_triangle(alpha: Alphabet, rho: int) -> tuple[Word, Word]:
    """The free-flavor words rewritten over the blocks A = a b^-1 and
    B = a^2 b^-1."""
    return _seed_pair(alpha, rho, (1, -2), (1, 1, -2))


# -- nested small-cancellation families ------------------------------------------

_FAMILY_ALPHABET = alphabet("u v")
_MAX_STRETCH = 4  # rank_n_family's retries with stretched cuts


@dataclass
class FamilyResult:
    words: list[Word]              # concrete, over the seed alphabet
    abstract: list[Word]           # over the block alphabet (u, v)
    checks: dict


def _family_abstract(n: int, stretch: int = 1) -> list[Word]:
    """Factors of the infinite word u v (u v^2) u v (u v^2)^2 ... cut at
    block boundaries: factor 1 is block 1, factor j >= 2 takes blocks
    [2j-2, 2j-1], scaled by the stretch parameter on retries.  Prefix
    property: the first n factors never depend on n."""
    cuts = [(1, stretch)] + [(stretch * (2 * j - 3) + 1, stretch * (2 * j - 1)) for j in range(2, n + 1)]
    return [Word(_FAMILY_ALPHABET, sum(((1, 2) + (1, 2, 2) * m for m in range(lo, hi + 1)), ()), reduced=True)
            for lo, hi in cuts]


def rank_n_family(seed: tuple[Word, Word], n: int, r: Optional[Sequence[Word]] = None) -> FamilyResult:
    """n prefix-compatible factors of the infinite word over the seed pair,
    verified before returning: the factors form a free basis of rank n, the
    subgroup they generate is malnormal in the ambient rank-two free group
    (decided exactly on the block alphabet), and no factor is a proper
    power.  Retries with stretched cuts on failure."""
    if n < 1:
        raise MalcharError("n must be at least 1")
    last_reason = ""
    alpha = seed[0].alphabet
    for stretch in range(1, _MAX_STRETCH + 1):
        abstract = _family_abstract(n, stretch)
        if any(proper_power(w) is not None for w in abstract):
            last_reason = "a factor is a proper power"
            continue
        graph = build_and_fold(_FAMILY_ALPHABET, abstract)
        if graph.rank() != n:
            last_reason = f"folded rank {graph.rank()} != {n}"
            continue
        if not is_malnormal_graph(graph).malnormal:
            last_reason = "factors not malnormal in the block group"
            continue
        images = images_by_unit([w.code for w in seed])
        concrete = [Word.from_code(alpha, code_product(map(images.__getitem__, aw.code)))
                    for aw in abstract]
        checks = {
            "rank": n,
            "malnormal_in_blocks": True,
            "stretch": stretch,
        }
        if r:
            base = RelatorSet(alpha, r)
            checks["cyclically_reduced_in_quotient"] = all(
                is_cyclically_dehn_reduced(base, cw) for cw in concrete
            )
        return FamilyResult(concrete, abstract, checks)
    raise MalcharError(f"no verified family of rank {n} found: {last_reason}")


# -- the automorphism transversal of the triangle groups --------------------------

@dataclass(frozen=True)
class PsiMap:
    index: int      # 1..6
    epsilon: int    # +1 or -1
    spec: EndomorphismSpec

    @property
    def name(self):
        return f"psi({self.index},{self.epsilon:+d})"

    def is_identity(self):
        return self.index == 1 and self.epsilon == 1


def psi_maps(alpha: Alphabet) -> list[PsiMap]:
    """The twelve single-syllable maps representing the outer classes."""
    images = {
        1: ("a", "b"),
        2: ("a", "(a b)^-1"),
        3: ("a b", "b^-1"),
        4: ("b", "a"),
        5: ("b", "(a b)^-1"),
        6: ("a b", "a^-1"),
    }
    out = []
    for l in range(1, 7):
        ia, ib = images[l]
        for eps in (1, -1):
            wa = word(alpha, ia)
            wb = word(alpha, ib)
            out.append(PsiMap(l, eps, EndomorphismSpec(alpha, [wa ** eps, wb ** eps])))
    return out


def triangle_relators(alpha: Alphabet, i: int, j: int, k: int) -> list[Word]:
    """The relators a^i, b^j, (a b)^k; exponents below 6 are refused."""
    if min(i, j, k) < 6:
        raise HypothesesViolated("exponents below 6 are outside the supported range")
    return [word(alpha, f"a^{i}"), word(alpha, f"b^{j}"), word(alpha, f"(a b)^{k}")]


def psi_transversal(alpha: Alphabet, i: int, j: int, k: int) -> list[PsiMap]:
    """Representatives of the outer automorphism classes of the (i, j, k)
    triangle group: 2 maps when i, j, k are pairwise distinct, 4 when
    exactly two agree, all 12 in the equilateral case."""
    rs = RelatorSet(alpha, triangle_relators(alpha, i, j, k))
    maps = {(m.index, m.epsilon): m for m in psi_maps(alpha)}
    if i == j == k:
        selected = list(maps.values())
    elif i == j:
        selected = [maps[(1, 1)], maps[(1, -1)], maps[(4, 1)], maps[(4, -1)]]
    elif j == k:
        selected = [maps[(1, 1)], maps[(1, -1)], maps[(2, 1)], maps[(2, -1)]]
    elif i == k:
        selected = [maps[(1, 1)], maps[(1, -1)], maps[(3, 1)], maps[(3, -1)]]
    else:
        selected = [maps[(1, 1)], maps[(1, -1)]]
    # every emitted map must preserve the relator set
    for m in selected:
        for rel in rs.relators:
            if not word_problem(rs, apply_endo(m.spec, rel)):
                raise MalcharError(f"internal: {m.name} breaks the relator {rel}")
    return selected


# -- automorphic images of the seed words -------------------------------------------

FORBIDDEN_FACTOR_TEXTS = (
    "a^4", "a^-4", "b^4", "b^-4",
    "(a b)^3", "(b a)^3", "(a^-1 b^-1)^3", "(b^-1 a^-1)^3",
    "(a b)^3 a", "b (a b)^3", "(a^-1 b^-1)^3 a^-1", "b^-1 (a^-1 b^-1)^3",
)


@dataclass
class PsiImageReport:
    psi: PsiMap
    images: list[Word]
    family: FamilyVerdict
    forbidden_hits: list[tuple[str, str]]  # (factor, containing word prefix)


def _forbidden_codes(alpha: Alphabet) -> list[tuple[str, str]]:
    """(factor, code) for each forbidden factor."""
    return [(t, word(alpha, t).code) for t in FORBIDDEN_FACTOR_TEXTS]


def _scan_forbidden(patterns: list[tuple[str, str]], words: Sequence[Word]) -> list[tuple[str, str]]:
    """(factor, word prefix) for each forbidden factor of each word, read
    cyclically when the word is cyclically reduced; ``patterns`` is
    ``_forbidden_codes`` of the words' alphabet.  A cyclic factor is no
    longer than the word, so it lies in the code followed by at most the
    pattern's length minus one of its first letters."""
    wrap = max(len(pat) for _, pat in patterns) - 1
    hits = []
    for v in words:
        code = v.code
        m = len(code)
        if v.is_cyclically_reduced():
            code += code[:wrap]
        hits.extend((text, str(v)[:40]) for text, pat in patterns if len(pat) <= m and pat in code)
    return hits


def verify_psi_images(
    alpha: Alphabet, i: int, j: int, k: int, rho: int, syllable_bound: int = 3
) -> list[PsiImageReport]:
    """For each of the twelve maps: reduce the images of the seed pair, run
    the bounded cyclically-Dehn-reduced family check against the triangle
    relators, and scan for the forbidden factors (a^{+-4}, b^{+-4}, and the
    (ab)-alternation patterns).  None are expected."""
    rels = triangle_relators(alpha, i, j, k)
    seeds = seed_words_triangle(alpha, rho)
    base = RelatorSet(alpha, rels)
    patterns = _forbidden_codes(alpha)
    reports = []
    for psi in psi_maps(alpha):
        images = [apply_endo(psi.spec, w) for w in seeds]
        fam = check_family_cyclically_reduced(alpha, rels, images, syllable_bound, base=base)
        # scan the same word family for forbidden factors
        scan_words = list(images) + [u * v for u in images for v in images if u != v]
        hits = _scan_forbidden(patterns, scan_words)
        reports.append(PsiImageReport(psi=psi, images=images, family=fam, forbidden_hits=hits))
    return reports


# -- the composite triangle certificate ----------------------------------------------

def decide_malcharacteristic_triangle(
    alpha: Alphabet, i: int, j: int, k: int, rho: int = 8, syllable_bound: int = 3
) -> Certificate:
    """Composite certificate that M = <x, y> is malcharacteristic in the
    (i, j, k) triangle group.

    Stage 1: malnormality of M in the quotient (small cancellation route).
    Stage 2: the free-group shadow is malcharacteristic (block substitution
    onto the positive-word pair, then the rank-two decision procedure).
    Stage 3: for every non-identity map in the transversal superset, the
    certified-transfer intersection check between the image pair and the
    seed pair; the identity map is covered by stage 1.

    The joint small cancellation hypothesis on the relators and the seed
    pair is decided once and shared by stage 1 and every transfer, the seed
    pair is folded once for stage 2 and every transfer, and each transfer
    reuses the family verdict of its map's image check.
    """
    rels = triangle_relators(alpha, i, j, k)
    cert = Certificate(kind="malcharacteristic-triangle")
    x, y = seed_words_triangle(alpha, rho)
    joint = _joint_metric_route(alpha, rels, [x, y])

    # stage 1: malnormal and free in the quotient
    stage1 = certify_malnormal_in_quotient(alpha, rels, [x, y], joint=joint)
    cert.add(
        "stage 1: M malnormal in the quotient",
        stage1.certified,
        "" if stage1.certified else (stage1.first_failure().detail or stage1.first_failure().name),
    )
    cert.data["stage1"] = stage1.to_dict()

    # stage 2: free-group shadow
    free_seeds = seed_words_free(alpha, rho)
    sub = seed_block_substitution(alpha)
    seed_graph = build_and_fold(alpha, [x, y])
    orbit_ok = same_subgroup(
        build_and_fold(alpha, [apply_endo(sub, w) for w in free_seeds]), seed_graph)
    route = "block-substitution orbit" if orbit_ok else "direct"
    try:
        shadow = decide_malcharacteristic_free(alpha, list(free_seeds))
        shadow_ok = shadow.malcharacteristic
        detail = "" if shadow_ok else "free-group shadow fails the orbit checks"
    except HypothesesViolated as e:
        shadow_ok = False
        detail = str(e)
    cert.add("stage 2: free-group shadow malcharacteristic", orbit_ok and shadow_ok, detail)
    cert.data["stage2_route"] = route

    # stage 3: the twelve maps
    psi_reports = verify_psi_images(alpha, i, j, k, rho, syllable_bound)
    stage3 = []
    for report in psi_reports:
        entry = {
            "psi": report.psi.name,
            "family_ok": report.family.ok,
            "unconditional": report.family.unconditional,
            "forbidden_hits": report.forbidden_hits,
        }
        ok = report.family.ok and not report.forbidden_hits
        if report.psi.is_identity():
            entry["intersection"] = "identity map: covered by stage 1 malnormality"
        else:
            inter = certify_trivial_intersection_in_quotient(
                alpha, rels, [x, y], report.images, syllable_bound,
                joint=joint, family=report.family, s_graph=seed_graph,
            )
            entry["transfer_certified"] = inter.certified
            entry["free_verdict"] = inter.data["free_verdict"]
            ok = ok and inter.certified and inter.data["free_verdict"] == "trivial"
        cert.add(f"stage 3: {report.psi.name}", ok, "" if ok else str(entry))
        stage3.append(entry)
    cert.data["stage3"] = stage3
    cert.data["rho"] = rho
    cert.conclusion = (
        f"<x, y> at rho={rho} is a malcharacteristic subgroup of the "
        f"({i},{j},{k}) triangle group, free of rank two"
    )
    return cert
