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
from .smallcancel import symmetrise, word_problem
from .stallings import (
    IntersectionWitness,
    build_and_fold,
    is_malnormal,
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
    signed_letters,
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


def _run_restricted_acyclic(graph: stallings.SubgroupGraph, gen: int) -> bool:
    """Is the product of the graph with the run-length automaton acyclic
    once runs of the tracked generator are capped below 3?

    States are (vertex, last signed letter, capped run length); a directed
    cycle is exactly a cyclically reduced circuit avoiding gen^{+-3}."""
    n = len(graph.alphabet)
    # build transitions
    states: dict[tuple[int, int, int], int] = {}
    adj: list[list[int]] = []

    def state_id(v, last, run):
        key = (v, last, run)
        if key not in states:
            states[key] = len(adj)
            adj.append([])
        return states[key]

    signed = tuple(signed_letters(n))
    for v in range(graph.num_vertices):
        for last in signed:
            # only states whose incoming letter exists matter, but building
            # all is harmless at this scale
            for run in (1, 2):
                if abs(last) - 1 != gen and run == 2:
                    continue  # run length only tracked for the gen
                src = state_id(v, last, run)
                for m in signed:
                    if m == -last:
                        continue
                    tgt_v = graph.out[v].get(m)
                    if tgt_v is None:
                        continue
                    if abs(m) - 1 == gen:
                        new_run = run + 1 if m == last else 1
                        if new_run >= 3:
                            continue  # the forbidden-run transition
                    else:
                        new_run = 1
                    adj[src].append(state_id(tgt_v, m, new_run))

    # cycle detection: iterative three-colour DFS
    colour = [0] * len(adj)
    for start in range(len(adj)):
        if colour[start]:
            continue
        stack = [(start, iter(adj[start]))]
        colour[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour[nxt] == 1:
                    return False  # back edge: directed cycle
                if colour[nxt] == 0:
                    colour[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                colour[node] = 2
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
    return HypothesesVerdict(True)


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
    meets every conjugate of <s> trivially."""
    hyp = malcharlem_hypotheses(alpha, s)
    if not hyp.ok:
        raise HypothesesViolated(f"hypotheses violated: {hyp.reason}")
    mal = is_malnormal(alpha, s)
    if not mal.malnormal:
        return MalcharVerdict(False, malnormal_witness=mal.witness)
    for auto in length_preserving_autos(alpha):
        if auto.is_identity():
            continue
        image = [apply_endo(auto, v) for v in s]
        verdict = trivial_intersection_graphs(build_and_fold(alpha, image), mal.graph)
        if not verdict.trivial:
            return MalcharVerdict(False, failing_auto=auto, witness=verdict.witness)
    return MalcharVerdict(True)


# -- seed words -----------------------------------------------------------------

@dataclass(frozen=True)
class SeedWords:
    rho: int
    pair: tuple[Word, Word]
    flavor: str  # "free" or "triangle"

    @property
    def alphabet(self):
        return self.pair[0].alphabet


def seed_words_free(alpha: Alphabet, rho: int) -> SeedWords:
    """The pair (prod_{k=3}^{rho+2} a^3 b^k, prod_{k=rho+3}^{2rho+2} a^3 b^k)."""
    if rho < 2:
        raise MalcharError("rho must be at least 2")
    a, b = 1, 2
    def block(k):
        return (a,) * 3 + (b,) * k
    wx = Word(alpha, sum((block(k) for k in range(3, rho + 3)), ()), reduced=True)
    wy = Word(alpha, sum((block(k) for k in range(rho + 3, 2 * rho + 3)), ()), reduced=True)
    return SeedWords(rho, (wx, wy), "free")


def seed_block_substitution(alpha: Alphabet) -> EndomorphismSpec:
    """The basis change a -> a b^-1, b -> a^2 b^-1 carrying the free-flavor
    seed pair onto the triangle-flavor pair."""
    return endo(alpha, {"a": "a b^-1", "b": "a^2 b^-1"})


def seed_words_triangle(alpha: Alphabet, rho: int) -> SeedWords:
    """The free-flavor words rewritten over the blocks A = a b^-1 and
    B = a^2 b^-1 (no free reduction occurs)."""
    if rho < 2:
        raise MalcharError("rho must be at least 2")
    A = (1, -2)
    B = (1, 1, -2)
    def block(k):
        return A * 3 + B * k
    x = Word(alpha, sum((block(k) for k in range(3, rho + 3)), ()), reduced=True)
    y = Word(alpha, sum((block(k) for k in range(rho + 3, 2 * rho + 3)), ()), reduced=True)
    return SeedWords(rho, (x, y), "triangle")


# -- nested small-cancellation families ------------------------------------------

_FAMILY_ALPHABET = alphabet("u v")


@dataclass
class FamilyResult:
    words: list[Word]              # concrete, over the seed alphabet
    abstract: list[Word]           # over the block alphabet (u, v)
    block_ranges: list[tuple[int, int]]
    checks: dict


def _family_abstract(n: int, stretch: int = 1) -> tuple[list[Word], list[tuple[int, int]]]:
    """Factors of the infinite word u v (u v^2) u v (u v^2)^2 ... cut at
    block boundaries: factor 1 is block 1, factor j >= 2 takes blocks
    [2j-2, 2j-1], scaled by the stretch parameter on retries.  Prefix
    property: the first n factors never depend on n."""
    U, V = 1, 2

    def blocks(lo, hi):
        out = ()
        for m in range(lo, hi + 1):
            out += (U, V) + (U, V, V) * m
        return out

    ranges = []
    for j in range(1, n + 1):
        if j == 1:
            ranges.append((1, stretch))
        else:
            lo = stretch * (2 * j - 3) + 1
            hi = stretch * (2 * j - 1)
            ranges.append((lo, hi))
    words = [Word(_FAMILY_ALPHABET, blocks(lo, hi), reduced=True) for lo, hi in ranges]
    return words, ranges


def rank_n_family(
    seed: SeedWords, n: int, r: Optional[Sequence[Word]] = None, max_stretch: int = 4
) -> FamilyResult:
    """n prefix-compatible factors of the infinite word over the seed pair,
    verified before returning: the factors form a free basis of rank n, the
    subgroup they generate is malnormal in the ambient rank-two free group
    (decided exactly on the block alphabet), and no factor is a proper
    power.  Retries with stretched cuts on failure."""
    if n < 1:
        raise MalcharError("n must be at least 1")
    last_reason = ""
    for stretch in range(1, max_stretch + 1):
        abstract, ranges = _family_abstract(n, stretch)
        if any(proper_power(w) is not None for w in abstract):
            last_reason = "a factor is a proper power"
            continue
        graph = build_and_fold(_FAMILY_ALPHABET, abstract)
        if graph.rank() != n:
            last_reason = f"folded rank {graph.rank()} != {n}"
            continue
        verdict = is_malnormal(_FAMILY_ALPHABET, abstract)
        if not verdict.malnormal:
            last_reason = "factors not malnormal in the block group"
            continue
        images = images_by_unit([w.code for w in seed.pair])
        concrete = [Word.from_code(seed.alphabet, code_product(map(images.__getitem__, aw.code)))
                    for aw in abstract]
        checks = {
            "rank": n,
            "malnormal_in_blocks": True,
            "stretch": stretch,
        }
        if r:
            from .smallcancel import is_cyclically_dehn_reduced

            base = symmetrise(seed.alphabet, r)
            checks["cyclically_reduced_in_quotient"] = all(
                is_cyclically_dehn_reduced(base, cw) for cw in concrete
            )
        return FamilyResult(concrete, abstract, ranges, checks)
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
    return [word(alpha, f"a^{i}"), word(alpha, f"b^{j}"), word(alpha, f"(a b)^{k}")]


def psi_transversal(alpha: Alphabet, i: int, j: int, k: int) -> list[PsiMap]:
    """Representatives of the outer automorphism classes of the (i, j, k)
    triangle group: 2 maps when i, j, k are pairwise distinct, 4 when
    exactly two agree, all 12 in the equilateral case."""
    if min(i, j, k) < 6:
        raise MalcharError("exponents below 6 are outside the supported range")
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
    rs = symmetrise(alpha, triangle_relators(alpha, i, j, k))
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

    @property
    def family_ok(self) -> bool:
        return self.family.ok

    @property
    def unconditional(self) -> bool:
        return self.family.unconditional

    @property
    def ok(self):
        return self.family_ok and not self.forbidden_hits


def _scan_forbidden(alpha: Alphabet, words: Sequence[Word]) -> list[tuple[str, str]]:
    """(factor, word prefix) for each forbidden factor of each word, read
    cyclically when the word is cyclically reduced.  A cyclic factor is no
    longer than the word, so it lies in the code followed by at most the
    pattern's length minus one of its first letters."""
    patterns = [(t, word(alpha, t).code) for t in FORBIDDEN_FACTOR_TEXTS]
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
    if min(i, j, k) < 6:
        raise MalcharError("exponents below 6 are outside the supported range")
    seeds = seed_words_triangle(alpha, rho)
    rels = triangle_relators(alpha, i, j, k)
    base = symmetrise(alpha, rels)
    reports = []
    for psi in psi_maps(alpha):
        images = [apply_endo(psi.spec, w) for w in seeds.pair]
        fam = check_family_cyclically_reduced(alpha, rels, images, syllable_bound, base=base)
        # scan the same word family for forbidden factors
        scan_words = list(images) + [u * v for u in images for v in images if u != v]
        hits = _scan_forbidden(alpha, scan_words)
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
    if min(i, j, k) < 6:
        raise MalcharError("exponents below 6 are outside the supported range")
    cert = Certificate(kind="malcharacteristic-triangle")
    rels = triangle_relators(alpha, i, j, k)
    seeds = seed_words_triangle(alpha, rho)
    x, y = seeds.pair
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
        build_and_fold(alpha, [apply_endo(sub, w) for w in free_seeds.pair]), seed_graph)
    route = "block-substitution orbit" if orbit_ok else "direct"
    try:
        shadow = decide_malcharacteristic_free(alpha, list(free_seeds.pair))
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
            "family_ok": report.family_ok,
            "unconditional": report.unconditional,
            "forbidden_hits": report.forbidden_hits,
        }
        if report.psi.is_identity():
            entry["intersection"] = "identity map: covered by stage 1 malnormality"
            ok = report.ok
        else:
            inter = certify_trivial_intersection_in_quotient(
                alpha, rels, [x, y], report.images, syllable_bound,
                joint=joint, family=report.family, s_graph=seed_graph,
            )
            entry["transfer_certified"] = inter.certified
            entry["free_verdict"] = inter.data["free_verdict"]
            ok = report.ok and inter.certified and inter.data["free_verdict"] == "trivial"
        cert.add(f"stage 3: {report.psi.name}", ok, "" if ok else str(entry))
        stage3.append(entry)
    cert.data["stage3"] = stage3
    cert.data["rho"] = rho
    cert.conclusion = (
        f"<x, y> at rho={rho} is a malcharacteristic subgroup of the "
        f"({i},{j},{k}) triangle group, free of rank two"
    )
    return cert
