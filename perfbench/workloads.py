"""Seeded inputs, operations and correctness oracles of the four workloads.

A workload builds what every round needs once, in ``setup``, and then hands
out rounds: ``round_ops(i)`` returns the operations of round ``i``, made
from ``random.Random(f"{name}/{seed}/{i}")`` only, so one seed always gives
the same inputs in the same order.  An operation is a call into malkit's
public API (``call``) plus an oracle (``check``) that the runner applies to
the result outside the timed region.  ``check`` returns ``(ok, canonical)``
where ``canonical`` is a JSON value with every timing field stripped; the
runner hashes it into the verdict digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

# Layer functions are called through their modules, never bound here by
# name: the tracer swaps module attributes, and a name imported into this
# module would keep pointing at the unwrapped function.
from malkit import cosetenum, hnnforge, malchar, stallings, words
from malkit.words import Word, alphabet, free_reduce_letters, word

AB = alphabet("a b")
SIGNED = (1, -1, 2, -2)


@dataclass
class Op:
    kind: str                       # latency class; see Workload.latency_kinds
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Any]]


def random_reduced(rng: random.Random, length: int) -> tuple[int, ...]:
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice(SIGNED)
        if not (letters and letters[-1] == -x):
            letters.append(x)
    return tuple(letters)


def random_word(rng: random.Random, lo: int, hi: int) -> Word:
    return Word(AB, random_reduced(rng, rng.randint(lo, hi)), reduced=True)


def join(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced product of two reduced letter tuples."""
    n = 0
    while n < min(len(u), len(v)) and u[-1 - n] == -v[n]:
        n += 1
    return u[:len(u) - n] + v[n:]


def inverse(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(u))


def product(factors) -> Word:
    out = Word(AB, (), reduced=True)
    for f in factors:
        out = out * f
    return out


class Workload:
    name = ""
    # rounds every run completes; the verdict digest covers exactly these,
    # and a traced run does exactly these.  Rounds are kept short where the
    # operations allow it: run_s is a median over rounds, and the more
    # rounds a run holds, the less a burst of load on a shared host moves it.
    min_rounds = 3
    # operation kinds whose latencies make op_p50_ms and op_p99_ms
    latency_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{i}")

    def setup(self) -> None:
        pass

    def round_ops(self, i: int) -> list[Op]:
        raise NotImplementedError


# -- triangle-cert -------------------------------------------------------------

class TriangleCert(Workload):
    """One composite certificate per round, at rho = 8.  Rounds cycle through
    an equilateral, an isosceles and a scalene exponent triple drawn from
    [6, 13]^3.  Every certificate runs all twelve psi maps in stage 3, so
    the cost of a round hardly depends on the triple."""

    name = "triangle-cert"
    latency_kinds = ("certificate",)
    rho = 8

    def triple(self, i: int) -> tuple[int, int, int]:
        rng = self.rng(i)
        shape = i % 3
        if shape == 0:
            n = rng.randint(6, 13)
            return (n, n, n)
        if shape == 1:
            n, m = rng.sample(range(6, 14), 2)
            t = [n, n, m]
            rng.shuffle(t)
            return tuple(t)
        return tuple(rng.sample(range(6, 14), 3))

    def round_ops(self, i: int) -> list[Op]:
        tri = self.triple(i)
        return [Op("certificate",
                   lambda: malchar.decide_malcharacteristic_triangle(AB, *tri, self.rho),
                   lambda cert: self.check(tri, cert))]

    @staticmethod
    def check(tri, cert) -> tuple[bool, Any]:
        # criterion-4 invariants; stage 1 fails by design and is only recorded
        by_name = {h.name: h.ok for h in cert.hypotheses}
        ok = by_name.get("stage 2: free-group shadow malcharacteristic") is True
        for entry in cert.data["stage3"]:
            ok = ok and entry["family_ok"] and not entry["forbidden_hits"]
            if "free_verdict" in entry:
                ok = ok and entry["free_verdict"] == "trivial"
        ok = ok and len(cert.data["stage3"]) == 12
        return ok, {"triple": list(tri), "certificate": cert.to_dict()}


# -- britton-batch -----------------------------------------------------------

class BrittonBatch(Workload):
    """Britton reduction over the HNN-extensions of the (6,6,6) triangle
    group built from <z | z^k>, k = 2..5.  Each round holds the same words
    count for every k, so per-word cost does not depend on the seed.  Of
    them 5/8 are built to pinch to the identity and 3/8 have t-exponent sum
    1; with an even split the median would fall in the gap between the two
    kinds' latencies and swing from run to run."""

    name = "britton-batch"
    latency_kinds = ("pinch", "no-pinch")
    ks = (2, 3, 4, 5)
    pinch_per_k = 20
    no_pinch_per_k = 12
    min_rounds = 6

    def setup(self) -> None:
        self.hnns = self.build()

    def build(self) -> dict:
        z = alphabet("z")
        hnns = {}
        for k in self.ks:
            P = hnnforge.InputPresentation(z, (word(z, f"z^{k}"),))
            H = hnnforge.build_tp(AB, 6, 6, 6, P, rho=2, mode="minimal")
            H.membership()
            hnns[k] = H
        return hnns

    @staticmethod
    def piece_table(H) -> dict:
        """Reduced letter tuples the words of a round are spelled from, each
        with its phi-image, so that making a round costs no apply_endo and
        little reduction.  build_tp is deterministic, so the table made for
        round 0 fits every later rebuild of the same extension."""
        def with_image(w: Word) -> tuple:
            return w.letters, words.apply_endo(H.phi, w).letters

        def conjugate(c, k):
            return tuple(join(join(c[j], k[j]), inverse(c[j])) for j in (0, 1))

        conjugators = [((), ())] + [with_image(g ** e) for g in H.m_gens for e in (1, -1)]
        assoc = [with_image(g ** e) for g in H.assoc_concrete for e in (1, -1)]
        return {
            # c k c^-1 for every conjugator c in M and signed generator k of K
            "factors": [conjugate(c, k) for c in conjugators for k in assoc],
            "symbols": [w.letters for g in list(H.m_gens) + [word(AB, "a")] for w in (g, g.inverse())],
        }

    def round_ops(self, i: int) -> list[Op]:
        if i:
            # each extension memoises in_k, so reusing one would make a
            # round's work depend on how many rounds ran before it
            self.hnns = self.build()
        else:
            # made here, not in setup: input making is neither timed nor traced
            self.pieces = {k: self.piece_table(H) for k, H in self.hnns.items()}
        rng = self.rng(i)
        ops = []
        for k in self.ks:
            H, pieces = self.hnns[k], self.pieces[k]
            ops += [self.pinch_op(rng, H, pieces) for _ in range(self.pinch_per_k)]
            ops += [self.no_pinch_op(rng, H, pieces) for _ in range(self.no_pinch_per_k)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def pinch_op(rng, H, pieces) -> Op:
        # lead . t . K . t^-1 . phi(K)^-1 . lead^-1 with K = c1 k1 c1^-1 c2 k2 c2^-1:
        # the k_i are associated-subgroup generators and the c_i lie in the
        # family subgroup M, in which K is normal, so K lies in K.  Drawing
        # two conjugated factors keeps repeats, which in_k memoises, rare.
        (f1, phi_f1), (f2, phi_f2) = rng.choice(pieces["factors"]), rng.choice(pieces["factors"])
        lead = random_reduced(rng, rng.randint(0, 6))
        K = Word(AB, join(f1, f2), reduced=True)
        tail = Word(AB, inverse(join(lead, join(phi_f1, phi_f2))), reduced=True)
        bw = hnnforge.britton_word(H, [Word(AB, lead, reduced=True), K, tail], [1, -1])
        return Op("pinch", lambda: hnnforge.britton_trivial(H, bw), lambda got: (got is True, got))

    @staticmethod
    def no_pinch_op(rng, H, pieces) -> Op:
        # criterion-10 style segments over the family words and the letter a,
        # between t t^-1 t: the t-exponent sum is 1, so never trivial
        def segment():
            letters = []
            for _ in range(rng.randint(1, 4)):
                letters += rng.choice(pieces["symbols"])
            return Word(AB, letters)

        lead, tail = random_word(rng, 0, 6), random_word(rng, 0, 6)
        bw = hnnforge.britton_word(H, [lead, segment(), segment(), tail], [1, -1, 1])
        return Op("no-pinch", lambda: hnnforge.britton_trivial(H, bw), lambda got: (got is False, got))


# -- kernel-enum ---------------------------------------------------------------

class KernelEnum(Workload):
    """Todd-Coxeter of <a, b | a^2, b^3, (ab)^7, [a,b]^8> (order 10,752),
    its Schreier kernel generators and their folded graph, then membership
    queries answered by the coset table and by the folded kernel.  The
    presentation is fixed; the seed draws the queries."""

    name = "kernel-enum"
    latency_kinds = ("query",)
    # 10^5 and 1.5 * 10^5 live cosets overflow on this presentation
    max_cosets = 400_000
    queries = 2000
    index = 10_752

    def setup(self) -> None:
        self.relators = [word(AB, t) for t in ("a^2", "b^3", "(a b)^7", "(a^-1 b^-1 a b)^8")]

    def round_ops(self, i: int) -> list[Op]:
        rng = self.rng(i)
        state: dict = {}

        def enumerate_():
            state["table"] = cosetenum.todd_coxeter(AB, self.relators, (), self.max_cosets)
            return state["table"]

        def kernel():
            state["gens"], _ = cosetenum.schreier_kernel_generators(AB, self.relators, (), self.max_cosets)
            return state["gens"]

        def fold():
            state["fold"] = stallings.build_and_fold(AB, state["gens"])
            return state["fold"]

        ops = [
            Op("build", enumerate_, lambda t: (getattr(t, "index", None) == self.index, getattr(t, "index", None))),
            Op("build", kernel, lambda g: (len(g) == self.index + 1, len(g))),
            Op("build", fold, lambda f: (f.num_vertices == self.index and f.rank() == self.index + 1,
                                        [f.num_vertices, f.num_edges])),
        ]
        for q in range(self.queries):
            trivial = q % 2 == 0
            w = self.trivial_word(rng) if trivial else random_word(rng, 5, 30)
            ops.append(self.query_op(state, w, trivial))
        return ops

    def trivial_word(self, rng) -> Word:
        # a product of conjugates of relators: trivial in the quotient
        factors = []
        for _ in range(rng.randint(1, 3)):
            g = random_word(rng, 0, 6)
            factors.append(g * rng.choice(self.relators) ** rng.choice((1, -1)) * g.inverse())
        return product(factors)

    @staticmethod
    def query_op(state, w: Word, trivial: bool) -> Op:
        def call():
            return state["table"].image_in_quotient(w), state["fold"].contains(w)

        def check(got):
            coset, member = got
            ok = (coset == 1) == member and (member or not trivial)
            return ok, [coset, member]

        return Op("query", call, check)


# -- free-deciders -------------------------------------------------------------

class FreeDeciders(Workload):
    """Small free-group queries over F(a, b): malnormality, trivial
    intersection with every conjugate, and fold + basis + membership.  Words
    have length at most 15, so every fibre product stays far below the
    20,000-edge numpy threshold and per-call overhead dominates."""

    name = "free-deciders"
    latency_kinds = ("malnormal", "intersection", "fold")
    per_kind = 50
    min_rounds = 6
    # is_malnormal queries per round, in the first min_rounds rounds, that
    # are drawn from criterion 2's regime and checked against its bounded
    # brute-force search
    brute_per_round = 4

    def round_ops(self, i: int) -> list[Op]:
        rng = self.rng(i)
        ops = []
        brute = self.brute_per_round if i < self.min_rounds else 0
        for n in range(self.per_kind):
            if n < brute:
                gens = [random_word(rng, 1, 6) for _ in range(rng.randint(1, 2))]
            else:
                gens = [random_word(rng, 1, 15) for _ in range(rng.randint(1, 3))]
            ops.append(self.malnormal_op(gens, n < brute))
            s = [random_word(rng, 1, 15) for _ in range(rng.randint(1, 2))]
            t = [random_word(rng, 1, 15) for _ in range(rng.randint(1, 2))]
            ops.append(self.intersection_op(s, t))
            gens = [random_word(rng, 1, 15) for _ in range(rng.randint(1, 3))]
            member = product(rng.choice(gens) ** rng.choice((1, -1)) for _ in range(rng.randint(1, 4)))
            ops.append(self.fold_op(gens, member, random_word(rng, 1, 15)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def malnormal_op(gens, brute: bool) -> Op:
        def check(v):
            graph = stallings.build_and_fold(AB, gens)
            if v.malnormal:
                ok = v.witness is None and not (brute and brute_force_witness(graph, gens))
                return ok, [True]
            g, u = v.witness.conjugator, v.witness.element
            ok = bool(u) and graph.contains(u) and graph.contains(g * u * g.inverse()) and not graph.contains(g)
            return ok, [False, str(g), str(u)]

        return Op("malnormal", lambda: stallings.is_malnormal(AB, gens), check)

    @staticmethod
    def intersection_op(s, t) -> Op:
        def check(v):
            if v.trivial:
                return v.witness is None, [True]
            g, u = v.witness.conjugator, v.witness.element
            gt, gs = stallings.build_and_fold(AB, t), stallings.build_and_fold(AB, s)
            ok = bool(u) and gt.contains(u) and gs.contains(g * u * g.inverse())
            return ok, [False, str(g), str(u)]

        return Op("intersection", lambda: stallings.trivial_intersection_all_conjugates(AB, s, t), check)

    @staticmethod
    def fold_op(gens, member: Word, other: Word) -> Op:
        def call():
            g = stallings.build_and_fold(AB, gens)
            return g, stallings.basis(g), g.contains(member), g.contains(other)

        def check(got):
            g, basis, has_member, has_other = got
            ok = (len(basis) == g.rank() and has_member
                  and stallings.same_subgroup(stallings.build_and_fold(AB, basis), g))
            return ok, [[str(b) for b in basis], has_member, has_other]

        return Op("fold", call, check)


def brute_force_witness(graph, gens) -> bool:
    """Criterion 2's bounded search for a non-malnormality witness:
    conjugators of length <= 6 outside the subgroup, subgroup elements of
    syllable length <= 3.  Finding one refutes a "malnormal" verdict."""
    table = graph.table()

    def read(letters):
        v = 0
        for x in letters:
            v = table[v][2 * (x - 1) if x > 0 else -2 * x - 1]
            if v < 0:
                return -1
        return v

    elems = set()
    frontier = {()}
    glets = [g.letters for g in gens]
    for _ in range(3):
        frontier = {free_reduce_letters(t + seg) for t in frontier
                    for g in glets for seg in (g, tuple(-x for x in reversed(g)))}
        elems |= {t for t in frontier if t}
    for g in CONJUGATORS:
        if read(g) == 0:
            continue
        ginv = tuple(-x for x in reversed(g))
        for u in elems:
            if read(free_reduce_letters(g + u + ginv)) == 0:
                return True
    return False


def _reduced_tuples(n: int) -> list[tuple[int, ...]]:
    out, frontier = [], [()]
    for _ in range(n):
        frontier = [t + (s,) for t in frontier for s in SIGNED if not (t and t[-1] == -s)]
        out += frontier
    return out


CONJUGATORS = _reduced_tuples(6)

WORKLOADS = {w.name: w for w in (TriangleCert, BrittonBatch, KernelEnum, FreeDeciders)}
