"""Command-line front end: verdict and certificate commands with a stable
JSON envelope, plus reproduction commands pinned to golden fixtures.

Exit codes: 0 = verdict computed (even a negative one), 1 = usage or parse
error, 2 = hypothesis-violation refusal, 3 = failed reproduction (the
``reproduce`` envelope carries verdict "fail").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from importlib import resources
from typing import NamedTuple, Sequence

from . import hnnforge, malchar, presfile, quotientcert, smallcancel, stallings
from .cosetenum import DEFAULT_MAX_COSETS, CosetEnumError, Overflow, todd_coxeter
from .words import Alphabet, Word, WordError, alphabet, code_product, images_by_unit, parse_word_list, word


class UsageError(ValueError):
    pass


# options that name a file the command reads
_INPUT_FILES = ("presentation", "rels", "pres", "hnn")
# the generators of the triangle groups and of the free group F(a, b)
AB = alphabet("a b")


def _infer_alphabet(texts) -> Alphabet:
    names = []
    for text in texts:
        for tok in re.findall(r"[a-z][a-zA-Z0-9_]*", text):
            if tok not in names:
                names.append(tok)
    if not names:
        raise UsageError("cannot infer an alphabet from empty input; pass --gens")
    return Alphabet(tuple(names))


def _alphabet_and_words(args, *lists):
    texts = [t for t in lists if t]
    alpha = alphabet(args.gens) if getattr(args, "gens", None) else _infer_alphabet(texts)
    return alpha, [parse_word_list(alpha, t) for t in lists]


def _resolve_inputs(args) -> None:
    """Replace each input file's path by its text, so that the parsed
    options alone decide the answer."""
    for key in _INPUT_FILES:
        if key in vars(args):
            with open(vars(args)[key]) as fh:
                setattr(args, key, fh.read())


def _inputs_digest(args) -> str:
    """Digest of every parsed option but the output path, after
    :func:`_resolve_inputs` and after the command has resolved the defaults
    it owns."""
    h = hashlib.sha256()
    for key, value in sorted(vars(args).items()):
        if key not in ("func", "out"):
            h.update(repr((key, value)).encode())
            h.update(b"\0")
    return h.hexdigest()[:16]


def _triangle(text: str) -> tuple[int, int, int]:
    """The exponents of a ``--triangle i,j,k`` option."""
    try:
        i, j, k = map(int, text.split(","))
    except ValueError:
        raise UsageError("--triangle takes three integers i,j,k") from None
    return i, j, k


class Outcome(NamedTuple):
    """What a command found; :func:`main` wraps it in the envelope."""
    payload: dict
    witnesses: Sequence = ()
    caveats: Sequence = ()


# -- subcommands --------------------------------------------------------------------

def cmd_fold(args):
    alpha, (gens,) = _alphabet_and_words(args, args.words)
    g = stallings.build_and_fold(alpha, gens)
    return Outcome({
        "verdict": "folded",
        "rank": g.rank(),
        "vertices": g.num_vertices,
        "edges": g.num_edges,
        "basis": [str(b) for b in stallings.basis(g)],
    })


def cmd_malnormal(args):
    alpha, (gens,) = _alphabet_and_words(args, args.words)
    v = stallings.is_malnormal(alpha, gens)
    payload = {
        "verdict": "malnormal" if v.malnormal else "not-malnormal",
        "rank": v.graph.rank(),
        "component_count": v.component_count,
    }
    return Outcome(payload, [v.witness.as_dict()] if v.witness else [])


def cmd_intersect(args):
    alpha, (s, t) = _alphabet_and_words(args, args.s, args.t)
    v = stallings.trivial_intersection_all_conjugates(alpha, s, t)
    payload = {
        "verdict": "trivial" if v.trivial else "intersects",
        "component_count": v.component_count,
    }
    return Outcome(payload, [v.witness.as_dict()] if v.witness else [])


def cmd_sc_check(args):
    parsed = presfile.parse_presentation(args.presentation)
    rs = smallcancel.RelatorSet(parsed.alphabet, parsed.relators)
    checks = {}
    witnesses = []
    if args.lam:
        lam = Fraction(args.lam)
        v = smallcancel.check_metric(rs, lam)
        checks[f"C'({lam})"] = bool(v.ok)
        if not v.ok:
            witnesses.append({"piece": str(v.failing_piece), "relator": str(v.failing_relator)})
    if args.t4:
        v = smallcancel.check_T(rs, 4)
        checks["T(4)"] = bool(v.ok)
        if not v.ok:
            witnesses.append({"triple": [str(r) for r in v.triple]})
    if args.c:
        v = smallcancel.check_C(rs, args.c)
        checks[f"C({args.c})"] = bool(v.ok)
        if not v.ok:
            witnesses.append({"relator": str(v.failing_relator), "pieces_needed": v.pieces_needed})
    pt = rs.pieces()
    payload = {
        "verdict": checks,
        "max_piece_per_relator": dict(zip((str(r) for r in rs.relators), pt.max_piece_per_relator)),
    }
    return Outcome(payload, witnesses)


def cmd_dehn(args):
    parsed = presfile.parse_presentation(args.presentation)
    rs = smallcancel.RelatorSet(parsed.alphabet, parsed.relators)
    w = word(parsed.alphabet, args.word)
    reduced = smallcancel.dehn_reduce(rs, w)
    # an empty result proves triviality over any presentation; a non-empty
    # one proves non-triviality only where Dehn's algorithm is complete
    caveats = []
    if not reduced:
        trivial = True
    elif rs.dehn_admissible()[0]:
        trivial = False
    else:
        trivial = None
        caveats.append("presentation is not C'(1/6) or C'(1/4)-T(4): "
                       "a non-empty Dehn-reduced word may still be trivial")
    return Outcome({"verdict": {"reduced": str(reduced), "trivial": trivial}}, caveats=caveats)


def _certify_intersection(alpha, relators, s, args):
    if not args.t:
        raise UsageError("--t is required for intersection certificates")
    t = parse_word_list(alpha, args.t)
    return quotientcert.certify_trivial_intersection_in_quotient(alpha, relators, s, t, args.bound)


# certificate kind -> its builder, called with (alphabet, relators, s, args)
CERTIFICATES = {
    "malnormal": lambda alpha, r, s, args: quotientcert.certify_malnormal_in_quotient(alpha, r, s),
    "free-basis": lambda alpha, r, s, args: quotientcert.certify_free_basis(alpha, r, s),
    "intersection": _certify_intersection,
}


def cmd_certify(args):
    if args.kind != "intersection" and (args.t is not None or args.bound is not None):
        raise UsageError("--t and --bound apply to intersection certificates (--kind intersection) only")
    args.bound = 3 if args.bound is None else args.bound
    parsed = presfile.parse_presentation(args.rels)
    s = parse_word_list(parsed.alphabet, args.s)
    cert = CERTIFICATES[args.kind](parsed.alphabet, parsed.relators, s, args)
    return Outcome({"certificate": cert.to_dict()}, caveats=cert.caveats)


def cmd_malchar(args):
    if args.gens and args.rho is not None:
        raise UsageError("--rho names the seed pair, which --gens replaces")
    if not args.triangle and args.bound is not None:
        raise UsageError("--bound applies to the triangle route (--triangle) only")
    if not args.gens:
        args.rho = 8 if args.rho is None else args.rho
    if args.triangle:
        args.bound = 3 if args.bound is None else args.bound
        i, j, k = _triangle(args.triangle)
        cert = malchar.decide_malcharacteristic_triangle(AB, i, j, k, args.rho, args.bound)
        return Outcome({"certificate": cert.to_dict()}, caveats=cert.caveats)
    gens = parse_word_list(AB, args.gens) if args.gens else list(malchar.seed_words_free(AB, args.rho))
    verdict = malchar.decide_malcharacteristic_free(AB, gens)
    witnesses = []
    if verdict.failing_auto is not None:
        witnesses.append({"automorphism": repr(verdict.failing_auto), **verdict.witness.as_dict()})
    if verdict.malnormal_witness is not None:
        witnesses.append(verdict.malnormal_witness.as_dict())
    verdict_text = "malcharacteristic" if verdict.malcharacteristic else "not-malcharacteristic"
    return Outcome({"verdict": verdict_text}, witnesses)


def cmd_coset_enum(args):
    parsed = presfile.parse_presentation(args.presentation)
    subgroup = parse_word_list(parsed.alphabet, args.subgroup) if args.subgroup else []
    if args.kernel and subgroup:
        raise UsageError("--kernel applies to the trivial-subgroup enumeration")
    outcome = todd_coxeter(parsed.alphabet, parsed.relators, subgroup, args.max)
    if isinstance(outcome, Overflow):
        return Outcome({"verdict": "overflow", "cap": outcome.max_cosets})
    payload = {"verdict": "complete", "index": outcome.index}
    if args.kernel:
        payload["kernel_generators"] = [str(g) for g in outcome.kernel_generators()]
    return Outcome(payload)


def cmd_build_tp(args):
    i, j, k = _triangle(args.triangle)
    parsed = presfile.parse_presentation(args.pres)
    P = hnnforge.InputPresentation(parsed.alphabet, parsed.relators)
    hnn = hnnforge.build_tp(
        AB, i, j, k, P, rho=args.rho, mode=args.mode,
        max_cosets=args.max, truncate=args.truncate,
    )
    # the built presentation is the command's artefact, not its envelope
    text = presfile.format_presentation(presfile.hnn_to_parsed(hnn))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)
    payload = {
        "verdict": "built",
        "stable": hnn.stable,
        "kernel_generators": [str(u) for u in hnn.assoc_abstract],
        "truncated": hnn.truncated,
        "hnn_relators": hnn.hnn_relator_texts() if hnn.truncated is None else None,
        "output": args.out,
    }
    caveats = [f"kernel truncated at conjugator depth {hnn.truncated}"] if hnn.truncated is not None else []
    return Outcome(payload, caveats=caveats)


def cmd_britton(args):
    hnn = presfile.parsed_to_hnn(presfile.parse_presentation(args.hnn))
    reduced, log = hnnforge.britton_reduce(hnn, parse_britton_text(hnn, args.word))
    return Outcome({
        "verdict": {
            "reduced": reduced.text(hnn.stable),
            "stable_letters": reduced.stable_count,
            "trivial": hnnforge.britton_trivial(hnn, reduced),
        },
        "pinches": [
            {"position": p.position, "kind": p.kind, "pinched": str(p.pinched)} for p in log
        ],
    })


def parse_britton_text(hnn, text: str):
    """Words over the base letters, the stable letter, and the mgens names.

    The code is split at the stable letter's two units, and each segment
    substituted on the code: a base letter spells itself and an mgens name
    its base word."""
    base, n = hnn.base_alphabet, len(hnn.base_alphabet)
    code = word(Alphabet(base.names + (hnn.stable,) + hnn.hat_alphabet.names), text).code
    images = images_by_unit([chr(2 * g) for g in range(n)] + [""]
                            + [g.code for g in hnn.m_gens])
    parts = re.split(f"([{re.escape(chr(2 * n) + chr(2 * n + 1))}])", code)
    words = [Word.from_code(base, code_product(map(images.__getitem__, seg))) for seg in parts[::2]]
    return hnnforge.britton_word(hnn, words, [1 if t == chr(2 * n) else -1 for t in parts[1::2]])


# -- reproduction fixtures -------------------------------------------------------------

def _fixture_text(name: str) -> str:
    return resources.files("malkit.fixtures").joinpath(name).read_text()


def _intro_examples(rho):
    lines, ok = [], True
    for k in range(2, 6):
        z = alphabet("z")
        P = hnnforge.InputPresentation(z, (word(z, f"z^{k}"),))
        hnn = hnnforge.build_tp(AB, 6, 6, 6, P, rho=8, mode="minimal")
        text = presfile.format_presentation(presfile.hnn_to_parsed(hnn))
        golden = _fixture_text(f"tp_p{k}.pres")
        match = text == golden
        ok &= match
        lines.append(f"T at P_{k}: {'match' if match else 'DIFFERS from golden'}")
        # kernel subgroup equality with the explicit conjugate family
        hat = hnn.hat_alphabet
        pad = hnn.hat.padding[0]
        orig = [n for n in hat.names if n != pad][0]
        expected = [word(hat, f"{orig}^{k}")] + [
            word(hat, f"{orig}^-{m} {pad} {orig}^{m}") if m else word(hat, pad)
            for m in range(k)
        ]
        same = stallings.same_subgroup(
            stallings.build_and_fold(hat, list(hnn.assoc_abstract)),
            stallings.build_and_fold(hat, expected),
        )
        ok &= same
        lines.append(f"T at P_{k} kernel subgroup: {'equal' if same else 'DIFFERS'}")
    return lines, ok


def _lemma_malcharfree(rho):
    verdict = malchar.decide_malcharacteristic_free(AB, list(malchar.seed_words_free(AB, rho)))
    ok = verdict.malcharacteristic
    return [f"rank-two positive pair at rho={rho}: "
            f"{'malcharacteristic' if ok else 'NOT malcharacteristic'}"], ok


def _lemma_malchartriangle(rho):
    cert = malchar.decide_malcharacteristic_triangle(AB, 6, 6, 6, rho)
    lines = [f"[{'ok' if h.ok else 'no'}] {h.name}" for h in cert.hypotheses]
    # the verdict itself is the reproduction output
    return lines + [f"certified: {cert.certified}"], True


# reproduction target -> (its replay, called with rho, and whether it
# reads --rho)
REPRODUCTIONS = {
    "intro-examples": (_intro_examples, False),
    "lemma-malcharfree": (_lemma_malcharfree, True),
    "lemma-malchartriangle": (_lemma_malchartriangle, True),
    "counterexample-cmt4": (lambda rho: _counterexample_cmt4(), False),
}


def cmd_reproduce(args):
    replay, reads_rho = REPRODUCTIONS[args.what]
    if args.rho is not None and not reads_rho:
        raise UsageError(f"reproduce {args.what} does not read --rho")
    args.rho = 8 if args.rho is None else args.rho
    lines, ok = replay(args.rho)
    return Outcome({"verdict": "pass" if ok else "fail", "report": lines})


def counterexample_words(p: int = 2, q: int = 7):
    """The non-metric counterexample data: R, S, T over commutators and an
    a b-stairs block, with the half-length piece shared by R and S."""
    names = ["a", "b"] + [f"x{n}" for n in range(1, 2 * p + 1)] + [
        f"y{n}" for n in range(1, 2 * p + 1)
    ]
    X = Alphabet(tuple(names))

    def comm(n):
        return f"x{n}^-1 y{n}^-1 x{n} y{n}"

    stairs = " ".join(f"a b^{m}" if m > 1 else "a b" for m in range(1, q + 1))
    R = word(X, " ".join(comm(n) for n in range(1, 2 * p + 1)))
    S = word(X, " ".join(comm(n) for n in range(1, p + 1)) + " " + stairs)
    T = word(X, stairs + " (" + " ".join(comm(n) for n in range(p + 1, 2 * p + 1)) + ")^-1")
    return X, R, S, T


def _counterexample_cmt4():
    lines = []
    X, R, S, T = counterexample_words()
    rs = smallcancel.RelatorSet(X, [R, S])
    c5 = smallcancel.check_C(rs, 5).ok
    t4 = smallcancel.check_T(rs, 4).ok
    lines.append(f"C(5): {'pass' if c5 else 'FAIL'}; T(4): {'pass' if t4 else 'FAIL'}")
    metric = smallcancel.check_metric(rs, Fraction(1, 4))
    half = (not metric.ok) and len(metric.failing_piece) * 2 == len(R)
    lines.append(
        f"C'(1/4): {'fails with the half-length piece' if half else 'UNEXPECTED verdict'}"
    )
    cert = quotientcert.certify_malnormal_in_quotient(X, [R], [S])
    refused = not cert.certified
    lines.append(f"malnormality certificate: {'refused' if refused else 'UNEXPECTEDLY certified'}")
    conj = quotientcert.free_conjugator(S, T)
    lines.append(f"free conjugator between the two long words: {conj}")
    ok = c5 and t4 and half and refused and conj is None
    return lines, ok


# -- dispatch ----------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="malkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fold", help="fold a generating set")
    f.add_argument("words")
    f.add_argument("--gens")
    f.set_defaults(func=cmd_fold)

    m = sub.add_parser("malnormal", help="malnormality in the free group")
    m.add_argument("words")
    m.add_argument("--gens")
    m.set_defaults(func=cmd_malnormal)

    it = sub.add_parser("intersect", help="conjugate intersection triviality")
    it.add_argument("--s", required=True)
    it.add_argument("--t", required=True)
    it.add_argument("--gens")
    it.set_defaults(func=cmd_intersect)

    sc = sub.add_parser("sc-check", help="small cancellation conditions")
    sc.add_argument("presentation")
    sc.add_argument("--lambda", dest="lam")
    sc.add_argument("--t4", action="store_true")
    sc.add_argument("--c", type=int)
    sc.set_defaults(func=cmd_sc_check)

    d = sub.add_parser("dehn", help="Dehn-reduce a word")
    d.add_argument("presentation")
    d.add_argument("--word", required=True)
    d.set_defaults(func=cmd_dehn)

    c = sub.add_parser("certify", help="quotient-lifting certificates")
    c.add_argument("--kind", required=True, choices=list(CERTIFICATES))
    c.add_argument("--rels", required=True)
    c.add_argument("--s", required=True)
    c.add_argument("--t", help="the second subgroup; with --kind intersection only")
    c.add_argument("--bound", type=int, help="family check bound (default 3); with --kind intersection only")
    c.set_defaults(func=cmd_certify)

    mc = sub.add_parser("malchar", help="malcharacteristic decisions")
    group = mc.add_mutually_exclusive_group()  # --gens is for the free-group decision only
    group.add_argument("--triangle")
    group.add_argument("--gens")
    mc.add_argument("--rho", type=int, help="seed-pair parameter (default 8); not with --gens")
    mc.add_argument("--bound", type=int, help="family check bound (default 3); with --triangle only")
    mc.set_defaults(func=cmd_malchar)

    ce = sub.add_parser("coset-enum", help="Todd-Coxeter enumeration")
    ce.add_argument("presentation")
    ce.add_argument("--subgroup")
    ce.add_argument("--max", type=int, default=DEFAULT_MAX_COSETS)
    ce.add_argument("--kernel", action="store_true")
    ce.set_defaults(func=cmd_coset_enum)

    bt = sub.add_parser("build-tp", help="build the HNN-extension of a triangle group")
    bt.add_argument("--triangle", required=True)
    bt.add_argument("--rho", type=int, default=8)
    bt.add_argument("--pres", required=True)
    bt.add_argument("--mode", default="pq", choices=["pq", "minimal"])
    bt.add_argument("--truncate", type=int, default=3)
    bt.add_argument("--max", type=int, default=DEFAULT_MAX_COSETS)
    bt.add_argument("-o", "--out", help="write the HNN presentation file here (stderr otherwise)")
    bt.set_defaults(func=cmd_build_tp)

    br = sub.add_parser("britton", help="Britton-reduce a word in an HNN file")
    br.add_argument("--hnn", required=True)
    br.add_argument("--word", required=True)
    br.set_defaults(func=cmd_britton)

    r = sub.add_parser("reproduce", help="pinned reproduction fixtures")
    r.add_argument("what", choices=list(REPRODUCTIONS))
    r.add_argument("--rho", type=int, help="seed-pair parameter (default 8); lemma-malchar* targets only")
    r.set_defaults(func=cmd_reproduce)
    return p


REFUSALS = (
    quotientcert.CertificateError,
    malchar.HypothesesViolated,
    CosetEnumError,
    hnnforge.HnnError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        _resolve_inputs(args)
        started = time.monotonic()
        outcome = args.func(args)
    except REFUSALS as e:
        out, code = {"command": args.command, "refusal": str(e)}, 2
    except (WordError, UsageError, presfile.PresentationSyntaxError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    else:
        out = {
            "command": args.command,
            "inputs_digest": _inputs_digest(args),
            **outcome.payload,
            "witnesses": outcome.witnesses,
            "caveats": outcome.caveats,
            "elapsed_ms": round(1000 * (time.monotonic() - started), 1),
        }
        code = 3 if out.get("verdict") == "fail" else 0
    json.dump(out, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
