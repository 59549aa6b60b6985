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
import os
import re
import sys
import time
from fractions import Fraction
from importlib import resources

from . import hnnforge, malchar, presfile, quotientcert, smallcancel, stallings
from .cosetenum import DEFAULT_MAX_COSETS, CosetEnumError, Overflow, todd_coxeter
from .words import Alphabet, Word, WordError, alphabet, inverse_letters, parse_word_list, word


class UsageError(ValueError):
    pass


# options that name a file the command reads
_INPUT_FILES = ("presentation", "rels", "pres", "hnn")


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
    """Replace each input file's path by its text, and the coset cap by the
    one in force (``--max``, else ``MALCHAR_MAX_COSETS``, else the default),
    so that the parsed options alone decide the answer."""
    for key in _INPUT_FILES:
        if key in vars(args):
            with open(vars(args)[key]) as fh:
                setattr(args, key, fh.read())
    if "max" in vars(args):
        args.max = args.max or int(os.environ.get("MALCHAR_MAX_COSETS") or DEFAULT_MAX_COSETS)


def _inputs_digest(args) -> str:
    """Digest of every parsed option but the output path, after
    :func:`_resolve_inputs`."""
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


def _emit(args, payload, started, caveats=None, witnesses=None):
    out = {
        "command": args.command,
        "inputs_digest": _inputs_digest(args),
        **payload,
        "witnesses": witnesses or [],
        "caveats": caveats or [],
        "elapsed_ms": round(1000 * (time.monotonic() - started), 1),
    }
    json.dump(out, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")
    return 0


# -- subcommands --------------------------------------------------------------------

def cmd_fold(args):
    started = time.monotonic()
    alpha, (gens,) = _alphabet_and_words(args, args.words)
    g = stallings.build_and_fold(alpha, gens)
    payload = {
        "verdict": "folded",
        "rank": g.rank(),
        "vertices": g.num_vertices,
        "edges": g.num_edges,
        "basis": [str(b) for b in stallings.basis(g)],
    }
    return _emit(args, payload, started)


def cmd_malnormal(args):
    started = time.monotonic()
    alpha, (gens,) = _alphabet_and_words(args, args.words)
    v = stallings.is_malnormal(alpha, gens)
    payload = {
        "verdict": "malnormal" if v.malnormal else "not-malnormal",
        "rank": v.graph.rank(),
        "component_count": v.component_count,
    }
    wit = [v.witness.as_dict()] if v.witness else []
    return _emit(args, payload, started, witnesses=wit)


def cmd_intersect(args):
    started = time.monotonic()
    alpha, (s, t) = _alphabet_and_words(args, args.s, args.t)
    v = stallings.trivial_intersection_all_conjugates(alpha, s, t)
    payload = {
        "verdict": "trivial" if v.trivial else "intersects",
        "component_count": v.component_count,
    }
    wit = [v.witness.as_dict()] if v.witness else []
    return _emit(args, payload, started, witnesses=wit)


def cmd_sc_check(args):
    started = time.monotonic()
    parsed = presfile.parse_presentation(args.presentation)
    rs = smallcancel.symmetrise(parsed.alphabet, parsed.relators)
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
    return _emit(args, payload, started, witnesses=witnesses)


def cmd_dehn(args):
    started = time.monotonic()
    parsed = presfile.parse_presentation(args.presentation)
    rs = smallcancel.symmetrise(parsed.alphabet, parsed.relators)
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
    payload = {"verdict": {"reduced": str(reduced), "trivial": trivial}}
    return _emit(args, payload, started, caveats=caveats)


def cmd_certify(args):
    started = time.monotonic()
    parsed = presfile.parse_presentation(args.rels)
    alpha = parsed.alphabet
    s = parse_word_list(alpha, args.s)
    if args.kind == "malnormal":
        cert = quotientcert.certify_malnormal_in_quotient(alpha, parsed.relators, s)
    elif args.kind == "free-basis":
        cert = quotientcert.certify_free_basis(alpha, parsed.relators, s)
    elif args.kind == "intersection":
        if not args.t:
            raise UsageError("--t is required for intersection certificates")
        t = parse_word_list(alpha, args.t)
        cert = quotientcert.certify_trivial_intersection_in_quotient(
            alpha, parsed.relators, s, t, args.bound
        )
    else:
        raise UsageError(f"unknown certificate kind {args.kind!r}")
    payload = {"certificate": cert.to_dict()}
    return _emit(args, payload, started, caveats=cert.caveats)


def cmd_malchar(args):
    started = time.monotonic()
    ab = alphabet("a b")
    if args.gens and args.rho is not None:
        raise UsageError("--rho names the seed pair, which --gens replaces")
    if not args.triangle and args.bound is not None:
        raise UsageError("--bound applies to the triangle route (--triangle) only")
    if not args.gens:
        args.rho = 8 if args.rho is None else args.rho
    if args.triangle:
        args.bound = 3 if args.bound is None else args.bound
        i, j, k = _triangle(args.triangle)
        cert = malchar.decide_malcharacteristic_triangle(ab, i, j, k, args.rho, args.bound)
        payload = {"certificate": cert.to_dict()}
        return _emit(args, payload, started, caveats=cert.caveats)
    gens = parse_word_list(ab, args.gens) if args.gens else list(malchar.seed_words_free(ab, args.rho).pair)
    verdict = malchar.decide_malcharacteristic_free(ab, gens)
    payload = {
        "verdict": "malcharacteristic" if verdict.malcharacteristic else "not-malcharacteristic",
    }
    witnesses = []
    if verdict.failing_auto is not None:
        witnesses.append({"automorphism": repr(verdict.failing_auto), **verdict.witness.as_dict()})
    if verdict.malnormal_witness is not None:
        witnesses.append(verdict.malnormal_witness.as_dict())
    return _emit(args, payload, started, witnesses=witnesses)


def cmd_coset_enum(args):
    started = time.monotonic()
    parsed = presfile.parse_presentation(args.presentation)
    subgroup = parse_word_list(parsed.alphabet, args.subgroup) if args.subgroup else []
    if args.kernel and subgroup:
        raise UsageError("--kernel applies to the trivial-subgroup enumeration")
    outcome = todd_coxeter(parsed.alphabet, parsed.relators, subgroup, args.max)
    if isinstance(outcome, Overflow):
        payload = {"verdict": "overflow", "cap": outcome.max_cosets}
        return _emit(args, payload, started)
    payload = {"verdict": "complete", "index": outcome.index}
    if args.kernel:
        payload["kernel_generators"] = [str(g) for g in outcome.kernel_generators()]
    return _emit(args, payload, started)


def cmd_build_tp(args):
    started = time.monotonic()
    ab = alphabet("a b")
    i, j, k = _triangle(args.triangle)
    parsed = presfile.parse_presentation(args.pres)
    P = hnnforge.InputPresentation(parsed.alphabet, parsed.relators)
    hnn = hnnforge.build_tp(
        ab, i, j, k, P, rho=args.rho, mode=args.mode,
        max_cosets=args.max, truncate=args.truncate,
    )
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
    return _emit(args, payload, started, caveats=caveats)


def cmd_britton(args):
    started = time.monotonic()
    hnn = presfile.parsed_to_hnn(presfile.parse_presentation(args.hnn))
    bw = parse_britton_text(hnn, args.word)
    reduced, log = hnnforge.britton_reduce(hnn, bw)
    trivial = (not reduced.stable_count) and smallcancel.word_problem(
        hnn.base_relator_set(), reduced.head
    )
    payload = {
        "verdict": {
            "reduced": reduced.text(hnn.stable),
            "stable_letters": reduced.stable_count,
            "trivial": trivial,
        },
        "pinches": [
            {"position": p.position, "kind": p.kind, "pinched": str(p.pinched)} for p in log
        ],
    }
    return _emit(args, payload, started)


def parse_britton_text(hnn, text: str):
    """Words over the base letters, the stable letter, and the mgens names."""
    combined = Alphabet(
        hnn.base_alphabet.names + (hnn.stable,) + hnn.hat_alphabet.names
    )
    w = word(combined, text)
    nbase = len(hnn.base_alphabet)
    t_idx = nbase + 1
    segments = [[]]
    exponents = []
    for x in w.letters:
        if abs(x) == t_idx:
            exponents.append(1 if x > 0 else -1)
            segments.append([])
        elif abs(x) <= nbase:
            segments[-1].append(x)
        else:
            hat_name = combined.names[abs(x) - 1]
            img = hnn.m_word(hat_name).letters
            if x < 0:
                img = inverse_letters(img)
            segments[-1].extend(img)
    words = [Word(hnn.base_alphabet, tuple(seg)) for seg in segments]
    return hnnforge.britton_word(hnn, words, exponents)


# -- reproduction fixtures -------------------------------------------------------------

def _fixture_text(name: str) -> str:
    return resources.files("malkit.fixtures").joinpath(name).read_text()


def cmd_reproduce(args):
    started = time.monotonic()
    ab = alphabet("a b")
    lines = []
    ok = True
    if args.what == "intro-examples":
        for k in range(2, 6):
            z = alphabet("z")
            P = hnnforge.InputPresentation(z, (word(z, f"z^{k}"),))
            hnn = hnnforge.build_tp(ab, 6, 6, 6, P, rho=8, mode="minimal")
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
    elif args.what == "lemma-malcharfree":
        verdict = malchar.decide_malcharacteristic_free(
            ab, list(malchar.seed_words_free(ab, args.rho).pair)
        )
        ok = verdict.malcharacteristic
        lines.append(f"rank-two positive pair at rho={args.rho}: "
                     f"{'malcharacteristic' if ok else 'NOT malcharacteristic'}")
    elif args.what == "lemma-malchartriangle":
        cert = malchar.decide_malcharacteristic_triangle(ab, 6, 6, 6, args.rho)
        for h in cert.hypotheses:
            lines.append(f"[{'ok' if h.ok else 'no'}] {h.name}")
        ok = True  # the verdict itself is the reproduction output
        lines.append(f"certified: {cert.certified}")
    elif args.what == "counterexample-cmt4":
        lines, ok = _counterexample_cmt4()
    else:
        raise UsageError(f"unknown reproduction target {args.what!r}")
    payload = {"verdict": "pass" if ok else "fail", "report": lines}
    code = _emit(args, payload, started)
    return code if ok else 3


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
    rs = smallcancel.symmetrise(X, [R, S])
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
    c.add_argument("--kind", required=True, choices=["malnormal", "free-basis", "intersection"])
    c.add_argument("--rels", required=True)
    c.add_argument("--s", required=True)
    c.add_argument("--t")
    c.add_argument("--bound", type=int, default=3)
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
    ce.add_argument("--max", type=int)
    ce.add_argument("--kernel", action="store_true")
    ce.set_defaults(func=cmd_coset_enum)

    bt = sub.add_parser("build-tp", help="build the HNN-extension of a triangle group")
    bt.add_argument("--triangle", required=True)
    bt.add_argument("--rho", type=int, default=8)
    bt.add_argument("--pres", required=True)
    bt.add_argument("--mode", default="pq", choices=["pq", "minimal"])
    bt.add_argument("--truncate", type=int, default=3)
    bt.add_argument("--max", type=int)
    bt.add_argument("-o", "--out", help="write the HNN presentation file here (stderr otherwise)")
    bt.set_defaults(func=cmd_build_tp)

    br = sub.add_parser("britton", help="Britton-reduce a word in an HNN file")
    br.add_argument("--hnn", required=True)
    br.add_argument("--word", required=True)
    br.set_defaults(func=cmd_britton)

    r = sub.add_parser("reproduce", help="pinned reproduction fixtures")
    r.add_argument(
        "what",
        choices=[
            "intro-examples",
            "lemma-malcharfree",
            "lemma-malchartriangle",
            "counterexample-cmt4",
        ],
    )
    r.add_argument("--rho", type=int, default=8)
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
        return args.func(args)
    except REFUSALS as e:
        json.dump({"command": args.command, "refusal": str(e)}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 2
    except (WordError, UsageError, presfile.PresentationSyntaxError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
