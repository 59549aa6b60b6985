"""Span tracer that times malkit's layers from outside the program.

``Tracer.install`` replaces each function named in ``SPANS`` by a wrapper
that records a span (name, start, end, parent span, operation id).  A
function imported with ``from .x import f`` is a separate binding in every
importing module, so the wrapper is bound in place of every alias of the
original across ``malkit.*``; methods are wrapped on their class.
``uninstall`` puts every original back.  Spans stay in flat arrays in
memory until ``summary`` and ``dump`` run at the end of the run.

Probes attached to some spans compute counters outside the program: the
fibre-product edge count and its large/small split, folding input size,
distinct inputs of the calls that repeat work, Britton pinches and the
peak-RSS growth of coset enumeration.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import resource
import sys
import time
from array import array
from collections import defaultdict

# fibre products at or above this many edges take the numpy path
LARGE_FIBRE_EDGES = 20_000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fibre_edges(tr, args):
    g1, g2 = args[0], args[1]
    n = len(g1.alphabet)
    per1, per2 = [0] * (n + 1), [0] * (n + 1)
    for g, per in ((g1, per1), (g2, per2)):
        for d in g.out:
            for s in d:
                if s > 0:
                    per[s] += 1
    total = sum(a * b for a, b in zip(per1, per2))
    tr.counts["stallings.fibre.product_edges"] += total
    tr.counts["stallings.fibre.large_calls" if total >= LARGE_FIBRE_EDGES else "stallings.fibre.small_calls"] += 1


def _fold_letters(tr, args):
    tr.counts["stallings.build_and_fold.input_letters"] += sum(len(g) for g in args[1])


def _symmetrise_key(tr, args):
    # RelatorSet.__init__(self, alpha, relators)
    tr.distinct["smallcancel.symmetrise"].add(
        hash((args[1].names, tuple(r.letters for r in args[2]))))


def _family_key(tr, args):
    alpha, r, t = args[:3]
    bound = args[3] if len(args) > 3 else 3
    tr.distinct["quotientcert.check_family_cyclically_reduced"].add(
        hash((alpha.names, tuple(w.letters for w in r), tuple(w.letters for w in t), bound)))


def _family_words(tr, args, result, _before):
    tr.counts["quotientcert.check_family_cyclically_reduced.words_checked"] += result.checked_words


def _in_k_key(tr, args):
    # _KMembership.in_k(self, h): the question is fixed by the extension's
    # padded presentation and the word
    relators = args[0].H.hat.presentation.relators
    tr.distinct["hnnforge.membership.in_k"].add(hash((tuple(r.letters for r in relators), args[1].letters)))


def _pinches(tr, args, result, _before):
    tr.counts["hnnforge.britton_reduce.pinches"] += len(result[1])


def _rss_growth(tr, args, result, before):
    tr.counts["cosetenum.todd_coxeter.rss_growth_mb"] += _peak_rss_mb() - before


# (module, function or Class.method, span name, before-probe, after-probe).
# A before-probe returning a value hands it to the after-probe.
SPANS = (
    ("words", "apply_endo", "words.apply_endo", None, None),
    ("stallings", "build_and_fold", "stallings.build_and_fold", _fold_letters, None),
    ("stallings", "_fibre_analysis", "stallings.fibre", _fibre_edges, None),
    ("stallings", "SubgroupGraph.contains", "stallings.SubgroupGraph.contains", None, None),
    ("stallings", "BasisRewriter.rewrite", "stallings.BasisRewriter.rewrite", None, None),
    # symmetrise() is RelatorSet(...); the constructor is where the closure
    # is built, and some callers construct RelatorSet directly
    ("smallcancel", "RelatorSet.__init__", "smallcancel.symmetrise", _symmetrise_key, None),
    ("smallcancel", "RelatorSet.pieces", "smallcancel.pieces", None, None),
    ("smallcancel", "check_T", "smallcancel.check_T", None, None),
    ("smallcancel", "check_metric", "smallcancel.check_metric", None, None),
    ("smallcancel", "dehn_reduce", "smallcancel.dehn_reduce", None, None),
    ("smallcancel", "is_cyclically_dehn_reduced", "smallcancel.is_cyclically_dehn_reduced", None, None),
    ("smallcancel", "word_problem", "smallcancel.word_problem", None, None),
    ("quotientcert", "check_family_cyclically_reduced", "quotientcert.check_family_cyclically_reduced",
     _family_key, _family_words),
    ("quotientcert", "certify_malnormal_in_quotient", "quotientcert.certify_malnormal_in_quotient", None, None),
    ("quotientcert", "certify_trivial_intersection_in_quotient",
     "quotientcert.certify_trivial_intersection_in_quotient", None, None),
    ("malchar", "decide_malcharacteristic_free", "malchar.decide_malcharacteristic_free", None, None),
    ("malchar", "verify_psi_images", "malchar.verify_psi_images", None, None),
    ("malchar", "decide_malcharacteristic_triangle", "malchar.decide_malcharacteristic_triangle", None, None),
    ("cosetenum", "todd_coxeter", "cosetenum.todd_coxeter", lambda tr, args: _peak_rss_mb(), _rss_growth),
    ("cosetenum", "schreier_kernel_generators", "cosetenum.schreier_kernel_generators", None, None),
    ("cosetenum", "CosetTable.image_in_quotient", "cosetenum.CosetTable.image_in_quotient", None, None),
    ("hnnforge", "build_tp", "hnnforge.build_tp", None, None),
    ("hnnforge", "britton_reduce", "hnnforge.britton_reduce", None, _pinches),
    ("hnnforge", "_KMembership.in_k", "hnnforge.membership.in_k", _in_k_key, None),
    ("hnnforge", "HnnPresentation.base_relator_set", "hnnforge.HnnPresentation.base_relator_set", None, None),
)


# every probe counter and distinct-input set, reported even when zero
COUNTERS = (
    "stallings.fibre.product_edges", "stallings.fibre.large_calls", "stallings.fibre.small_calls",
    "stallings.build_and_fold.input_letters",
    "quotientcert.check_family_cyclically_reduced.words_checked",
    "hnnforge.britton_reduce.pinches", "cosetenum.todd_coxeter.rss_growth_mb", "words.Word.calls",
)
DISTINCT = (
    "smallcancel.symmetrise", "quotientcert.check_family_cyclically_reduced", "hnnforge.membership.in_k",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_op = array("q")
        self.stack: list[int] = []
        self.op = -1  # operation id of the spans opened next; -1 is setup
        self.active = True  # off while the runner makes inputs and checks results
        self.counts: dict[str, float] = defaultdict(float, {name: 0.0 for name in COUNTERS})
        self.distinct: dict[str, set] = defaultdict(set, {name: set() for name in DISTINCT})
        self.rebound: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, span_op = self.span_name, self.start, self.end, self.parent, self.span_op
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            probe = before(self, args) if before else None
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after:
                after(self, args, result, probe)
            return result

        return traced

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        importlib.import_module("malkit.cli")  # imports every malkit module
        modules = [m for n, m in sorted(sys.modules.items()) if n == "malkit" or n.startswith("malkit.")]
        for mod_name, attr, name, before, after in SPANS:
            mod = sys.modules[f"malkit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._bind(cls, meth, self.wrap(vars(cls)[meth], name, before, after))
                self.rebound[name] = 1
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(original, name, before, after)
            count = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, key, wrapper)
                        count += 1
            self.rebound[name] = count

        # Word construction is counted, not spanned: it is the hottest call
        word_cls = sys.modules["malkit.words"].Word
        original_init = word_cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            if self.active:
                counts["words.Word.calls"] += 1
            original_init(obj, *args, **kwargs)

        self._bind(word_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, float]:
        """calls and self time per span name, plus the probe counters.
        Self time is a span's duration minus the time its child spans
        cover; spans nest strictly, so that is the sum of the children."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = float(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counts)
        for name, keys in self.distinct.items():
            out[f"{name}.distinct"] = float(len(keys))
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span, column by column, with ``extra`` alongside."""
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": self.span_name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
