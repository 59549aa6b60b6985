"""The benchmark's span tracer still sees the layers it counts.

A traced benchmark run is marked incorrect when a counted layer reads zero,
so this loads ``perfbench/tracer.py`` as it is and checks that the stallings,
certificate, coset and HNN spans and the ``Word`` counter fire on the calls
the workloads make.
"""

import importlib.util
import json
from pathlib import Path

from malkit import cosetenum, hnnforge, malchar, stallings
from malkit.words import Word, alphabet, apply_endo, word

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_calls(tr) -> dict:
    return {name: list(tr.span_name).count(i) for i, name in enumerate(tr.names)}


def _first_metrics_moved_by(workloads: set) -> list:
    """The first metric of every ``perfbench/layers.json`` group whose
    "moves" names one of the workloads; ``cli.import_s`` is measured by the
    benchmark's child process, not by a span, so it is left out."""
    groups = json.loads((PERFBENCH / "layers.json").read_text())["groups"]
    return [g["metrics"][0] for g in groups
            if g["metrics"][0] != "cli.import_s" and {w for _, w in g["moves"]} & workloads]


def test_tracer_counts_the_stallings_layers():
    tr = _load_tracer().Tracer()
    ab = alphabet("a b")
    # the inputs are made before install, so the Word counter counts only
    # the words that the library builds
    w = {t: word(ab, t) for t in ("a^2", "a", "b", "b a^2 b^-1", "a b a^-1", "a b^2 a")}
    tr.install()
    try:
        assert not stallings.is_malnormal(ab, [w["a^2"], w["b"]]).malnormal
        stallings.trivial_intersection_all_conjugates(ab, [w["a"]], [w["b a^2 b^-1"]])
        g = stallings.build_and_fold(ab, [w["a b a^-1"], w["a b^2 a"]])
        assert all(g.contains(x) for x in stallings.basis(g))
    finally:
        tr.uninstall()
    calls = _span_calls(tr)
    assert calls["stallings.fibre"] >= 2
    assert calls["stallings.build_and_fold"] >= 3
    assert calls["stallings.SubgroupGraph.contains"] >= 2
    assert tr.counts["words.Word.calls"] > 0
    # uninstalling puts the originals back
    assert "traced" not in stallings.build_and_fold.__code__.co_name


def test_tracer_counts_the_hnn_layers():
    # the britton-batch workload's calls, through the module as it makes them
    tr = _load_tracer().Tracer()
    ab, z = alphabet("a b"), alphabet("z")
    tr.install()
    try:
        P = hnnforge.InputPresentation(z, (word(z, "z^2"),))
        H = hnnforge.build_tp(ab, 6, 6, 6, P, rho=2, mode="minimal")
        x = H.m_word("x")  # the padding generator lies in K
        e = Word(ab, ())
        bw = hnnforge.britton_word(H, [e, x, apply_endo(H.phi, x).inverse()], [1, -1])
        assert hnnforge.britton_trivial(H, bw)
    finally:
        tr.uninstall()
    calls = _span_calls(tr)
    assert calls["hnnforge.build_tp"] == 1
    assert calls["hnnforge.britton_reduce"] == 1
    assert calls["hnnforge.membership.in_k"] >= 1
    assert tr.counts["hnnforge.britton_reduce.pinches"] == 1
    assert "traced" not in hnnforge.britton_reduce.__code__.co_name


def test_tracer_counts_the_certificate_and_coset_layers():
    # the triangle-cert and kernel-enum workloads' calls, at a small scale:
    # every layers.json group that names either workload under "moves" must
    # read nonzero in its first metric, as the traced run requires
    tr = _load_tracer().Tracer()
    ab = alphabet("a b")
    relators = [word(ab, t) for t in ("a^2", "b^3", "(a b)^5")]  # the icosahedral group, order 60
    tr.install()
    try:
        assert malchar.decide_malcharacteristic_triangle(ab, 6, 6, 6, 8) is not None
        table = cosetenum.todd_coxeter(ab, relators)
        gens, _ = cosetenum.schreier_kernel_generators(ab, relators)
        kernel = stallings.build_and_fold(ab, gens)
        assert table.index == kernel.num_vertices == 60
        assert table.image_in_quotient(relators[2]) == 1 and kernel.contains(relators[2])
    finally:
        tr.uninstall()
    layers = tr.summary()
    checked = _first_metrics_moved_by({"triangle-cert", "kernel-enum"})
    for first in checked:
        assert layers[first] > 0, first
    assert "malchar.decide_malcharacteristic_triangle.self_s" in checked
    assert "cosetenum.todd_coxeter.calls" in checked


def test_tracer_counts_the_britton_and_free_decider_layers():
    # the britton-batch and free-deciders workloads' calls, at a small
    # scale: every layers.json group that names either workload under
    # "moves" must read nonzero in its first metric, so a call routed
    # around a wrapped name fails here
    tr = _load_tracer().Tracer()
    ab, z = alphabet("a b"), alphabet("z")
    tr.install()
    try:
        P = hnnforge.InputPresentation(z, (word(z, "z^2"),))
        H = hnnforge.build_tp(ab, 6, 6, 6, P, rho=2, mode="minimal")
        x, e = H.m_word("x"), Word(ab, ())
        assert hnnforge.britton_trivial(H, hnnforge.britton_word(H, [e, x, apply_endo(H.phi, x).inverse()], [1, -1]))
        assert not hnnforge.britton_trivial(H, hnnforge.britton_word(H, [e, H.m_word("z"), e], [1, -1]))
        assert not stallings.is_malnormal(ab, [word(ab, "a^2"), word(ab, "b")]).malnormal
        assert stallings.trivial_intersection_all_conjugates(ab, [word(ab, "a")], [word(ab, "b")]).trivial
        g = stallings.build_and_fold(ab, [word(ab, "a b a^-1"), word(ab, "a b^2 a")])
        assert all(g.contains(b) for b in stallings.basis(g))
    finally:
        tr.uninstall()
    layers = tr.summary()
    checked = _first_metrics_moved_by({"britton-batch", "free-deciders"})
    for first in checked:
        assert layers[first] > 0, first
    assert {"smallcancel.symmetrise.calls", "smallcancel.dehn_reduce.calls", "hnnforge.britton_reduce.calls",
            "stallings.fibre.calls", "stallings.build_and_fold.calls"} <= set(checked)
