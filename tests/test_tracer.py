"""The benchmark's span tracer still sees the layers it counts.

A traced benchmark run is marked incorrect when a counted layer reads zero,
so this loads ``perfbench/tracer.py`` as it is and checks that the stallings
and HNN spans and the ``Word`` counter fire on the calls the workloads make.
"""

import importlib.util
from pathlib import Path

from malkit import hnnforge, stallings
from malkit.words import Word, alphabet, apply_endo, word

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_calls(tr) -> dict:
    return {name: list(tr.span_name).count(i) for i, name in enumerate(tr.names)}


def test_tracer_counts_the_stallings_layers():
    tr = _load_tracer().Tracer()
    ab = alphabet("a b")
    tr.install()
    try:
        assert not stallings.is_malnormal(ab, [word(ab, "a^2"), word(ab, "b")]).malnormal
        stallings.trivial_intersection_all_conjugates(ab, [word(ab, "a")], [word(ab, "b a^2 b^-1")])
        g = stallings.build_and_fold(ab, [word(ab, "a b a^-1"), word(ab, "a b^2 a")])
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
