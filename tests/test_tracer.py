"""The benchmark's span tracer still sees the layers it counts.

A traced benchmark run is marked incorrect when a counted layer reads zero,
so this loads ``perfbench/tracer.py`` as it is and checks that the stallings
spans and the ``Word`` counter fire on the calls the workloads make.
"""

import importlib.util
from pathlib import Path

from malkit import stallings
from malkit.words import alphabet, word

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    calls = {name: list(tr.span_name).count(i) for i, name in enumerate(tr.names)}
    assert calls["stallings.fibre"] >= 2
    assert calls["stallings.build_and_fold"] >= 3
    assert calls["stallings.SubgroupGraph.contains"] >= 2
    assert tr.counts["words.Word.calls"] > 0
    # uninstalling puts the originals back
    assert "traced" not in stallings.build_and_fold.__code__.co_name
