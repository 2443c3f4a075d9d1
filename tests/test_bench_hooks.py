"""The benchmark's trace hooks still see every call the engine makes.

bench/tracing.py counts work by rebinding `permgroup.compose`,
`fer.are_isomorphic` and `fer.label_isomorphisms`.  Code that stops calling
them through those module globals would leave a traced run reading zeros.
"""

import importlib.util
from pathlib import Path

from amoebagraph import family, fer, permgroup, relabel

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_count_every_engine_call(monkeypatch):
    # Re-setting each hooked global makes teardown restore the original.
    for module, name in (
        (permgroup, "compose"),
        (fer, "are_isomorphic"),
        (fer, "label_isomorphisms"),
    ):
        monkeypatch.setattr(module, name, getattr(module, name))
    tracer = load_tracing().Tracer()
    tracer.install()
    # Labels no other test uses, so the process-wide memo starts cold.
    g = relabel(family("path", 6).unrooted(), {str(k): f"q{k}" for k in range(1, 7)})
    tracer.stage(g, order=True)
    counts = tracer.counts
    # The degree and component filters leave only the 11 feasible swaps of
    # the 50 candidates for the isomorphism test.
    assert counts["lgraph.iso_calls"] == counts["fer.feasible"] == 11
    assert counts["fer.candidates"] == 50
    assert counts["lgraph.label_iso_calls"] == counts["fer.feasible"] + 1
    assert counts["permgroup.compose_calls"] > 0
