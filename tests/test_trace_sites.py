"""The benchmark's tracer (`bench/tracing.py`, loaded here by path and only
read) wraps the `halfline._kernels` entries by name and sizes each span from
the second argument.  A renamed or deleted entry would leave its
`kernels.*` metrics reading 0 while the work still runs."""

import types
from pathlib import Path

import halfline as hl
from halfline import _kernels

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    """The tracer module, compiled from its text: nothing is written beside it."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_each_kernel_site_exists():
    names = [name for module, name, _, _ in load_tracing().SITES if module == "halfline._kernels"]
    assert "jost_function_values" in names and "decay_scan" in names
    assert [name for name in names if not hasattr(_kernels, name)] == []


def test_traced_kernel_call_counts_its_points():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        hl.classify_thresholds(hl.rank_one(0.75), 1e-3)
        hl.decay_scan(hl.rank_one(0.75), 8)
    finally:
        tracer.uninstall()
    kernel_spans = [(span[4], span[7]) for span in tracer.spans if span[3] == "_kernels"]
    assert kernel_spans == [("jost_function_values", {"sites": 1, "points": 2}),
                            ("decay_scan", {"sites": 1, "points": 10})]
