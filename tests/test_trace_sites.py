"""The benchmark's tracer (`bench/tracing.py`, loaded here by path and only
read) wraps the `halfline._kernels` entries by name and sizes each span from
the second argument.  A renamed or deleted entry would leave its
`kernels.*` metrics reading 0 while the work still runs.

`Tracer.install` skips a `SITES` name that is gone from its owner, but looks
up every dotted part before it without a guard: a renamed owner (a class
such as `model.TridiagonalTruncation`) would crash every traced run."""

import importlib

import halfline as hl
from conftest import load_bench
from halfline import _kernels


def test_each_kernel_site_exists():
    names = [name for module, name, _, _ in load_bench("tracing").SITES
             if module == "halfline._kernels"]
    assert "jost_function_values" in names and "decay_scan" in names
    assert [name for name in names if not hasattr(_kernels, name)] == []


def test_traced_kernel_call_counts_its_points():
    tracer = load_bench("tracing").Tracer()
    tracer.install()
    try:
        hl.classify_thresholds(hl.rank_one(0.75), 1e-3)
        hl.decay_scan(hl.rank_one(0.75), 8)
    finally:
        tracer.uninstall()
    kernel_spans = [(span[4], span[7]) for span in tracer.spans if span[3] == "_kernels"]
    assert kernel_spans == [("jost_function_values", {"sites": 1, "points": 2}),
                            ("decay_scan", {"sites": 1, "points": 10})]


#: the SITES names gone from the program, whose metrics read 0: the tracer
#: skips them.  A refactor that deletes or renames a traced name adds it here
GONE = {
    "halfline.cli.wave_identity_residual",
    "halfline.cli.coupling_symbol_stability",
    "halfline.cli.wave_symbol_stability",
    "halfline.cli.shift_identity_check",
    "halfline.rescaled.coupling_symbol_remainder",
    "halfline.rescaled.wave_symbol_remainder",
    "halfline.rescaled.fourier_multiplier_matrix",
    "halfline.scattering.jost_function",
}


def site_owners():
    """(module, owner path, name, owner or None) of every SITES entry, the
    owner looked up as `Tracer.install` looks it up, None where a part of
    its path is missing."""
    out = []
    for module, path, _, _ in load_bench("tracing").SITES:
        *outer, name = path.split(".")
        owner = importlib.import_module(module)
        for part in outer:
            owner = getattr(owner, part, None)
        out.append((module, ".".join(outer), name, owner))
    return out


def test_each_site_owner_resolves():
    assert [f"{module}.{outer}" for module, outer, _, owner in site_owners()
            if owner is None] == []


def test_gone_sites_are_the_pinned_ones():
    gone = {".".join(filter(None, (module, outer, name)))
            for module, outer, name, owner in site_owners() if not hasattr(owner, name)}
    assert gone == GONE
