"""Tests of the benchmark itself: its checks catch corrupted outputs, its
reference computations agree with direct ones, and its traced spans nest.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks    # noqa: E402
import oracles   # noqa: E402
import run       # noqa: E402
import tracing   # noqa: E402
from halfline import cli, model, scattering  # noqa: E402

RANK_ONE = {"kind": "rank_one", "v0": 0.75, "rho": 3.0}
TWO_SITE = {"kind": "table", "values": [0.3, -0.2], "rho": 3.0}
RANDOM = {"kind": "random_decaying", "seed": 3, "rho_gen": 4.0, "amplitude": 1.5}
SMALL_GRIDS = {"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024}


def _shift(key, by):
    def corrupt(out):
        out[key] = np.asarray(out[key]) + by
    return corrupt


def _grid_omega(out):
    out["omega"] = out["omega"].copy()
    out["omega"][7] += 1e-6


CORRUPTIONS = {
    "omega_plus": _shift("omega_plus", 1e-6),
    "omega_minus": _shift("omega_minus", -1e-6),
    "winding": _shift("winding", 1),
    "count_n": _shift("count_n", 1),
    "bound_state": _shift("bound_states", 1e-6),
}


@pytest.fixture(scope="module", params=[RANK_ONE, TWO_SITE, RANDOM],
                ids=["rank_one", "two_site", "random_decaying"])
def sweep_case(request):
    spec = request.param
    return spec, run.sweep_action(model.make_potential(spec), model.GridSpec())()


def _failures(spec, out):
    return checks.check(out, spec, checks.reference(spec, out["bound_states"], 1e-10))


def test_sweep_outputs_pass(sweep_case):
    spec, out = sweep_case
    assert _failures(spec, out) == []


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_output_fails(sweep_case, name):
    spec, out = sweep_case
    out = dict(out)
    if name == "bound_state" and out["count_n"] == 0:
        pytest.skip("no bound state to move")
    CORRUPTIONS[name](out)
    assert _failures(spec, out)


@pytest.mark.parametrize("spec", [RANK_ONE, TWO_SITE], ids=["rank_one", "two_site"])
def test_corrupted_grid_omega_fails(spec):
    out = run.sweep_action(model.make_potential(spec), model.GridSpec())()
    _grid_omega(out)
    assert _failures(spec, out)


def test_long_table_thresholds_and_bound_state():
    """The 246,621-site table of `report_long_table`: Omega(+-1) within the
    extended-precision tolerance, and the bound state bracketed."""
    spec = {"kind": "random_decaying", "seed": 3, "amplitude": 1.5}
    p = model.make_potential(spec)
    *_, om_m, om_p = scattering.classify_thresholds(p, 1e-3)
    roots, count = scattering.bound_states(p, model.GridSpec())
    out = {"count_n": count, "winding": count, "bound_states": roots,
           "omega_minus": om_m, "omega_plus": om_p, "theta": [1.0],
           "omega": np.ones(1, complex), "smatrix": np.ones(1, complex),
           "levinson_residual": 0.0}
    ref = checks.reference(spec, roots, 1e-10)
    assert ref["omega_tol"] == oracles.LONG_TABLE_TOL
    assert checks.check(out, spec, ref) == []
    for key in ("omega_plus", "omega_minus"):
        assert checks.check({**out, key: out[key] + 2 * ref["omega_tol"]}, spec, ref)
    moved = roots + 1e-6
    assert checks.check({**out, "bound_states": moved}, spec,
                        checks.reference(spec, moved, 1e-10))


def test_references_agree_with_direct_computation():
    values = oracles.table_of(RANDOM)
    assert np.array_equal(values, model.make_potential(RANDOM).values)
    diag = values[:300].tolist()
    evals = np.linalg.eigvalsh(np.diag(diag) + 0.5 * (np.eye(300, k=1) + np.eye(300, k=-1)))
    for x in (-1.0, -0.3, 1.0, 1.2):
        assert oracles._count_below(diag, x) == int(np.sum(evals < x))
    for v0, n in ((0.3, 0), (0.75, 1), (-1.5, 1)):
        spec = {"kind": "rank_one", "v0": v0}
        assert oracles.sturm_count(oracles.table_of(spec)) == n
        assert len(oracles.closed_form_bound_states(spec)) == n
    ld = [oracles.jost_extended(values, z) for z in (1.0, -1.0)]
    assert np.allclose(oracles.threshold_omegas(values), np.asarray(ld, float), atol=1e-9)
    for z in (1.0, -1.0, 1.3):
        assert abs(float(oracles.jost_extended(oracles.table_of(TWO_SITE), z))
                   - oracles.closed_form_omega(
                       TWO_SITE, z - np.sign(z) * np.sqrt(z * z - 1.0))) <= 1e-15


def test_spans_nest_and_self_times_fit(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"potential": RANK_ONE, "grids": SMALL_GRIDS,
                               "outputs": {"directory": str(tmp_path / "out")}}))
    ops = [("report", RANK_ONE, run._report_action(cli, ["report", str(cfg)], tmp_path / "out")),
           ("sweep", TWO_SITE, run.sweep_action(model.make_potential(TWO_SITE),
                                                model.GridSpec()))]
    loop, tracer = run.Loop(), tracing.Tracer()
    tracer.install()
    try:
        loop.run(ops, tracer)
    finally:
        tracer.uninstall()
    assert loop.failed == []
    assert not hasattr(cli.scattering_grid, "__wrapped__")
    assert not hasattr(model.TridiagonalTruncation.eigenvalues, "__wrapped__")

    spans = tracer.spans
    roots = [s for s in spans if s[1] is None]
    assert [s[4] for s in roots] == ["op", "op"]
    for s in spans:
        if s[1] is not None:
            parent = spans[s[1]]
            assert s[2] == parent[2]
            assert parent[5] <= s[5] <= s[6] <= parent[6]
    own = tracing.self_times(spans)
    assert min(own) >= 0.0
    for root in roots:
        inside = sum(t for s, t in zip(spans, own) if s[2] == root[2] and s is not root)
        assert inside <= root[6] - root[5]
    assert {s[3] for s in spans} == {"bench", "cli", "model", "scattering", "_kernels",
                                     "specops", "rescaled", "topology", "solutions"}
    metrics = tracing.layer_metrics(spans)
    assert metrics["scattering.grid_builds"][0] == 5      # four in the report, one in the sweep
    assert metrics["scattering.distinct_grids"][0] == 3
    assert metrics["model.eigensolves"][0] == 5
