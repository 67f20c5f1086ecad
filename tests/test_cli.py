import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import halfline
from conftest import OVERFLOWING_TABLES, closed_form_bound_state, load_bench, scan_brackets
from halfline import _kernels
from halfline.cli import FILES, load_config, main
from halfline.errors import NumericsError
from halfline.scattering import scattering_grid
from halfline.topology import EDGE_ORDER, assemble_boundary, scattering_edge

SRC = str(Path(halfline.__file__).resolve().parents[1])


def write_cfg(tmp_path, potential, grids=None, tolerances=None, name="cfg.json"):
    cfg = {
        "potential": potential,
        "grids": grids or {"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    if tolerances:
        cfg["tolerances"] = tolerances
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    rows = [ln.split(",") for ln in lines[2:]]
    return lines[0], header, rows


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["validate", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["potential"]["v0"] == 0.75

    def test_assumption_violated_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 2.0})
        assert main(["validate", str(cfg)]) == 3
        assert "assumption violated" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"potential": {"kind": "zero"}, "grid": {}}))
        assert main(["validate", str(path)]) == 2

    def test_unknown_potential_key_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.5, "rho": 3.0,
                                   "weird": 1})
        assert main(["validate", str(cfg)]) == 2
        assert "bad potential parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("grids", [
        {"n_edge": 0}, {"n_edge": 1}, {"n_site": 0}, {"n_site": 1}, {"m_beta": 0},
        {"m_beta": -2}, {"n_edge": 2.5}, {"m_theta": 256.5}, {"n_tail": 64.5},
        {"n_edge": True},
    ])
    def test_bad_grid_count_exit_2(self, tmp_path, grids):
        # counts that would crash a later stage are refused as config errors
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                        grids={"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024,
                               **grids})
        assert main(["validate", str(cfg)]) == 2

    @pytest.mark.parametrize("block", [
        {"potential": 5}, {"grids": [1]}, {"tolerances": "x"}, {"outputs": "x"},
        {"outputs": {"formats": 5}}, {"outputs": {"formats": [["csv"]]}},
        {"outputs": {"formats": "csv"}}, {"outputs": {"directory": 5}},
    ], ids=["potential", "grids", "tolerances", "outputs", "formats_number",
            "formats_nested", "formats_string", "directory"])
    def test_malformed_block_exit_2(self, tmp_path, capsys, block):
        # each block is an object, formats a list of strings and directory a
        # string; these crashed with a traceback, or (directory) got through
        # validate and crashed scatter
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "zero"}, **block}))
        for command in ("validate", "scatter"):
            assert main([command, str(cfg)]) == 2
        assert "unknown output formats" not in capsys.readouterr().err

    @pytest.mark.parametrize("grids,tols", [
        ({"beta_max": "12"}, {}), ({"alpha_max": None}, {}), ({}, {"threshold": "1e-3"}),
        ({"z_max": "3"}, {}), ({"z_max": 1.0}, {}), ({"z_max": float("nan")}, {}),
        ({}, {"root": float("nan")}), ({"beta_max": float("nan")}, {}),
        ({"beta_max": float("inf")}, {}), ({"alpha_max": True}, {}),
        ({"alpha_max": 4.5e307}, {}), ({"alpha_max": 1e308}, {}),
        ({"beta_max": 9e307}, {}), ({"beta_max": 1e308}, {}), ({"alpha_max": 10 ** 400}, {}),
    ])
    def test_bad_grid_float_exit_2(self, tmp_path, grids, tols):
        # window widths, z_max and tolerances must be finite real numbers,
        # z_max above 1; each of these crashed or ran through a later stage.
        # The sample grids span 4 alpha_max and 2 beta_max, which must be
        # finite too: these widths gave a NaN edge or an SVD that did not converge.
        # An int too large for a float exited 1 with an OverflowError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
            "grids": {"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024, **grids},
            "tolerances": tols, "outputs": {"directory": str(tmp_path / "out")}}))
        assert main(["validate", str(cfg)]) == 2

    def test_block_keys_are_gridspec_fields(self, tmp_path, capsys):
        # every GridSpec field is a key of its block, each tol_x field the
        # tolerance x, and the normalized config echoes the value given
        grids = {"m_theta": 300, "n_site": 70, "beta_max": 11.0, "m_beta": 510,
                 "z_max": 4.0, "n_edge": 1000, "alpha_max": 10.0}
        tols = {"threshold": 2e-3, "root": 1e-11, "winding": 0.04}
        fields = {f.name for f in dataclasses.fields(halfline.GridSpec)}
        assert fields == set(grids) | {"tol_" + k for k in tols}
        cfg = write_cfg(tmp_path, {"kind": "zero"}, grids=grids, tolerances=tols)
        assert main(["validate", str(cfg)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["grids"], out["tolerances"]) == (grids, tols)
        assert load_config(str(cfg))[1] == halfline.GridSpec(
            **grids, **{"tol_" + k: v for k, v in tols.items()})

    @pytest.mark.parametrize("grids,tols", [
        ({"tol_root": 1e-10}, {}), ({}, {"m_theta": 256}), ({"n_tail": 64}, {}),
    ], ids=["tol_root_in_grids", "m_theta_in_tolerances", "n_tail"])
    def test_key_outside_its_block_exit_2(self, tmp_path, capsys, grids, tols):
        cfg = write_cfg(tmp_path, {"kind": "zero"}, grids={"m_theta": 256, **grids},
                        tolerances=tols)
        assert main(["validate", str(cfg)]) == 2
        assert "unknown keys in" in capsys.readouterr().err

    def test_config_hash_pinned(self, tmp_path, capsys):
        # a change to the normalized config, and so to every hash, is deliberate
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
            "grids": {"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024},
            "outputs": {"directory": "out"}}))
        assert main(["validate", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config_hash"] == "f5f4f16fae96ec28"

    @pytest.mark.parametrize("potential,code", [
        ({"kind": "random_decaying", "seed": 0, "rho_gen": 0}, 3),
        ({"kind": "random_decaying", "seed": 0, "rho_gen": 1.0, "rho": 3.0}, 3),
        ({"kind": "random_decaying", "seed": 0, "amplitude": float("nan")}, 2),
        ({"kind": "random_decaying", "seed": 0, "amplitude": float("inf")}, 2),
        ({"kind": "random_decaying", "seed": -1}, 2),
        ({"kind": "rank_one", "v0": 0.75, "site": -1}, 2),
        ({"kind": "table", "values": "ab", "rho": 3.0}, 2),
        ({"kind": "rank_one", "v0": "0.75"}, 2),
        ({"kind": "rank_one", "v0": True}, 2),
        ({"kind": "random_decaying", "seed": 0, "amplitude": 1e300}, 2),
        ({"kind": "random_decaying", "seed": 0, "amplitude": 1e6, "rho_gen": 2.6}, 2),
        ({"kind": "rank_one", "v0": 10 ** 400}, 2),
        ({"kind": "random_decaying", "seed": 0, "amplitude": 10 ** 400}, 2),
        ({"kind": "random_decaying", "seed": 0, "rho_gen": 10 ** 400}, 2),
        ({"kind": "rank_one", "v0": 0.75, "rho": 10 ** 400}, 2),
        ({"kind": "rank_one", "v0": 0.75, "rho": float("inf")}, 2),
        ({"kind": "rank_one", "v0": 0.75, "site": 10 ** 400}, 2),
        ({"kind": "rank_one", "v0": 0.75, "site": 2 ** 22}, 2),
    ])
    def test_bad_potential_refused(self, tmp_path, potential, code):
        # each of these crashed `validate` or ran through it; a rho_gen not
        # above 5/2 is refused before its table (107 PiB for 1.0) is built, and
        # so is a table longer than MAX_TABLE_SITES (289,426,612 sites for 1e6,
        # 2^22 + 1 for the site 2^22).  An int too large for a float exited 1
        # with an OverflowError
        cfg = write_cfg(tmp_path, potential)
        assert main(["validate", str(cfg)]) == code

    @pytest.mark.parametrize("potential,code,message", [
        ({"kind": "rank_one", "v0": 0.75, "rho": float("nan")}, 2,
         "rho must be a finite real number"),
        ({"kind": "rank_one", "v0": 0.75, "rho": "3"}, 2, "rho must be a finite real number"),
        ({"kind": "rank_one", "v0": 0.75, "rho": None}, 2, "rho must be a finite real number"),
        ({"kind": "random_decaying", "seed": 0, "rho_gen": float("nan")}, 2,
         "rho_gen must be a finite real number"),
        ({"kind": "rank_one", "v0": 0.75, "rho": 2.0}, 3, "rho must exceed 5/2"),
        ({"kind": "random_decaying", "seed": 0, "rho_gen": 2.5}, 3, "rho_gen must exceed 5/2"),
    ], ids=["rho_nan", "rho_string", "rho_null", "rho_gen_nan", "rho_2", "rho_gen_2.5"])
    def test_decay_exponent_is_a_number_first(self, tmp_path, capsys, potential, code, message):
        # a NaN failed the comparison with 5/2 first and exited 3; a string
        # exited 2 with the TypeError of that comparison as its message
        cfg = write_cfg(tmp_path, potential)
        assert main(["validate", str(cfg)]) == code
        assert message in capsys.readouterr().err

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("config,message", [
        (None, "cannot read config"), ([], "config must be an object"),
        ({}, "config needs a potential block"),
        ({"potential": {"kind": "zero"}, "outputs": {"formats": ["xml"]}},
         "unknown output formats"),
        ({"potential": {"kind": "zero"}, "grids": {"m_beta": 513}}, "m_beta must be even"),
    ], ids=["missing_file", "list_root", "no_potential", "xml_format", "odd_m_beta"])
    def test_config_refused(self, tmp_path, capsys, config, message):
        path = tmp_path / "cfg.json"
        if config is not None:
            path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("command,potential,code,label", [
    ("validate", {"kind": "rank_one", "v0": 0.75, "rho": 3.0, "weird": 1}, 2, "config error: "),
    ("validate", {"kind": "rank_one", "v0": 0.75, "rho": 2.0}, 3, "error: "),
    ("scatter", {"kind": "rank_one", "v0": 0.4999, "rho": 3.0}, 4, "numerical failure: "),
    ("scatter", {"kind": "rank_one", "v0": 0.51, "rho": 3.0}, 5, "check failed: "),
])
def test_exit_code_and_stderr_label(tmp_path, capsys, command, potential, code, label):
    cfg = write_cfg(tmp_path, potential)
    assert main([command, str(cfg), "--check"]) == code
    err = capsys.readouterr().err
    assert err.startswith(label) and err.count("\n") == 1, err


class TestScatter:
    def test_free_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "zero"})
        assert main(["scatter", str(cfg)]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "scatter.csv")
        assert header == ["lambda", "theta", "re_omega", "im_omega",
                          "amplitude", "eta", "re_s", "im_s"]
        eta = [float(r[5]) for r in rows]
        assert max(abs(e) for e in eta) == 0.0
        _, _, bs = read_csv(tmp_path / "out" / "boundstates.csv")
        assert bs == []

    def test_rank_one_bound_state_row(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["scatter", str(cfg)]) == 0
        _, header, rows = read_csv(tmp_path / "out" / "boundstates.csv")
        assert header == ["z", "zeta", "residual"]
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(13.0 / 12.0, abs=1e-8)
        # 17 significant digits round-trip
        assert len(rows[0][0].replace(".", "").replace("-", "").lstrip("0")) >= 16

    @pytest.mark.parametrize("v0,code", [(1e6, 0), (1e7, 0), (1e12, 0), (-1e6, 0),
                                         (1e200, 0), (5e307, 4), (1e308, 4)])
    def test_large_coupling_ends(self, tmp_path, v0, code):
        # far from 0 adjacent floats lie more than tol_root apart, so the
        # bisection also ends where no float is left inside a bracket; the
        # command runs in a process of its own, so a search that never ends fails.
        # zeta stays finite where z^2 overflows; from about 3e307 the scan's
        # 2(z - V) would overflow, and the input is refused
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": v0, "rho": 3.0})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "halfline.cli", "scatter", str(cfg)],
                             env=env, capture_output=True, timeout=60)
        assert run.returncode == code, run.stderr
        if code == 0:
            _, _, rows = read_csv(tmp_path / "out" / "boundstates.csv")
            assert [float(r[0]) for r in rows] == [
                pytest.approx(closed_form_bound_state(v0), rel=1e-14)]

    def test_overflow_refused_before_stepping(self, tmp_path, monkeypatch, capsys):
        # z_max = 1 + 2(1 + 5e307) would overflow the scan's 2(z - V): the
        # input is refused before any point is stepped and any float overflows
        calls = []
        for name in ("jost_scaled", "jost_function_values", "decay_scan", "regular_values"):
            monkeypatch.setattr(_kernels, name, lambda *args, name=name: calls.append(name))
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 5e307, "rho": 3.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scatter", str(cfg)]) == 4
        assert calls == []
        assert "overflow 2(z - V)" in capsys.readouterr().err

    def test_check_exits_5_on_failed_levinson_gate(self, tmp_path, capsys):
        # linear extrapolation across the last theta cell: residual 1.3e-2
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.51, "rho": 3.0})
        assert main(["scatter", str(cfg)]) == 0
        assert main(["scatter", str(cfg), "--check"]) == 5
        assert "levinson" in capsys.readouterr().err

    def test_ambiguous_threshold_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.4999, "rho": 3.0})
        assert main(["scatter", str(cfg)]) == 4

    @pytest.mark.parametrize("command", ["scatter", "waveop", "winding", "report"])
    @pytest.mark.parametrize("name", sorted(OVERFLOWING_TABLES))
    def test_non_finite_omega_exit_4(self, tmp_path, capsys, name, command):
        # refused at the first cut grid, with no warning from a NaN on the way
        values = list(OVERFLOWING_TABLES[name])
        cfg = write_cfg(tmp_path, {"kind": "table", "values": values, "rho": 3.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(cfg)]) == 4
        assert "Jost recursion overflows: Omega is not finite" in capsys.readouterr().err


class TestWaveop:
    def test_free_residuals(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "zero"})
        assert main(["waveop", str(cfg)]) == 0
        data = json.loads((tmp_path / "out" / "waveop.json").read_text())
        assert data["wave_identity"]["residual"] < 1e-10
        assert data["shift_identity"]["exact_residual"] < 1e-10

    def test_two_site_refinement_ratio(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "table", "values": [0.3, -0.2], "rho": 3.0})
        assert main(["waveop", str(cfg), "--check"]) == 0
        data = json.loads((tmp_path / "out" / "waveop.json").read_text())
        assert data["wave_identity"]["residual"] <= 1e-6
        assert data["wave_identity"]["ratio"] >= 4.0


    def test_check_exits_5_on_failed_identity_gate(self, tmp_path, capsys):
        # m_theta = 64 leaves the wave identity at 7e-6, over its 1e-6 gate
        cfg = write_cfg(tmp_path, {"kind": "table", "values": [0.3, -0.2], "rho": 3.0},
                        grids={"m_theta": 64, "n_site": 16, "m_beta": 128, "n_edge": 256})
        assert main(["waveop", str(cfg)]) == 0
        assert main(["waveop", str(cfg), "--check"]) == 5
        assert "wave_identity" in capsys.readouterr().err


class TestWinding:
    def test_free_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "zero"})
        assert main(["winding", str(cfg), "--check"]) == 0
        data = json.loads((tmp_path / "out" / "winding.json").read_text())
        assert data["winding"] == 0 and data["match"] is True

    def test_rank_one_winds_once(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["winding", str(cfg), "--check"]) == 0
        data = json.loads((tmp_path / "out" / "winding.json").read_text())
        assert data["winding"] == 1
        _, header, rows = read_csv(tmp_path / "out" / "winding.csv")
        assert header == ["edge", "param", "re", "im", "phase_unwrapped"]
        assert {r[0] for r in rows} == {"scattering", "gamma_minus",
                                        "constant", "gamma_plus"}
        # each row carries its edge's name and parameter, in traversal order
        p, g, *_ = load_config(cfg)
        curve = assemble_boundary(scattering_grid(p, g), g, scattering_edge(p, g))
        sl = curve.edge_slices
        assert [r[0] for r in rows] == [name for name in EDGE_ORDER
                                        for _ in range(sl[name].stop - sl[name].start)]
        assert [r[1] for r in rows] == [f"{x:.17g}" for x in curve.params]

    @pytest.mark.parametrize("n_edge", [2, 3, 8, 16])
    def test_coarse_edges_exit_4(self, tmp_path, n_edge):
        # at 2 and 8 no sampled phase jump reaches pi/2: the edge loses the
        # whole turn that the cut grid's eta(+1) - eta(-1) shows
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                        grids={"m_theta": 256, "n_site": 64, "m_beta": 512,
                               "n_edge": n_edge})
        assert main(["winding", str(cfg)]) == 4
        assert main(["winding", str(cfg), "--check"]) == 4

    def test_refine_doubles_the_edge(self, tmp_path):
        # n_edge 1024 doubled, and the two snapped corners
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["winding", str(cfg), "--refine"]) == 0
        _, _, rows = read_csv(tmp_path / "out" / "winding.csv")
        assert sum(r[0] == "scattering" for r in rows) == 2050


class TestReport:
    def test_refine_doubles_the_spectral_grids(self, tmp_path):
        # the site window n_site stays
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["report", str(cfg), "--refine"]) == 0
        grids = json.loads((tmp_path / "out" / "waveop.json").read_text())["grids"]
        assert (grids["m_theta"], grids["m_beta"], grids["n_site"]) == (512, 1024, 64)

    def test_refine_is_hashed_and_in_the_provenance(self, tmp_path, capsys):
        # the hash and provenance name the grids that ran: before, both read
        # m_theta 256 under --refine, the same as the run without it
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        out = tmp_path / "out"
        reports = []
        for flags in ([], ["--refine"]):
            assert main(["report", str(cfg), *flags]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        plain, refined = reports
        assert plain["config_hash"] != refined["config_hash"]
        grids = refined["provenance"]["config"]["grids"]
        assert (grids["m_theta"], grids["m_beta"], grids["n_edge"]) == (512, 1024, 2048)
        assert plain["provenance"]["config"]["grids"]["m_theta"] == 256
        for name in ("scatter.csv", "boundstates.csv"):
            assert f"# config={refined['config_hash']}" in (out / name).read_text()
        capsys.readouterr()
        assert main(["validate", str(cfg), "--refine"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["config_hash"] == refined["config_hash"]
        assert shown["grids"] == grids

    def test_all_pass_and_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["report", str(cfg)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        report = json.loads(first)
        assert all(report["pass"].values())
        assert report["scattering"]["count_n"] == 1
        assert main(["report", str(cfg)]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_free_report_all_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "zero"})
        assert main(["report", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(report["pass"].values())
        # the symbol remainder sits at the rounding floor in the free case
        assert report["operators"]["wave_symbol"]["s1"] < 1e-10

    def test_resonant_delta_flag(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.5, "rho": 3.0})
        assert main(["report", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["scattering"]["delta_plus"] == 0.5
        assert report["winding"]["winding"] == 0

    def test_refused_before_potential_free_checks(self, tmp_path, monkeypatch):
        # the scattering data refuses the input before the operator stage runs
        from halfline import cli
        called = []
        monkeypatch.setattr(cli, "operator_checks", lambda *args: called.append(args))
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.4999, "rho": 3.0})
        assert main(["report", str(cfg)]) == 4
        assert called == []

    def test_one_eigensolve_and_one_bound_state_search(self, tmp_path, monkeypatch):
        # both cut grids come from one scattering_grids call, whose grid-free
        # stages run once: one count oracle, which solves for no eigenvalue
        from halfline import model, scattering
        calls = {"eigenvalues_beyond": 0, "eigenvalues": 0, "bound_states": 0}

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(model.TridiagonalTruncation, "eigenvalues_beyond")
        counted(model.TridiagonalTruncation, "eigenvalues")
        counted(scattering, "bound_states")
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main(["report", str(cfg)]) == 0
        assert calls == {"eigenvalues_beyond": 1, "eigenvalues": 0, "bound_states": 1}

    def test_each_command_steps_its_point_sets(self, tmp_path, monkeypatch):
        # each command steps once each set of points it reads: the cut grid,
        # with the grid twice as fine for the operator identities; Omega(+-1);
        # the bound-state scan; the scattering edge for the winding number.
        # After them come only the bisection's trees of midpoints, all inside
        # the scan's brackets, and the residual of the bound state.
        # regular_values steps n_site sites, not the table.
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                        grids={"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 2048})
        p, g = load_config(str(cfg))[:2]
        roots, _ = halfline.bound_states(p, g)
        brackets = [sorted(ends) for lo, hi, _ in scan_brackets(p, g) for ends in zip(lo, hi)]
        # one call walks five levels of a lone bracket: 26 levels for the one
        # of rank_one 0.75, 3.6e-3 wide, take 6 calls in place of 26
        levels = [math.ceil(math.log2((b - a) / g.tol_root)) for a, b in brackets]
        bisections = sum(-(-n // 5) for n in levels)
        calls = []
        for name in ("jost_scaled", "jost_function_values", "decay_scan"):
            fn = getattr(_kernels, name)

            def wrapper(V, x, *args, fn=fn, name=name):
                calls.append((name, np.array(x).ravel()))
                return fn(V, x, *args)
            monkeypatch.setattr(_kernels, name, wrapper)

        def label(name, x):         # real x is z, complex x is zeta on the cut
            if name != "jost_function_values" or np.iscomplexobj(x):
                return f"{name} {len(x)}"
            if np.array_equal(x, [-1.0, 1.0]):
                return "thresholds"
            if np.array_equal(x, roots):
                return "residual"
            if all(any(a <= z <= b for a, b in brackets) for z in x):
                return "bisection"
            return f"{name} {len(x)}"

        common = ["jost_scaled 256", "thresholds", "jost_function_values 1024"]
        finer, edge = "jost_scaled 512", "jost_function_values 2048"
        for command, extra in (("report", [finer, edge, "residual"]),
                               ("scatter", ["residual"]), ("waveop", [finer]),
                               ("winding", [edge])):
            calls.clear()
            assert main([command, str(cfg)]) == 0
            labels = Counter(label(*c) for c in calls)
            assert 0 < labels.pop("bisection") <= bisections == 6, command
            assert labels == Counter(common + extra), command
            assert len({x.tobytes() for _, x in calls}) == len(calls), command

    def test_svd_count(self, tmp_path, monkeypatch):
        # the coupling symbol at m_beta and 2 m_beta, the wave symbol on both
        # cut grids and the shift symbol; the correction kernel takes none
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                                   "outputs": {"directory": str(tmp_path / "out")}}))
        assert main(["report", str(cfg)]) == 0
        assert len(calls) == 5, calls

    def test_each_operator_formed_once(self, tmp_path, monkeypatch):
        # each cut grid with its sine and cosine transforms, and F_-, once per
        # cut grid, each beta grid with its symbols' factors and R at m_beta
        # and 2 m_beta, each R transformed in blocks of TRANSFORM_SITES sites
        # with one rfft a block, U once; no complex FFT; the five SVDs are
        # those of test_svd_count
        from halfline import rescaled, specops
        calls = {name: [] for name in ("quadrature_grid", "jost_transform", "beta_grid",
                                       "energy_rescale_matrix", "symbol_columns",
                                       "cos_sin_coupling", "rfft", "fft", "ifft", "svd")}

        def counted(owner, name, size=lambda *args: 0):     # the grid size of each call
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name].append(size(*args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner in (rescaled, specops):
            counted(owner, "quadrature_grid", lambda m, n_site: m)
        counted(specops, "jost_transform", lambda d, grid, *rest: grid.m)
        counted(rescaled, "beta_grid", lambda m_beta, beta_max: m_beta)
        for name in ("energy_rescale_matrix", "symbol_columns"):
            counted(rescaled, name, lambda bg, *rest: bg.m_beta)
        counted(rescaled, "cos_sin_coupling")
        for name in ("rfft", "fft", "ifft"):
            counted(np.fft, name, lambda X, *rest: X.shape[-1])
        counted(np.linalg, "svd")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                                   "outputs": {"directory": str(tmp_path / "out")}}))
        assert main(["report", str(cfg)]) == 0
        blocks = 128 // rescaled.TRANSFORM_SITES            # n_site 128
        assert {name: sorted(sizes) for name, sizes in calls.items()} == {
            "quadrature_grid": [512, 1024], "jost_transform": [512, 1024],
            "beta_grid": [1024, 2048], "energy_rescale_matrix": [1024, 2048],
            "symbol_columns": [1024] * blocks + [2048] * blocks, "cos_sin_coupling": [0],
            "rfft": [1024] * blocks + [2048] * blocks, "fft": [], "ifft": [], "svd": [0] * 5}

    @pytest.mark.parametrize("fmt,absent", [("json", ".csv"), ("csv", ".json")])
    def test_output_formats_honoured(self, tmp_path, capsys, fmt, absent):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
            "grids": {"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024},
            "outputs": {"directory": str(tmp_path / "out"), "formats": [fmt]}}))
        assert main(["validate", str(cfg)]) == 0
        h = json.loads(capsys.readouterr().out)["config_hash"]
        assert main(["report", str(cfg)]) == 0
        written = list((tmp_path / "out").iterdir())
        assert written and not any(f.suffix == absent for f in written)
        assert all(h in f.read_text() for f in written)

    @pytest.mark.parametrize("command", ["scatter", "waveop", "winding", "report"])
    def test_files_name_what_each_command_writes(self, tmp_path, command):
        # `_start` refuses a directory in the place of each file that FILES names
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        assert main([command, str(cfg)]) == 0
        assert sorted(f.name for f in (tmp_path / "out").iterdir()) == sorted(
            name for names in FILES[command].values() for name in names)

    def test_hash_stamped_everywhere(self, tmp_path):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": -0.75, "rho": 3.0})
        assert main(["report", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        h = report["config_hash"]
        for name in ("scatter.csv", "boundstates.csv"):
            assert f"# config={h}" in (tmp_path / "out" / name).read_text()
        wave = json.loads((tmp_path / "out" / "waveop.json").read_text())
        assert wave["config_hash"] == h


class TestOutputLocation:
    """An output location that cannot be written is a config error, exit 2.
    Each of these exited 1 with a traceback, the last one after all the
    computation."""

    #: the first and the last file each command writes
    ENDS = {"scatter": ("scatter.csv", "boundstates.csv"), "report": ("scatter.csv", "report.json")}

    @classmethod
    def out_dir(cls, tmp_path, command, case):
        """outputs.directory for the case: a file; a path with a NUL byte; a
        path below a file; a directory in which the first or the last file
        that the command writes is a directory."""
        plain = tmp_path / "plain"
        plain.write_text("")
        if case == "directory_is_a_file":
            return str(plain)
        if case == "nul_byte":
            return str(tmp_path / "o\0ut")
        if case == "below_a_file":
            return str(plain / "out")
        (tmp_path / "out" / cls.ENDS[command][case == "last_output_file_is_a_directory"]).mkdir(
            parents=True)
        return str(tmp_path / "out")

    # validate writes no file, but makes the directory as every command does:
    # it printed the config and exited 0 on a directory it could not make.
    # A directory in the place of any output file, the last one too, is
    # refused before a file is written
    @pytest.mark.parametrize("command,case", [
        (command, case) for command in ("scatter", "report", "validate")
        for case in ("directory_is_a_file", "nul_byte", "below_a_file",
                     "output_file_is_a_directory", "last_output_file_is_a_directory")
        if command != "validate" or "output_file" not in case])
    def test_exit_2(self, tmp_path, capsys, command, case):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0})
        raw = json.loads(cfg.read_text())
        raw["outputs"]["directory"] = self.out_dir(tmp_path, command, case)
        cfg.write_text(json.dumps(raw))
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot ") and err.count("\n") == 1, err
        if "output_file" in case:       # nothing written beside the directory
            assert [f.is_dir() for f in (tmp_path / "out").iterdir()] == [True]


class TestEdgeWorker:
    """report and winding step the scattering edge on a worker thread: winding
    while the caller's thread computes the scattering data, report once the
    scattering data exists, while the caller's thread runs the operator stage.
    The worker is joined on every path, and its errors come after the
    refusals of those stages, as when the edge was stepped last."""

    RANK_ONE = {"kind": "rank_one", "v0": 0.75, "rho": 3.0}

    @pytest.fixture
    def slow_edge(self, monkeypatch):
        """The edge step, ending 0.2 s late; the threads that ended it."""
        from halfline import cli
        ended = []

        def edge(p, g):
            time.sleep(0.2)
            out = scattering_edge(p, g)
            ended.append(threading.get_ident())
            return out
        monkeypatch.setattr(cli, "scattering_edge", edge)
        return ended

    @pytest.fixture
    def failing_edge(self, monkeypatch):
        from halfline import cli

        def edge(p, g):
            raise RuntimeError("the edge step fails")
        monkeypatch.setattr(cli, "scattering_edge", edge)

    @pytest.mark.parametrize("command", ["report", "winding"])
    def test_joined_on_exit_0(self, tmp_path, slow_edge, command):
        threads = threading.active_count()
        assert main([command, str(write_cfg(tmp_path, self.RANK_ONE))]) == 0
        assert threading.active_count() == threads
        assert len(slow_edge) == 1 and slow_edge[0] != threading.get_ident()

    @pytest.mark.parametrize("command", ["report", "winding"])
    def test_joined_on_a_scattering_refusal(self, tmp_path, slow_edge, capsys, command):
        # the bound state of rank_one 0.75 lies at z = 13/12, beyond z_max:
        # winding's scattering stage refuses while the worker still steps the
        # edge; report refuses before it starts the edge
        cfg = write_cfg(tmp_path, self.RANK_ONE, grids={
            "m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024, "z_max": 1.05})
        threads = threading.active_count()
        assert main([command, str(cfg)]) == 4
        assert "z_max too small" in capsys.readouterr().err
        assert threading.active_count() == threads
        assert len(slow_edge) == {"report": 0, "winding": 1}[command]

    @pytest.mark.parametrize("command", ["report", "winding"])
    def test_worker_error_raised_at_the_join(self, tmp_path, failing_edge, command):
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="the edge step fails"):
            main([command, str(write_cfg(tmp_path, self.RANK_ONE))])
        assert threading.active_count() == threads

    def test_worker_error_after_the_operator_stage(self, tmp_path, failing_edge, monkeypatch,
                                                   capsys):
        from halfline import cli

        def refuse(*args):
            raise NumericsError("the operator stage refuses")
        monkeypatch.setattr(cli, "operator_checks", refuse)
        threads = threading.active_count()
        assert main(["report", str(write_cfg(tmp_path, self.RANK_ONE))]) == 4
        assert "the operator stage refuses" in capsys.readouterr().err
        assert threading.active_count() == threads


class TestGridFreeWorker:
    """waveop and report step the grid-free stages (thresholds, bound states)
    on a worker thread while the caller's thread steps the two cut grids,
    where the bound-state scan's work is above the floor, here lowered to 0
    (below it they run on the caller's thread after the cut grids:
    `TestBuilderThreads` in test_scattering.py).  The worker is joined on
    every path; a cut grid's refusal goes first and the grid-free stages'
    comes at the join, as when they ran one after the other."""

    RANK_ONE = {"kind": "rank_one", "v0": 0.75, "rho": 3.0}

    @pytest.fixture(autouse=True)
    def above_the_floor(self, monkeypatch):
        monkeypatch.setattr(_kernels, "FLOOR", 0)

    @pytest.fixture
    def slow_free(self, monkeypatch):
        """The grid-free stages, starting 0.2 s late; the threads they ran on."""
        from halfline import scattering
        ran = []
        fields = scattering.grid_free_fields

        def free(*args):
            ran.append(threading.get_ident())
            time.sleep(0.2)
            return fields(*args)
        monkeypatch.setattr(scattering, "grid_free_fields", free)
        return ran

    @pytest.mark.parametrize("command", ["report", "waveop"])
    def test_joined_on_exit_0(self, tmp_path, slow_free, command):
        threads = threading.active_count()
        assert main([command, str(write_cfg(tmp_path, self.RANK_ONE))]) == 0
        assert threading.active_count() == threads
        assert len(slow_free) == 1 and slow_free[0] != threading.get_ident()

    @pytest.mark.parametrize("command", ["report", "waveop"])
    def test_cut_grid_refusal_goes_first(self, tmp_path, slow_free, capsys, command):
        # both stages refuse the 400-site table of 3.0, the grid-free stages
        # with "Omega(-1) = nan": the cut grid's message is the one printed
        cfg = write_cfg(tmp_path, {"kind": "table", "values": [3.0] * 400, "rho": 3.0})
        threads = threading.active_count()
        assert main([command, str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "Omega is not finite on" in err and "Omega(-1)" not in err
        assert threading.active_count() == threads and len(slow_free) == 1

    @pytest.mark.parametrize("command", ["report", "waveop"])
    def test_grid_free_refusal_at_the_join(self, tmp_path, slow_free, capsys, command):
        # the cut grids pass; the bound state at z = 13/12 lies beyond z_max
        cfg = write_cfg(tmp_path, self.RANK_ONE, grids={
            "m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024, "z_max": 1.05})
        threads = threading.active_count()
        assert main([command, str(cfg)]) == 4
        assert "z_max too small" in capsys.readouterr().err
        assert threading.active_count() == threads and len(slow_free) == 1

    @pytest.mark.parametrize("command", ["report", "waveop"])
    def test_worker_error_raised_at_the_join(self, tmp_path, monkeypatch, command):
        from halfline import scattering

        def free(*args):
            raise RuntimeError("the grid-free stages fail")
        monkeypatch.setattr(scattering, "grid_free_fields", free)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="the grid-free stages fail"):
            main([command, str(write_cfg(tmp_path, self.RANK_ONE))])
        assert threading.active_count() == threads


class TestOperatorLanes:
    """The operator stage's two lanes take a worker only while no other
    worker is alive: in `waveop` they do; in `report`, beside an edge that
    is still stepping, they run on the command's thread.  Both write the
    same waveop.json, and a refusal of the stage leaves no worker behind."""

    RANK_ONE = {"kind": "rank_one", "v0": 0.75, "rho": 3.0}

    def test_report_beside_the_edge_writes_the_same_bits(self, tmp_path, monkeypatch):
        from halfline import cli, rescaled
        ran, form, checks = [], rescaled.cos_sin_coupling, cli.operator_checks
        stage_over = threading.Event()

        def coupling(grid):
            ran.append(threading.get_ident())
            return form(grid)

        def stage(*args):
            try:
                return checks(*args)
            finally:
                stage_over.set()

        def edge(p, g):         # alive until the operator stage has ended
            stage_over.wait(10)
            return scattering_edge(p, g)
        monkeypatch.setattr(rescaled, "cos_sin_coupling", coupling)
        cfg = write_cfg(tmp_path, self.RANK_ONE)
        threads = threading.active_count()
        assert main(["waveop", str(cfg)]) == 0
        alone = (tmp_path / "out" / "waveop.json").read_bytes()
        monkeypatch.setattr(cli, "operator_checks", stage)
        monkeypatch.setattr(cli, "scattering_edge", edge)
        assert main(["report", str(cfg)]) == 0
        assert (tmp_path / "out" / "waveop.json").read_bytes() == alone
        assert ran[0] != threading.get_ident() and ran[1] == threading.get_ident()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("command", ["waveop", "report"])
    def test_resonant_grid_refused(self, tmp_path, capsys, command):
        # the coarse cut grid's W_-, formed on a lane, refuses
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.5, "rho": 3.0},
                        tolerances={"threshold": 0.05})
        threads = threading.active_count()
        assert main([command, str(cfg)]) == 4
        assert "resonant grid: amplitude below threshold tolerance" in capsys.readouterr().err
        assert threading.active_count() == threads


class TestCrossingFamily:
    """rank_one v0 = +-(0.5 +- 10^-k), k = 1..4, and +-0.5, where a bound
    state crosses a threshold: `report` at default grids and tolerances gives
    the N and Delta+- of the closed form Omega = 1 - 2 v0 zeta in
    `bench/oracles.py`, or a listed refusal.

    The refusals are faults of the program, pinned with their exit codes and
    reasons: a listed refusal that now answers fails, as does an unlisted
    one, so the lists only shrink."""

    ORACLES = load_bench("oracles")

    MAGNITUDES = (0.6, 0.51, 0.501, 0.5001, 0.5, 0.4999, 0.499, 0.49, 0.4)

    #: exit 5: eta still turns fast in the end half-cells of the 512-node cut
    #: grid, and its linear extrapolation to the thresholds misses Levinson's
    #: relation by 0.012-0.013, above the gate pi/1000 (ROADMAP item 10)
    LEVINSON = frozenset({0.51, 0.49})

    #: exit 4: |Omega(+-1)| = 2 |0.5 - |v0|| lies in the band (tol/10, 10 tol)
    #: about the threshold tolerance 1e-3 that `classify_thresholds` refuses
    AMBIGUOUS = {0.501: "2.000e-03", 0.5001: "2.000e-04", 0.4999: "2.000e-04",
                 0.499: "2.000e-03"}

    @staticmethod
    def config(tmp_path, v0, tolerances=None):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"potential": {"kind": "rank_one", "v0": v0, "rho": 3.0},
                                    "tolerances": tolerances or {},
                                    "outputs": {"directory": str(tmp_path / "out")}}))
        return path

    @pytest.mark.parametrize("v0", [s * a for a in MAGNITUDES for s in (1, -1)])
    def test_report(self, tmp_path, capsys, v0):
        code, err = main(["report", str(self.config(tmp_path, v0))]), capsys.readouterr().err
        if abs(v0) in self.LEVINSON:
            assert code == 5 and "report contains failing checks (levinson)" in err, err
        elif abs(v0) in self.AMBIGUOUS:
            assert code == 4, err
            assert f"ambiguous threshold: |Omega| = {self.AMBIGUOUS[abs(v0)]}" in err
        else:
            assert code == 0, err
            spec = {"kind": "rank_one", "v0": v0}
            n = len(self.ORACLES.closed_form_bound_states(spec))
            deltas = [0.5 if om == 0.0 else 0.0
                      for om in self.ORACLES.closed_form_omega(spec, [-1.0, 1.0])]
            s = json.loads((tmp_path / "out" / "report.json").read_text())["scattering"]
            assert [s["count_n"], s["delta_minus"], s["delta_plus"]] == [n, *deltas]

    @pytest.mark.parametrize("command", ["scatter", "waveop", "winding", "report"])
    @pytest.mark.parametrize("v0", [0.5001, -0.5001])
    def test_bound_state_at_the_threshold_tolerance(self, tmp_path, capsys, v0, command):
        # at the threshold tolerance 1e-6 the threshold is clear, and the
        # Jost zero at zeta = 1/(2 v0) finds no eigenvalue of the 2,000-site
        # truncation beside it: its bound state decays over 5,000 sites
        # (ROADMAP item 11)
        assert len(self.ORACLES.closed_form_bound_states({"kind": "rank_one", "v0": v0})) == 1
        cfg = self.config(tmp_path, v0, {"threshold": 1e-6})
        assert main([command, str(cfg)]) == 4
        assert ("oracle mismatch: 1 Jost zeros vs 0 matrix eigenvalues"
                in capsys.readouterr().err)


def test_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the operator stage holds numpy's OpenBLAS to one thread, whatever the
    # process was started with
    written = []
    for threads in ("1", "2"):
        cfg = write_cfg(tmp_path, {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                        name=f"cfg-{threads}.json")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "halfline.cli", "report", str(cfg)],
                             env=env, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr
        written.append({name: (tmp_path / "out" / name).read_bytes()
                        for name in ("report.json", "waveop.json")})
        shutil.rmtree(tmp_path / "out")
    assert written[0] == written[1]


def test_import_path_loads_no_scipy():
    # the count oracle solves for no eigenvalue; only eigenvalues() imports scipy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, halfline, halfline.cli; sys.exit('scipy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr
