"""Command-line pipeline: validate | scatter | waveop | winding | report.

A single JSON config describes the potential, the grids, the tolerances and
the output directory; its canonical hash is stamped into every output file
so results from different configs cannot be mixed silently.  Outputs are
deterministic given the config (no timestamps inside files); wall-clock
timings go to stdout only.

`main` runs each command: `_start`, then, but for `validate`, one timed call of
its `cmd_*`, which writes the files and returns (summary line, gate passes,
failure message); --check, always on for `report`, refuses a failed gate.

Exit codes: 0 pass; an error exits with the code and stderr label that
`_EXITS` gives its class.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import AssumptionError, CheckFailure, ConfigError, HalflineError, NumericsError
from .model import GridSpec, make_potential
from .rescaled import operator_checks
from .scattering import (ScatteringData, eta_endpoints, levinson_residual, scattering_grid,
                         scattering_grids)
from .topology import (EDGE_ORDER, WindingReport, assemble_boundary, scattering_edge,
                       winding_number)

#: pass/fail gates used by the report command
GATES = {
    "levinson_residual": 1e-3 * np.pi,
    "wave_identity_residual": 1e-6,
    "shift_exact_residual": 1e-6,
    "coupling_rank_fraction": 1.0 / 16.0,   # rank(0.1) <= m_beta/16
    "wave_rank_fraction": 1.0 / 8.0,        # rank(0.1) <= n_site/8
}

#: the files each command writes, by output format
FILES = {"scatter": {"csv": ("scatter.csv", "boundstates.csv")},
         "waveop": {"json": ("waveop.json",)},
         "winding": {"csv": ("winding.csv",), "json": ("winding.json",)},
         "report": {"csv": ("scatter.csv", "boundstates.csv"),
                    "json": ("waveop.json", "report.json")}}

#: exit code and stderr label of each error class that `main` reports
_EXITS = {ConfigError: (2, "config error"), AssumptionError: (3, "error"),
          NumericsError: (4, "numerical failure"), CheckFailure: (5, "check failed")}

#: config key -> GridSpec field in the grids and tolerances blocks: each
#: tol_x field of GridSpec is the tolerance x, and every other is a grid key
_GRID_FIELDS = {block: {f.name.removeprefix("tol_"): f.name for f in dataclasses.fields(GridSpec)
                        if f.name.startswith("tol_") == (block == "tolerances")}
                for block in ("grids", "tolerances")}


def _config_block(block, allowed: set, where: str) -> dict:
    """A copy of block, refused unless it is an object of allowed keys."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return dict(block)


def load_config(path: str, refine: bool = False):
    """Parse and validate the config file; returns (potential, grids, outputs,
    normalized-config-dict, hash).  With refine the grids are refined first,
    so the normalized config and its hash name the grids that run."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    _config_block(raw, {"potential", "grids", "tolerances", "outputs"}, "config")
    if raw.get("potential") is None:
        raise ConfigError("config needs a potential block")
    blocks = {name: _config_block(raw.get(name, {}), set(keys), name)
              for name, keys in _GRID_FIELDS.items()}
    outputs = _config_block(raw.get("outputs", {}), {"directory", "formats"}, "outputs")

    # make_potential refuses a block that is no object or has an unknown key
    potential = make_potential(raw["potential"])
    g = GridSpec(**{_GRID_FIELDS[name][k]: v for name, block in blocks.items()
                    for k, v in block.items()})
    if refine:
        g = g.refined()
    out_dir = outputs.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("outputs.directory must be a string")
    formats = outputs.get("formats", ["csv", "json"])
    if not (isinstance(formats, list) and all(isinstance(f, str) for f in formats)):
        raise ConfigError("outputs.formats must be a list of strings")
    bad = set(formats) - {"csv", "json"}
    if bad:
        raise ConfigError(f"unknown output formats: {sorted(bad)}")

    normalized = {
        "potential": dict(raw["potential"]),
        **{name: {k: getattr(g, f) for k, f in keys.items()}
           for name, keys in _GRID_FIELDS.items()},
        "outputs": {"directory": out_dir, "formats": sorted(formats)},
    }
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    cfg_hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return potential, g, normalized["outputs"], normalized, cfg_hash


def _write(outputs: dict, name: str, text: str):
    """Write text to outputs/name; a file that cannot be written is a config error."""
    try:
        (Path(outputs["directory"]) / name).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the output file: {exc}") from None


def _write_csv(outputs: dict, name: str, header: list, columns, cfg_hash: str):
    """Write outputs/name when the config asks for csv files, one row per
    index of the columns that columns() returns, called only then: a list
    is written as its strings, and any other column as numbers in %.17g."""
    if "csv" not in outputs["formats"]:
        return
    cols = columns()
    row = ",".join("%s" if isinstance(c, list) else "%.17g" for c in cols)
    rows = zip(*(c if isinstance(c, list) else np.asarray(c, float).tolist() for c in cols))
    lines = [f"# config={cfg_hash}", ",".join(header), *(row % r for r in rows)]
    _write(outputs, name, "\n".join(lines) + "\n")


def _write_json(outputs: dict, name: str, obj: dict, cfg_hash: str):
    """Write outputs/name when the config asks for json files."""
    if "json" not in outputs["formats"]:
        return
    # numpy arrays and scalars that are not Python numbers go out through tolist
    text = json.dumps({"config_hash": cfg_hash, **obj}, sort_keys=True, indent=2,
                      default=lambda x: x.tolist())
    _write(outputs, name, text + "\n")


def _gates(g: GridSpec, scatter: dict | None = None, ops: dict | None = None,
           winding=None) -> dict:
    """Pass or fail of each gate on the parts a command computed."""
    # a remainder at the rounding floor is trivially compact: its singular
    # values are pure noise and the rank summary is meaningless there
    def compact_ok(block, bound):
        return block["s1"] <= 1e-10 or block["rank_tenth"] <= bound

    passes = {}
    if scatter is not None:
        passes["levinson"] = scatter["levinson_residual"] <= GATES["levinson_residual"]
    if ops is not None:
        passes.update(
            wave_identity=ops["wave_identity"]["residual"] <= GATES["wave_identity_residual"],
            shift_identity=(ops["shift_identity"]["exact_residual"]
                            <= GATES["shift_exact_residual"]),
            coupling_compact=compact_ok(ops["coupling_symbol"],
                                        GATES["coupling_rank_fraction"] * g.m_beta),
            wave_compact=compact_ok(ops["wave_symbol"], GATES["wave_rank_fraction"] * g.n_site))
    if winding is not None:
        passes["winding_match"] = winding.match
    return passes


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _start(args):
    """The config (its grids refined under --refine), with its output
    directory made and refused where a file that the command would write is
    a directory: (potential, grids, outputs, normalized config, hash)."""
    p, g, outputs, normalized, cfg_hash = load_config(args.config, args.refine)
    out = Path(outputs["directory"])
    try:        # a NUL byte in the path raises ValueError
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot make the output directory: {exc}") from None
    for fmt in outputs["formats"]:
        for name in args.files.get(fmt, ()):
            if (out / name).is_dir():
                raise ConfigError(f"cannot write the output file {out / name}: "
                                  "it is a directory")
    return p, g, outputs, normalized, cfg_hash


def _scatter(d: ScatteringData, outputs: dict, cfg_hash: str) -> dict:
    """Write scatter.csv and boundstates.csv of d; returns its summary."""
    _write_csv(outputs, "scatter.csv",
               ["lambda", "theta", "re_omega", "im_omega", "amplitude", "eta", "re_s", "im_s"],
               lambda: (d.lam, d.theta, d.omega.real, d.omega.imag, d.amplitude, d.eta,
                        d.smatrix.real, d.smatrix.imag), cfg_hash)
    z = d.bound_states
    _write_csv(outputs, "boundstates.csv", ["z", "zeta", "residual"],
               lambda: (z, _kernels.off_axis_zeta(z),
                        np.abs(_kernels.jost_function_values(d.potential.values, z))), cfg_hash)
    em, ep = eta_endpoints(d)
    return {
        "count_n": d.count_n,
        "bound_states": d.bound_states,
        "delta_minus": d.delta_minus,
        "delta_plus": d.delta_plus,
        "omega_minus": d.omega_minus,
        "omega_plus": d.omega_plus,
        "eta_minus_1": em,
        "eta_plus_1": ep,
        "levinson_residual": levinson_residual(d),
    }


def cmd_scatter(p, g, outputs, normalized, cfg_hash):
    d = scattering_grid(p, g)
    summary = _scatter(d, outputs, cfg_hash)
    return (f"scatter: N={summary['count_n']} delta=({d.delta_minus},{d.delta_plus}) "
            f"levinson_residual={summary['levinson_residual']:.3e}",
            _gates(g, scatter=summary), "scattering data fails its gate")


def _waveop_payload(d: ScatteringData, d2: ScatteringData, g: GridSpec) -> dict:
    """The operator identities on the scattering data d on the cut grid of g
    and d2 on the grid twice as fine, with the grids they ran on."""
    return {**operator_checks(d, d2, g),
            "grids": {"m_theta": g.m_theta, "n_site": g.n_site, "m_beta": g.m_beta,
                      "beta_max": g.beta_max}}


def cmd_waveop(p, g, outputs, normalized, cfg_hash):
    payload = _waveop_payload(*scattering_grids(p, g, [g.m_theta, 2 * g.m_theta]), g)
    _write_json(outputs, "waveop.json", payload, cfg_hash)
    wi = payload["wave_identity"]
    return (f"waveop: identity residual {wi['residual']:.3e} "
            f"(refined {wi['residual_refined']:.3e}, ratio {wi['ratio']:.1f})",
            _gates(g, ops=payload), "operator identities fail their gates")


def _winding_keys(w: WindingReport) -> dict:
    """The keys of w that winding.json and report.json both write."""
    return {k: getattr(w, k) for k in ("winding", "raw_phase_total", "per_edge", "match")}


def cmd_winding(p, g, outputs, normalized, cfg_hash):
    with _kernels.meanwhile(scattering_edge, p, g) as edge:
        d = scattering_grid(p, g)
        curve = assemble_boundary(d, g, edge())
    report = winding_number(curve, tol_winding=g.tol_winding, count_n=d.count_n)
    # the edges are concatenated in EDGE_ORDER
    _write_csv(outputs, "winding.csv", ["edge", "param", "re", "im", "phase_unwrapped"],
               lambda: ([name for name in EDGE_ORDER
                         for _ in range(len(curve.points))[curve.edge_slices[name]]],
                        curve.params, curve.points.real, curve.points.imag,
                        np.unwrap(np.angle(curve.points))), cfg_hash)
    _write_json(outputs, "winding.json", {**_winding_keys(report),
                                          "n_from_scattering": d.count_n}, cfg_hash)
    return (f"winding: {report.winding} (N={d.count_n}, match={report.match})",
            _gates(g, winding=report), "winding number does not match the bound-state count")


def cmd_report(p, g, outputs, normalized, cfg_hash):
    # the edge starts once the scattering data exists, so an input refused
    # there steps no edge and runs no operator check; it takes the CPU that
    # the operator stage, whose BLAS runs on one thread, leaves free
    d, d2 = scattering_grids(p, g, [g.m_theta, 2 * g.m_theta])
    with _kernels.meanwhile(scattering_edge, p, g) as edge:
        payload = _waveop_payload(d, d2, g)
        scatter = _scatter(d, outputs, cfg_hash)
        _write_json(outputs, "waveop.json", payload, cfg_hash)
        wrep = winding_number(assemble_boundary(d, g, edge()), g.tol_winding, d.count_n)
    passes = _gates(g, scatter, payload, wrep)
    report = {
        "provenance": {"config": normalized},
        "scattering": scatter,
        "operators": payload,
        "winding": _winding_keys(wrep),
        "pass": passes,
    }
    _write_json(outputs, "report.json", report, cfg_hash)
    lines = [f"  {'PASS' if v else 'FAIL'} {k}" for k, v in sorted(passes.items())]
    lines.append(f"report: {'all pass' if all(passes.values()) else 'FAILURES'}")
    return "\n".join(lines), passes, "report contains failing checks"


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="halfline",
        description="Scattering theory for discrete Schrodinger operators "
                    "on the half-line")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", None), ("scatter", cmd_scatter), ("waveop", cmd_waveop),
                     ("winding", cmd_winding), ("report", cmd_report)):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the JSON config")
        sp.add_argument("--check", action="store_true",
                        help="exit 5 when an identity check fails")
        sp.add_argument("--refine", action="store_true",
                        help="double the spectral grids before running")
        sp.set_defaults(fn=fn, check=name == "report",      # report always checks
                        files=FILES.get(name, {}))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p, g, outputs, normalized, cfg_hash = _start(args)
        if args.fn is None:         # validate
            print(json.dumps({"config_hash": cfg_hash, **normalized}, sort_keys=True, indent=2))
            return 0
        t0 = time.perf_counter()
        line, passes, message = args.fn(p, g, outputs, normalized, cfg_hash)
        print(f"{line} [{time.perf_counter() - t0:.2f}s]")
        if args.check and not all(passes.values()):
            failed = ", ".join(k for k, v in sorted(passes.items()) if not v)
            raise CheckFailure(f"{message} ({failed})")
        return 0
    except HalflineError as exc:
        code, label = _EXITS[type(exc)]
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
