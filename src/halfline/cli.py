"""Command-line pipeline: validate | scatter | waveop | winding | report.

A single JSON config describes the potential, the grids, the tolerances and
the output directory; its canonical hash is stamped into every output file
so results from different configs cannot be mixed silently.  Outputs are
deterministic given the config (no timestamps inside files); wall-clock
timings go to stdout only.

Exit codes: 0 pass, 2 config error, 3 decay assumption violated,
4 numerical failure, 5 identity-check mismatch.
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

from . import _kernels, scattering
from .errors import AssumptionError, CheckFailure, ConfigError, NumericsError
from .model import GridSpec, Potential, make_potential
from .rescaled import operator_checks
from .scattering import (ScatteringData, eta_endpoints, levinson_residual, scattering_grid,
                         scattering_grids)
from .topology import assemble_boundary, scattering_edge, winding_number

#: pass/fail gates used by the report command
GATES = {
    "levinson_residual": 1e-3 * np.pi,
    "wave_identity_residual": 1e-6,
    "shift_exact_residual": 1e-6,
    "coupling_rank_fraction": 1.0 / 16.0,   # rank(0.1) <= m_beta/16
    "wave_rank_fraction": 1.0 / 8.0,        # rank(0.1) <= n_site/8
}

_OUT_KEYS = {"directory", "formats"}

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


def load_config(path: str):
    """Parse and validate the config file; returns (potential, grids, outputs,
    normalized-config-dict, hash)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _config_block(raw, {"potential", "grids", "tolerances", "outputs"}, "config")
    if raw.get("potential") is None:
        raise ConfigError("config needs a potential block")
    blocks = {name: _config_block(raw.get(name, {}), set(keys), name)
              for name, keys in _GRID_FIELDS.items()}
    outputs = _config_block(raw.get("outputs", {}), _OUT_KEYS, "outputs")

    # make_potential refuses a block that is no object or has an unknown key
    potential = make_potential(raw["potential"])
    g = GridSpec(**{_GRID_FIELDS[name][k]: v for name, block in blocks.items()
                    for k, v in block.items()})
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
    return potential, g, {"directory": out_dir, "formats": sorted(formats)}, normalized, cfg_hash


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(outputs: dict, name: str, header: list, rows, cfg_hash: str):
    """Write outputs/name when the config asks for csv files; rows may be lazy."""
    if "csv" not in outputs["formats"]:
        return
    lines = [f"# config={cfg_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row))
    (Path(outputs["directory"]) / name).write_text("\n".join(lines) + "\n")


def _write_json(outputs: dict, name: str, obj: dict, cfg_hash: str):
    """Write outputs/name when the config asks for json files."""
    if "json" not in outputs["formats"]:
        return
    # numpy arrays and scalars that are not Python numbers go out through tolist
    text = json.dumps({"config_hash": cfg_hash, **obj}, sort_keys=True, indent=2,
                      default=lambda x: x.tolist())
    (Path(outputs["directory"]) / name).write_text(text + "\n")


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


def _enforce(passes: dict, message: str):
    if not all(passes.values()):
        failed = ", ".join(k for k, v in sorted(passes.items()) if not v)
        raise CheckFailure(f"{message} ({failed})")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _start(args):
    """The config (its grids refined under --refine), with its output
    directory made: (potential, grids, outputs, normalized config, hash)."""
    p, g, outputs, normalized, cfg_hash = load_config(args.config)
    if args.refine:
        g = g.refined()
    Path(outputs["directory"]).mkdir(parents=True, exist_ok=True)
    return p, g, outputs, normalized, cfg_hash


def cmd_validate(args) -> int:
    _, _, _, normalized, cfg_hash = load_config(args.config)
    print(json.dumps({"config_hash": cfg_hash, **normalized}, sort_keys=True, indent=2))
    return 0


def _scatter_outputs(d: ScatteringData, outputs: dict, cfg_hash: str):
    rows = zip(d.lam, d.theta, d.omega.real, d.omega.imag, d.amplitude,
               d.eta, d.smatrix.real, d.smatrix.imag)
    _write_csv(outputs, "scatter.csv",
               ["lambda", "theta", "re_omega", "im_omega", "amplitude",
                "eta", "re_s", "im_s"], rows, cfg_hash)

    def bs_rows():         # stepped only when the csv file is written
        z = d.bound_states
        residual = np.abs(scattering._omega_off_axis(d.potential, z))
        yield from zip(z, _kernels.off_axis_zeta(z), residual)
    _write_csv(outputs, "boundstates.csv", ["z", "zeta", "residual"], bs_rows(), cfg_hash)


def _scatter_summary(d: ScatteringData) -> dict:
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


def cmd_scatter(args) -> int:
    p, g, outputs, _, cfg_hash = _start(args)
    t0 = time.perf_counter()
    d = scattering_grid(p, g)
    _scatter_outputs(d, outputs, cfg_hash)
    summary = _scatter_summary(d)
    print(f"scatter: N={summary['count_n']} delta=({d.delta_minus},{d.delta_plus}) "
          f"levinson_residual={summary['levinson_residual']:.3e} "
          f"[{time.perf_counter() - t0:.2f}s]")
    if args.check:
        _enforce(_gates(g, scatter=summary), "scattering data fails its gate")
    return 0


def _waveop_payload(p: Potential, g: GridSpec):
    """The operator identities, their scattering data d on the cut grid of g
    and the seconds taken.  The data on g and on the grid twice as fine come
    from one `scattering_grids` call, which runs the grid-free stages once.

    The scattering data comes first, so that an input it refuses (exit 4)
    is refused before the checks that do not depend on the potential."""
    t0 = time.perf_counter()
    d, d2 = scattering_grids(p, g, [g.m_theta, 2 * g.m_theta])
    payload = {**operator_checks(d, d2, g),
               "grids": {"m_theta": g.m_theta, "n_site": g.n_site, "m_beta": g.m_beta,
                         "beta_max": g.beta_max}}
    return payload, d, time.perf_counter() - t0


def cmd_waveop(args) -> int:
    p, g, outputs, _, cfg_hash = _start(args)
    payload, _, elapsed = _waveop_payload(p, g)
    _write_json(outputs, "waveop.json", payload, cfg_hash)
    wi = payload["wave_identity"]
    print(f"waveop: identity residual {wi['residual']:.3e} "
          f"(refined {wi['residual_refined']:.3e}, ratio {wi['ratio']:.1f}) "
          f"[{elapsed:.2f}s]")
    if args.check:
        _enforce(_gates(g, ops=payload), "operator identities fail their gates")
    return 0


def cmd_winding(args) -> int:
    p, g, outputs, _, cfg_hash = _start(args)
    t0 = time.perf_counter()
    with _kernels.meanwhile(scattering_edge, p, g) as edge:
        d = scattering_grid(p, g)
        curve = assemble_boundary(d, g, edge())
    report = winding_number(curve, tol_winding=g.tol_winding, count_n=d.count_n)
    ph = np.unwrap(np.angle(curve.points))
    rows = ((curve.edge_name(i), curve.params[i], curve.points[i].real,
             curve.points[i].imag, ph[i]) for i in range(len(curve.points)))
    _write_csv(outputs, "winding.csv",
               ["edge", "param", "re", "im", "phase_unwrapped"], rows, cfg_hash)
    _write_json(outputs, "winding.json", {
        "winding": report.winding,
        "raw_phase_total": report.raw_phase_total,
        "per_edge": report.per_edge,
        "n_from_scattering": report.n_from_scattering,
        "match": report.match,
    }, cfg_hash)
    print(f"winding: {report.winding} (N={d.count_n}, match={report.match}) "
          f"[{time.perf_counter() - t0:.2f}s]")
    if args.check:
        _enforce(_gates(g, winding=report),
                 "winding number does not match the bound-state count")
    return 0


def cmd_report(args) -> int:
    p, g, outputs, normalized, cfg_hash = _start(args)
    t0 = time.perf_counter()
    with _kernels.meanwhile(scattering_edge, p, g) as edge:
        payload, d, _ = _waveop_payload(p, g)
        _scatter_outputs(d, outputs, cfg_hash)
        scatter = _scatter_summary(d)
        _write_json(outputs, "waveop.json", payload, cfg_hash)
        wrep = winding_number(assemble_boundary(d, g, edge()), g.tol_winding, d.count_n)
    passes = _gates(g, scatter, payload, wrep)
    report = {
        "provenance": {"config": normalized},
        "scattering": scatter,
        "operators": payload,
        "winding": {
            "winding": wrep.winding,
            "raw_phase_total": wrep.raw_phase_total,
            "per_edge": wrep.per_edge,
            "match": wrep.match,
        },
        "pass": passes,
    }
    _write_json(outputs, "report.json", report, cfg_hash)
    elapsed = time.perf_counter() - t0
    for k, v in sorted(passes.items()):
        print(f"  {'PASS' if v else 'FAIL'} {k}")
    print(f"report: {'all pass' if all(passes.values()) else 'FAILURES'} "
          f"[{elapsed:.2f}s]")
    _enforce(passes, "report contains failing checks")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="halfline",
        description="Scattering theory for discrete Schrodinger operators "
                    "on the half-line")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("scatter", cmd_scatter),
                     ("waveop", cmd_waveop), ("winding", cmd_winding),
                     ("report", cmd_report)):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the JSON config")
        sp.add_argument("--check", action="store_true",
                        help="exit 5 when an identity check fails")
        sp.add_argument("--refine", action="store_true",
                        help="double the spectral grids before running")
        sp.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
