"""Spans around the calls into each module of `halfline`, recorded from the
benchmark's side.

`Tracer.install` replaces each public name in `SITES` by a timing wrapper at
the place its caller looks it up: `cli` binds its imports at import time,
`_kernels` is read as a module attribute at every call, and
`rescaled.wave_symbol_remainder` imports `scattering_grid` at call time.
A span records name, start, end, parent span and operation id; the spans stay
in memory until `write` puts them out at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _kernel_attrs(V, zeta_or_two_z, *rest):
    return {"sites": len(V), "points": int(np.size(zeta_or_two_z))}


def _regular_attrs(V, two_z, n_max):
    return {"sites": int(n_max), "points": int(np.size(two_z))}


def _grid_attrs(p, g):
    return {"grid": [p.content_hash(), g.m_theta]}


def _multiplier_attrs(bg, symbol):
    return {"bytes": bg.m_beta ** 2 * 16}       # the complex m_beta x m_beta matrix


#: (module, name where the caller looks it up, layer, argument summary)
SITES = (
    ("halfline._kernels", "jost_function_values", "_kernels", _kernel_attrs),
    ("halfline._kernels", "jost_scaled", "_kernels", _kernel_attrs),
    ("halfline._kernels", "decay_scan", "_kernels", _kernel_attrs),
    ("halfline._kernels", "regular_values", "_kernels", _regular_attrs),
    ("halfline.cli", "cmd_report", "cli", None),
    ("halfline.cli", "load_config", "cli", None),
    ("halfline.cli", "make_potential", "model", None),
    ("halfline.cli", "scattering_grid", "scattering", _grid_attrs),
    ("halfline.cli", "levinson_residual", "scattering", None),
    ("halfline.cli", "wave_identity_residual", "specops", None),
    ("halfline.cli", "coupling_symbol_stability", "rescaled", None),
    ("halfline.cli", "wave_symbol_stability", "rescaled", None),
    ("halfline.cli", "shift_identity_check", "rescaled", None),
    ("halfline.cli", "assemble_boundary", "topology", None),
    ("halfline.cli", "winding_number", "topology", None),
    ("halfline.scattering", "scattering_grid", "scattering", _grid_attrs),
    ("halfline.scattering", "levinson_residual", "scattering", None),
    ("halfline.scattering", "classify_thresholds", "scattering", None),
    ("halfline.scattering", "bound_states", "scattering", None),
    ("halfline.scattering", "jost_function", "scattering", None),
    ("halfline.model", "TridiagonalTruncation.eigenvalues", "model", None),
    ("halfline.solutions", "decay_scan", "solutions", None),
    ("halfline.specops", "correction_operator", "specops", None),
    ("halfline.specops", "wave_operator", "specops", None),
    ("halfline.specops", "shift_identity_residual", "specops", None),
    ("halfline.rescaled", "wave_operator", "specops", None),
    ("halfline.rescaled", "scattering_operator", "specops", None),
    ("halfline.rescaled", "cos_sin_coupling", "specops", None),
    ("halfline.rescaled", "coupling_symbol_remainder", "rescaled", None),
    ("halfline.rescaled", "wave_symbol_remainder", "rescaled", None),
    ("halfline.rescaled", "fourier_multiplier_matrix", "rescaled", _multiplier_attrs),
    ("halfline.topology", "winding_report", "topology", None),
    ("halfline.topology", "assemble_boundary", "topology", None),
    ("halfline.topology", "winding_number", "topology", None),
)

FIELDS = ("id", "parent", "op", "layer", "name", "start", "end", "attrs")


class Tracer:
    """Spans of the calls made while installed, kept as lists in FIELDS order."""

    def __init__(self):
        self.spans = []
        self._open = []         # ids of the spans not yet ended, innermost last
        self._undo = []
        self.op = None

    def install(self):
        for module, path, layer, attrs in SITES:
            owner = importlib.import_module(module)
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if not hasattr(owner, name):    # gone from the program: its metrics read 0
                continue
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(original, layer, name, attrs))
            self._undo.append((owner, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, layer, name, attrs):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), open_[-1] if open_ else None, self.op, layer, name,
                    0.0, 0.0, attrs(*args, **kwargs) if attrs else None]
            spans.append(span)
            open_.append(span[0])
            span[5] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                open_.pop()
        return traced

    @contextmanager
    def operation(self, op_id: int, label: str):
        """The root span of one benchmark operation."""
        span = [len(self.spans), None, op_id, "bench", "op", time.perf_counter(), 0.0,
                {"input": label}]
        self.spans.append(span)
        self._open.append(span[0])
        self.op = op_id
        try:
            yield
        finally:
            span[6] = time.perf_counter()
            self._open.pop()
            self.op = None

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [s[6] - s[5] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[6] - s[5]
    return own


def layer_metrics(spans) -> dict:
    """The per-layer metrics, name -> (value, unit)."""
    own = self_times(spans)
    self_s = defaultdict(float)
    total = defaultdict(float)
    count = defaultdict(int)
    for s, t in zip(spans, own):
        self_s[s[3]] += t
        total[f"{s[3]}.{s[4]}"] += s[6] - s[5]
        count[f"{s[3]}.{s[4]}"] += 1
    kernels = [s for s in spans if s[3] == "_kernels"]
    site_points = sum(s[7]["sites"] * s[7]["points"] for s in kernels)
    searches = {s[0] for s in spans if s[4] == "bound_states"}
    in_search = defaultdict(int)
    for s in kernels:
        if s[1] in searches:
            in_search[s[1]] += 1
    return {
        "kernels.calls": (len(kernels), "count"),
        "kernels.self_s": (self_s["_kernels"], "s"),
        "kernels.site_points": (site_points, "count"),
        "kernels.site_points_per_s": (
            site_points / self_s["_kernels"] if self_s["_kernels"] > 0 else 0.0, "1/s"),
        "kernels.few_point_calls": (sum(s[7]["points"] <= 4 for s in kernels), "count"),
        "scattering.grid_builds": (count["scattering.scattering_grid"], "count"),
        "scattering.distinct_grids": (
            len({tuple(s[7]["grid"]) for s in spans if s[4] == "scattering_grid"}), "count"),
        "scattering.self_s": (self_s["scattering"], "s"),
        "scattering.bound_states_s": (total["scattering.bound_states"], "s"),
        # the first kernel call of a search is its scan; the rest bisect
        "scattering.bisection_calls": (sum(max(n - 1, 0) for n in in_search.values()), "count"),
        "scattering.thresholds_s": (total["scattering.classify_thresholds"], "s"),
        "model.eigensolves": (count["model.eigenvalues"], "count"),
        "model.eigensolve_s": (total["model.eigenvalues"], "s"),
        "solutions.decay_scan_s": (total["solutions.decay_scan"], "s"),
        "solutions.self_s": (self_s["solutions"], "s"),
        "specops.wave_identity_s": (total["specops.wave_identity_residual"], "s"),
        "specops.correction_s": (total["specops.correction_operator"], "s"),
        "specops.self_s": (self_s["specops"], "s"),
        "rescaled.coupling_s": (total["rescaled.coupling_symbol_stability"], "s"),
        "rescaled.wave_symbol_s": (total["rescaled.wave_symbol_stability"], "s"),
        "rescaled.shift_s": (total["rescaled.shift_identity_check"], "s"),
        "rescaled.self_s": (self_s["rescaled"], "s"),
        "rescaled.multiplier_matrices": (count["rescaled.fourier_multiplier_matrix"], "count"),
        "rescaled.multiplier_bytes": (
            sum(s[7]["bytes"] for s in spans if s[4] == "fourier_multiplier_matrix"), "B"),
        "topology.boundary_s": (total["topology.assemble_boundary"], "s"),
        "topology.winding_s": (total["topology.winding_number"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
    }

