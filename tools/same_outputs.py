"""Run the pipeline commands from two source trees and compare what they leave.

    python tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of this repository; each command runs as
`python -m halfline.cli` with PYTHONPATH=<tree>/src.  `scatter`, `waveop`,
`winding` and `report` run with --check, with and without --refine, on
rank_one 0.75, the two-site table (0.3, -0.2) and `random_decaying` seeds 0
and 3, and without --refine on the 1,665,610-site `random_decaying` table
with rho_gen 2.6, on the 11,066-site `random_decaying` seed 978390736 with
rho_gen 4 (the sweep's size, whose calls are cut into chunks above
`_kernels.FLOOR`) and on six configs that are refused: rank_one 0.51
(`scatter` and `report` exit 5 on the Levinson gate), the 400-site table of
3.0 (exit 4, the Jost recursion overflows), rank_one 0.75 at small grids
with z_max 1.05 (exit 4, z_max too small), rank_one 0.75 with beta_max
5.5 (`waveop` and `report` exit 4: R's interior Gram defect exceeds its
guard, and the message names it; at this window the defect peaks on the
block's last site, so a guard that reads a different block prints another
value), rank_one 0.75 with m_beta 512 (`waveop` and `report` exit 4: R at
2 m_beta passes its guard and R at m_beta, formed on the operator stage's
lane, does not), and rank_one 0.5 with the threshold tolerance 0.05
(`waveop` and `report` exit 4: the coarse cut grid is resonant, which the
operator stage finds on its lane).  `validate` runs once per config.
One more run per config and tree, `python -c LIBRARY`, prints the exact bits
of library results that no command writes, or what they raise:
`decay_scan(p, 512)`, `jost_solution` at z = 2 and at zeta = e^(-0.3i),
`regular_solution` at z = 2, all to n_max 20, and on tables of at most 2,000
sites `volterra_jost` at e^(-0.3i); and at m_theta 256, n_site 64 and m_beta
512 the operator matrices that `report.json` only summarises:
`energy_rescale_matrix`, `pdo_apply` on it, `wave_operator`,
`scattering_operator` and `correction_operator` on all sites, and
`wave_identity_residual`.  The four commands also run once per config
without --check, where only `report` enforces its gates (rank_one 0.51: exit 5
from `report` alone).  Last, each tree runs its own copy of each of the four
demos in `demos/`, whose stdout every change keeps: 140 runs.

Both trees write to one output directory per config, in a temporary
directory, because the directory is part of the config hash; every run
starts in the tree's root.  A run compares the bytes of every output file,
stdout with the `[N.NNs]` timings stripped, stderr and the exit code.  The
script prints each run that differs and what differs in it, then
`runs N diffs M`, and exits 1 when M > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: (name, config without its outputs block, whether it also runs with --refine)
CONFIGS = (
    ("rank_one_0.75", {"potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0}}, True),
    ("two_site", {"potential": {"kind": "table", "values": [0.3, -0.2], "rho": 3.0}}, True),
    ("random_seed_0", {"potential": {"kind": "random_decaying", "seed": 0,
                                     "amplitude": 1.5}}, True),
    ("random_seed_3", {"potential": {"kind": "random_decaying", "seed": 3,
                                     "amplitude": 1.5}}, True),
    ("random_rho_gen_2.6", {"potential": {"kind": "random_decaying", "seed": 0,
                                          "amplitude": 1.5, "rho_gen": 2.6}}, False),
    ("random_rho_gen_4", {"potential": {"kind": "random_decaying", "seed": 978390736,
                                        "amplitude": 1.5, "rho_gen": 4.0}}, False),
    ("rank_one_0.51", {"potential": {"kind": "rank_one", "v0": 0.51, "rho": 3.0}}, False),
    ("table_400_of_3", {"potential": {"kind": "table", "values": [3.0] * 400, "rho": 3.0}},
     False),
    ("z_max_1.05", {"potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                    "grids": {"m_theta": 256, "n_site": 64, "m_beta": 512, "n_edge": 1024,
                              "z_max": 1.05}}, False),
    ("beta_max_5.5", {"potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                      "grids": {"beta_max": 5.5}}, False),
    ("m_beta_512", {"potential": {"kind": "rank_one", "v0": 0.75, "rho": 3.0},
                    "grids": {"m_beta": 512}}, False),
    ("resonant_0.5", {"potential": {"kind": "rank_one", "v0": 0.5, "rho": 3.0},
                      "tolerances": {"threshold": 0.05}}, False),
)

COMMANDS = ("scatter", "waveop", "winding", "report")

DEMOS = ("demo_jost_and_levinson.py", "demo_rescaled_symbol.py",
         "demo_topological_levinson.py", "demo_wave_operator_identity.py")

TIMING = re.compile(rb"\[\d+\.\d+s\]")

#: run as `python -c LIBRARY POTENTIAL`: one line per call, its result's
#: bytes in hex or the type and message of what it raised
LIBRARY = """
import dataclasses, functools, json, sys
import numpy as np
from halfline import (GridSpec, beta_grid, correction_operator, decay_scan,
                      energy_rescale_matrix, jost_solution, make_potential, pdo_apply,
                      quadrature_grid, regular_solution, scattering_grid, scattering_operator,
                      volterra_jost, wave_identity_residual, wave_operator)
p, cut = make_potential(json.loads(sys.argv[1])), np.exp(-0.3j)
g = GridSpec(m_theta=256, n_site=64, m_beta=512, n_edge=1024)
bg, grid = beta_grid(g.m_beta, g.beta_max), quadrature_grid(g.m_theta, g.n_site)
d = functools.cache(lambda: scattering_grid(p, g))
W = functools.cache(lambda: wave_operator(d(), grid, g.tol_threshold))
calls = {"decay_scan": lambda: dataclasses.astuple(decay_scan(p, 512)),
         "jost_solution real": lambda: jost_solution(p, 2.0, 20),
         "jost_solution cut": lambda: jost_solution(p, cut, 20),
         "regular_solution real": lambda: regular_solution(p, 2.0, 20),
         "energy_rescale_matrix": lambda: energy_rescale_matrix(bg, g.n_site),
         "pdo_apply R": lambda: pdo_apply(bg, energy_rescale_matrix(bg, g.n_site)),
         "wave_operator": W,
         "scattering_operator": lambda: scattering_operator(d(), grid),
         "correction_operator": lambda: correction_operator(d(), grid),
         "wave_identity_residual": lambda: wave_identity_residual(d(), grid, W())}
if p.support_end <= 2000:
    calls["volterra_jost cut"] = lambda: volterra_jost(p, cut, 20)
for name, call in calls.items():
    try:
        print(name, np.asarray(call()).tobytes().hex())
    except Exception as exc:
        print(name, type(exc).__name__, exc)
"""


def run(tree: Path, argv: list, out: Path) -> dict:
    """What `python argv` in tree's root with its source leaves: the files
    in out, stdout without the timings, stderr and exit code; out is
    emptied first."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    return {"files": files, "stdout": TIMING.sub(b"[]", proc.stdout),
            "stderr": proc.stderr, "exit": proc.returncode}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "halfline").is_dir():
            ap.error(f"{tree} has no src/halfline")
    runs = diffs = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as work:
        batches = []
        for name, config, refine in CONFIGS:
            out, cfg = Path(work, name, "out"), Path(work, name + ".json")
            cfg.write_text(json.dumps({**config, "outputs": {"directory": str(out)}}))
            flag_sets = [[], ["--check"]] + ([["--check", "--refine"]] if refine else [])
            argvs = {" ".join([command, *flags]): ["-m", "halfline.cli", command, str(cfg), *flags]
                     for flags in flag_sets for command in COMMANDS}
            argvs["validate"] = ["-m", "halfline.cli", "validate", str(cfg)]
            argvs["library"] = ["-c", LIBRARY, json.dumps(config["potential"])]
            batches.append((name, out, argvs))
        # the demos write no file: their out is a directory that nothing makes
        batches.append(("demos", Path(work, "demos"), {d: [f"demos/{d}"] for d in DEMOS}))
        for name, out, argvs in batches:
            for label, argv in argvs.items():
                a, b = (run(tree, argv, out) for tree in trees)
                runs += 1
                differ = [k for k in ("stdout", "stderr", "exit") if a[k] != b[k]] + sorted(
                    f for f in a["files"].keys() | b["files"].keys()
                    if a["files"].get(f) != b["files"].get(f))
                if differ:
                    diffs += 1
                    print(f"DIFF {name} {label}: {', '.join(differ)}")
    print(f"runs {runs} diffs {diffs}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
