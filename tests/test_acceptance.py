"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
Scattering data is cached across criteria (the pipeline computes it once per
potential), so later criteria report marginal time only.
"""

import time

import numpy as np
import pytest

import halfline as hl
from conftest import (RANK_ONE_FAMILY, TWO_SITE, closed_form_bound_state,
                      closed_form_omega, shift_identity, shift_symbol_apply,
                      symbol_remainder)

GRID = hl.GridSpec()                      # m_theta=512, n_site=128, m_beta=1024


class _Timer:
    def __init__(self, num, desc, budget=None):
        self.num, self.desc, self.budget = num, desc, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        if exc_type is not None:
            status = "FAIL"
        elif self.budget is not None and dt >= self.budget:
            status = f"FAIL: over budget {self.budget:g}s"
        else:
            status = "PASS"
        print(f"\n[acceptance] {self.num:>2} {self.desc}: {status} ({dt:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert dt < self.budget, f"runtime {dt:.1f}s exceeds budget {self.budget}s"
        return False


def test_criterion_01_free_case_identities(scatter_cache, operator_stage):
    with _Timer(1, "free-case identities", budget=5.0):
        g = hl.GridSpec(m_theta=256, n_site=64, m_beta=512)
        p = hl.zero_potential()
        d = scatter_cache(p, g)
        grid = hl.quadrature_grid(g.m_theta, g.n_site)
        assert np.max(np.abs(d.omega - 1.0)) <= 1e-10
        assert np.max(np.abs(d.eta)) <= 1e-10
        S = hl.scattering_operator(d, grid)
        assert np.max(np.abs(S - np.eye(g.n_site))) <= 1e-10
        W = hl.wave_operator(d, grid, g.tol_threshold)
        assert np.max(np.abs(W - np.eye(g.n_site))) <= 1e-10
        assert hl.wave_identity_residual(d, grid, W) <= 1e-10
        assert shift_identity(g)["composite"] <= 1e-10
        assert operator_stage(p, g)["wave_symbol"]["s1"] <= 1e-10
        rep = hl.winding_report(d, p, g)
        assert rep.winding == 0 and abs(rep.raw_phase_total) <= 1e-10
        assert hl.levinson_residual(d) <= 1e-10


def test_criterion_02_rank_one_closed_forms(scatter_cache):
    with _Timer(2, "rank-one closed forms", budget=10.0):
        for v0 in RANK_ONE_FAMILY:
            p = hl.rank_one(v0)
            d = scatter_cache(p, GRID)
            assert np.max(np.abs(d.omega - closed_form_omega(v0, np.exp(-1j * d.theta)))) <= 1e-10
            assert abs(d.omega_plus - (1.0 - 2.0 * v0)) <= 1e-12
            assert abs(d.omega_minus - (1.0 + 2.0 * v0)) <= 1e-12
            zb = closed_form_bound_state(v0)
            if zb is None:
                assert d.count_n == 0
            else:
                assert d.count_n == 1
                assert abs(d.bound_states[0] - zb) <= 1e-8


def test_criterion_03_classical_levinson(scatter_cache, random_potentials):
    with _Timer(3, "classical Levinson with matrix-count oracle", budget=60.0):
        pots = [hl.rank_one(v) for v in RANK_ONE_FAMILY] + list(random_potentials)
        for i, p in enumerate(pots):
            d = scatter_cache(p, GRID)
            assert hl.levinson_residual(d) <= 1e-3 * np.pi, (i, p.values[:3])
            ev = hl.hamiltonian_truncation(p, 2000).eigenvalues()
            n_matrix = int(np.sum(np.abs(ev) > 1.0 + 1e-9))
            assert n_matrix == d.count_n, (i, p.values[:3])


def test_criterion_04_wave_operator_identity(operator_stage):
    with _Timer(4, "wave-operator identity and refinement order", budget=120.0):
        assert operator_stage(hl.rank_one(0.75), GRID)["wave_identity"]["residual"] <= 1e-6
        out = operator_stage(hl.table_potential(TWO_SITE, rho=3.0), GRID)["wave_identity"]
        base, fine = out["residual"], out["residual_refined"]
        assert base <= 1e-6
        assert base / fine >= 4.0


def test_criterion_05_coupling_symbol_compactness(operator_stage):
    with _Timer(5, "coupling-operator symbol compactness", budget=120.0):
        out = operator_stage(hl.rank_one(0.75), GRID)["coupling_symbol"]
        assert out["rank_tenth"] <= GRID.m_beta // 16
        assert out["rel_change"] < 0.05


def test_criterion_06_wave_symbol_compactness(operator_stage):
    with _Timer(6, "wave-operator symbol remainder compactness", budget=120.0):
        for p in (hl.rank_one(0.75), hl.table_potential(TWO_SITE, rho=3.0)):
            out = operator_stage(p, GRID)["wave_symbol"]
            assert out["rank_tenth"] <= GRID.n_site // 8
            assert out["rel_change"] < 0.05


def test_criterion_07_topological_levinson(scatter_cache, random_potentials):
    pots = [hl.rank_one(v) for v in RANK_ONE_FAMILY]
    pots.append(hl.table_potential(TWO_SITE, rho=3.0))
    pots.extend(random_potentials)
    for p in pots:                 # scattering inputs are criterion-3 work
        scatter_cache(p, GRID)
    with _Timer(7, "topological Levinson (winding = N)", budget=30.0):
        for i, p in enumerate(pots):
            d = scatter_cache(p, GRID)
            rep = hl.winding_report(d, p, GRID)
            assert rep.winding == d.count_n, (i, p.values[:3])
            em, ep = hl.eta_endpoints(d)
            assert rep.per_edge["scattering"] == pytest.approx((ep - em) / np.pi, abs=0.02)
            assert rep.per_edge["gamma_minus"] == pytest.approx(-d.delta_minus, abs=0.02)
            assert rep.per_edge["gamma_plus"] == pytest.approx(-d.delta_plus, abs=0.02)
        # resonant cases carry the half-integer correction and winding zero
        for v0 in (0.5, -0.5):
            d = scatter_cache(hl.rank_one(v0), GRID)
            assert d.delta_plus + d.delta_minus == 0.5
            assert hl.winding_report(d, hl.rank_one(v0), GRID).winding == 0


def test_criterion_08_shift_identity():
    with _Timer(8, "shift-operator identity and symbol remainder", budget=120.0):
        assert shift_identity(GRID)["composite"] <= 1e-6
        T = np.diag(np.ones(GRID.n_site - 1), -1)
        rep = symbol_remainder(T, GRID, shift_symbol_apply)
        assert rep["rank_tenth"] <= GRID.m_beta // 16
        fine = symbol_remainder(T, GRID, shift_symbol_apply, m_beta=2 * GRID.m_beta)
        s1, s1f = rep["s1"], fine["s1"]
        assert abs(s1f - s1) / s1 < 0.05


def test_criterion_09_decay_estimate(random_potentials):
    with _Timer(9, "Jost tail decay estimate", budget=120.0):
        pots = [hl.rank_one(v) for v in RANK_ONE_FAMILY]
        pots.append(hl.table_potential(TWO_SITE, rho=3.0))
        pots.extend(random_potentials)
        for i, p in enumerate(pots):
            rep = hl.decay_scan(p, GRID.m_theta)
            assert rep.max_violation <= 1e-10, (i, p.values[:3])


def test_criterion_10_isometry_and_completeness(scatter_cache):
    with _Timer(10, "wave-operator isometry and completeness", budget=60.0):
        p = hl.rank_one(0.75)
        d = scatter_cache(p, GRID)
        W = hl.wave_operator(d, hl.quadrature_grid(GRID.m_theta, GRID.n_site),
                             GRID.tol_threshold)
        assert hl.wave_isometry_defect(W) <= 1e-6
        assert hl.completeness_defect(W, p) <= 1e-4
