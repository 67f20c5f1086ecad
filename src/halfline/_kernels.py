"""Hot recursion kernels.

The three-term recurrence has to be stepped site by site, which is the one
place where plain numpy loops hurt (random decaying potentials carry tables
with ~10^5 sites).  Everything here is plain numpy and Python; the query
picks the form:

* A grid of points is stepped all at once, one row of points per site, with
  every ufunc writing into one of three preallocated rows.  A site then costs
  five ufunc calls however many points there are, and no allocation.  A long
  grid (table sites x points >= SPLIT_WORK) on a machine with a second CPU
  is cut in two halves of points, the second stepped meanwhile by a forked
  child process.  A lone point is stepped as two copies of itself, since
  numpy steps a one-element array through a different loop.
* A few real points (the bisection midpoints of the bound-state search,
  single points asked for by `jost_function`) are stepped one at a time as
  Python floats: at one point the fixed cost of a ufunc call is what
  dominates.

Every form evaluates ((2z - 2V(n)) zeta) t(n) - zeta^2 t(n+1) with the same
operations in the same order, and each point independently of the others, so
the value does not depend on the form.  Real input (off-axis points, the
thresholds) is stepped in float64; its value equals the real part of the
complex recursion at the same point.

All Jost-type kernels work with the scaled variable t(n) = theta(n, z) / zeta^n.
Backward stepping of t is stable: the unwanted second solution corresponds to
t ~ zeta^(-2n), which decays in the direction of decreasing n, and on the
spectral cut both branches stay bounded.  The tail initialisation t = 1 is
exact for finitely supported potentials.
"""

from __future__ import annotations

import os
import pickle
import signal

import numpy as np

#: real queries with at most this many points are stepped as Python floats
SCALAR_POINTS = 4

#: table sites x points from which half of a grid is stepped in a forked
#: child (each half still pays the per-site cost of the ufunc calls in full,
#: so only the per-point share of a long grid's stepping is halved)
SPLIT_WORK = 2 ** 26

#: sites whose deviations the decay scan reduces in one vectorised call
DECAY_ROWS = 64


def _prepare(V, zeta, two_z):
    """Contiguous float64 table and point arrays; the points are complex128
    unless both zeta and 2z are real."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    zeta = np.atleast_1d(zeta)
    dtype = np.float64 if np.result_type(zeta, two_z).kind in "biuf" else np.complex128
    zeta = np.ascontiguousarray(zeta, dtype=dtype)
    two_z = np.ascontiguousarray(np.broadcast_to(two_z, zeta.shape), dtype=dtype)
    return V, zeta, two_z


def _jost_steps(V, zeta, two_z):
    """Step t backward through the table, yielding (n, t(n)) for
    n = L-2, L-3, ..., -1; t(L) = t(L-1) = 1 is the exact free tail.

    The yielded row is overwritten two steps later; copy what must be kept.
    """
    if zeta.shape[0] == 1:      # numpy steps a one-element array through another loop
        pair = _jost_steps(V, np.repeat(zeta, 2), np.repeat(two_z, 2))
        yield from ((n, t[:1]) for n, t in pair)
        return
    z2 = zeta * zeta
    c = np.empty_like(zeta)
    t_next, t_cur = np.ones_like(zeta), np.ones_like(zeta)
    for n, two_v in zip(range(V.shape[0] - 2, -2, -1), (2.0 * V)[::-1].tolist()):
        np.subtract(two_z, two_v, out=c)
        np.multiply(c, zeta, out=c)
        np.multiply(c, t_cur, out=c)
        np.multiply(z2, t_next, out=t_next)
        np.subtract(c, t_next, out=t_next)      # t(n) replaces t(n+2)
        t_next, t_cur = t_cur, t_next
        yield n, t_cur


def _kept_rows(V, zeta, two_z, n_keep, n_cols):
    """t(-1) on every point, and t(n) for n = -1..n_keep on the first n_cols
    points, row index n + 1."""
    rows = np.ones((n_keep + 2, n_cols), zeta.dtype)
    t = np.ones_like(zeta)                      # t(-1) of the empty table
    for n, t in _jost_steps(V, zeta, two_z):
        if n <= n_keep:
            rows[n + 1] = t[:n_cols]
    return t, rows


def _deviations(V, zeta, two_z):
    """max over the points of |t(n) - 1|, for the sites n = 0..L-2."""
    top = max(V.shape[0] - 1, 0)
    dev = np.empty(top)
    rows = np.empty((DECAY_ROWS, zeta.shape[0]), zeta.dtype)   # rows[i] = t(n + i)
    for n, t in _jost_steps(V, zeta, two_z):
        if n < 0:
            break
        rows[n % DECAY_ROWS] = t
        if n % DECAY_ROWS == 0:
            dev[n:top] = np.max(np.abs(rows[:top - n] - 1.0), axis=1)
            top = n
    return dev


def _omega_scalar(V, zeta, two_z) -> float:
    """t(-1) at one real point, stepped as Python floats."""
    coef = ((two_z - 2.0 * V) * zeta).tolist()
    z2 = float(zeta * zeta)
    t_next = t_cur = 1.0
    for c in reversed(coef):
        t_next, t_cur = t_cur, c * t_cur - z2 * t_next
    return t_cur


def jost_scaled(V, zeta, two_z, n_keep, n_cols=None):
    """Omega(z) = t(-1) on every point, and the scaled Jost values
    t(n) = theta(n)/zeta^n for n = -1..n_keep on the first n_cols points
    (all by default).

    Returns (omega, rows); rows has shape (n_keep + 2, n_cols), row index
    n + 1, and its row 0 is the first n_cols values of omega.  Real zeta and
    2z give real values.
    """
    V, zeta, two_z = _prepare(V, zeta, two_z)
    n_keep = int(n_keep)
    n_cols = zeta.shape[0] if n_cols is None else int(n_cols)
    parts = _split_points(_kept_rows, V, zeta, two_z,
                          lambda lo, hi: (n_keep, min(max(n_cols - lo, 0), hi - lo)))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(a, axis=-1) for a in zip(*parts))


def jost_function_values(V, zeta, two_z):
    """Omega(z) = t(-1) on a batch of spectral points (real for real input)."""
    V, zeta, two_z = _prepare(V, zeta, two_z)
    n = zeta.shape[0]
    if zeta.dtype == np.float64 and n <= SCALAR_POINTS:
        return np.array([_omega_scalar(V, z, t) for z, t in zip(zeta, two_z)])
    parts = _split_points(_kept_rows, V, zeta, two_z, lambda lo, hi: (-1, 0))
    return np.concatenate([omega for omega, _ in parts])


def decay_scan(V, zeta, two_z, bounds, rho):
    """Roll the Jost recursion over all points at once, tracking the worst
    excess of max_k |t(n) - 1| over bounds[n] and the empirical envelope
    constant max_n (1+n)^(rho-2) max_k |t(n) - 1|.

    The sites checked are n = 0..L-2, the ones the recursion steps to.
    Returns (worst_violation, c_empirical); (-inf, 0) when there are none.
    """
    V, zeta, two_z = _prepare(V, zeta, two_z)
    dev = np.max(_split_points(_deviations, V, zeta, two_z), axis=0)
    sites = np.arange(dev.shape[0])
    worst = np.max(dev - bounds[:dev.shape[0]], initial=-np.inf)
    c_emp = np.max(dev * (1.0 + sites) ** (float(rho) - 2.0), initial=0.0)
    return float(worst), float(c_emp)


def regular_values(V, two_z, n_max):
    """Forward recursion for the regular solution, rows n = -1..n_max.

    Boundary pair (0, 1); real input gives a real table.
    """
    two_z = np.atleast_1d(np.asarray(two_z))
    V = np.asarray(V, dtype=float)
    Vp = np.zeros(max(n_max + 1, 1))
    k = min(len(V), n_max + 1)
    Vp[:k] = V[:k]
    out = np.zeros((n_max + 2, two_z.shape[0]), dtype=np.result_type(two_z.dtype, np.float64))
    out[1] = 1.0
    for n in range(0, n_max):
        out[n + 2] = (two_z - 2.0 * Vp[n]) * out[n + 1] - out[n]
    return out


# ---------------------------------------------------------------------------
# the second CPU
# ---------------------------------------------------------------------------

def _split_points(fn, V, zeta, two_z, args=lambda lo, hi: ()):
    """[fn(V, zeta, two_z, *args(0, n))] for the n points, or for a long
    grid on a machine with a second CPU, fn over the two halves of the
    points, with args(lo, hi) for the points lo:hi.  The second half is
    stepped meanwhile by a forked child, which reads the table through
    copy-on-write and sends its value back pickled through a pipe; no
    process outlives the call."""
    n = zeta.shape[0]
    half = n // 2
    if (V.shape[0] * n < SPLIT_WORK or n < 2 or not hasattr(os, "fork")
            or (os.cpu_count() or 1) < 2):
        return [fn(V, zeta, two_z, *args(0, n))]
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:                 # no second process to be had
        os.close(read_end)
        os.close(write_end)
        return [fn(V, zeta, two_z, *args(0, n))]
    if pid == 0:                    # the child: no atexit hook or finaliser runs in it
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as replies:
                pickle.dump(fn(V, zeta[half:], two_z[half:], *args(half, n)),
                            replies, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    try:
        os.close(write_end)
        with open(read_end, "rb") as replies:
            first = fn(V, zeta[:half], two_z[:half], *args(0, half))
            rest = replies.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0:
        raise RuntimeError(f"the child stepping the second half of the points "
                           f"ended with exit status {status}")
    return [first, pickle.loads(rest)]
