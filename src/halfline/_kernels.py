"""Hot recursion kernels.

Every Jost-type quantity is stepped by one compiled site step, `_step.c`,
one call per set of points where that set is read: each cut grid with its
kept rows, the scattering edge, the bound-state scan and its bisection
midpoints, the thresholds, the bound states and the decay scan.  It carries
each block of 16 points through all sites of the table in registers.  Its
one entry takes complex points: real ones (off-axis points, the thresholds)
are stepped with zero imaginary parts, which stay zero, so every kernel
returns complex128.  For the decay scan the same entry also reduces
max_k |t(n) - 1| per site while the block is in registers, equal to numpy's
np.max(np.abs(t - 1.0)) bit for bit (the `_step.c` header says why), so no
rows are stored.  Only `regular_values`, which steps n_site rows and not
the table, stays numpy.

The step evaluates ((2z - 2V(n)) zeta) t(n) - zeta^2 t(n+1) with the
operations of the per-site numpy loop (`reference_jost_rows` in the tests)
in their order, and forms a complex product as numpy 2.4 does on a CPU with
FMA: re = fma(ar, br, -ai bi), im = fma(ar, bi, ai br).  Its values equal
that loop's bit for bit.  Each point is stepped on its own, so a value does
not depend on the batch it came in.  A long Jost grid (table sites x
points >= SPLIT_WORK) on a machine with a second CPU is cut in two halves of
points, the second stepped meanwhile on a worker thread: ctypes releases the
GIL for the call.  The decay scan steps its grid in one thread.

The first import builds `_step.c` with gcc and CFLAGS into the build
artifact `__pycache__/_step-<hash>.so` beside this file, named by the hash
of the source and the flags; it compiles to a temporary file, renames it
into place and deletes the artifacts of other hashes, and later imports only
load it.  Without gcc on PATH, or without a writable `__pycache__`, the
import raises an ImportError that says which.

All Jost-type kernels work with the scaled variable t(n) = theta(n, z) / zeta^n.
Backward stepping of t is stable: the unwanted second solution corresponds to
t ~ zeta^(-2n), which decays in the direction of decreasing n, and on the
spectral cut both branches stay bounded.  The tail initialisation t = 1 is
exact for finitely supported potentials.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import threading

import numpy as np

#: how `_step.c` is built: -march=native for the CPU's FMA and vector
#: instructions, -ffp-contract=off to fuse no product that numpy rounds apart
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
          "-shared", "-fPIC")

#: table sites x points from which the second half of a grid's points is
#: stepped on a worker thread
SPLIT_WORK = 2 ** 22


def _build() -> str:
    """The path of the compiled step, built from `_step.c` if absent."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_step.c")
    with open(source, "rb") as f:
        tag = hashlib.sha256(f.read() + " ".join(CFLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(here, "__pycache__")
    lib = os.path.join(cache, f"_step-{tag}.so")
    if os.path.exists(lib):
        return lib
    gcc = shutil.which("gcc")
    if gcc is None:
        raise ImportError(f"no C compiler (gcc) on PATH to build {source}")
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", "_step-", cache)
    except OSError as exc:
        raise ImportError(f"cannot write the build of {source} to {cache}: {exc}") from exc
    os.close(fd)
    try:
        run = subprocess.run([gcc, *CFLAGS, "-o", tmp, source, "-lm"],
                             capture_output=True, text=True)
        if run.returncode != 0:
            raise ImportError(f"gcc failed to build {source}:\n{run.stderr}")
        os.chmod(tmp, 0o755)
        os.replace(tmp, lib)        # atomic: a concurrent import sees all or nothing
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    # artifacts of other sources or flags; a temporary file (8 characters
    # from mkstemp) that a concurrent build still writes never matches
    for name in os.listdir(cache):
        if re.fullmatch(r"_step-[0-9a-f]{16}\.so", name) and name != os.path.basename(lib):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(cache, name))
    return lib


#: the compiled step: step(V, r_hi, r_lo, n, zeta, two_z, t1, t2, rows,
#: stride, n_rows, dev) steps the complex rows (t1, t2) = (r_hi, r_hi+1) of
#: n points down to (r_lo, r_lo+1) in place, writing row r_lo + i of the
#: points to rows[i] for i < n_rows (row r is t(r - 1)) and, unless dev is
#: NULL, raising the float64 dev[i] to the max over the points of
#: |row r_lo + i - 1|
_STEP = ctypes.CDLL(_build()).step
_STEP.restype = None
_STEP.argtypes = ([ctypes.c_void_p] + [ctypes.c_long] * 3 + [ctypes.c_void_p] * 5
                  + [ctypes.c_long] * 2 + [ctypes.c_void_p])


def _work(zeta, two_z):
    """The complex128 rows zeta, 2z, t(r), t(r+1) of the points, the last two
    at the free tail 1."""
    zeta = np.atleast_1d(zeta)
    work = np.empty((4, zeta.shape[0]), np.complex128)
    work[0], work[1], work[2:] = zeta, two_z, 1.0
    return work


def _stepper(V, work, rows=None, dev=None):
    """step(r_hi, r_lo, lo, hi): the compiled step on the points lo:hi of
    work, from its rows t(r_hi), t(r_hi+1) down to t(r_lo), t(r_lo+1),
    writing their t(r_lo..) to rows when given and raising dev[i] to the
    max of |t(r_lo + i - 1) - 1| when dev is given.  The caller keeps V,
    work, rows and dev alive while it steps."""
    size = work.itemsize
    v, zeta, span = V.ctypes.data, work.ctypes.data, work.shape[1] * size
    out, n_rows, stride = (zeta, 0, 0) if rows is None else (rows.ctypes.data, *rows.shape)
    dev = None if dev is None else dev.ctypes.data

    def step(r_hi, r_lo, lo, hi):
        k = zeta + lo * size
        _STEP(v, r_hi, r_lo, hi - lo, k, k + span, k + 2 * span, k + 3 * span,
              out + lo * size, stride, n_rows, dev)
    return step


def _halves(fn, V, n):
    """[fn(0, n)], or for a long grid on a machine with a second CPU
    [fn(0, half), fn(half, n)], the second on a worker thread that has ended
    when this returns.  An exception in either half reaches the caller."""
    if V.shape[0] * n < SPLIT_WORK or n < 2 or (os.cpu_count() or 1) < 2:
        return [fn(0, n)]
    half, second = n // 2, {}

    def second_half():
        try:
            second["value"] = fn(half, n)
        except BaseException as exc:        # re-raised in the caller's thread
            second["error"] = exc

    worker = threading.Thread(target=second_half, name="halfline-step", daemon=True)
    worker.start()
    try:
        first = fn(0, half)
    finally:
        worker.join()
    if "error" in second:
        raise second["error"]
    return [first, second["value"]]


def _omega(V, work, rows=None):
    """t(-1) on every point of work, stepped down the whole table, and
    t(-1..) written to rows when given."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    step = _stepper(V, work, rows)
    _halves(lambda lo, hi: step(V.shape[0], 0, lo, hi), V, work.shape[1])
    return work[2].copy()


def jost_scaled(V, zeta, two_z, n_keep):
    """Omega(z) = t(-1) and the scaled Jost values t(n) = theta(n)/zeta^n
    for n = -1..n_keep on every point.

    Returns (omega, rows), both complex128; rows has shape (n_keep + 2,
    points), row index n + 1, and its row 0 is omega.  Real zeta and 2z
    give values with zero imaginary part.
    """
    work = _work(zeta, two_z)
    rows = np.ones((int(n_keep) + 2, work.shape[1]), work.dtype)
    return _omega(V, work, rows), rows


def jost_function_values(V, zeta, two_z):
    """Omega(z) = t(-1) on a batch of spectral points, complex128; real input
    gives zero imaginary parts."""
    return _omega(V, _work(zeta, two_z))


def _deviations(V, zeta, two_z):
    """max over the points of |t(n) - 1| for the sites n = 0..L-2, as
    np.max(np.abs(t - 1.0)) gives it, in one call of the compiled step."""
    V, work = np.ascontiguousarray(V, dtype=np.float64), _work(zeta, two_z)
    dev = np.zeros(max(V.shape[0] - 1, 0))
    _stepper(V, work, dev=dev)(V.shape[0], 1, 0, work.shape[1])
    return dev


def decay_scan(V, zeta, two_z, bounds, rho):
    """Roll the Jost recursion over all points at once, tracking the worst
    excess of max_k |t(n) - 1| over bounds[n] and the empirical envelope
    constant max_n (1+n)^(rho-2) max_k |t(n) - 1|.

    The sites checked are n = 0..L-2, the ones the recursion steps to.
    Returns (worst_violation, c_empirical); (-inf, 0) when there are none.
    """
    dev = _deviations(V, zeta, two_z)
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
