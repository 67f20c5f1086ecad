"""Hot recursion kernels.

Every Jost-type quantity is stepped by the compiled site steps of `_step.c`,
one call per set of points where that set is read: each cut grid with its
kept rows, the scattering edge, the bound-state scan and its bisection
midpoints, the thresholds, the bound states and the decay scan.  Only
`regular_values`, which steps n_site rows and not the table, stays numpy.
Each point is stepped on its own, so a value does not depend on its batch.

`jost_scaled` and `jost_function_values` take each point in its own
coordinate, and step it in real lanes.  `jost_points` is the one check of
that coordinate, for them and for the solutions of `halfline.solutions`;
any other input is refused with a ValueError: a real z with |z| < 1 or 2z
not finite (NaN and +-inf among them), a complex zeta off the unit circle.
  - A real array holds points z with |z| >= 1 and 2z finite, the
    thresholds included; the kernel takes zeta = `off_axis_zeta(z)` and
    2z, and returns float64.  Each is one lane of the scaled recursion
    t = theta/zeta^n, t(n-1) = ((2z - 2V(n)) zeta) t(n) - zeta^2 t(n+1), in
    the operations of the complex per-site numpy loop (`reference_jost_rows`
    in the tests), whose values it equals bit for bit.
  - A complex array holds points zeta on the cut, |zeta| = 1; the kernel
    takes 2z = 2 Re zeta, and returns complex128.  Each is two lanes, re and
    im, in split layout (`_step.c`), of the unscaled theta~(n-1) = fma(2z -
    2V(n), theta~(n), -theta~(n+1)) from (theta~(L-1), theta~(L)) = (1, zeta);
    Omega = zeta^L theta~(-1), unfused, with zeta^L to a few ulps.  Its error
    grows like L^2 eps near the thresholds, where the two solutions meet, as
    the complex loop's does, and is far smaller than that loop's elsewhere.
The kept rows are zeta theta(n) = zeta^(n+1) t(n), n = -1..n_keep, so row 0
is Omega; past the table they are the free tail zeta^(n+1).  On a table of
SPLIT_SITES sites or more and a machine with a second CPU, the second half
of the points is stepped meanwhile on a worker thread (`meanwhile`; ctypes
releases the GIL for the call).

`decay_scan` checks the decay on cut points in the same cut lanes: beside
each point a phase g = conj(zeta)^(L-1-n) turns one product per site, and the
step raises, per site, the max over the points of |theta~(n) - g|^2 =
|t(n) - 1|^2 (NaN if any is); one square root per site ends it.  Split in two
halves, each half raises its own row, and the rows are merged.

A call pays for whole blocks of BLOCK points, which the bound-state bisection
fills with the midpoints of its next levels (`scattering._bisect`).
`sturm_counts`, the library's `sturm`, is the count oracle: Sturm counts from
LDL^T pivots, four chains side by side, independent of the Jost step.

The first import builds `_step.c` with gcc and CFLAGS into the build
artifact `__pycache__/_step-<hash>.so` beside this file, named by the hash
of the source and the flags; it compiles to a temporary file, renames it
into place and deletes the artifacts of other hashes, and later imports only
load it.  Without gcc on PATH, or without a writable `__pycache__`, the
import raises an ImportError that says which.

Backward stepping is stable: off the cut the unwanted solution decays like
zeta^(-2n) toward smaller n, and on the cut both solutions stay bounded.
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

import numpy as np

#: how `_step.c` is built: -march=native for the CPU's FMA and vector
#: instructions, -ffp-contract=off to fuse no product that numpy rounds apart
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
          "-shared", "-fPIC")

#: table sites from which the second half of a grid's points is stepped on a
#: worker thread: the step of a longer table waits on memory, not on the FPU
SPLIT_SITES = 2 ** 19


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


_LIB = ctypes.CDLL(_build())


def _entry(name, *argtypes, restype=None):
    fn = getattr(_LIB, name)
    kinds = {int: ctypes.c_long, float: ctypes.c_double}
    fn.restype, fn.argtypes = restype, [kinds.get(t, ctypes.c_void_p) for t in argtypes]
    return fn


#: points per block of the lane step (`block_lanes` of `_step.c`)
BLOCK = ctypes.c_long.in_dll(_LIB, "block_lanes").value


#: lanes(V, L, n, cut, lane, width, rows, n_rows, dev) steps n lanes of the
#: lane buffer (rows 2z, s, b, x(L), x(L+1)) down the table: see `_step.c`
_LANES = _entry("lanes", None, int, int, int, None, int, None, int, None)

#: sturm(d, n, c2, b, nb, count) writes to count[j] the number of eigenvalues
#: beyond +-b[j] of the symmetric tridiagonal matrix with diagonal d and
#: squared off-diagonal c2, and returns 1 + the first j whose pivots end NaN,
#: else 0
_STURM = _entry("sturm", None, int, float, None, int, None, restype=ctypes.c_long)


@contextlib.contextmanager
def meanwhile(fn, *args):
    """fn(*args) on a worker thread while the block runs; yields a function
    that joins it and returns its value or raises its exception.  It has
    ended when the block is left, and an exception of the block goes first."""
    import threading        # loaded by numpy already
    out = {}

    def work():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:        # an interrupt too
            out["error"] = exc
    worker = threading.Thread(target=work, name="halfline-step")
    worker.start()

    def result():
        worker.join()
        if "error" in out:
            raise out["error"]
        return out["value"]
    try:
        yield result
    finally:
        worker.join()


def _halves(fn, V, n):
    """[fn(0, n)], or for a long table on a machine with a second CPU
    [fn(0, half), fn(half, n)], the second on a worker thread that has ended
    when this returns.  An exception in either half reaches the caller."""
    if V.shape[0] < SPLIT_SITES or n < 2 or (os.cpu_count() or 1) < 2:
        return [fn(0, n)]
    with meanwhile(fn, n // 2, n) as second:
        return [fn(0, n // 2), second()]


def _step_lanes(V, lane, rows, cut, dev=None):
    """Step the lanes of the lane buffer down the whole table in place,
    writing their kept rows to rows (the `lanes` entry of `_step.c`) and,
    given dev of shape (2, L - 1), the decay reduction of the first half of
    the points to dev[0] and of the second to dev[1].  A split cuts between
    points."""
    per, v, p, width = 1 + cut, V.ctypes.data, lane.ctypes.data, lane.shape[1]
    out = rows.ctypes.data if rows.size else p      # no rows kept: never written

    def step(lo, hi):
        d = None if dev is None else dev[int(lo > 0)].ctypes.data
        _LANES(v, V.shape[0], per * (hi - lo), cut, p + 8 * per * lo, width,
               out + 8 * per * lo, rows.shape[0], d)
    _halves(step, V, width // per)


def off_axis_zeta(z):
    """zeta(z) = sign(z) / (|z| + sqrt(z^2 - 1)) for real |z| >= 1, which does
    not cancel for large |z|.  Above 1e150, where z^2 may overflow,
    sqrt(z^2 - 1) rounds to |z| and zeta = sign(z) 0.5/|z| is the same float."""
    a = np.abs(z)
    c = np.minimum(a, 1e150)
    return np.copysign(np.where(a > 1e150, 0.5 / a, 1.0 / (a + np.sqrt(c * c - 1.0))), z)


def jost_points(x):
    """(x, zeta) for the Jost points x as an array: a real z with |z| >= 1
    and 2z finite, the thresholds +-1 among them, has zeta = `off_axis_zeta(z)`;
    a complex zeta is a point on the cut.  Any other point is refused with a
    ValueError, the same test for every kernel and every solution: a complex
    zeta with ||zeta|^2 - 1| above 1e-15 or not finite, a real z with |z| < 1,
    NaN or 2z not finite."""
    x = np.atleast_1d(x)
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x, np.complex128)
        if not np.all(np.abs(x.real * x.real + x.imag * x.imag - 1.0) <= 1e-15):
            raise ValueError("complex Jost points must lie on |zeta| = 1")
        return x, x
    if not np.all((np.abs(x) >= 1.0) & (np.abs(x) <= np.finfo(np.float64).max / 2)):
        raise ValueError("real Jost points need |z| >= 1 and 2z finite")
    return x, off_axis_zeta(x)


def _real_points(V, z, zeta, n_rows):
    lane = np.empty((5, z.shape[0]))        # 2z, s = zeta, b = zeta^2, x(L) = x(L+1) = 1
    lane[0], lane[1], lane[3:] = 2.0 * z, zeta, 1.0
    np.multiply(lane[1], lane[1], out=lane[2])
    rows = np.ones((n_rows, z.shape[0])) if n_rows else lane[:0]
    _step_lanes(V, lane, rows, False)
    if n_rows > 1:                          # zeta^(n+1) t(n), the power by repeated products
        rows[1:] *= np.cumprod(np.broadcast_to(lane[1], (n_rows - 1, lane.shape[1])), axis=0)
    return lane[3], rows


def _cut_points(V, zeta, n_rows, dev=None):
    n = zeta.shape[0]
    lane = np.empty((5, 2 * n))             # 2z = 2 Re zeta on both lanes, s, b, 1, zeta
    lane[0].reshape(n, 2)[:] = 2.0 * zeta.real[:, None]
    lane[3], lane[4] = 0.0, zeta.view(np.float64)
    lane[3, ::2] = 1.0
    rows = np.empty((n_rows, n), np.complex128)
    _step_lanes(V, lane, rows.view(np.float64), True, dev)
    return lane[3].view(np.complex128).copy(), rows


def _jost(V, x, n_rows):
    """Omega on every point and its rows zeta theta(n) for n = -1..n_rows-2:
    real x as z, complex x as zeta."""
    V, (x, zeta) = np.ascontiguousarray(V, dtype=np.float64), jost_points(x)
    if np.iscomplexobj(x):
        return _cut_points(V, x, n_rows)
    return _real_points(V, x, zeta, n_rows)


def jost_scaled(V, x, n_keep):
    """Omega(z) = zeta theta(-1) and the Jost values zeta theta(n) =
    zeta^(n+1) t(n) for n = -1..n_keep on every point: real x is z, complex
    x is zeta on the cut.

    Returns (omega, rows), float64 for real x and complex128 for complex x;
    rows has shape (n_keep + 2, points), row index n + 1, and its row 0 is
    omega.
    """
    return _jost(V, x, int(n_keep) + 2)


def jost_function_values(V, x):
    """Omega(z) = zeta theta(-1) on a batch of points: real x is z, giving
    float64, complex x is zeta on the cut, giving complex128."""
    return _jost(V, x, 0)[0]


def _deviations(V, zeta):
    """max over the points of |t(n) - 1| for the sites n = 0..L-2, stepped
    as cut points: every zeta must lie on |zeta| = 1."""
    V = np.ascontiguousarray(V, dtype=np.float64)
    dev = np.zeros((2, max(V.shape[0] - 1, 0)))
    _cut_points(V, jost_points(np.asarray(zeta, np.complex128))[0], 0, dev)
    return np.sqrt(np.maximum(dev[0], dev[1]))


def decay_scan(V, zeta, bounds, rho):
    """Roll the Jost recursion over all points at once, tracking the worst
    excess of max_k |t(n) - 1| over bounds[n] and the empirical envelope
    constant max_n (1+n)^(rho-2) max_k |t(n) - 1|.

    The points zeta must lie on |zeta| = 1.  The sites checked are n =
    0..L-2, the ones the recursion steps to.  Returns (worst_violation,
    c_empirical); (-inf, 0) when there are none.
    """
    dev = _deviations(V, zeta)
    sites = np.arange(dev.shape[0])
    worst = np.max(dev - bounds[:dev.shape[0]], initial=-np.inf)
    c_emp = np.max(dev * (1.0 + sites) ** (float(rho) - 2.0), initial=0.0)
    return float(worst), float(c_emp)


def sturm_counts(diagonal, c2, bounds):
    """(counts, nan): for each b in bounds, the number of eigenvalues beyond
    +-b of the symmetric tridiagonal matrix with this diagonal and squared
    off-diagonal c2; nan is the index of the first bound whose LDL^T pivots
    end NaN (the counts from it on are unset), or -1."""
    d = np.ascontiguousarray(diagonal, np.float64)
    b = np.ascontiguousarray(bounds, np.float64)
    counts = np.zeros(b.shape[0], np.int64)
    nan = _STURM(d.ctypes.data, d.shape[0], float(c2), b.ctypes.data, b.shape[0],
                 counts.ctypes.data)
    return counts.tolist(), nan - 1


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
