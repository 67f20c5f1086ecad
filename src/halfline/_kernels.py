"""Hot recursion kernels.

Every Jost-type quantity is stepped by the compiled site steps of `_step.c`,
one call per set of points where that set is read: each cut grid with its
kept rows, the scattering edge, the bound-state scan and its bisection
midpoints, the thresholds, the bound states and the decay scan.  Only
`regular_values`, which steps n_site rows and not the table, stays numpy.
Each point is stepped on its own, so a value does not depend on its batch.
Backward stepping is stable: off the cut the unwanted solution decays like
zeta^(-2n) toward smaller n, and on the cut both solutions stay bounded.

`jost_scaled` and `jost_function_values` take each point in its own
coordinate; `jost_points` is the one check of it, for them and for
`halfline.solutions`.
  - A real z, |z| >= 1 and 2z finite, is one lane of the scaled recursion
    t = theta/zeta^n, t(n-1) = ((2z - 2V(n)) zeta) t(n) - zeta^2 t(n+1),
    zeta = `off_axis_zeta(z)`: float64, bit for bit the complex per-site
    numpy loop (`reference_jost_rows` in the tests).
  - A complex zeta on the cut is two lanes, re and im, of the unscaled
    theta~(n-1) = fma(2z - 2V(n), theta~(n), -theta~(n+1)) from
    (theta~(L-1), theta~(L)) = (1, zeta), 2z = 2 Re zeta; Omega = zeta^L
    theta~(-1), unfused, with zeta^L to a few ulps: complex128.  Its error
    grows like L^2 eps near the thresholds, as the complex loop's does, and
    is far smaller than that loop's elsewhere.
`_jost` is the one caller of the step.  The kept rows are zeta theta(n) =
zeta^(n+1) t(n), n = -1..n_keep, so row 0 is Omega, the one copy the step
writes; past the table they are the free tail zeta^(n+1).

One rule decides where the step runs (`meanwhile`, `_split`): a thread is
started only for work above FLOOR site blocks while a CPU is idle, that is
while the calling thread and the live `meanwhile` workers number fewer than
CPUS.  A call above FLOOR is cut into chunks, which its thread takes, with a
worker while a CPU is idle and any thread that would block joining it.
The first import builds `_step.c` (`_build`); later imports only load it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import threading
from types import SimpleNamespace

import numpy as np

#: how `_step.c` is built: -march=native for the CPU's FMA and vector
#: instructions, -ffp-contract=off to fuse no product that numpy rounds apart
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
          "-shared", "-fPIC")

#: site blocks (table sites times blocks of BLOCK points) above which a call is
#: cut into chunks and a job may take a thread: about 0.5 ms of lanes, against
#: 0.10-0.13 ms for a thread's start and join (2 vCPUs)
FLOOR = 100_000

CPUS = os.cpu_count() or 1


def _build() -> str:
    """The path of the compiled step `__pycache__/_step-<hash>.so` beside this
    file, named by the hash of the source and the flags.  If absent it is
    built through a temporary file renamed into place, and the artifacts of
    other hashes are deleted.  Without gcc on PATH, or without a writable
    `__pycache__`, an ImportError says which."""
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_step.c")
    with open(source, "rb") as f:
        tag = hashlib.sha256(f.read() + " ".join(CFLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(here, "__pycache__")
    lib = os.path.join(cache, f"_step-{tag}.so")
    if os.path.exists(lib):
        return lib
    import re, shutil, subprocess, tempfile     # the build alone needs them
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


#: points per block of the lane step (`block_lanes` of `_step.c`): a call pays
#: for whole blocks, which `scattering._bisect` fills with midpoints
BLOCK = ctypes.c_long.in_dll(_LIB, "block_lanes").value


#: lanes(V, L, n, cut, x, zeta, rows, width, n_rows, dev) steps the n points
#: x (z with its zeta, or a complex zeta) down the table, writing n_rows >= 1
#: rows to rows, Omega as row 0 (`_step.c`); ctypes releases the GIL for it
_LANES = _entry("lanes", None, int, int, int, None, None, None, int, int, None)

#: sturm(d, n, c2, b, nb, count) writes the counts of `sturm_counts` to count
#: and returns 1 + its nan
_STURM = _entry("sturm", None, int, float, None, int, None, restype=ctypes.c_long)


#: guards the state below; a joining thread waits on it for the worker's next call
_lock = threading.Condition()

#: workers of `meanwhile` that have started and not yet ended
_workers = 0

#: .job: the `meanwhile` job that the current thread runs, on a worker
_here = threading.local()


@contextlib.contextmanager
def meanwhile(fn, *args, work=math.inf):
    """fn(*args) on a worker while the block runs if its work in site blocks is
    above FLOOR and a CPU is idle, else on the calling thread at the join;
    yields the join, which returns its value or raises its exception.  An
    exception of the block goes first; the worker has ended when the block is
    left, and a joining thread helps it (`_join`)."""
    global _workers
    with _lock:
        alone = not (work > FLOOR and 1 + _workers < CPUS)
        if not alone:
            _workers += 1
    if alone:
        yield lambda: fn(*args)
        return
    job = SimpleNamespace(call=None, done=False, error=None)

    def run():
        global _workers
        _here.job = job
        try:
            job.value = fn(*args)
        except BaseException as exc:        # an interrupt too
            job.error = exc
        finally:
            with _lock:
                _workers -= 1
                job.done = True
                _lock.notify_all()
    worker = threading.Thread(target=run, name="halfline-step")
    try:
        worker.start()
    except BaseException:
        with _lock:
            _workers -= 1
        raise

    def result():
        _join(job)
        if job.error is not None:
            raise job.error
        return job.value
    try:
        yield result
    finally:
        _join(job)
        worker.join()


def _join(job):
    """Wait until the worker of job has ended, taking meanwhile in slot 2 the
    chunks that remain of each call it opens."""
    call = None
    while True:
        with _lock:
            _lock.wait_for(lambda: job.done or job.call is not None and job.call is not call)
            if job.done:
                return
            call = job.call
        with call.helping:
            _take(call, 2)


def _take(call, slot):
    """step(lo, hi, slot) on each chunk of call that no thread has taken; one
    that fails ends the call, and its exception goes to call.error."""
    while True:
        with _lock:
            chunk = next(call.chunks, None)
        if chunk is None:
            return
        try:
            call.step(*chunk, slot)
        except BaseException as exc:        # an interrupt too
            call.error, call.chunks = exc, iter(())


def _split(step, sites, n):
    """step(lo, hi, slot) over the points 0..n on a table of sites sites: one
    step(0, n, 0) at or below FLOOR site blocks or within one block.  Above,
    chunks of whole blocks, about FLOOR / 2 site blocks each, taken by this
    thread in slot 0, a worker in slot 1 while a CPU is idle, and on a
    `meanwhile` worker the thread that joins it in slot 2.  All have ended on
    return, and a chunk's exception is raised here."""
    blocks = -(-n // BLOCK)
    if sites * blocks <= FLOOR or blocks < 2:
        return step(0, n, 0)
    width = BLOCK * max(1, FLOOR // (2 * sites))
    chunks = iter([(lo, min(lo + width, n)) for lo in range(0, n, width)])
    call = SimpleNamespace(step=step, chunks=chunks, helping=threading.Lock(), error=None)
    job = getattr(_here, "job", SimpleNamespace())     # a worker's, or one no thread joins
    try:
        with _lock:
            job.call = call
            _lock.notify_all()
        with meanwhile(_take, call, 1, work=sites * blocks) as worker:
            _take(call, 0)
            worker()
    finally:
        job.call = None
        with call.helping:                  # a chunk of the joining thread has ended
            pass
    if call.error is not None:
        raise call.error


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's OpenBLAS, or None where numpy
    links none: looked up on the first call through numpy's linear-algebra
    extension, whose dependencies hold the library."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")):
            get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
            return get, set_
    return None


#: sections of `one_blas_thread` that have been entered and not yet left,
#: and the thread count that the first of them found
_blas_sections = 0
_blas_found = 0


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread while the block runs, so that a product's
    sums do not depend on the thread count and BLAS leaves the other CPU to a
    worker; the count is process-wide.  Sections may overlap, in any threads:
    the first to enter sets one thread, the last to leave restores the count
    that the first found.  Without OpenBLAS the block runs as is."""
    global _blas_sections, _blas_found
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _lock:
        if _blas_sections == 0:
            _blas_found = get()
            set_(1)
        _blas_sections += 1
    try:
        yield
    finally:
        with _lock:
            _blas_sections -= 1
            if _blas_sections == 0:
                set_(_blas_found)


def off_axis_zeta(z):
    """zeta(z) = sign(z) / (|z| + sqrt(z^2 - 1)) for real |z| >= 1, which does
    not cancel for large |z|.  Above 1e150, where z^2 may overflow,
    sqrt(z^2 - 1) rounds to |z| and zeta = sign(z) 0.5/|z| is the same float."""
    a = np.abs(z)
    c = np.minimum(a, 1e150)
    return np.copysign(np.where(a > 1e150, 0.5 / a, 1.0 / (a + np.sqrt(c * c - 1.0))), z)


def jost_points(x):
    """(x, zeta) for the Jost points x as contiguous float64 or complex128
    arrays, which the compiled step reads in place: a real z, |z| >= 1 and 2z
    finite, has zeta = `off_axis_zeta(z)`; a complex zeta lies on the cut.
    Any other point is refused with a ValueError, for every kernel and
    solution: a zeta with ||zeta|^2 - 1| above 1e-15 or not finite, a real z
    with |z| < 1, NaN or 2z not finite."""
    x = np.atleast_1d(x)
    if np.iscomplexobj(x):
        x = np.ascontiguousarray(x, np.complex128)
        if not np.all(np.abs(x.real * x.real + x.imag * x.imag - 1.0) <= 1e-15):
            raise ValueError("complex Jost points must lie on |zeta| = 1")
        return x, x
    x = np.ascontiguousarray(x, np.float64)
    if not np.all((np.abs(x) >= 1.0) & (np.abs(x) <= np.finfo(np.float64).max / 2)):
        raise ValueError("real Jost points need |z| >= 1 and 2z finite")
    return x, off_axis_zeta(x)


def _jost(V, x, n_rows, dev=None):
    """The rows zeta theta(n) for n = -1..n_rows-2 on every point, n_rows >= 1,
    row 0 Omega: real x as z, complex x as zeta.  Given dev of shape (3, L - 1),
    the decay reduction of the points of each dev slot (`_split`) goes to its row."""
    V, (x, zeta) = np.ascontiguousarray(V, dtype=np.float64), jost_points(x)
    cut, n = np.iscomplexobj(x), x.shape[0]
    # kept rows on a 64-byte boundary: 16 bytes past one, their stores ran 1.4x slower
    buf = np.empty(n_rows * x.nbytes + 64, np.uint8)
    rows = np.ndarray((n_rows, n), x.dtype, buf, -buf.ctypes.data % 64 if n_rows > 1 else 0)
    if not cut:
        rows.fill(1.0)                      # the real lanes' free tail t = 1

    def step(lo, hi, slot):
        _LANES(V.ctypes.data, V.shape[0], hi - lo, cut, x[lo:].ctypes.data,
               zeta[lo:].ctypes.data, rows[:, lo:].ctypes.data, n, n_rows,
               None if dev is None else dev[slot].ctypes.data)
    _split(step, V.shape[0], n)
    if n_rows > 1 and not cut:              # zeta^(n+1) t(n), the power by repeated products
        rows[1:] *= np.cumprod(np.broadcast_to(zeta, (n_rows - 1, n)), axis=0)
    return rows


def jost_scaled(V, x, n_keep):
    """(omega, rows): Omega = zeta theta(-1) and the Jost values zeta theta(n)
    = zeta^(n+1) t(n), n = -1..n_keep, row index n + 1, on every point: real
    x is z, giving float64, complex x is zeta on the cut, giving complex128.
    omega is a copy of row 0: a view would keep all the rows alive."""
    rows = _jost(V, x, int(n_keep) + 2)
    return rows[0].copy(), rows


def jost_function_values(V, x):
    """Omega(z) = zeta theta(-1) on a batch of points: real x is z, giving
    float64, complex x is zeta on the cut, giving complex128."""
    return _jost(V, x, 1)[0]


def decay_scan(V, zeta):
    """max over the cut points zeta of |t(n) - 1| for the sites n = 0..L-2:
    beside each point a phase g = conj(zeta)^(L-1-n) turns one product per
    site, the step raises the max of |theta~(n) - g|^2 (NaN if any is) in a
    row per slot, and the max of the rows and one square root end it."""
    dev = np.zeros((3, max(np.shape(V)[0] - 1, 0)))
    _jost(V, np.asarray(zeta, np.complex128), 1, dev)
    return np.sqrt(np.max(dev, axis=0))


def sturm_counts(diagonal, c2, bounds):
    """(counts, nan): for each b in bounds, the number of eigenvalues beyond
    +-b of the symmetric tridiagonal matrix with this diagonal and squared
    off-diagonal c2, from LDL^T pivots, independent of the Jost step; nan is
    the index of the first bound whose pivots end NaN (the counts from it on
    are unset), or -1."""
    d = np.ascontiguousarray(diagonal, np.float64)
    b = np.ascontiguousarray(bounds, np.float64)
    counts = np.zeros(b.shape[0], np.int64)
    nan = _STURM(d.ctypes.data, d.shape[0], float(c2), b.ctypes.data, b.shape[0],
                 counts.ctypes.data)
    return counts.tolist(), nan - 1


def regular_values(V, two_z, n_max):
    """Forward recursion for the regular solution, rows n = -1..n_max, from
    the boundary pair (0, 1); real input gives a real table."""
    two_z, V = np.atleast_1d(np.asarray(two_z)), np.asarray(V, dtype=float)
    out = np.zeros((n_max + 2, two_z.shape[0]), dtype=np.result_type(two_z.dtype, np.float64))
    out[1] = 1.0
    for n in range(n_max):
        out[n + 2] = (two_z - 2.0 * (V[n] if n < len(V) else 0.0)) * out[n + 1] - out[n]
    return out
