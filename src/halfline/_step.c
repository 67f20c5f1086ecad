/* The backward site steps of the Jost recursion; halfline._kernels builds
 * this file into a shared library on first import and calls it through
 * ctypes.  Row r of a table V[0..L-1] holds x(r - 1); the lanes step down
 * from the free tail, the rows L and L + 1.
 *
 * lanes steps BLOCK real lanes at a time, each quantity a few vector-typed
 * locals that stay in 512-bit registers where the CPU has them; the last
 * block is padded with copies of its lanes, whole (re, im) pairs of them,
 * never written out.
 *   - A real point is one lane of the scaled recursion
 *     x_r = ((a - 2 V[r]) s) x_{r+1} - b x_{r+2}, s = zeta, b = zeta^2, with
 *     no product fused (the build passes -ffp-contract=off): the per-site
 *     complex numpy loop with zero imaginary parts, bit for bit.
 *   - A cut point is two lanes, re and im, of the unscaled recursion
 *     x_r = fma(a - 2 V[r], x_{r+1}, -x_{r+2}): s = b = 1 folded away.
 *
 * Given dev, the cut lanes also reduce the decay check.  From
 * x(L-1) = theta~(L-1) = 1 they carry the phase g = conj(zeta)^(L-1-n),
 * one product per site, and raise dev[n] to the max over the points of
 * |theta~(n) - g|^2 = |t(n) - 1|^2 for n = 0..L-2; a NaN raises it to NaN.
 * block_lanes exports BLOCK: a call pays for whole blocks of lanes.
 *
 * sturm is the bound-state count oracle, independent of the Jost step: the
 * Sturm counts of a symmetric tridiagonal matrix from the pivots of its
 * LDL^T factorisations.
 */

#include <math.h>
#include <string.h>

#if defined(__x86_64__)
#pragma GCC target("prefer-vector-width=512")
#endif

typedef double vec __attribute__((vector_size(8 * sizeof(double))));
typedef long vec_l __attribute__((vector_size(8 * sizeof(long))));
typedef unsigned long vec_u __attribute__((vector_size(8 * sizeof(long))));

/* the lanes of v with re and im swapped in each pair */
#define SWAP(v) __builtin_shuffle(v, (vec_l){1, 0, 3, 2, 5, 4, 7, 6})

#define NV 4                    /* vectors per block of lanes */
#define BLOCK (8 * NV)

const long block_lanes = BLOCK;

static inline __attribute__((always_inline)) vec vfma(vec a, vec b, vec c)
{
    vec r;
    for (int i = 0; i < 8; i++)
        r[i] = fma(a[i], b[i], c[i]);
    return r;
}

/* the larger of a and b, NaN if either is, for a and b in +0..+inf or NaN:
 * as unsigned integers their bits order them, NaN of either sign on top */
static inline __attribute__((always_inline)) vec vmax(vec a, vec b)
{
    vec_u x = (vec_u)a, y = (vec_u)b, r;
    for (int i = 0; i < 8; i++)
        r[i] = x[i] > y[i] ? x[i] : y[i];
    return (vec)r;
}

/* the lanes j.. of x, the ones past j + m copies of the first m: for cut
 * lanes (m even) whole (re, im) pairs, which add nothing to the decay max */
static inline __attribute__((always_inline)) void
load(vec *v, const double *x, long j, long m)
{
    double l[BLOCK];
    for (int k = 0; k < BLOCK; k++)
        l[k] = x[j + k % m];
    memcpy(v, l, sizeof l);
}

/* the first m lanes of v to x + j, through a copy, so that v can stay in
 * registers; given f, each (re, im) lane pair times the complex f + j */
static inline __attribute__((always_inline)) void
store(double *x, long j, long m, const vec *v, const double *f)
{
    double l[BLOCK];
    memcpy(l, v, sizeof l);
    if (!f)
        memcpy(x + j, l, m * sizeof(double));
    else
        for (long k = 0; k < m; k += 2) {
            x[j + k] = f[j + k] * l[k] - f[j + k + 1] * l[k + 1];
            x[j + k + 1] = f[j + k] * l[k + 1] + f[j + k + 1] * l[k];
        }
}

/* The lane step, compiled for real lanes, for cut lanes and for cut lanes
 * with the decay reduction. */
static inline __attribute__((always_inline)) void
run(const double *V, long L, long n, const double *a,
    const double *s, const double *b, double *x1, double *x2,
    double *rows, long stride, long n_rows, const double *f, double *dev, const int cut)
{
    for (long j = 0; j < n; j += BLOCK) {
        long m = n - j < BLOCK ? n - j : BLOCK;
        vec av[NV], sv[NV], bv[NV], u[NV], w[NV], g[NV], zr[NV], zi[NV];
        load(av, a, j, m);
        load(u, x1, j, m);
        load(w, x2, j, m);
        if (!cut) {
            load(sv, s, j, m);
            load(bv, b, j, m);
        }
        if (dev)                /* g = 1 = u; zeta = w, as (re, re) and (im, -im) */
            for (int q = 0; q < NV; q++) {
                g[q] = u[q];
                zr[q] = __builtin_shuffle(w[q], (vec_l){0, 0, 2, 2, 4, 4, 6, 6});
                zi[q] = __builtin_shuffle(w[q], (vec_l){1, 1, 3, 3, 5, 5, 7, 7})
                        * (vec){1, -1, 1, -1, 1, -1, 1, -1};
            }
        for (long r = L - 1; r >= 0; r--) {
            double two_v = 2.0 * V[r];
            vec d[NV];
#pragma GCC unroll 8            /* so that the vectors stay in registers */
            for (int q = 0; q < NV; q++) {
                vec c = av[q] - two_v;
                vec x = cut ? vfma(c, u[q], -w[q]) : c * sv[q] * u[q] - bv[q] * w[q];
                w[q] = u[q];
                u[q] = x;
                if (dev) {
                    g[q] = vfma(SWAP(g[q]), zi[q], g[q] * zr[q]);
                    d[q] = (x - g[q]) * (x - g[q]);
                    d[q] += SWAP(d[q]);
                }
            }
            if (dev && r > 0) {     /* each pair holds its sum twice: max over lanes 0, 2, 4, 6 */
                for (int h = NV / 2; h; h /= 2)
                    for (int q = 0; q < h; q++)
                        d[q] = vmax(d[q], d[q + h]);
                d[0] = vmax(d[0], __builtin_shuffle(d[0], (vec_l){4, 5, 6, 7, 0, 1, 2, 3}));
                d[0] = vmax(d[0], __builtin_shuffle(d[0], (vec_l){2, 3, 0, 1, 6, 7, 4, 5}));
                dev[r - 1] = vmax(d[0], (vec){0} + dev[r - 1])[0];
            }
            if (r < n_rows)
                store(rows + r * stride, j, m, u, f);
        }
        store(x1, j, m, u, f);
        store(x2, j, m, w, 0);
    }
}

/* double-double arithmetic, for the scale zeta^L of the cut lanes */
typedef struct { double h, l; } dd;

static dd dd_sum(double a, double b)
{
    double s = a + b, v = s - a;
    return (dd){s, (a - (s - v)) + (b - v)};
}

static dd dd_mul(dd a, dd b)
{
    double p = a.h * b.h;
    return dd_sum(p, fma(a.h, b.h, -p) + (a.h * b.l + a.l * b.h));
}

/* a b - c d */
static dd dd_det(dd a, dd b, dd c, dd d)
{
    dd x = dd_mul(a, b), y = dd_mul(c, d), s = dd_sum(x.h, -y.h);
    return dd_sum(s.h, s.l + (x.l - y.l));
}

typedef struct { dd re, im; } zd;

static zd zd_mul(zd a, zd b)
{
    return (zd){dd_det(a.re, b.re, a.im, b.im), dd_det(a.re, b.im, (dd){-a.im.h, -a.im.l}, b.re)};
}

/* out = zeta^k for n interleaved complex points and k >= 0, by binary
 * powering in double-double arithmetic and rounded once: within a few ulps,
 * and exact where every product is (zeta = +-1, +-i).  The points go in
 * chunks, each bit of k over a chunk, so that the loop over points
 * vectorizes. */
static void power(long n, const double *zeta, long k, double *out)
{
    for (long j0 = 0; j0 < n; j0 += 64) {
        long m = n - j0 < 64 ? n - j0 : 64;
        zd b[64], p[64];
        for (long j = 0; j < m; j++) {
            b[j] = (zd){{zeta[2 * (j0 + j)], 0.0}, {zeta[2 * (j0 + j) + 1], 0.0}};
            p[j] = (zd){{1.0, 0.0}, {0.0, 0.0}};
        }
        for (long e = k, first = 1; e; first &= !(e & 1), e >>= 1) {
            if (e & 1)
                for (long j = 0; j < m; j++)
                    p[j] = first ? b[j] : zd_mul(p[j], b[j]);
            if (e > 1)
                for (long j = 0; j < m; j++)
                    b[j] = zd_mul(b[j], b[j]);
        }
        for (long j = 0; j < m; j++) {
            out[2 * (j0 + j)] = p[j].re.h + p[j].re.l;
            out[2 * (j0 + j) + 1] = p[j].im.h + p[j].im.l;
        }
    }
}

/* Step n lanes from the rows (x(L), x(L + 1)) down to (x(0), x(1)), in
 * place, writing row r < n_rows to row r of rows.  The lane buffer holds
 * five rows of width doubles: 2z, the real lanes' factors s and b, x(L) and
 * x(L + 1); rows has rows of width doubles too.  Cut lanes (cut != 0) are
 * (re, im) pairs from (1, zeta); in the row s, which they do not read, they
 * put zeta^L, which scales x(0) and their rows, and past the table their
 * rows are the free tail zeta^r.  Given dev (cut lanes only), they raise
 * dev[n] to the max over the points of |t(n) - 1|^2 for n = 0..L-2.
 * Returns the number of cut points with ||zeta|^2 - 1| above 1e-15, which
 * are not stepped. */
long lanes(const double *V, long L, long n, int cut, double *lane, long width,
           double *rows, long n_rows, double *dev)
{
    double *s = lane + width, *x2 = lane + 4 * width;
    long off = 0;
    if (!cut) {
        run(V, L, n, lane, s, s + width, x2 - width, x2, rows, width, n_rows, 0, 0, 0);
        return 0;
    }
    for (long k = 0; k < n; k += 2)
        off += !(fabs(x2[k] * x2[k] + x2[k + 1] * x2[k + 1] - 1.0) <= 1e-15);
    if (off)
        return off;
    power(n / 2, x2, L, s);
    for (long r = L; r < n_rows; r++)
        for (long k = 0; k < n; k += 2) {
            double *o = rows + r * width + k;
            if (r == L) {
                o[0] = s[k];
                o[1] = s[k + 1];
            } else {
                o[0] = o[-width] * x2[k] - o[1 - width] * x2[k + 1];
                o[1] = o[-width] * x2[k + 1] + o[1 - width] * x2[k];
            }
        }
    if (dev)
        run(V, L, n, lane, s, s + width, x2 - width, x2, rows, width, n_rows, s, dev, 1);
    else
        run(V, L, n, lane, s, s + width, x2 - width, x2, rows, width, n_rows, s, 0, 1);
    return 0;
}

/* count[j] = the number of eigenvalues beyond +-b[j], j < nb, of the symmetric
 * tridiagonal matrix T with diagonal d[0..n-1] and squared off-diagonal c2:
 * the positive pivots of LDL^T = T - b[j] and -T - b[j] (Sturm counts; Barth,
 * Martin and Wilkinson 1967).  A zero pivot counts as 0- and is followed by
 * +inf.  The four chains of two bounds run side by side, so that their
 * divisions overlap; an odd last bound is run twice.  Returns 1 + the first j
 * whose chains end in a NaN pivot, or 0 when none does. */
long sturm(const double *d, long n, double c2, const double *b, long nb, long *count)
{
    for (long j = 0; j < nb; j += 2) {
        double b1 = b[j + 1 < nb ? j + 1 : j];
        const double sign[4] = {1.0, -1.0, 1.0, -1.0}, s[4] = {b[j], b[j], b1, b1};
        double q[4] = {INFINITY, INFINITY, INFINITY, INFINITY};
        long c[4] = {0, 0, 0, 0};
        for (long i = 0; i < n; i++)
            for (int k = 0; k < 4; k++) {
                q[k] = q[k] != 0.0 ? (sign[k] * d[i] - s[k]) - c2 / q[k] : INFINITY;
                c[k] += q[k] > 0.0;
            }
        for (long k = 0; k < 4 && j + k / 2 < nb; k += 2) {
            if (isnan(q[k]) || isnan(q[k + 1]))
                return j + k / 2 + 1;
            count[j + k / 2] = c[k] + c[k + 1];
        }
    }
    return 0;
}
