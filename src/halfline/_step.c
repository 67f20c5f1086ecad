/* The backward site steps of the Jost recursion; halfline._kernels builds
 * this file into a shared library on first import and calls it through
 * ctypes.  Row r of a table V[0..L-1] holds x(r - 1); both entries step
 * down from the free tail, the rows L and L + 1.
 *
 * lanes steps BLOCK real lanes at a time, each quantity a few vector-typed
 * locals that stay in 512-bit registers where the CPU has them; the last
 * block is padded with copies of its first lane, never written out.
 *   - A real point is one lane of the scaled recursion
 *     x_r = ((a - 2 V[r]) s) x_{r+1} - b x_{r+2}, s = zeta, b = zeta^2, with
 *     no product fused: the complex recursion with zero imaginary parts, so
 *     its values equal decay's.
 *   - A cut point is two lanes, re and im, of the unscaled recursion
 *     x_r = fma(a - 2 V[r], x_{r+1}, -x_{r+2}): s = b = 1 folded away.
 *
 * decay steps the complex scaled recursion with the operations of the
 * per-site numpy loop in their order: c = 2z - 2V, c = c zeta, c = c t_{r+1},
 * u = zeta^2 t_{r+2}, t_r = c - u.  On a CPU with FMA, numpy 2.4 forms a
 * complex product as re = fma(ar, br, -(ai bi)), im = fma(ar, bi, ai br); so
 * does CMUL, and the build passes -ffp-contract=off so that no other product
 * is fused.  Its values equal the numpy loop's bit for bit.  While a block
 * of DBLOCK points is in registers, it raises dev[r - 1] to the max over the
 * points of |t_r - 1|, equal to numpy's np.max(np.abs(t - 1.0)) bit for
 * bit.  numpy takes the modulus of (a, b) as L sqrt(fma(S/L, S/L, 1)) with
 * L = max(|a|, |b|), S = min(|a|, |b|); it gives 0 at L = 0, inf for an
 * infinite part (even beside NaN), and otherwise NaN beside NaN.  npabs is
 * that modulus, and its division and square root are spent only where a
 * point can raise the site's running max M: a point whose cheap square
 * s = a a + b b is below T = M M (1 - 2^-46) is skipped.  For M in
 * [2^-500, 2^500] that is exact: s lies within 2.1 ulps of a^2 + b^2 (an
 * underflowed square adds at most 2^-1074, under 2^-74 M^2), and the modulus
 * within 3.1 ulps of its root, so s < T gives a modulus below M.  An
 * overflowed or NaN s is never below T.  Outside that range every point is
 * evaluated; a NaN M, which no point can change, skips every point with a
 * finite s.
 */

#include <math.h>
#include <string.h>

#if defined(__x86_64__)
#pragma GCC target("prefer-vector-width=512")
#endif

typedef double vec __attribute__((vector_size(8 * sizeof(double))));
typedef long vec_l __attribute__((vector_size(8 * sizeof(long))));

#define NV 4                    /* vectors per block of lanes */
#define BLOCK (8 * NV)
#define DBLOCK 16               /* points per block of decay */

static inline __attribute__((always_inline)) vec vfma(vec a, vec b, vec c)
{
    vec r;
    for (int i = 0; i < 8; i++)
        r[i] = fma(a[i], b[i], c[i]);
    return r;
}

/* the lanes j.. of x, the ones past j + m copies of lane j */
static inline __attribute__((always_inline)) void
load(vec *v, const double *x, long j, long m)
{
    double l[BLOCK];
    for (int k = 0; k < BLOCK; k++)
        l[k] = x[j + (k < m ? k : 0)];
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

/* The lane step, compiled once for real lanes and once for cut lanes. */
static inline __attribute__((always_inline)) void
run(const double *V, long L, long n, const double *a,
    const double *s, const double *b, double *x1, double *x2,
    double *rows, long stride, long n_rows, const double *f, const int cut)
{
    for (long j = 0; j < n; j += BLOCK) {
        long m = n - j < BLOCK ? n - j : BLOCK;
        vec av[NV], sv[NV], bv[NV], u[NV], w[NV];
        load(av, a, j, m);
        load(u, x1, j, m);
        load(w, x2, j, m);
        if (!cut) {
            load(sv, s, j, m);
            load(bv, b, j, m);
        }
        for (long r = L - 1; r >= 0; r--) {
            double two_v = 2.0 * V[r];
            for (int q = 0; q < NV; q++) {
                vec c = av[q] - two_v;
                vec x = cut ? vfma(c, u[q], -w[q]) : c * sv[q] * u[q] - bv[q] * w[q];
                w[q] = u[q];
                u[q] = x;
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
void power(long n, const double *zeta, long k, double *out)
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
 * rows are the free tail zeta^r.  Returns the number of cut points with
 * ||zeta|^2 - 1| above 1e-15, which are not stepped. */
long lanes(const double *V, long L, long n, int cut, double *lane, long width,
           double *rows, long n_rows)
{
    double *s = lane + width, *x2 = lane + 4 * width;
    long off = 0;
    if (!cut) {
        run(V, L, n, lane, s, s + width, x2 - width, x2, rows, width, n_rows, 0, 0);
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
    run(V, L, n, lane, s, s + width, x2 - width, x2, rows, width, n_rows, s, 1);
    return 0;
}

#define CMUL(ar, ai, br, bi, re, im) \
    do { double re_ = fma(ar, br, -((ai) * (bi))), im_ = fma(ar, bi, (ai) * (br)); \
         re = re_; im = im_; } while (0)

/* numpy's |a + ib| */
static double npabs(double a, double b)
{
    a = fabs(a);
    b = fabs(b);
    if (a == INFINITY || b == INFINITY)
        return INFINITY;
    if (a != a || b != b)
        return NAN;
    double l = a > b ? a : b, s = a > b ? b : a;
    if (l == 0.0)
        return 0.0;
    s /= l;
    return l * sqrt(fma(s, s, 1.0));
}

/* T: no point whose cheap square is below it raises the running max top */
static double below(double top)
{
    if (top != top)
        return INFINITY;
    if (top >= 0x1p-500 && top <= 0x1p500)
        return top * top * (1.0 - 0x1p-46);
    return -INFINITY;
}

/* Raise *dev to max |t - 1| over the first m points of a block. */
static inline __attribute__((always_inline)) void
reduce(double *dev, const double *ur, const double *ui, long m)
{
    double top = *dev, t = below(top);
    vec u0, u1, w0, w1;
    memcpy(&u0, ur, sizeof u0);
    memcpy(&u1, ur + 8, sizeof u1);
    memcpy(&w0, ui, sizeof w0);
    memcpy(&w1, ui + 8, sizeof w1);
    u0 -= 1.0;
    u1 -= 1.0;
    vec_l c = (u0 * u0 + w0 * w0 < t) & (u1 * u1 + w1 * w1 < t);
    c &= __builtin_shuffle(c, (vec_l){4, 5, 6, 7, 0, 1, 2, 3});
    c &= __builtin_shuffle(c, (vec_l){2, 3, 0, 1, 2, 3, 0, 1});
    c &= __builtin_shuffle(c, (vec_l){1, 0, 1, 0, 1, 0, 1, 0});
    if (c[0])
        return;                 /* every point below T */
    for (long k = 0; k < m; k++) {
        double a = ur[k] - 1.0, b = ui[k];
        if (a * a + b * b < t)
            continue;
        double d = npabs(a, b);
        if (d > top || d != d) {
            top = d;
            t = below(top);
        }
    }
    *dev = top;
}

/* Step n points (interleaved complex zeta and 2z) from the free tail
 * t_L = t_{L+1} = 1 down to t_1, raising dev[r - 1] to the max over the
 * points of |t_r - 1|. */
void decay(const double *V, long L, long n, const double *zeta,
           const double *two_z, double *dev)
{
    for (long j = 0; j < n; j += DBLOCK) {
        long m = n - j < DBLOCK ? n - j : DBLOCK;
        double zr[DBLOCK], zi[DBLOCK], qr[DBLOCK], qi[DBLOCK], ar[DBLOCK], ai[DBLOCK];
        double ur[DBLOCK], ui[DBLOCK], vr[DBLOCK], vi[DBLOCK];
        for (int k = 0; k < DBLOCK; k++) {
            long i = 2 * (j + (k < m ? k : 0));
            zr[k] = zeta[i];
            zi[k] = zeta[i + 1];
            ar[k] = two_z[i];
            ai[k] = two_z[i + 1];
            ur[k] = vr[k] = 1.0;
            ui[k] = vi[k] = 0.0;
            CMUL(zr[k], zi[k], zr[k], zi[k], qr[k], qi[k]);
        }
        for (long r = L - 1; r >= 1; r--) {
            double two_v = 2.0 * V[r];
            for (int k = 0; k < DBLOCK; k++) {
                double cr = ar[k] - two_v, ci = ai[k], sr, si;
                CMUL(cr, ci, zr[k], zi[k], cr, ci);
                CMUL(cr, ci, ur[k], ui[k], cr, ci);
                CMUL(qr[k], qi[k], vr[k], vi[k], sr, si);
                vr[k] = ur[k];
                vi[k] = ui[k];
                ur[k] = cr - sr;
                ui[k] = ci - si;
            }
            reduce(dev + (r - 1), ur, ui, m);
        }
    }
}
