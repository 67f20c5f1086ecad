/* The backward site steps of the Jost recursion; halfline._kernels builds
 * this file into a shared library on first import and calls it through
 * ctypes.  Row r of a table V[0..L-1] holds x(r - 1); the lanes step down
 * from the free tail, the rows L and L + 1.
 *
 * lanes steps BLOCK points at a time, each quantity a few vectors of 8
 * lanes that stay in 512-bit registers where the CPU has them; the last
 * block is padded with copies of its points, never written out.
 *   - A real point is one lane of the scaled recursion
 *     x_r = ((a - 2 V[r]) s) x_{r+1} - b x_{r+2}, s = zeta, b = zeta^2, with
 *     no product fused (the build passes -ffp-contract=off): the per-site
 *     complex numpy loop with zero imaginary parts, bit for bit.
 *   - A cut point is two lanes, re and im, of the unscaled recursion
 *     x_r = fma(c, x_{r+1}, -x_{r+2}), c = a - 2 V[r]: s = b = 1 folded away.
 *     In split layout (re lanes of 8 points in one vector, im lanes in
 *     another) c is computed once per point, and a trip of two sites trades
 *     the roles of u and w.  x(0) and the rows are scaled by zeta^L
 *     (`power`), the products unfused; every fused operation is an fma.
 *
 * Given dev, the cut lanes also reduce the decay check.  From
 * x(L-1) = theta~(L-1) = 1 they carry the phase g = conj(zeta)^(L-1-n),
 * one product per site, and raise dev[n] to the max over the points of
 * |theta~(n) - g|^2 = |t(n) - 1|^2 for n = 0..L-2; a NaN raises it to NaN.
 * block_lanes exports BLOCK: a call pays for whole blocks of points.
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

#define NV 4                    /* vectors per block of real lanes, or of re lanes */
#define BLOCK (8 * NV)
#define INLINE static inline __attribute__((always_inline))

const long block_lanes = BLOCK;

typedef struct { vec re[NV], im[NV]; } cv;     /* a block of cut points, split */

INLINE vec vfma(vec a, vec b, vec c)
{
    vec r;
    for (int i = 0; i < 8; i++)
        r[i] = fma(a[i], b[i], c[i]);
    return r;
}

/* the larger of a and b, NaN if either is, for a and b in +0..+inf or NaN:
 * as unsigned integers their bits order them, NaN of either sign on top */
INLINE vec vmax(vec a, vec b)
{
    vec_u x = (vec_u)a, y = (vec_u)b, r;
    for (int i = 0; i < 8; i++)
        r[i] = x[i] > y[i] ? x[i] : y[i];
    return (vec)r;
}

/* the lanes x[step j], x[step (j + 1)], ..., past j + m copies of the first m */
INLINE void load(vec *v, const double *x, long j, long m, long step)
{
    double l[BLOCK];
    for (int k = 0; k < BLOCK; k++)
        l[k] = x[step * (j + k % m)];
    memcpy(v, l, sizeof l);
}

/* the first m lanes of v to x[step j], ..., through a copy: v stays in registers */
INLINE void store(double *x, long j, long m, long step, const vec *v)
{
    double l[BLOCK];
    memcpy(l, v, sizeof l);
    for (long k = 0; k < m; k++)
        x[step * (j + k)] = l[k];
}

/* the first m points of v, split, to the complex points j.. of x */
INLINE void put(double *x, long j, long m, const cv *v)
{
    store(x, j, m, 2, v->re), store(x + 1, j, m, 2, v->im);
}

/* v times f, the products unfused */
INLINE void cmul(cv *v, const cv *f)
{
    for (int q = 0; q < NV; q++) {
        vec re = f->re[q] * v->re[q] - f->im[q] * v->im[q];
        v->im[q] = f->re[q] * v->im[q] + f->im[q] * v->re[q];
        v->re[q] = re;
    }
}

/* The real lanes' step. */
static void run(const double *V, long L, long n, const double *a, const double *s,
                const double *b, double *x1, double *x2, double *rows, long stride,
                long n_rows)
{
    for (long j = 0; j < n; j += BLOCK) {
        long m = n - j < BLOCK ? n - j : BLOCK;
        vec av[NV], sv[NV], bv[NV], u[NV], w[NV];
        load(av, a, j, m, 1);
        load(sv, s, j, m, 1);
        load(bv, b, j, m, 1);
        load(u, x1, j, m, 1);
        load(w, x2, j, m, 1);
        for (long r = L - 1; r >= 0; r--) {
            double two_v = 2.0 * V[r];
#pragma GCC unroll 8            /* so that the vectors stay in registers */
            for (int q = 0; q < NV; q++) {
                vec x = (av[q] - two_v) * sv[q] * u[q] - bv[q] * w[q];
                w[q] = u[q];
                u[q] = x;
            }
            if (r < n_rows)
                store(rows + r * stride, j, m, 1, u);
        }
        store(x1, j, m, 1, u);
        store(x2, j, m, 1, w);
    }
}

/* double-double arithmetic on 8 points at a time, for the scale zeta^L */
typedef struct { vec h, l; } dd;

INLINE dd dd_sum(vec a, vec b)
{
    vec s = a + b, v = s - a;
    return (dd){s, (a - (s - v)) + (b - v)};
}

INLINE dd dd_mul(dd a, dd b)
{
    vec p = a.h * b.h;
    return dd_sum(p, vfma(a.h, b.h, -p) + (a.h * b.l + a.l * b.h));
}

/* a b - c d */
INLINE dd dd_det(dd a, dd b, dd c, dd d)
{
    dd x = dd_mul(a, b), y = dd_mul(c, d), s = dd_sum(x.h, -y.h);
    return dd_sum(s.h, s.l + (x.l - y.l));
}

typedef struct { dd re, im; } zd;

INLINE zd zd_mul(zd a, zd b)
{
    return (zd){dd_det(a.re, b.re, a.im, b.im), dd_det(a.re, b.im, (dd){-a.im.h, -a.im.l}, b.re)};
}

/* (*fr, *fi) = zeta^k for the 8 points (zr, zi), k >= 0, by binary powering in
 * double-double, rounded once: a few ulps, exact where every product is */
INLINE void power(vec zr, vec zi, long k, vec *fr, vec *fi)
{
    const vec zero = {0}, one = zero + 1.0;
    zd b = {{zr, zero}, {zi, zero}}, p = {{one, zero}, {zero, zero}};
    for (long e = k, first = 1; e; first &= !(e & 1), e >>= 1) {
        if (e & 1)
            p = first ? b : zd_mul(p, b);
        if (e > 1)
            b = zd_mul(b, b);
    }
    *fr = p.re.h + p.re.l;
    *fi = p.im.h + p.im.l;
}

/* Site r of a block of cut points: w = x(r + 2) becomes x(r), from u = x(r + 1),
 * and goes to row r < n_rows times f; given dev, g turns and raises dev[r - 1]. */
INLINE void site(const double *V, long r, const vec *av, const cv *u, cv *w, cv *g,
                 const cv *z, const cv *f, double *rows, long width, long n_rows, long j,
                 long m, double *dev)
{
    double two_v = 2.0 * V[r];
    vec d[NV];
#pragma GCC unroll 8
    for (int q = 0; q < NV; q++) {
        vec c = av[q] - two_v;
        w->re[q] = vfma(c, u->re[q], -w->re[q]);
        w->im[q] = vfma(c, u->im[q], -w->im[q]);
        if (dev) {
            vec h = g->re[q];
            g->re[q] = vfma(g->im[q], z->im[q], h * z->re[q]);
            g->im[q] = vfma(h, -z->im[q], g->im[q] * z->re[q]);
            vec er = w->re[q] - g->re[q], ei = w->im[q] - g->im[q];
            d[q] = er * er + ei * ei;
        }
    }
    if (dev && r > 0) {         /* a tree over the vectors, then over the lanes */
        for (int h = NV / 2; h; h /= 2)
            for (int q = 0; q < h; q++)
                d[q] = vmax(d[q], d[q + h]);
        for (long h = 4; h; h /= 2)
            d[0] = vmax(d[0], __builtin_shuffle(d[0], (vec_l){0, 1, 2, 3, 4, 5, 6, 7} ^ h));
        dev[r - 1] = vmax(d[0], (vec){0} + dev[r - 1])[0];
    }
    if (r < n_rows) {
        cv x = *w;
        cmul(&x, f);
        put(rows + r * width, j, m, &x);
    }
}

/* The cut lanes' step, on the n complex points of the lane buffer. */
INLINE void run_cut(const double *V, long L, long n, double *lane, long width,
                    double *rows, long n_rows, double *dev)
{
    double *x1 = lane + 3 * width, *x2 = x1 + width;
    for (long j = 0; j < n; j += BLOCK) {
        long m = n - j < BLOCK ? n - j : BLOCK;
        vec av[NV];
        cv u, w, z, f, g, t;
        load(av, lane, j, m, 2);
        load(u.re, x1, j, m, 2), load(u.im, x1 + 1, j, m, 2);
        load(z.re, x2, j, m, 2), load(z.im, x2 + 1, j, m, 2);
        for (int q = 0; q < NV; q++)
            power(z.re[q], z.im[q], L, f.re + q, f.im + q);
        put(lane + width, j, m, &f);
        w = z, g = u, t = f;
        for (long r = L; r < n_rows; r++) {     /* the free tail zeta^r */
            if (r > L)
                cmul(&t, &z);
            put(rows + r * width, j, m, &t);
        }
        long r = L - 1;
        for (; r > 0; r -= 2) {
            site(V, r, av, &u, &w, &g, &z, &f, rows, width, n_rows, j, m, dev);
            site(V, r - 1, av, &w, &u, &g, &z, &f, rows, width, n_rows, j, m, dev);
        }
        if (r == 0) {
            site(V, 0, av, &u, &w, &g, &z, &f, rows, width, n_rows, j, m, dev);
            t = u, u = w, w = t;
        }
        put(x2, j, m, &w);
        cmul(&u, &f);
        put(x1, j, m, &u);
    }
}

/* Step n lanes from the rows (x(L), x(L + 1)) down to (x(0), x(1)), in
 * place, writing row r < n_rows to row r of rows.  The lane buffer holds
 * five rows of width doubles: 2z, the real lanes' factors s and b, x(L) and
 * x(L + 1); rows has rows of width doubles too.  Cut lanes (cut != 0) are
 * (re, im) pairs from (1, zeta); in the row s, which they do not read, they
 * put zeta^L, which scales x(0) and their rows, and past the table their
 * rows are the free tail zeta^r.  Given dev (cut lanes only), they raise
 * dev[n] to the max over the points of |t(n) - 1|^2 for n = 0..L-2.  The
 * caller has checked that every cut point lies on |zeta| = 1. */
void lanes(const double *V, long L, long n, int cut, double *lane, long width,
           double *rows, long n_rows, double *dev)
{
    double *s = lane + width;
    if (!cut)
        run(V, L, n, lane, s, s + width, s + 2 * width, s + 3 * width, rows, width, n_rows);
    else if (dev)
        run_cut(V, L, n / 2, lane, width, rows, n_rows, dev);
    else
        run_cut(V, L, n / 2, lane, width, rows, n_rows, 0);
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
