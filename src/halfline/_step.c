/* The backward site step of the scaled Jost recursion; halfline._kernels
 * builds this file into a shared library on first import and calls it
 * through ctypes.
 *
 * Row r of a table V[0..L-1] holds t(r - 1).  Rows L and L + 1 are the free
 * tail 1, and below them
 *
 *     t_r = ((2z - 2 V[r]) zeta) t_{r+1} - zeta^2 t_{r+2}.
 *
 * Each point is stepped on its own, with the operations of the per-site
 * numpy loop in their order: c = 2z - 2V, c = c zeta, c = c t_{r+1},
 * u = zeta^2 t_{r+2}, t_r = c - u.  On a CPU with FMA, numpy 2.4 forms a
 * complex product as re = fma(ar, br, -(ai bi)), im = fma(ar, bi, ai br);
 * so does CMUL, and the build passes -ffp-contract=off so that no other
 * product is fused.  The values then equal the numpy loop's bit for bit.
 * Real points (off the cut, the thresholds) come with zero imaginary parts,
 * which stay zero, and each real part is rounded as a real product is.
 *
 * A block of BLOCK points is carried through all sites at once, each
 * quantity of the block in two 512-bit registers where the CPU has them;
 * the last block is padded with copies of its first point, whose values are
 * never written out.
 *
 * Given dev, the step also reduces the decay scan's max over the points of
 * |t_r - 1| into dev[r - r_lo], equal to numpy's np.max(np.abs(t - 1.0))
 * bit for bit.  numpy's vector loop takes the modulus of (a, b) as
 * L sqrt(fma(S/L, S/L, 1)) with L = max(|a|, |b|), S = min(|a|, |b|); it
 * gives 0 at L = 0, inf for an infinite part (even beside NaN), and
 * otherwise NaN beside NaN.  npabs is that modulus, and its division and
 * square root are spent only where a point can raise the site's running
 * max M: a point whose cheap square s = a a + b b is below
 * T = M M (1 - 2^-46) is skipped.  For M in [2^-500, 2^500] that is exact:
 * s lies within 2.1 ulps of a^2 + b^2 (an underflowed square adds at most
 * 2^-1074, under 2^-74 M^2), and the modulus within 3.1 ulps of its root,
 * so s < T gives a modulus below M.  An overflowed or NaN s is never below
 * T.  Outside that range every point is evaluated; a NaN M, which no point
 * can change, skips every point with a finite s.
 */

#include <math.h>
#include <string.h>

#define BLOCK 16

#if defined(__x86_64__)
#pragma GCC target("prefer-vector-width=512")
#endif

/* 8 lanes, half a block, for the test whether any point can raise M */
typedef double half_d __attribute__((vector_size(8 * sizeof(double))));
typedef long half_l __attribute__((vector_size(8 * sizeof(long))));

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
    half_d u0, u1, w0, w1;
    memcpy(&u0, ur, sizeof u0);
    memcpy(&u1, ur + 8, sizeof u1);
    memcpy(&w0, ui, sizeof w0);
    memcpy(&w1, ui + 8, sizeof w1);
    u0 -= 1.0;
    u1 -= 1.0;
    half_l c = (u0 * u0 + w0 * w0 < t) & (u1 * u1 + w1 * w1 < t);
    c &= __builtin_shuffle(c, (half_l){4, 5, 6, 7, 0, 1, 2, 3});
    c &= __builtin_shuffle(c, (half_l){2, 3, 0, 1, 2, 3, 0, 1});
    c &= __builtin_shuffle(c, (half_l){1, 0, 1, 0, 1, 0, 1, 0});
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

/* The step, compiled once with the reduction and once without, so that the
 * Jost path's site loop carries no reduction code. */
static inline __attribute__((always_inline)) void
run(const double *V, long r_hi, long r_lo, long n,
    const double *zeta, const double *two_z,
    double *t1, double *t2,
    double *rows, long stride, long n_rows, double *dev)
{
    for (long j = 0; j < n; j += BLOCK) {
        long m = n - j < BLOCK ? n - j : BLOCK;
        double zr[BLOCK], zi[BLOCK], qr[BLOCK], qi[BLOCK], ar[BLOCK], ai[BLOCK];
        double ur[BLOCK], ui[BLOCK], vr[BLOCK], vi[BLOCK];
        for (int k = 0; k < BLOCK; k++) {
            long i = 2 * (j + (k < m ? k : 0));
            zr[k] = zeta[i];
            zi[k] = zeta[i + 1];
            ar[k] = two_z[i];
            ai[k] = two_z[i + 1];
            ur[k] = t1[i];
            ui[k] = t1[i + 1];
            vr[k] = t2[i];
            vi[k] = t2[i + 1];
        }
        for (int k = 0; k < BLOCK; k++)
            CMUL(zr[k], zi[k], zr[k], zi[k], qr[k], qi[k]);
        for (long r = r_hi - 1; r >= r_lo; r--) {
            double two_v = 2.0 * V[r];
            for (int k = 0; k < BLOCK; k++) {
                double cr = ar[k] - two_v, ci = ai[k], sr, si;
                CMUL(cr, ci, zr[k], zi[k], cr, ci);
                CMUL(cr, ci, ur[k], ui[k], cr, ci);
                CMUL(qr[k], qi[k], vr[k], vi[k], sr, si);
                vr[k] = ur[k];
                vi[k] = ui[k];
                ur[k] = cr - sr;
                ui[k] = ci - si;
            }
            if (r - r_lo < n_rows) {
                double *row = rows + 2 * ((r - r_lo) * stride + j);
                for (long k = 0; k < m; k++) {
                    row[2 * k] = ur[k];
                    row[2 * k + 1] = ui[k];
                }
            }
            if (dev)
                reduce(dev + (r - r_lo), ur, ui, m);
        }
        for (long k = 0; k < m; k++) {
            t1[2 * (j + k)] = ur[k];
            t1[2 * (j + k) + 1] = ui[k];
            t2[2 * (j + k)] = vr[k];
            t2[2 * (j + k) + 1] = vi[k];
        }
    }
}

/* Step the n points (interleaved complex zeta and 2z) from the rows
 * (t1, t2) = (r_hi, r_hi + 1) down to (r_lo, r_lo + 1), in place.  Row r of
 * point k is written to rows[(r - r_lo) stride + k] when r - r_lo < n_rows,
 * and, unless dev is NULL, dev[r - r_lo] is raised to the max over the
 * points of |t_r - 1|.  All arrays but V and dev are interleaved complex. */
void step(const double *V, long r_hi, long r_lo, long n,
          const double *zeta, const double *two_z,
          double *t1, double *t2,
          double *rows, long stride, long n_rows, double *dev)
{
    if (dev)
        run(V, r_hi, r_lo, n, zeta, two_z, t1, t2, rows, stride, n_rows, dev);
    else
        run(V, r_hi, r_lo, n, zeta, two_z, t1, t2, rows, stride, n_rows, 0);
}
