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
 * the last block is padded with zeta = 0, which steps to finite zeros.
 */

#include <math.h>

#define BLOCK 16

#if defined(__x86_64__)
#pragma GCC target("prefer-vector-width=512")
#endif

#define CMUL(ar, ai, br, bi, re, im) \
    do { double re_ = fma(ar, br, -((ai) * (bi))), im_ = fma(ar, bi, (ai) * (br)); \
         re = re_; im = im_; } while (0)

/* Step the n points (interleaved complex zeta and 2z) from the rows
 * (t1, t2) = (r_hi, r_hi + 1) down to (r_lo, r_lo + 1), in place.  Row r of
 * point k is written to rows[(r - r_lo) stride + k] when r - r_lo < n_rows.
 * All arrays are interleaved complex. */
void step(const double *V, long r_hi, long r_lo, long n,
          const double *zeta, const double *two_z,
          double *t1, double *t2,
          double *rows, long stride, long n_rows)
{
    for (long j = 0; j < n; j += BLOCK) {
        long m = n - j < BLOCK ? n - j : BLOCK;
        double zr[BLOCK] = {0}, zi[BLOCK] = {0}, qr[BLOCK], qi[BLOCK];
        double ar[BLOCK] = {0}, ai[BLOCK] = {0};
        double ur[BLOCK] = {0}, ui[BLOCK] = {0}, vr[BLOCK] = {0}, vi[BLOCK] = {0};
        for (long k = 0; k < m; k++) {
            zr[k] = zeta[2 * (j + k)];
            zi[k] = zeta[2 * (j + k) + 1];
            ar[k] = two_z[2 * (j + k)];
            ai[k] = two_z[2 * (j + k) + 1];
            ur[k] = t1[2 * (j + k)];
            ui[k] = t1[2 * (j + k) + 1];
            vr[k] = t2[2 * (j + k)];
            vi[k] = t2[2 * (j + k) + 1];
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
        }
        for (long k = 0; k < m; k++) {
            t1[2 * (j + k)] = ur[k];
            t1[2 * (j + k) + 1] = ui[k];
            t2[2 * (j + k)] = vr[k];
            t2[2 * (j + k) + 1] = vi[k];
        }
    }
}
