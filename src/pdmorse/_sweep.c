/* The node-counting walk of pdmorse.kernels, in C99.

   kernels builds this file on first use with the flags in kernels._FLAGS
   and checks it against its numpy and Python code before it runs it.
   Built with -ffp-contract=off and without fast-math, every product and
   sum rounds once to double, as a Python float operation and a numpy
   element-wise operation do.  The caller has checked every index. */

/* Most steps per block: the product tree keeps a block's step matrices in a
   buffer of this many (kernels.MAX_BLOCK). */
#define MAX_BLOCK 16

/* table is a C-contiguous float64 array of shape (3, 2, 2, m, nbt): the
   coefficients (c2, f, c1) of entry (i, j) of step s of block b, at
   table[((4 c + 2 i + j) m + s) nbt + b], with m a power of two up to
   MAX_BLOCK.  For each of the k offsets d[e], the walk takes blocks b0 ..
   ends[e] - 1, or with reverse set blocks ends[e] - 1 down to b0, from the
   state (states[2 e], states[2 e + 1]) = (phi, phi'), and leaves the last
   state there and the nodes counted in nodes[e].

   Each block is the product of its m steps at d[e]: every step entry is
   evaluated by Horner's rule, ((c2 d) + c1) d + f, and the steps are
   multiplied as a pairwise tree, each halving taking step 2 s + 1 times
   step 2 s into step s, entry (i, l) summed as
   (0.0 + A[i,0] B[0,l]) + A[i,1] B[1,l].  That is the order of numpy's
   einsum, whose sum starts from +0.0 (so -0 + -0 gives +0).  A reverse
   walk takes each product's entries in adjugate order (m11, m01, m10, m00),
   the right half-sweep of the oracle.  Each block is then the plain step
   of kernels.sweep, operation for operation: a node on a strict sign
   change of phi, a rescale by 1e-250 once |phi| passes 1e250, and no node
   and no rescale for NaN, whose comparisons are all false. */
void pdmorse_walk(const double *table, int m, int nbt, int b0, const int *ends,
                  const double *d, int k, int reverse, double *states, int *nodes)
{
    long long plane = (long long)m * nbt;
    double steps[MAX_BLOCK][4];
    int first = reverse ? 3 : 0, last = 3 - first, e, b, s, n, t;

    if (m < 1 || m > MAX_BLOCK)
        return;
    for (e = 0; e < k; e++) {
        double phi = states[2 * e], dphi = states[2 * e + 1];
        int count = 0, left = ends[e] - b0;

        for (b = reverse ? ends[e] - 1 : b0; left > 0; left--, b += reverse ? -1 : 1) {
            const double *a = steps[0];
            double p, q;

            for (s = 0; s < m; s++) {
                const double *c = table + (long long)s * nbt + b;
                for (t = 0; t < 4; t++) {
                    double x = c[t * plane] * d[e];
                    x = x + c[(8 + t) * plane];
                    x = x * d[e];
                    steps[s][t] = x + c[(4 + t) * plane];
                }
            }
            for (n = m / 2; n > 0; n /= 2) {
                for (s = 0; s < n; s++) {
                    const double *u = steps[2 * s + 1], *v = steps[2 * s];
                    double r00 = (0.0 + u[0] * v[0]) + u[1] * v[2];
                    double r01 = (0.0 + u[0] * v[1]) + u[1] * v[3];
                    double r10 = (0.0 + u[2] * v[0]) + u[3] * v[2];
                    double r11 = (0.0 + u[2] * v[1]) + u[3] * v[3];
                    steps[s][0] = r00;
                    steps[s][1] = r01;
                    steps[s][2] = r10;
                    steps[s][3] = r11;
                }
            }
            p = a[first] * phi + a[1] * dphi;
            q = a[2] * phi + a[last] * dphi;
            if ((p < 0.0 && phi > 0.0) || (p > 0.0 && phi < 0.0))
                count++;
            if (p > 1e250 || p < -1e250) {
                p *= 1e-250;
                q *= 1e-250;
            }
            phi = p;
            dphi = q;
        }
        states[2 * e] = phi;
        states[2 * e + 1] = dphi;
        nodes[e] = count;
    }
}
