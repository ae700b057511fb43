/* The node-counting sweep and the block products of pdmorse.kernels, in C99.

   kernels builds this file on first use with the flags in kernels._FLAGS
   and checks both functions against its Python and numpy code before it
   runs them.  Built with -ffp-contract=off and without fast-math, every
   product and sum rounds once to double, as a Python float operation and a
   numpy element-wise operation do.  The caller has checked every index. */

/* Most steps per block: the product tree keeps a block's step matrices in a
   buffer of this many (kernels.MAX_BLOCK). */
#define MAX_BLOCK 16

/* blocks is a C-contiguous float64 array of shape (K, 2, 2, nb): entry (i, j)
   of block b of row k is blocks[(4 k + 2 i + j) nb + b].  The loop walks
   blocks b0 .. b1 - 1 of one row; with reverse set it walks blocks b1 - 1
   down to b0 with the entries in adjugate order (m11, m01, m10, m00), the
   right half-sweep of the oracle.  state holds (phi, phi') on entry and on
   return; the return value is the number of nodes counted.

   Each step is the plain step of kernels.sweep, operation for operation: a
   node on a strict sign change of phi, a rescale by 1e-250 once |phi|
   passes 1e250, and no node and no rescale for NaN, whose comparisons are
   all false. */
int pdmorse_sweep_row(const double *blocks, int nb, int row, int b0, int b1, int reverse,
                      double *state)
{
    const double *m = blocks + 4 * (long long)nb * row;
    const double *a = m, *b = m + nb, *c = m + 2 * (long long)nb, *e = m + 3 * (long long)nb;
    double phi = state[0], dphi = state[1];
    int nodes = 0, i = b0, step = 1, n;

    if (reverse) {
        const double *t = a;
        a = e;
        e = t;
        i = b1 - 1;
        step = -1;
    }
    for (n = b1 - b0; n > 0; n--, i += step) {
        double p = a[i] * phi + b[i] * dphi;
        double d = c[i] * phi + e[i] * dphi;
        if ((p < 0.0 && phi > 0.0) || (p > 0.0 && phi < 0.0))
            nodes++;
        if (p > 1e250 || p < -1e250) {
            p *= 1e-250;
            d *= 1e-250;
        }
        phi = p;
        dphi = d;
    }
    state[0] = phi;
    state[1] = dphi;
    return nodes;
}

/* table is a C-contiguous float64 array of shape (3, 2, 2, m, nbt): the
   coefficients (c2, f, c1) of entry (i, j) of step s of block b, at
   table[((4 c + 2 i + j) m + s) nbt + b], with m a power of two up to
   MAX_BLOCK.  For each of the k offsets d[e] and blocks b = b0 .. b1 - 1,
   every step entry is evaluated by Horner's rule, ((c2 d) + c1) d + f, and
   the block's m steps are multiplied as a pairwise tree: each halving takes
   step 2 s + 1 times step 2 s into step s, entry (i, l) summed as
   (0.0 + A[i,0] B[0,l]) + A[i,1] B[1,l].  That is the order of numpy's
   einsum, whose sum starts from +0.0 (so -0 + -0 gives +0): the products
   are kernels' numpy products bit for bit.  out, a C-contiguous array of
   shape (k, 2, 2, b1 - b0), gets entry (i, j) of the product of block b at
   offset d[e] at out[(4 e + 2 i + j) (b1 - b0) + b - b0]. */
void pdmorse_block_rows(const double *table, int m, int nbt, int b0, int b1,
                        const double *d, int k, double *out)
{
    long long plane = (long long)m * nbt, nb = b1 - b0;
    double steps[MAX_BLOCK][4];
    int e, b, s, n, t;

    if (m < 1 || m > MAX_BLOCK)
        return;
    for (e = 0; e < k; e++) {
        for (b = b0; b < b1; b++) {
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
                    const double *p = steps[2 * s + 1], *q = steps[2 * s];
                    double r00 = (0.0 + p[0] * q[0]) + p[1] * q[2];
                    double r01 = (0.0 + p[0] * q[1]) + p[1] * q[3];
                    double r10 = (0.0 + p[2] * q[0]) + p[3] * q[2];
                    double r11 = (0.0 + p[2] * q[1]) + p[3] * q[3];
                    steps[s][0] = r00;
                    steps[s][1] = r01;
                    steps[s][2] = r10;
                    steps[s][3] = r11;
                }
            }
            for (t = 0; t < 4; t++)
                out[(4 * (long long)e + t) * nb + b - b0] = steps[0][t];
        }
    }
}
