/* The node-counting sweep of pdmorse.kernels, in C99.

   kernels.sweep_row builds this file on first use with the flags in
   kernels._FLAGS and checks it against kernels.sweep before it runs it.

   blocks is a C-contiguous float64 array of shape (K, 2, 2, nb): entry (i, j)
   of block b of row k is blocks[(4 k + 2 i + j) nb + b].  The loop walks
   blocks b0 .. b1 - 1 of one row; with reverse set it walks blocks b1 - 1
   down to b0 with the entries in adjugate order (m11, m01, m10, m00), the
   right half-sweep of the oracle.  state holds (phi, phi') on entry and on
   return; the return value is the number of nodes counted.  The caller has
   checked every index.

   Each step is the plain step of kernels.sweep, operation for operation: a
   node on a strict sign change of phi, a rescale by 1e-250 once |phi|
   passes 1e250, and no node and no rescale for NaN, whose comparisons are
   all false.  Built with -ffp-contract=off and without fast-math, every
   product and sum rounds once to double, as a Python float operation does. */

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
