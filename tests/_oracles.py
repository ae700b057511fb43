"""Independent reference implementations used only by the tests.

These deliberately avoid the library code paths they check: the Jacobi
oracle is the explicit finite sum, derivatives come from Richardson-style
central differences, integrals from the composite trapezoid or fixed-order
Gauss-Legendre rules, RK4 propagators from composed stage matrices (also in
extended precision),
eigenvalues from plain per-level bisection on node counts, the node-counting
sweep from a one-branch loop, block products from scalar float arithmetic
in the documented operation order, CSV rows from per-cell formatting, and
JSON spectra from ``json.dumps``.  The
Rodrigues expansion cross-checks the Jacobi recurrence, and the branch
explorer spans all four (k-root, pi-sign) pairings of the quantization.

The paper-form relations the library does not serve live here too: the
bare Morse potential V(x), the printed reality condition, A_tilde from eps, the constant-mass eigenvalue,
the quantization internals, the analytic mass derivatives and the paper-form
ordering term of U_eff built from them (the reference for ``oracle.u_eff``'s
closed form), and the node count and equation residual of the assembled
eigenfunction (both through ``phi``).
So does ``jacobi``, pointwise P_n^{(p,q)}(x) through the library's own
rescaled recurrence, which the tests check against the oracles above.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from pdmorse.analytic import _state, discriminant_root, nu_consistent_epsilon
from pdmorse.errors import ComplexBranch, RealityViolation
from pdmorse.model import WEYL
from pdmorse.wavefn import SignConvention, _scaled_jacobi, phi

_RESCALE_LIMIT = 1e250  # sweep_reference: renormalization threshold


def jacobi(n: int, p: float, q: float, x):
    """Jacobi polynomial P_n^{(p,q)}(x) by the library's three-term recurrence.

    Pointwise evaluation for any real p, q and degree: the rescaled
    recurrence of ``pdmorse.wavefn._scaled_jacobi`` times exp(log scale),
    which is inf where |P_n(x)| exceeds the largest float.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    mantissa, log_scale = _scaled_jacobi(n, p, q, np.atleast_1d(x))
    out = mantissa * np.exp(log_scale)
    return float(out[0]) if x.ndim == 0 else out


def jacobi_finite_sum(n: int, p: float, q: float, x: float) -> float:
    """P_n^{(p,q)}(x) from the explicit finite-sum formula.

    sum_k C(n+p, n-k) C(n+q, k) ((x-1)/2)^k ((x+1)/2)^{n-k}, with generalized
    binomials evaluated as running products.  Accurate for moderate n, p, q.
    """
    total = 0.0
    for k in range(n + 1):
        c1 = 1.0
        for j in range(1, n - k + 1):
            c1 *= (n + p - j + 1) / j
        c2 = 1.0
        for j in range(1, k + 1):
            c2 *= (n + q - j + 1) / j
        total += c1 * c2 * ((x - 1.0) / 2.0) ** k * ((x + 1.0) / 2.0) ** (n - k)
    return total


def jacobi_recurrence_mp(n: int, p: float, q: float, x: float):
    """P_n^{(p,q)}(x) by the three-term recurrence in mpmath at the working precision."""
    import mpmath

    p, q, x = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(x)
    prev, cur = mpmath.mpf(1), ((p + q + 2) * x + (p - q)) / 2
    if n == 0:
        return prev
    for k in range(2, n + 1):
        t = 2 * k + p + q
        a = 2 * k * (k + p + q) * (t - 2)
        b = (t - 1) * (p * p - q * q) + (t - 1) * t * (t - 2) * x
        prev, cur = cur, (b * cur - 2 * (k + p - 1) * (k + q - 1) * t * prev) / a
    return cur


def fd_derivative(f, x: float, order: int = 1, h: float = 1e-5) -> float:
    """Central finite-difference first or second derivative with one Richardson step."""
    def d1(step):
        return (f(x + step) - f(x - step)) / (2.0 * step)

    def d2(step):
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / step**2

    base = d1 if order == 1 else d2
    coarse = base(h)
    fine = base(h / 2.0)
    return fine + (fine - coarse) / 3.0


# numpy < 2.0 names the trapezoid rule np.trapz (pyproject.toml admits 1.24)
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def rk4_propagators_matmul(q_nodes: np.ndarray, q_mids: np.ndarray, h: float):
    """RK4 step matrices for phi'' = q phi built by composing the stage operators.

    Same contract as ``kernels.rk4_propagators``: four (N-1,) arrays.
    """
    qi = q_nodes[:-1]
    qm = q_mids
    qp = q_nodes[1:]
    n = qi.shape[0]
    a_i = np.zeros((n, 2, 2))
    a_i[:, 0, 1] = 1.0
    a_i[:, 1, 0] = qi
    a_m = np.zeros((n, 2, 2))
    a_m[:, 0, 1] = 1.0
    a_m[:, 1, 0] = qm
    a_p = np.zeros((n, 2, 2))
    a_p[:, 0, 1] = 1.0
    a_p[:, 1, 0] = qp
    ident = np.zeros((n, 2, 2))
    ident[:, 0, 0] = 1.0
    ident[:, 1, 1] = 1.0
    k1 = a_i
    k2 = a_m @ (ident + (h / 2.0) * k1)
    k3 = a_m @ (ident + (h / 2.0) * k2)
    k4 = a_p @ (ident + h * k3)
    m = ident + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return (np.ascontiguousarray(m[:, 0, 0]), np.ascontiguousarray(m[:, 0, 1]),
            np.ascontiguousarray(m[:, 1, 0]), np.ascontiguousarray(m[:, 1, 1]))


def rk4_extended(tables, h: float, energy: float, steps=None):
    """RK4 step matrices of phi'' = p (U - E) phi in extended precision.

    tables (U nodes, U midpoints, p nodes, p midpoints) are float64 arrays as
    the oracle engine holds them; they, h and energy are taken as exact.  q
    and the composed stage operators (as in ``rk4_propagators_matmul``) are
    carried in np.longdouble over every step, or, given a list of step
    indices, in 30-digit mpmath over those steps alone.  Returns the entries
    m00, m01, m10, m11: four np.longdouble arrays, or four lists of mpf.
    """
    u_nodes, u_mids, p_nodes, p_mids = tables
    if steps is None:
        ld = np.longdouble
        q_nodes = p_nodes.astype(ld) * (u_nodes.astype(ld) - ld(energy))
        qi, qm, qp = q_nodes[:-1], p_mids.astype(ld) * (u_mids.astype(ld) - ld(energy)), q_nodes[1:]
        return _rk4_composed(qi, qm, qp, ld(h))
    import mpmath

    with mpmath.workdps(30):
        mpf, e = mpmath.mpf, mpmath.mpf(energy)
        entries = [_rk4_composed(mpf(p_nodes[k]) * (mpf(u_nodes[k]) - e),
                                 mpf(p_mids[k]) * (mpf(u_mids[k]) - e),
                                 mpf(p_nodes[k + 1]) * (mpf(u_nodes[k + 1]) - e), mpf(h))
                   for k in steps]
    return [list(entry) for entry in zip(*entries)]


def _rk4_composed(qi, qm, qp, h):
    """The entries of I + h/6 (k1 + 2 k2 + 2 k3 + k4), with k1 = A(qi),
    k2 = A(qm) (I + h/2 k1), k3 = A(qm) (I + h/2 k2), k4 = A(qp) (I + h k3)
    and A(q) = [[0, 1], [q, 0]]; 2x2 matrices as (a, b, c, d) tuples of
    scalars or arrays (the exact constants of A stay Python ints)."""
    def stage(q, scale, k):  # A(q) (I + scale k)
        a, b, c, d = k
        return scale * c, 1 + scale * d, q * (1 + scale * a), q * scale * b

    k1 = (0, 1, qi, 0)
    k2 = stage(qm, h / 2, k1)
    k3 = stage(qm, h / 2, k2)
    k4 = stage(qp, h, k3)
    return tuple(one + h / 6 * (w1 + 2 * w2 + 2 * w3 + w4)
                 for one, w1, w2, w3, w4 in zip((1, 0, 0, 1), k1, k2, k3, k4))


def bisect_level(engine, n: int, e_lo: float, e_hi: float, tol_ev: float) -> float:
    """Level n by bisection on node counts from the full window, alone.

    Returns the midpoint of the final bracket, which lies within tol_ev/2 of
    the energy where the engine's node count steps from n to n + 1.
    """
    lo, hi = e_lo, e_hi
    assert engine.count_round([lo])[0] <= n < engine.count_round([hi])[0]
    while hi - lo > tol_ev:
        mid = 0.5 * (lo + hi)
        if engine.count_round([mid])[0] >= n + 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gauss_legendre_integral(f, a: float, b: float, panels: int, order: int = 20) -> float:
    """Composite fixed-order Gauss-Legendre rule for a vectorized f on [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return float(np.sum(half * weights * f((half * nodes + mid).ravel()).reshape(half.shape[0], -1)))


def csv_row_reference(values) -> str:
    """One CSV row formatted cell by cell: '' for None, str() for ints, 17 digits for floats."""
    cells = []
    for value in values:
        if value is None:
            cells.append("")
        elif isinstance(value, (int, np.integer)):
            cells.append(str(int(value)))
        else:
            cells.append(format(float(value), ".17g"))
    return ",".join(cells) + "\n"


def spectrum_json_reference(report, include_provenance: bool = True) -> str:
    """A spectrum report through json.dumps(indent=2, sort_keys=True)."""
    rows = [{"n": r.n, "eps_nl": r.eps_nl, "E_eV": r.E_eV,
             "E_paper_eV": r.E_paper_eV, "delta_eV": r.delta_eV} for r in report.rows]
    doc: dict = {"rows": rows}
    if include_provenance:
        doc["provenance"] = report.provenance
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sweep_reference(m00, m01, m10, m11, phi0: float, dphi0: float):
    """Propagate (phi, phi') through per-step 2x2 matrices, counting nodes.

    The plain one-branch loop that ``kernels.sweep`` must match bit for bit:
    node on a strict sign change of phi, rescale by 1e-250 past 1e250.
    """
    # list conversion: plain-float arithmetic is several times faster than
    # numpy scalar indexing in the interpreter
    a00 = m00.tolist()
    a01 = m01.tolist()
    a10 = m10.tolist()
    a11 = m11.tolist()
    phi = float(phi0)
    dphi = float(dphi0)
    nodes = 0
    for i in range(len(a00)):
        p = a00[i] * phi + a01[i] * dphi
        d = a10[i] * phi + a11[i] * dphi
        if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
            nodes += 1
        phi = p
        dphi = d
        if phi > _RESCALE_LIMIT or phi < -_RESCALE_LIMIT:
            phi *= 1e-250
            dphi *= 1e-250
    return phi, dphi, nodes


def block_products_reference(table: np.ndarray, b0: int, b1: int, d) -> np.ndarray:
    """The (K, 2, 2, b1 - b0) block products that ``kernels.walk`` must
    make and sweep bit for bit, in Python floats: each step entry
    ((c2 d) + c1) d + f, then each halving multiplies step 2 s + 1 by step
    2 s with entry (i, l) = (0.0 + A[i][0] B[0][l]) + A[i][1] B[1][l]."""
    m = table.shape[3]
    out = np.empty((len(d), 2, 2, b1 - b0))
    for e, offset in enumerate(float(x) for x in d):
        for b in range(b0, b1):
            coefficients = table[..., b].tolist()  # (c2, f, c1)[i][j][step]
            steps = [[[((coefficients[0][i][j][s] * offset) + coefficients[2][i][j][s])
                       * offset + coefficients[1][i][j][s] for j in range(2)]
                      for i in range(2)] for s in range(m)]
            while len(steps) > 1:
                steps = [[[(0.0 + a[i][0] * c[0][l]) + a[i][1] * c[1][l] for l in range(2)]
                          for i in range(2)] for a, c in zip(steps[1::2], steps[0::2])]
            out[e, :, :, b - b0] = steps[0]
    return out


def make_z_grid(points: int) -> np.ndarray:
    """Uniform open grid of the unit interval with the given interior count."""
    return np.linspace(0.0, 1.0, points + 2)[1:-1]


def rodrigues_psi(sys, eps: float, n: int, z, convention=SignConvention.PRINTED):
    """Polynomial part from the n-th derivative of sigma^n rho, expanded for n <= 3.

    Proportional to P_n^{(A_tilde, 2e)}(2 eta z - 1) with a z-independent
    constant; e = -/+ sqrt(eps) by convention.
    """
    if n > 3:
        raise ValueError("rodrigues_psi supports n <= 3 only")
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    sign = -2.0 if convention is SignConvention.PRINTED else 2.0
    a = sign * math.sqrt(eps)  # z-exponent of the weight
    b = a_tilde(sys, eps)      # (1 - eta z)-exponent of the weight
    eta = sys.eta
    total = np.zeros_like(zz)
    for k in range(n + 1):
        rk = 1.0
        for j in range(k + 1, n + 1):
            rk *= a + j
        sk = 1.0
        for j in range(k):
            sk *= n + b - j
        total = total + math.comb(n, k) * rk * sk * (-eta) ** k * zz**k * (1.0 - eta * zz) ** (n - k)
    return float(total[0]) if np.ndim(z) == 0 else total


def nu_branch_internals(sys, eps: float, n: int, k_root: int, pi_sign: int) -> NuInternals:
    """Quantization internals for any of the four (k-root, pi-sign) pairings.

    k_root=2, pi_sign=-1 reproduces :func:`nu_internals` up to the
    generic square-root factorization.
    """
    s = math.sqrt(eps)
    a = discriminant_root(sys, eps)
    eta = sys.eta
    base = -sys.eps2 - 2.0 * eta * eps
    k2 = base - s * a
    k1 = base + s * a
    if k_root == 2:
        c, d = a / 2.0 + eta * s, -s
        k = k2
    else:
        # perfect-square factorization for the plus root: 2 c d = eps2 + k1
        c = abs(a / 2.0 - eta * s)
        d = s if a / 2.0 >= eta * s else -s
        k = k1
    pi_slope = -eta / 2.0 + pi_sign * c
    pi_const = pi_sign * d
    tau_slope = -eta + 2.0 * pi_slope
    lambda_n = -n * tau_slope + eta * n * (n - 1)
    return NuInternals(
        k1=k1, k2=k2, pi_slope=pi_slope, pi_const=pi_const, tau_slope=tau_slope,
        lambda_=k + tau_slope / 2.0, lambda_pi=k + pi_slope, lambda_n=lambda_n)


def reality_check(sys, ordering=WEYL) -> bool:
    """The paper's reality condition v1/2 > eta^2 (2 c_ord - 1/4).

    c_ord is that of the ordering ``sys`` was reduced with.

    It is equivalent to eps1 - eta^2/2 > 0, the radicand ``spectrum`` tests:
    substituting eps1 = v1 - 4 eta^2 (c_ord - 1/4) gives eps1 - eta^2/2
    = v1 - 4 eta^2 c_ord + eta^2 - eta^2/2 = 2 [v1/2 - eta^2 (2 c_ord - 1/4)],
    so the two sides agree in sign.
    """
    return sys.v1 / 2.0 > sys.eta**2 * (2.0 * ordering.c_ord - 0.25)


def a_tilde(sys, eps: float) -> float:
    """A_tilde = sqrt(1 + 4 eps + (4/eta)(eps2 + eps1/eta)); requires eta > 0."""
    if sys.eta == 0.0:
        raise ComplexBranch("A_tilde undefined at eta = 0")
    rad = 1 + 4 * eps + (4 / sys.eta) * (sys.eps2 + sys.eps1 / sys.eta)
    if rad < 0:
        raise ComplexBranch(f"A_tilde radicand negative: {rad}")
    return math.sqrt(rad)


def constant_mass_epsilon(sys, n: int) -> float:
    """Constant-mass eigenvalue (1/4)[2n + 1 + eps2/sqrt(eps1)]^2; eta must be 0."""
    if sys.eta != 0.0:
        raise ValueError("constant_mass_epsilon requires a system reduced with eta = 0")
    if sys.eps1 <= 0:
        raise RealityViolation(f"eps1 = {sys.eps1} <= 0")
    return 0.25 * (2 * n + 1 + sys.eps2 / math.sqrt(sys.eps1)) ** 2


def nu_consistent_state(sys, n: int):
    """BoundState at the internally consistent quantization root."""
    return _state(sys, n, nu_consistent_epsilon(sys, n))


@dataclass(frozen=True)
class NuInternals:
    """Internals of the quantization machinery at a given (eps, n).

    k2 is the k-root whose minus-sign pairing keeps tau decreasing and is the
    one the public spectrum derives from; k1 is the other root.  pi_slope and
    pi_const describe the selected linear pi(z); tau_slope its induced tau
    derivative (always negative here).  Two quantization constants are
    carried: ``lambda_`` pairs k2 with tau_slope/2 and closes against
    lambda_n at every public eigenvalue; ``lambda_pi`` pairs k2 with pi_slope
    and exceeds lambda_ by exactly eta/2 (it closes at the
    ``nu_consistent_epsilon`` root instead).
    """

    k1: float
    k2: float
    pi_slope: float
    pi_const: float
    tau_slope: float
    lambda_: float
    lambda_pi: float
    lambda_n: float


def nu_internals(sys, eps: float, n: int) -> NuInternals:
    """Quantization internals with the branch selection the public spectrum uses."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    s = math.sqrt(eps)
    a = discriminant_root(sys, eps)
    eta = sys.eta
    base = -sys.eps2 - 2.0 * eta * eps
    k2 = base - s * a
    k1 = base + s * a
    pi_slope = -(eta / 2.0 + a / 2.0 + eta * s)
    pi_const = s
    tau_slope = -2.0 * (a / 2.0 + eta * s + eta)
    lambda_n = 2.0 * n * (a / 2.0 + eta * s + eta) + eta * n * (n - 1)
    return NuInternals(
        k1=k1, k2=k2, pi_slope=pi_slope, pi_const=pi_const, tau_slope=tau_slope,
        lambda_=k2 + tau_slope / 2.0, lambda_pi=k2 + pi_slope, lambda_n=lambda_n)


def potential_value(mol, x):
    """V(x) = V1 exp(-2 beta x) - V2 exp(-beta x) in eV (defined for all real x)."""
    w = np.exp(-mol.beta * np.asarray(x, dtype=float))
    out = mol.V1 * w**2 - mol.V2 * w
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def molecule_hbar2(mol) -> float:
    """hbar^2 = E0 m0 r0^2 (eV amu A^2) of a molecule's own problem."""
    return mol.E0 * mol.m0 * mol.r0**2


def mass_terms(mm, x):
    """m(x) (amu) with dm/dx (amu/A) and d2m/dx2 (amu/A^2), the analytic derivatives."""
    w = np.exp(-mm.beta * np.asarray(x, dtype=float))
    u = 1.0 - mm.eta * w
    m0, eta, beta = mm.m0, mm.eta, mm.beta
    return (m0 / u**2, -2.0 * m0 * eta * beta * w / u**3,
            2.0 * m0 * eta * beta**2 * w * (1.0 + 2.0 * eta * w) / u**4)


def u_ordering(mm, ordering, x, hbar2: float):
    """Ordering-dependent kinetic term of U_eff (eV) for a given hbar^2 (eV amu A^2).

    -hbar^2/[4 m^3 (a+1)] [(alpha+gamma-a) m m'' + 2 (a - alpha gamma - alpha
    - gamma) m'^2], with the analytic mass derivatives of ``mass_terms``.
    """
    m, m1, m2 = mass_terms(mm, x)
    c_mm = ordering.alpha + ordering.gamma - ordering.a
    c_m1 = ordering.a - ordering.alpha * ordering.gamma - ordering.alpha - ordering.gamma
    return -hbar2 / (4.0 * m**3 * (ordering.a + 1.0)) * (
        c_mm * m * m2 + 2.0 * c_m1 * m1**2)


def node_count(sys, state, convention=SignConvention.NORMALIZABLE,
               domain: str = "natural") -> int:
    """Sign changes of phi at 10001 samples of a z-interval (eta > 0).

    domain 'natural' spans (0, 1/eta), the full support of the polynomial
    weight, where the oscillation count of level n equals n.  domain
    'physical' restricts to (0, 1); nodes lying between z = 1 and the mass
    singularity are then excluded from the count.
    """
    if sys.eta == 0.0:
        raise ValueError("node_count requires eta > 0; use phi_eta0 directly")
    if domain not in ("natural", "physical"):
        raise ValueError(f"unknown domain {domain!r}")
    upper = 1.0 / sys.eta if domain == "natural" else 1.0
    pad = upper * 1e-9
    signs = np.sign(phi(sys, state, np.linspace(pad, upper - pad, 10001), convention))
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def ode_residual(sys, state, z_grid, convention=SignConvention.NORMALIZABLE) -> float:
    """Max |equation residual| / max term magnitude of phi on a uniform z-grid.

    phi'' and phi' come from 4th-order central differences; the residual is
    the transformed equation evaluated at state.eps_nl.  Grids below 64
    points are rejected.
    """
    z = np.asarray(z_grid, dtype=float)
    if z.size < 64:
        raise ValueError("z grid too coarse; need at least 64 points")
    h = z[1] - z[0]
    if not np.allclose(np.diff(z), h, rtol=1e-9, atol=0.0):
        raise ValueError("z grid must be uniform")
    f = phi(sys, state, z, convention)
    i = np.arange(2, z.size - 2)
    d1 = (-f[i + 2] + 8 * f[i + 1] - 8 * f[i - 1] + f[i - 2]) / (12.0 * h)
    d2 = (-f[i + 2] + 16 * f[i + 1] - 30 * f[i] + 16 * f[i - 1] - f[i - 2]) / (12.0 * h * h)
    zi = z[i]
    sigma = zi * (1.0 - sys.eta * zi)
    term1 = d2
    term2 = d1 / zi
    term3 = (-sys.eps1 * zi**2 - sys.eps2 * zi - state.eps_nl) / sigma**2 * f[i]
    residual = np.abs(term1 + term2 + term3).max()
    scale = max(np.abs(term1).max(), np.abs(term2).max(), np.abs(term3).max())
    return residual / scale
