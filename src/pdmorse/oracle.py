"""Independent numerical eigensolver for the position-space equation.

Solves -(hbar^2 / 2 m(x)) phi'' + U_eff(x) phi = E phi on a finite grid with
Dirichlet ends by shooting with a fixed-step 4th-order integrator.

Solve strategy, shared by every requested level of one grid:

* **Sturm staircase.**  A full left-to-right sweep counts the interior nodes
  of the one-sided solution, which is exactly the number of eigenvalues
  below E.  Every count is kept as an (E, nodes) step, so each one tightens
  the bracket of every level; the window ends are counted once.
* **Isolation.**  A level's staircase bracket is bisected until it holds
  that level alone: nodes(lo) == n and nodes(hi) == n + 1.
* **Refinement.**  Inside the isolated bracket an Anderson-Bjorck regula
  falsi (BIT 13, 1973) finds the zero of the scaled Pruefer-phase
  miss-distance, built from the left and right half-sweeps that meet at the
  potential minimum (Pryce 1993; Bailey, Everitt & Zettl, ACM TOMS 27,
  2001).  It stops once the next secant estimate moves less than tol/4 and
  returns that estimate unevaluated.  The right half-sweep starts where the
  WKB depth sum(kappa h) past the outer turning point reaches TAIL_MARGIN,
  not at x_max (Cooley, Math. Comp. 15 (1961) 363; Le Roy, LEVEL, JQSRT 186
  (2017) 167): the far wall then moves the matching log-derivative by about
  exp(-2 TAIL_MARGIN), below rounding.
* **Certification.**  A refined E is returned only if nodes(E - tol/2) == n
  and nodes(E + tol/2) == n + 1; otherwise the staircase bracket is
  bisected down to tol and its midpoint returned.  Either way the returned
  energy lies within tol/2 of the point where the node count steps from n
  to n + 1.
* **Blocked sweeps.**  Each solve tabulates the RK4 step matrices over its
  energy window as quadratics in E and sweeps products of m <= MAX_BLOCK
  consecutive steps, one Python iteration per block.  m h sqrt(max(-q))
  <= pi/2 over the window leaves at most one node per block (Sturm
  comparison), so every count is that of the step-by-step sweep; energies
  outside the window, and ranges with non-finite or fast-growing steps, run
  step by step.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, NoBracket, NonConvergence
from .model import AmbiguityOrdering, MassModel, MoleculeSpec, potential_value
from .units import HBAR2_EV_AMU_A2

MAX_BISECTIONS = 200  # per level: bisection and Illinois steps together
SINGULARITY_MARGIN = 0.01  # Angstrom
# WKB depth sum(kappa h), kappa = sqrt(q), from the outer turning point to
# the start of the right half-sweep.  The inward sweep grows the solution
# that decays towards x_max by exp(depth) and shrinks the other one by
# exp(-depth), so moving the Dirichlet wall from x_max in to the start
# changes the matching log-derivative by a relative exp(-2 depth):
# exp(-40) = 4e-18, below half an ulp (1.1e-16).
TAIL_MARGIN = 20.0
# Steps a counting sweep takes into the settled tail before it first checks
# for a settled state (then chunks of 2, 4, ... times as many): on H2 and LiH
# such a sweep settles about 300 steps into the tail on average.
TAIL_CHUNK = 256
# Blocked sweeps: at most MAX_BLOCK steps per block, and a block whose steps
# could grow the solution by more than exp(BLOCK_GROWTH) in all runs step by
# step.  exp(50) = 5e21 keeps every block end far below the float range
# above the sweep's 1e250 rescale threshold.
MAX_BLOCK = 16
BLOCK_GROWTH = 50.0
# Steps per rk4_propagators call while the block tables are built.
TABLE_CHUNK = 2048
_IDENTITY = np.eye(2)[:, :, None]


@dataclass(frozen=True)
class GridSpec:
    """Uniform solver grid; production constraints: >= 501 points, h < 0.01 A."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ConfigError(f"domain ends must be finite, got [{self.x_min}, {self.x_max}]")
        if self.x_max <= self.x_min:
            raise ConfigError("x_max must exceed x_min")
        if self.points < 501:
            raise ConfigError(f"need at least 501 grid points, got {self.points}")
        if self.h >= 0.01:
            raise ConfigError(f"grid spacing {self.h:.4g} A too coarse; need h < 0.01 A")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)

    def validate_against_mass(self, mm: MassModel) -> None:
        xs = mm.singularity_x
        if xs is not None and self.x_min <= xs + SINGULARITY_MARGIN:
            raise ConfigError(
                f"x_min = {self.x_min} must stay right of the mass singularity "
                f"at {xs:.4f} + {SINGULARITY_MARGIN} A margin")


def u_eff(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec, x):
    """Effective potential (eV): ordering term + V(x) + wavefunction-redefinition term.

    The ordering term is -hbar^2/[4 m^3 (a+1)] [(alpha+gamma-a) m m'' +
    2 (a - alpha gamma - alpha - gamma) m'^2], with the analytic mass
    derivatives.
    """
    m, m1, m2 = mm.mass_terms(x)
    c_mm = ordering.alpha + ordering.gamma - ordering.a
    c_m1 = ordering.a - ordering.alpha * ordering.gamma - ordering.alpha - ordering.gamma
    kinetic = -HBAR2_EV_AMU_A2 / (4.0 * m**3 * (ordering.a + 1.0)) * (
        c_mm * m * m2 + 2.0 * c_m1 * m1**2)
    redef = HBAR2_EV_AMU_A2 / (4.0 * m**2) * (1.5 * m1**2 / m - m2)
    return kinetic + potential_value(mol, x) + redef


def physical_psi(mm: MassModel, x, phi_values):
    """psi(x) = sqrt(m(x)) * phi(x), pointwise."""
    return np.sqrt(mm.mass(x)) * np.asarray(phi_values, dtype=float)


class _BlockTables:
    """RK4 step matrices as quadratics in E over one window, in blocks of m steps.

    Every entry of an RK4 step is a quadratic in E (q = p (U - E) is linear
    in E and the entries hold products of two q values), so the step
    matrices at the two window ends and its midpoint give them at any E of
    the window in Lagrange form.  Blocks are m consecutive steps from the
    first; padding is identity.  A block is unusable when one of its steps
    has a non-finite entry or its steps could together grow the solution by
    more than exp(BLOCK_GROWTH) (h sum sqrt(max q) over the window); a range
    that touches one is propagated step by step.
    """

    def __init__(self, energies, steps, growth, m: int):
        """steps(E, start, stop) gives the four RK4 entry arrays of steps
        start..stop-1 at E; growth holds h sqrt(max q) per step."""
        n = growth.size
        nb = -(-n // m)
        self.energies = energies
        e0, e1, e2 = energies
        self._den = ((e0 - e1) * (e0 - e2), (e1 - e0) * (e1 - e2), (e2 - e0) * (e2 - e1))
        # (energy, i, j, step in block, block): a sweep reads rows of blocks
        self._table = np.empty((3, 2, 2, m, nb))
        self._table[..., -1] = _IDENTITY  # padding of the last block
        chunk = TABLE_CHUNK // m  # blocks per rk4_propagators call: bounds the temporaries
        for k, e in enumerate(energies):
            by_block = self._table[k].transpose(0, 1, 3, 2)
            for b0 in range(0, nb, chunk):
                entries = steps(e, b0 * m, min((b0 + chunk) * m, n))
                for (i, j), entry in zip(((0, 0), (0, 1), (1, 0), (1, 1)), entries):
                    full, rest = divmod(entry.size, m)
                    by_block[i, j, b0:b0 + full] = entry[:full * m].reshape(full, m)
                    if rest:  # the last block
                        by_block[i, j, b0 + full, :rest] = entry[full * m:]
        g = np.zeros(nb * m)
        g[:n] = growth
        # a non-finite entry makes its block's sum non-finite
        usable = (np.isfinite(self._table.sum(axis=(0, 1, 2, 3)))
                  & (g.reshape(nb, m).sum(axis=1) <= BLOCK_GROWTH))
        self._unusable = np.concatenate([[0], np.cumsum(~usable)]).tolist()
        self.m = m

    def products(self, E: float, start: int, stop: int):
        """Block matrices of steps start..stop-1 at E.

        None when E lies outside the window, the range is empty, or it
        touches an unusable block.
        """
        m = self.m
        b0, b1 = start // m, -(-stop // m)
        if not (self.energies[0] <= E <= self.energies[2] and start < stop
                and self._unusable[b1] == self._unusable[b0]):
            return None
        e0, e1, e2 = self.energies
        d0, d1, d2 = E - e0, E - e1, E - e2
        t0, t1, t2 = (t[..., b0:b1] for t in self._table)
        x = t0 * (d1 * d2 / self._den[0])
        x += t1 * (d0 * d2 / self._den[1])
        x += t2 * (d0 * d1 / self._den[2])
        if start > b0 * m:
            x[:, :, :start - b0 * m, 0] = _IDENTITY
        if stop < b1 * m:
            x[:, :, stop - (b1 - 1) * m:, -1] = _IDENTITY
        return kernels.block_products(x)


def _secant(a: float, fa: float, b: float, fb: float) -> float:
    """Secant root of the bracket (a, fa < 0), (b, fb > 0); its midpoint if that falls outside."""
    c = b - fb * (b - a) / (fb - fa)
    return c if a < c < b else 0.5 * (a + b)


class _ShootingEngine:
    """Coefficient tables and the shared Sturm staircase for one solve."""

    def __init__(self, u_fn, m_fn, grid: GridSpec):
        self.xs = grid.xs()
        self.h = grid.h
        xm = 0.5 * (self.xs[:-1] + self.xs[1:])
        self.u_nodes = np.asarray(u_fn(self.xs), dtype=float)
        self.u_mids = np.asarray(u_fn(xm), dtype=float)
        m_nodes = np.asarray(m_fn(self.xs), dtype=float)
        m_mids = np.asarray(m_fn(xm), dtype=float)
        self.p_nodes = 2.0 * m_nodes / HBAR2_EV_AMU_A2
        self.p_mids = 2.0 * m_mids / HBAR2_EV_AMU_A2
        npts = self.xs.size
        im = int(np.argmin(self.u_nodes))
        pad = max(2, npts // 50)
        self.i_match = min(max(im, pad), npts - pad - 1)
        # Settled tail at E: from its start on, every step's three q values
        # are >= 0 (NaN counts as negative).  Where p > 0 and p, U are finite,
        # sign q = sign(U - E), so such a step qualifies iff E <= min U over
        # its points; any other step never does.  The suffix minimum of that
        # floor is non-decreasing: the tail at E starts at the first step
        # whose suffix floor is >= E.
        node_ok = (self.p_nodes > 0.0) & np.isfinite(self.p_nodes) & np.isfinite(self.u_nodes)
        mid_ok = (self.p_mids > 0.0) & np.isfinite(self.p_mids) & np.isfinite(self.u_mids)
        floor = np.minimum(np.minimum(self.u_nodes[:-1], self.u_mids), self.u_nodes[1:])
        floor[~(node_ok[:-1] & mid_ok & node_ok[1:])] = -np.inf
        self._tail_floor = np.minimum.accumulate(floor[::-1])[::-1]
        # Sturm staircase: every full-sweep count, sorted by energy
        self._stair_e: list[float] = []
        self._stair_n: list[int] = []
        # half-sweep states by energy: a bracket end is shared by two levels
        self._matched: dict[float, tuple] = {}
        # step tables in blocks over the window of the current solve
        self._blocks: _BlockTables | None = None

    def _q(self, E: float, start: int = 0, stop: int | None = None):
        """q = p (U - E) at nodes start..stop (default: the last) and the midpoints between."""
        stop = self.xs.size - 1 if stop is None else stop
        return (self.p_nodes[start:stop + 1] * (self.u_nodes[start:stop + 1] - E),
                self.p_mids[start:stop] * (self.u_mids[start:stop] - E))

    def _tail_start(self, E: float) -> int:
        """First node of the settled tail at E: every later step has q >= 0."""
        return int(np.searchsorted(self._tail_floor, E, side="left"))

    def count_nodes(self, E: float) -> int:
        """Interior nodes of the left-anchored solution: eigenvalues below E.

        The sweep runs TAIL_CHUNK steps into the settled tail, where every q
        is >= 0 and so, for h > 0, every RK4 propagator entry is >= 0; from
        the first state there with phi and phi' of one sign no step can add
        a node (``kernels`` module docstring).  Until such a state is reached
        the sweep goes on through the tail in chunks of twice as many steps,
        doubling, whose matrices are built only when needed.  The count is
        that of the full sweep.
        """
        last, size = self.xs.size - 1, TAIL_CHUNK
        t = min(self._tail_start(E) + TAIL_CHUNK, last)
        phi, dphi, nodes = kernels.sweep(*self._forward(E, 0, t), 0.0, 1.0)
        while t < last and not kernels.settled(phi, dphi):
            stop = min(t + size, last)
            phi, dphi, more = kernels.sweep(*self._forward(E, t, stop), phi, dphi)
            nodes += more
            t, size = stop, 2 * size
        i = bisect.bisect_left(self._stair_e, E)
        self._stair_e.insert(i, E)
        self._stair_n.insert(i, nodes)
        return nodes

    def _forward(self, E: float, start: int, stop: int):
        """Step (or block) matrices from node start to node stop at E."""
        if self._blocks is not None:
            products = self._blocks.products(E, start, stop)
            if products is not None:
                return products
        return self._steps(E, start, stop)

    def _steps(self, E: float, start: int, stop: int):
        """RK4 step matrices from node start to node stop at E, one per step."""
        return kernels.rk4_propagators(*self._q(E, start, stop), self.h)

    def _backward(self, E: float, start: int):
        """Step (or block) matrices from node start down to the matching point at E.

        The RK4 step from x + h back to x is the adjugate [[m11, -m01],
        [-m10, m00]] of the forward step over the same points (m10 up to
        rounding), and adj(AB) = adj(B) adj(A): the blocks of the backward
        sweep are the adjugates of the forward blocks, in reverse order.
        """
        if self._blocks is not None:
            products = self._blocks.products(E, self.i_match, start)
            if products is not None:
                m00, m01, m10, m11 = products
                return m11[::-1], -m01[::-1], -m10[::-1], m00[::-1]
        qn, qm = self._q(E, self.i_match, start)
        return kernels.rk4_propagators(qn[::-1], qm[::-1], -self.h)

    def _build_blocks(self, e_window) -> None:
        """Block tables over e_window, from the step matrices at its ends and midpoint."""
        self._blocks = None
        e_lo, e_hi = (float(e) for e in e_window)
        if not (math.isfinite(e_lo) and math.isfinite(e_hi) and e_lo < e_hi):
            return
        m, growth = self._block_size(e_lo, e_hi)
        if m > 1:
            self._blocks = _BlockTables((e_lo, 0.5 * (e_lo + e_hi), e_hi), self._steps,
                                        growth, m)

    def _block_size(self, e_lo: float, e_hi: float):
        """Block size over [e_lo, e_hi] and the growth bound h sqrt(max q) of every step.

        The block size m is the largest power of two up to MAX_BLOCK with
        m h sqrt(max(-q)) <= pi/2 over the window: then no block holds two
        nodes (``kernels`` module docstring).  q is linear in E, so its
        extremes over the window lie at the window ends.
        """
        (lo_n, lo_m), (hi_n, hi_m) = self._q(e_lo), self._q(e_hi)
        k2 = max(float(np.max(-q[np.isfinite(q)], initial=0.0))
                 for q in (lo_n, lo_m, hi_n, hi_m))
        m = MAX_BLOCK
        while m > 1 and m * self.h * math.sqrt(k2) > 0.5 * math.pi:
            m //= 2
        q_max = np.maximum(lo_n[:-1], lo_n[1:])
        for q in (lo_m, hi_n[:-1], hi_n[1:], hi_m):
            np.maximum(q_max, q, out=q_max)
        return m, self.h * np.sqrt(np.maximum(q_max, 0.0, out=q_max), out=q_max)

    def _right_start(self, E: float, qn: np.ndarray) -> int:
        """Start node of the right half-sweep at E, given the node q table qn.

        The first node past the outer turning point (the settled-tail start,
        or the matching point if that lies further right) where the depth
        h sum(sqrt q) reaches TAIL_MARGIN; the last node when it never does.
        """
        turn = max(self._tail_start(E), self.i_match)
        depth = self.h * np.cumsum(np.sqrt(qn[turn + 1:]))
        past = int(np.searchsorted(depth, TAIL_MARGIN))
        return turn + 1 + past if past < depth.size else qn.size - 1

    def _half_sweeps(self, E: float):
        """Left and right solutions at the matching point: ((phi, phi', nodes), ...)."""
        if E not in self._matched:
            qn = self.p_nodes * (self.u_nodes - E)
            left = self._forward(E, 0, self.i_match)
            right = self._backward(E, self._right_start(E, qn))
            self._matched[E] = (kernels.sweep(*left, 0.0, 1.0),
                                kernels.sweep(*right, 0.0, -1.0))
        return self._matched[E]

    def phase(self, E: float, k: float) -> float:
        """Sum of the scaled left and right Pruefer phases at the matching point.

        Each side contributes pi * nodes + atan2(s k phi, s dphi/dy), with
        s = (-1)^nodes and y running from its anchor towards the matching
        point.  For any fixed k > 0 the sum increases with E and equals
        (n + 1) pi exactly where the log-derivatives match at level n; k near
        the local wavenumber makes it close to linear in E.
        """
        (pl, dl, nl), (pr, dr, nr) = self._half_sweeps(E)
        sl = -1.0 if nl % 2 else 1.0
        sr = -1.0 if nr % 2 else 1.0
        return (math.pi * (nl + nr) + math.atan2(sl * k * pl, sl * dl)
                + math.atan2(sr * k * pr, -sr * dr))

    def _bracket(self, n: int) -> tuple[float, int, float, int]:
        """Tightest staircase bracket of level n: (lo, nodes(lo), hi, nodes(hi))."""
        i = bisect.bisect_right(self._stair_n, n)
        return self._stair_e[i - 1], self._stair_n[i - 1], self._stair_e[i], self._stair_n[i]

    def _refine(self, n: int, lo: float, hi: float, tol_ev: float, spend):
        """Anderson-Bjorck regula falsi on the phase miss-distance inside an isolated bracket.

        When a new point lands on the same side as the one before, the value
        kept at the far end is scaled by 1 - f(new) / f(replaced) (by 1/2 if
        that is not positive; Anderson & Bjorck, BIT 13, 1973), so neither end
        sticks.  Once the next secant estimate moves less than tol/4 from the
        last evaluated point, that estimate is returned without evaluating
        it; certification checks it.  Returns None when the phase does not
        change sign across the bracket.
        """
        target = (n + 1) * math.pi
        # phase scale: the local wavenumber at the matching point mid-bracket
        im = self.i_match
        k = math.sqrt(abs(self.p_nodes[im] * (self.u_nodes[im] - 0.5 * (lo + hi)))) or 1.0
        a, fa = lo, self.phase(lo, k) - target
        b, fb = hi, self.phase(hi, k) - target
        if not fa < 0.0 < fb:
            return None
        side = 0
        c = _secant(a, fa, b, fb)
        while b - a > tol_ev:
            spend()
            fc = self.phase(c, k) - target
            if fc == 0.0:
                return c
            if fc > 0.0:
                if side == 1:
                    scale = 1.0 - fc / fb
                    fa *= scale if scale > 0.0 else 0.5
                b, fb, side = c, fc, 1
            else:
                if side == -1:
                    scale = 1.0 - fc / fa
                    fb *= scale if scale > 0.0 else 0.5
                a, fa, side = c, fc, -1
            estimate = _secant(a, fa, b, fb)
            if abs(estimate - c) <= 0.25 * tol_ev:
                return estimate
            c = estimate
        return 0.5 * (a + b)

    def _level(self, n: int, tol_ev: float) -> float:
        """Certified eigenvalue of level n (see the module docstring)."""
        steps = 0

        def spend():
            nonlocal steps
            if steps >= MAX_BISECTIONS:
                raise NonConvergence(
                    f"no convergence to {tol_ev} eV in {MAX_BISECTIONS} steps")
            steps += 1

        # isolate: bisect until the bracket holds level n alone
        lo, n_lo, hi, n_hi = self._bracket(n)
        while (n_lo, n_hi) != (n, n + 1) and hi - lo > tol_ev:
            spend()
            self.count_nodes(0.5 * (lo + hi))
            lo, n_lo, hi, n_hi = self._bracket(n)
        if hi - lo > tol_ev:
            e = self._refine(n, lo, hi, tol_ev, spend)
            if (e is not None and self.count_nodes(e - 0.5 * tol_ev) == n
                    and self.count_nodes(e + 0.5 * tol_ev) == n + 1):
                return e
        # uncertified, or isolation already reached tol: bisect the staircase bracket
        lo, _, hi, _ = self._bracket(n)
        while hi - lo > tol_ev:
            spend()
            self.count_nodes(0.5 * (lo + hi))
            lo, _, hi, _ = self._bracket(n)
        return 0.5 * (lo + hi)

    def solve(self, n_list, e_window, tol_ev: float) -> list[tuple[int, float]]:
        """Eigenvalues of the requested levels as (n, E), in the order requested."""
        n_list = list(n_list)
        e_lo, e_hi = e_window
        self._build_blocks(e_window)
        n_lo = self.count_nodes(e_lo)
        n_hi = self.count_nodes(e_hi)
        for n in n_list:
            if not n_lo <= n < n_hi:
                raise NoBracket(
                    f"state n={n} not bracketed: nodes({e_lo:.6g})={n_lo}, "
                    f"nodes({e_hi:.6g})={n_hi}")
        levels = {n: self._level(n, tol_ev) for n in sorted(set(n_list))}
        return [(n, levels[n]) for n in n_list]


def solve_on_grid(u_fn, m_fn, grid: GridSpec, n_list, e_window,
                  tol_ev: float = 1e-7) -> list[tuple[int, float]]:
    """Eigenvalues (n, E) of an arbitrary potential/mass pair inside e_window."""
    return _ShootingEngine(u_fn, m_fn, grid).solve(n_list, e_window, tol_ev)


def solve_states(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec,
                 grid: GridSpec, n_list, tol_ev: float = 1e-7) -> list[tuple[int, float]]:
    """Eigenvalues (n, E) of the effective-potential problem, in the order requested.

    The energy window spans (min U_eff, 0), read off the engine's own table.
    """
    grid.validate_against_mass(mm)
    engine = _ShootingEngine(lambda x: u_eff(mm, ordering, mol, x), mm.mass, grid)
    e_floor = float(np.min(engine.u_nodes))
    return engine.solve(n_list, (e_floor + abs(e_floor) * 1e-12, 0.0), tol_ev)


def shoot_state(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec,
                grid: GridSpec, n: int, tol_ev: float = 1e-7) -> float:
    """Eigenvalue of one level: ``solve_states(..., [n], tol_ev)[0][1]``.

    Kept only as a name the benchmark tracer (``e2ebench/tracing.py``) wraps.
    """
    return solve_states(mm, ordering, mol, grid, [n], tol_ev)[0][1]


def default_domain(mol: MoleculeSpec, eta: float,
                   left: str = "physical") -> tuple[float, float]:
    """Suggested solver domain.

    left='physical' anchors x_min at -0.95 r0 (eta = 0) or max(-0.95 r0,
    singularity + margin); left='boundary' uses x_min = 0; left='singular'
    hugs the mass singularity.  x_max is placed where |V| has dropped to
    1e-5 of the well depth.
    """
    x_max = math.log(1000.0 * mol.V2 / (0.01 * mol.D)) / mol.beta
    if left == "boundary":
        x_min = 0.0
    elif left == "singular":
        if eta == 0.0:
            raise ConfigError("no singularity at eta = 0")
        x_min = math.log(eta) / mol.beta + 5 * SINGULARITY_MARGIN
    elif left == "physical":
        x_min = -0.95 * mol.r0
        if eta > 0.0:
            x_min = max(x_min, math.log(eta) / mol.beta + 5 * SINGULARITY_MARGIN)
    else:
        raise ConfigError(f"unknown domain anchor {left!r}")
    return (x_min, x_max)
