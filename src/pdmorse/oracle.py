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
* **Refinement.**  Inside the isolated bracket an Illinois (modified regula
  falsi) iteration finds the zero of the scaled Pruefer-phase miss-distance,
  built from the left and right half-sweeps that meet at the potential
  minimum (Pryce 1993; Bailey, Everitt & Zettl, ACM TOMS 27, 2001).
* **Certification.**  A refined E is returned only if nodes(E - tol/2) == n
  and nodes(E + tol/2) == n + 1; otherwise the staircase bracket is
  bisected down to tol and its midpoint returned.  Either way the returned
  energy lies within tol/2 of the point where the node count steps from n
  to n + 1.
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


def _ordering_term(ordering: AmbiguityOrdering, m, m1, m2):
    c_mm = ordering.alpha + ordering.gamma - ordering.a
    c_m1 = ordering.a - ordering.alpha * ordering.gamma - ordering.alpha - ordering.gamma
    return -HBAR2_EV_AMU_A2 / (4.0 * m**3 * (ordering.a + 1.0)) * (
        c_mm * m * m2 + 2.0 * c_m1 * m1**2)


def u_ordering(mm: MassModel, ordering: AmbiguityOrdering, x):
    """Ordering-dependent kinetic term (eV).

    -hbar^2/[4 m^3 (a+1)] [(alpha+gamma-a) m m'' + 2 (a - alpha gamma - alpha
    - gamma) m'^2], with the analytic mass derivatives.
    """
    return _ordering_term(ordering, *mm.mass_terms(x))


def u_eff(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec, x):
    """Effective potential: ordering term + V(x) + wavefunction-redefinition term."""
    m, m1, m2 = mm.mass_terms(x)
    redef = HBAR2_EV_AMU_A2 / (4.0 * m**2) * (1.5 * m1**2 / m - m2)
    return _ordering_term(ordering, m, m1, m2) + potential_value(mol, x) + redef


def physical_psi(mm: MassModel, x, phi_values):
    """psi(x) = sqrt(m(x)) * phi(x), pointwise."""
    return np.sqrt(mm.mass(x)) * np.asarray(phi_values, dtype=float)


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
        # Sturm staircase: every full-sweep count, sorted by energy
        self._stair_e: list[float] = []
        self._stair_n: list[int] = []
        # half-sweep states by energy: a bracket end is shared by two levels
        self._matched: dict[float, tuple] = {}

    def _q(self, E: float):
        return (self.p_nodes * (self.u_nodes - E), self.p_mids * (self.u_mids - E))

    def count_nodes(self, E: float) -> int:
        """Interior nodes of the left-anchored solution: eigenvalues below E.

        Only the count is used, so the sweep stops in the settled tail where
        no later step can change it (``kernels`` module docstring).
        """
        qn, qm = self._q(E)
        props = kernels.rk4_propagators(qn, qm, self.h)
        _, _, nodes = kernels.sweep(*props, 0.0, 1.0, nodes_only=True)
        i = bisect.bisect_left(self._stair_e, E)
        self._stair_e.insert(i, E)
        self._stair_n.insert(i, nodes)
        return nodes

    def _half_sweeps(self, E: float):
        """Left and right solutions at the matching point: ((phi, phi', nodes), ...)."""
        if E not in self._matched:
            qn, qm = self._q(E)
            im = self.i_match
            left = kernels.rk4_propagators(qn[:im + 1], qm[:im], self.h)
            right = kernels.rk4_propagators(qn[im:][::-1], qm[im:][::-1], -self.h)
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
        """Illinois iteration on the phase miss-distance inside an isolated bracket.

        Returns the estimated eigenvalue, or None when the phase does not
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
        c = None
        while b - a > tol_ev:
            spend()
            prev = c
            c = b - fb * (b - a) / (fb - fa)
            if not a < c < b:
                c = 0.5 * (a + b)
            fc = self.phase(c, k) - target
            if fc == 0.0 or (prev is not None and abs(c - prev) <= 0.25 * tol_ev):
                return c
            if fc > 0.0:
                b, fb = c, fc
                if side == 1:
                    fa *= 0.5
                side = 1
            else:
                a, fa = c, fc
                if side == -1:
                    fb *= 0.5
                side = -1
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
