"""Independent numerical eigensolver for the position-space equation.

Solves -(hbar^2 / 2 m(x)) phi'' + U_eff(x) phi = E phi on a finite grid with
Dirichlet ends by shooting with a fixed-step 4th-order integrator.

Solve strategy, shared by every requested level of one grid:

* **Sturm staircase.**  A full left-to-right sweep counts the interior nodes
  of the one-sided solution, which is exactly the number of eigenvalues
  below E.  Every count is kept as an (E, nodes) step, so each one tightens
  the bracket of every level.  The first round counts the window bottom and
  midpoint.  The top is counted only where a bracket can reach it or it
  decides whether the midpoint is an isolation point: for a level at or
  above nodes(midpoint), or a window that may hold one level, or one no
  wider than tol.  The top's count sweeps the whole grid; at 8001 points
  the other sweeps of levels 0-2 reach at most about a third of it.
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
* **Rounds.**  All requested levels advance together.  The rounds are: the
  first counts; bisection of every bracket that still holds more than
  one level, one count per bracket; the half-sweeps at every bracket end,
  then one Anderson-Bjorck iterate per unfinished level; the certificates
  of every level at once; bisection of every uncertified bracket.  The
  energies of a round share their step matrices: one evaluation of the
  engine's step table per round, split only to keep each evaluation within
  TABLE_CHUNK steps (energies times steps); each energy then runs its own
  ``kernels.sweep`` over rows of the shared arrays.  A count at an energy
  already on the staircase is read from it, not swept again.  An H2
  eta = 0.2, 2001-point solve of levels 0-12 makes 22 block-table
  evaluations for 96 energies (one per sweep made 151) and 151 sweeps.
* **Blocked sweeps.**  Each engine tabulates the RK4 step matrices over
  its energy window as quadratics in E: the steps at the window's midpoint
  and the exact linear and quadratic coefficients, in closed form from p
  and U.  Each evaluation first fills the table up to the furthest block it
  needs, in passes of FILL_CHUNK steps; the table is the only source of
  step matrices for its sweeps.  Sweeps walk products of
  m <= MAX_BLOCK consecutive steps, one Python iteration per block.
  m h sqrt(max(-q)) <= pi/2 over the window leaves at most one node per
  block (Sturm comparison), so every count is that of the step-by-step
  sweep.  One m serves every block and every sweep: a grid with a
  non-finite q at a window end, or with a block whose steps could grow the
  solution by more than exp(BLOCK_GROWTH), gets m = 1, and every energy a
  solve sweeps lies inside the window.  Sweep ends round up to block ends,
  which only takes a count further into the settled tail or a right
  half-sweep deeper into the forbidden region; the matching point is a
  multiple of MAX_BLOCK.
"""
from __future__ import annotations

import bisect
import ctypes
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, NoBracket, NonConvergence
from .model import AmbiguityOrdering, MassModel, MoleculeSpec
from .units import HBAR2_EV_AMU_A2

MAX_BISECTIONS = 200  # per level: bisection and Anderson-Bjorck steps together
SINGULARITY_MARGIN = 0.01  # Angstrom
# WKB depth sum(kappa h), kappa = sqrt(q), from the outer turning point to
# the start of the right half-sweep.  The inward sweep grows the solution
# that decays towards x_max by exp(depth) and shrinks the other one by
# exp(-depth), so moving the Dirichlet wall from x_max in to the start
# changes the matching log-derivative by a relative exp(-2 depth):
# exp(-40) = 4e-18, below half an ulp (1.1e-16).
TAIL_MARGIN = 20.0
# Steps a counting sweep takes into the settled tail before it first checks
# for a settled state (then the rest of its evaluation, then chunks of 1, 2,
# 4, ... times as many): on H2 and LiH such a sweep settles about 300 steps
# into the tail on average.
TAIL_CHUNK = 256
# Nodes past the turning point that each right-start depth row adds at first
# (then twice as many, ...): the levels of H2 and LiH reach TAIL_MARGIN
# about 300-1300 nodes past it at 2001 points.
DEPTH_CHUNK = 512
# Blocked sweeps: at most MAX_BLOCK steps per block, and a grid with a block
# whose steps could grow the solution by more than exp(BLOCK_GROWTH) runs
# step by step.  exp(50) = 5e21 keeps every block end far below the float
# range above the sweep's 1e250 rescale threshold.
MAX_BLOCK = 16
BLOCK_GROWTH = 50.0
# Steps per evaluation of a round (its energies times their steps), so that
# its largest array, four entries per step, is 256 KiB.
TABLE_CHUNK = 8192
# Steps per pass while a block table is filled: about 20 temporaries of this
# many floats per pass, and the fill stops at most this many steps past the
# furthest block a round needs.  Of 512 to 8K, 2K spent the least time
# filling on a 2-vCPU host, over the solves of the 14 H2 and LiH
# oracle-compare grids (best of 40): 4.8 ms for levels 0-2 at 8001 points
# (5.8 at 1K and 4K, 9.7 at 8K) and 3.7 ms for levels 0-12 at 2001 (5.1 at 1K).
FILL_CHUNK = 2048
# (c2, f, c1) of an identity step: the step table's padding
_PADDING = np.array([np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))])[..., None]
# glibc's mallopt parameters (malloc.h) and the values the oracle sets: the
# ceilings its own dynamic threshold adjustment can reach on 64-bit hosts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 64 * 2**20
# Most points a grid may have.  A solve's peak memory grows by about 190
# bytes per point (400,001 points: 104.8-104.9 MB of peak RSS, against
# 30.1 MB at 2001, over six oracle-compare requests, H2 and LiH at
# eta 0, 0.2 and 0.6, n <= 2), so a larger --grid could get the process
# killed on a small host before numpy's allocation fails.  125 times the
# default 8001 points.
MAX_GRID_POINTS = 1_000_001


@dataclass(frozen=True)
class GridSpec:
    """Uniform solver grid; production constraints: 501 to MAX_GRID_POINTS points, h < 0.01 A."""

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
        if self.points > MAX_GRID_POINTS:
            raise ConfigError(f"a grid of {self.points} points is past the "
                              f"{MAX_GRID_POINTS}-point limit")
        if self.h >= 0.01:
            raise ConfigError(f"grid spacing {self.h:.4g} A too coarse; need h < 0.01 A")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)


def u_eff(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec, x):
    """Effective potential (eV) of mol with its mass model mm: V + ordering + redefinition terms.

    With e = eta exp(-beta x), m = m0 / (1 - e)^2 and hbar^2 = E0 m0 r0^2,
    the ordering term -hbar^2/[4 m^3 (a+1)] [(alpha+gamma-a) m m'' +
    2 (a - alpha gamma - alpha - gamma) m'^2] and the redefinition term
    hbar^2/(4 m^2) (3 m'^2/(2 m) - m'') add up to a closed form in e:

        U_eff = V(x) - e_scale e [(c_mm (1 + 2 e) + 4 c_m1 e)/(a + 1) + 1 - e],

    with c_mm = alpha + gamma - a, c_m1 = a - alpha gamma - alpha - gamma and
    e_scale = alpha'^2 E0 / 2, the energy scale of ``model.reduce``.  It is
    finite up to the mass singularity (e = 1).
    """
    w = np.exp(-mol.beta * np.asarray(x, dtype=float))
    e = mm.eta * w
    c_mm = ordering.alpha + ordering.gamma - ordering.a
    c_m1 = ordering.a - ordering.alpha * ordering.gamma - ordering.alpha - ordering.gamma
    e_scale = mol.alpha_prime**2 * mol.E0 / 2.0
    return mol.V1 * w**2 - mol.V2 * w - e_scale * e * (
        (c_mm * (1.0 + 2.0 * e) + 4.0 * c_m1 * e) / (ordering.a + 1.0) + 1.0 - e)


class _BlockTables:
    """RK4 step matrices as quadratics in E over one window, in blocks of m steps.

    With d = E - e_mid about the window's midpoint e_mid and a = p (U - e_mid)
    at the nodes and midpoints, q = p (U - E) = a - p d, so every entry of an
    RK4 step (``kernels.rk4_propagators``) is exactly a quadratic in d.  Its
    Newton form f(E) = f(e_mid) + c1 d + c2 d^2 follows in closed form, with
    i, m and p the step's start, midpoint and end:

        all four: f(e_mid) = rk4_propagators(a nodes, a midpoints, h)
        m00: c1 = -h^2 (p_i/6 + p_m/3) - h^4 (a_i p_m + a_m p_i)/24
             c2 = h^4 p_i p_m/24
        m01: c1 = -h^3 p_m/6, c2 = 0
        m10: c1 = -h (p_i/6 + 2 p_m/3 + p_p/6) - h^3 [a_m (p_i + p_p) + p_m (a_i + a_p)]/12
             c2 = h^3 p_m (p_i + p_p)/12
        m11: c1 = -h^2 (p_m/3 + p_p/6) - h^4 (a_m p_p + a_p p_m)/24
             c2 = h^4 p_m p_p/24

    Horner's rule evaluates it in two multiplications and two additions per
    entry.  Blocks are m consecutive steps from the first; padding is
    identity.  The engine picks an m that every block can serve
    (``_ShootingEngine._block_size``), so the table has one use: the block
    products of a round's energies inside the window (``rows``), each
    evaluation in arrays of its own.  The table is allocated when it is
    built and filled on first use (``fill``), from the first block on, in
    passes of FILL_CHUNK steps, as far as the evaluations reach; each step
    is filled once, with the same bits in any pass.  A non-finite U gives
    NaN steps (and m = 1) without a numpy warning.
    """

    def __init__(self, tables, h: float, energies, m: int):
        """tables (U nodes, U midpoints, p nodes, p midpoints) as the engine
        holds them; h the grid step; energies (e_lo, e_mid, e_hi) in eV, the
        window and its midpoint; m the block size.  No block is filled yet."""
        self._tables, self._h = tables, h
        self.energies = energies
        self.m = m
        # (coefficient c2, f(e_mid), c1; i, j, step in block, block)
        self._table = np.empty((3, 2, 2, m, -(-tables[3].size // m)))
        self._table[..., -1] = _PADDING  # of the last block
        self.filled = 0  # blocks 0 .. filled - 1 hold their steps

    @np.errstate(invalid="ignore")  # a non-finite U (then m = 1) makes NaN steps
    def fill(self, blocks: int | None = None) -> None:
        """Fill every block up to blocks (all by default), FILL_CHUNK steps per pass."""
        u_nodes, u_mids, p_nodes, p_mids = self._tables
        h, m, e_mid = self._h, self.m, self.energies[1]
        n, nb = p_mids.size, self._table.shape[-1]
        end = nb if blocks is None else min(blocks, nb)
        by_block = self._table.transpose(1, 2, 0, 4, 3)  # (i, j, coefficient, block, step)
        h2, h3, h4 = h * h, h * h * h, (h * h) * (h * h)
        chunk = FILL_CHUNK // m  # blocks per pass
        for b0 in range(self.filled, end, chunk):
            b1 = min(b0 + chunk, nb)
            start, stop = b0 * m, min(b1 * m, n)
            pn, pm = p_nodes[start:stop + 1], p_mids[start:stop]
            an = pn * (u_nodes[start:stop + 1] - e_mid)
            am = pm * (u_mids[start:stop] - e_mid)
            f00, f01, f10, f11 = kernels.rk4_propagators(an, am, h)
            pi, pp, ai, ap = pn[:-1], pn[1:], an[:-1], an[1:]
            pn6, pm3, pip = pn / 6.0, pm / 3.0, pi + pp
            entries = ((0, 0, f00, -h2 * (pn6[:-1] + pm3) - h4 * (ai * pm + am * pi) / 24.0,
                        h4 * (pi * pm) / 24.0),
                       (0, 1, f01, -h3 * pm / 6.0),
                       (1, 0, f10, -h * (pn6[:-1] + (2.0 / 3.0) * pm + pn6[1:])
                        - h3 * (am * pip + pm * (ai + ap)) / 12.0, h3 * (pm * pip) / 12.0),
                       (1, 1, f11, -h2 * (pm3 + pn6[1:]) - h4 * (am * pp + ap * pm) / 24.0,
                        h4 * (pm * pp) / 24.0))
            by_block[0, 1, 0, b0:b1] = 0.0  # m01 has no d^2 term
            full, rest = divmod(stop - start, m)
            for i, j, *coefficients in entries:
                for c, values in zip((1, 2, 0), coefficients):  # f(e_mid), c1, c2
                    by_block[i, j, c, b0:b0 + full] = values[:full * m].reshape(full, m)
                    if rest:  # the last block
                        by_block[i, j, c, b0 + full, :rest] = values[full * m:]
            self.filled = b1

    def rows(self, energies, start: int, stops):
        """Block matrices at each energy from node start on, in shared evaluations.

        start is a multiple of m, and energy k needs the blocks up to node
        stops[k], rounded up to the next multiple of m; the table is first
        filled that far.  Every energy lies inside the window.  Each
        evaluation serves as many energies as keep it within TABLE_CHUNK
        steps: Horner's rule fills one (K, 2, 2, m, nb) array, and one
        ``kernels.block_products`` tree multiplies the blocks of all K
        energies.  Yields (ks, rows): row j of each of the four arrays rows
        holds the block matrices of energy energies[ks[j]], bit for bit what
        that energy alone gets, and column i spans the m steps from node
        start + i m (past the last node, the identity padding).  Every
        evaluation makes fresh arrays.
        """
        m = self.m
        b0, ends = start // m, [-(-stop // m) for stop in stops]
        if not ends:
            return
        last = max(ends)
        if last > self.filled:
            self.fill(last)
        size = max(1, TABLE_CHUNK // (m * (last - b0)))
        for i in range(0, len(ends), size):
            ks = range(i, min(i + size, len(ends)))
            d = np.array([energies[k] - self.energies[1] for k in ks])[:, None, None, None, None]
            c2, f1, c1 = self._table[..., b0:max(ends[k] for k in ks)]
            with np.errstate(invalid="ignore"):  # a non-finite U (then m = 1): inf * 0 at e_mid
                x = c2 * d  # Horner's rule, (c2 d + c1) d + f1, in one array
                x += c1
                x *= d
                x += f1
            yield ks, kernels.block_products(x)


def _secant(a: float, fa: float, b: float, fb: float) -> float:
    """Secant root of the bracket (a, fa < 0), (b, fb > 0); its midpoint if that falls outside."""
    c = b - fb * (b - a) / (fb - fa)
    return c if a < c < b else 0.5 * (a + b)


def _anderson_bjorck(a: float, fa: float, b: float, fb: float, tol_ev: float):
    """Anderson-Bjorck regula falsi on the bracket (a, fa < 0), (b, fb > 0).

    A generator: it yields each point to evaluate, is sent f there, and
    returns the root estimate.  When a new point lands on the same side as
    the one before, the value kept at the far end is scaled by
    1 - f(new) / f(replaced) (by 1/2 if that is not positive; Anderson &
    Bjorck, BIT 13, 1973), so neither end sticks.  Once the next secant
    estimate moves less than tol/4 from the last evaluated point, that
    estimate is returned without evaluating it; certification checks it.
    """
    side = 0
    c = _secant(a, fa, b, fb)
    while b - a > tol_ev:
        fc = yield c
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


class _ShootingEngine:
    """Coefficient tables, the step table and the shared Sturm staircase for one solve."""

    def __init__(self, tables, h: float, e_window):
        """tables (U nodes, U midpoints, p nodes, p midpoints) from ``_tables``,
        with p = 2 m / hbar^2; h the grid step; e_window (lo, hi) in eV the
        energy window of the solve.  A window that holds no energy raises
        NoBracket."""
        self.u_nodes, self.u_mids, self.p_nodes, self.p_mids = tables
        self.h = h
        npts = self.u_nodes.size
        im = int(np.argmin(self.u_nodes))
        pad = max(2, npts // 50)
        # the matching point: the potential minimum, kept off the ends and
        # moved down to a multiple of MAX_BLOCK, so that both half-sweeps
        # cover whole blocks of any size
        self.i_match = max(MAX_BLOCK, min(max(im, pad), npts - pad - 1) // MAX_BLOCK * MAX_BLOCK)
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
        e_lo, e_hi = (float(e) for e in e_window)
        e_mid = 0.5 * (e_lo + e_hi)
        if not e_lo < e_mid < e_hi:  # also false for a NaN or infinite end
            raise NoBracket(f"energy window [{e_lo:.6g}, {e_hi:.6g}] eV is empty or not finite")
        # the step matrices of every sweep, in blocks over the window
        self._blocks = _BlockTables(tables, h, (e_lo, e_mid, e_hi), self._block_size(e_lo, e_hi))

    def _q(self, E: float):
        """q = p (U - E) at the nodes and at the midpoints between them."""
        return self.p_nodes * (self.u_nodes - E), self.p_mids * (self.u_mids - E)

    def _tail_start(self, E):
        """First node of the settled tail at E, or at each of several energies:
        every later step has q >= 0."""
        return self._tail_floor.searchsorted(E)

    def count_round(self, energies) -> list[int]:
        """Interior nodes of the left-anchored solution at each energy: eigenvalues below it.

        Every energy lies inside the window.  An energy already on the
        staircase is answered from it; the others are swept, sharing their
        evaluations (``_BlockTables.rows``).  Each sweep runs TAIL_CHUNK steps
        into the settled tail at its energy (rounded up to a block end), where
        every q is >= 0 and so, for h > 0, every RK4 propagator entry is
        >= 0; from the first state there with phi and phi' of one sign no
        step can add a node (``kernels`` module docstring).  A sweep not yet
        in such a state goes on through the rest of its evaluation, then,
        together with the others still going from the same node, through
        further evaluations of TAIL_CHUNK, twice as many, ... steps.  Every
        count is that of the full sweep; each new one joins the staircase.
        """
        last, m = self.u_nodes.size - 1, self._blocks.m
        wanted, size = set(energies), TAIL_CHUNK
        found = {E: n for E, n in zip(self._stair_e, self._stair_n) if E in wanted}
        es = sorted(wanted - found.keys())
        tails = self._tail_start(es).tolist()
        going = {0: [(E, 0.0, 1.0, 0, min(t + TAIL_CHUNK, last)) for E, t in zip(es, tails)]}
        while going:
            later: dict[int, list] = {}
            for start, sweeps in going.items():
                for ks, rows in self._blocks.rows([s[0] for s in sweeps], start,
                                                  [s[4] for s in sweeps]):
                    end = rows[0].shape[1]
                    reached = min(start + end * m, last)
                    for j, k in enumerate(ks):
                        E, phi, dphi, nodes, stop = sweeps[k]
                        cut = -(-(stop - start) // m)
                        for a, b in ((0, cut), (cut, end)):
                            if a < b and not (a and kernels.settled(phi, dphi)):
                                phi, dphi, more = kernels.sweep(*(r[j, a:b] for r in rows),
                                                                phi, dphi)
                                nodes += more
                        if reached == last or kernels.settled(phi, dphi):
                            found[E] = nodes
                        else:
                            later.setdefault(reached, []).append(
                                (E, phi, dphi, nodes, min(reached + size, last)))
            going = later
            size *= 2
        for E in es:
            i = bisect.bisect_left(self._stair_e, E)
            self._stair_e.insert(i, E)
            self._stair_n.insert(i, found[E])
        return [found[E] for E in energies]

    def _block_size(self, e_lo: float, e_hi: float) -> int:
        """Block size over [e_lo, e_hi]: one that every block can serve.

        m is the largest power of two up to MAX_BLOCK with
        m h sqrt(max(-q)) <= pi/2 over the window: then no block holds two
        nodes (``kernels`` module docstring).  q is linear in E, so its
        extremes over the window lie at the window ends.  m = 1 if any q
        there is non-finite, or if any block's steps could together grow
        the solution by more than exp(BLOCK_GROWTH): h sum sqrt(max(q, 0))
        over the block, with each step's largest q at either end.
        """
        (lo_n, lo_m), (hi_n, hi_m) = self._q(e_lo), self._q(e_hi)
        # k is NaN if any q is NaN and +inf if any is -inf: both give m = 1
        q_min = np.min([q.min() for q in (lo_n, lo_m, hi_n, hi_m)])
        k = self.h * np.sqrt(np.maximum(-q_min, 0.0))
        m = MAX_BLOCK
        while m > 1 and not m * k <= 0.5 * math.pi:
            m //= 2
        q_max = np.maximum(lo_n[:-1], lo_n[1:])
        for q in (lo_m, hi_n[:-1], hi_n[1:], hi_m):
            np.maximum(q_max, q, out=q_max)
        growth = np.zeros(-(-q_max.size // m) * m)  # padded to whole blocks
        np.sqrt(np.maximum(q_max, 0.0, out=q_max), out=growth[:q_max.size])
        growth *= self.h
        # a +inf q makes its block's sum +inf
        return m if growth.reshape(-1, m).sum(axis=1).max() <= BLOCK_GROWTH else 1

    def _right_starts(self, energies: np.ndarray) -> np.ndarray:
        """Start node of the right half-sweep at each energy.

        The first node past the outer turning point (the settled-tail start,
        or the matching point if that lies further right) where the depth
        h sum(sqrt q) reaches TAIL_MARGIN; the last node when it never does.
        All energies still short of the margin add their next DEPTH_CHUNK,
        then twice as many, ... nodes in one (K, nodes) table; a row's first
        entry carries its running sum, so every sum is added in the order of
        one running sum from the turning point.
        """
        last = self.u_nodes.size - 1
        starts = np.maximum(self._tail_start(energies), self.i_match) + 1
        sums = np.zeros(energies.size)
        going = np.arange(energies.size)
        width = DEPTH_CHUNK
        while going.size:
            nodes = starts[going, None] + np.arange(width)
            inside = nodes <= last
            np.minimum(nodes, last, out=nodes)
            q = self.p_nodes[nodes] * (self.u_nodes[nodes] - energies[going, None])
            q[~inside] = 0.0  # past the last node: adds nothing
            depth = np.sqrt(q, out=q)
            depth[:, 0] += sums[going]
            np.cumsum(depth, axis=1, out=depth)
            short = np.count_nonzero(self.h * depth < TAIL_MARGIN, axis=1)
            starts[going] += short
            sums[going] = depth[:, -1]
            going = going[(short == width) & inside[:, -1]]
            width *= 2
        return np.minimum(starts, last)

    def _half_sweeps(self, energies, starts) -> None:
        """Match the left and right solutions at the matching point at each new energy.

        ``_matched`` gets (phi, phi', nodes) of both sides.  Every energy
        lies inside the window.  The energies not yet matched share their
        evaluations (``_BlockTables.rows``).  The right half-sweep at
        energies[k] starts at node starts[k], rounded up to a block end,
        which only adds WKB depth.  The RK4 step from x + h back to x is the adjugate
        [[m11, -m01], [-m10, m00]] of the forward step over the same points
        (m10 up to rounding), and adj(AB) = adj(B) adj(A): the right
        half-sweep walks the adjugates of the forward blocks in reverse
        order.  The adjugate acts on (phi, -phi') as [[m11, m01], [m10, m00]]
        does on (phi, phi'), so the sweep walks reversed views of the forward
        rows from (0, +1) and the phi' it returns is negated.
        """
        new = {}
        for E, start in zip(energies, starts):
            if E not in self._matched:
                new.setdefault(E, start)
        es, stops = list(new), [int(start) for start in new.values()]
        m = self._blocks.m
        for ks, rows in self._blocks.rows(es, 0, stops):
            # reversed views: column c of a row moves to size - 1 - c
            size, mid = rows[0].shape[1], self.i_match // m
            m00, m01, m10, m11 = (r[:, ::-1] for r in rows)
            for j, k in enumerate(ks):
                end = -(-stops[k] // m)
                phi, dphi, nodes = kernels.sweep(
                    *(r[j, size - end:size - mid] for r in (m11, m01, m10, m00)), 0.0, 1.0)
                self._matched[es[k]] = (kernels.sweep(*(r[j, :mid] for r in rows), 0.0, 1.0),
                                        (phi, -dphi, nodes))

    def phase(self, E: float, k: float) -> float:
        """Sum of the scaled left and right Pruefer phases at the matching point.

        Each side contributes pi * nodes + atan2(s k phi, s dphi/dy), with
        s = (-1)^nodes and y running from its anchor towards the matching
        point.  For any fixed k > 0 the sum increases with E and equals
        (n + 1) pi exactly where the log-derivatives match at level n; k near
        the local wavenumber makes it close to linear in E.  An energy not
        yet matched is matched as a round of one, from its own right start.
        """
        if E not in self._matched:
            self._half_sweeps([E], self._right_starts(np.array([E])))
        (pl, dl, nl), (pr, dr, nr) = self._matched[E]
        sl = -1.0 if nl % 2 else 1.0
        sr = -1.0 if nr % 2 else 1.0
        return (math.pi * (nl + nr) + math.atan2(sl * k * pl, sl * dl)
                + math.atan2(sr * k * pr, -sr * dr))

    def _bracket(self, n: int) -> tuple[float, int, float, int]:
        """Tightest staircase bracket of level n: (lo, nodes(lo), hi, nodes(hi))."""
        i = bisect.bisect_right(self._stair_n, n)
        return self._stair_e[i - 1], self._stair_n[i - 1], self._stair_e[i], self._stair_n[i]

    def _bisect(self, levels, tol_ev: float, spend, isolate: bool) -> None:
        """Bisect the staircase bracket of every level wider than tol_ev, while it
        holds other levels too (isolate) or until it is no wider; the midpoints
        of one halving share one count round."""
        while True:
            mids = set()
            for n in levels:
                lo, n_lo, hi, n_hi = self._bracket(n)
                if hi - lo > tol_ev and (n_hi - n_lo > 1 or not isolate):
                    spend(n)
                    mids.add(0.5 * (lo + hi))
            if not mids:
                return
            self.count_round(mids)

    def _refine(self, brackets: dict, tol_ev: float, spend) -> dict:
        """Anderson-Bjorck on the phase miss-distance of every isolated bracket at once.

        brackets maps level n to its bracket (lo, hi).  The bracket ends are
        matched in one round, and every later round evaluates the next point
        of every level still refining.  The right start is non-decreasing in
        E, so every point of a bracket starts its right half-sweep where its
        upper end does: at least TAIL_MARGIN deep, with no depth table per
        round.  Returns {n: E}, with E None when the phase does not change
        sign across the bracket.
        """
        im = self.i_match
        ends = sorted({e for bracket in brackets.values() for e in bracket})
        start = dict(zip(ends, self._right_starts(np.array(ends)).tolist()))
        self._half_sweeps(ends, [start[e] for e in ends])
        found, runs = {}, {}
        for n, (lo, hi) in brackets.items():
            target = (n + 1) * math.pi
            # phase scale: the local wavenumber at the matching point mid-bracket
            k = math.sqrt(abs(self.p_nodes[im] * (self.u_nodes[im] - 0.5 * (lo + hi)))) or 1.0
            fa, fb = self.phase(lo, k) - target, self.phase(hi, k) - target
            found[n] = None
            if fa < 0.0 < fb:
                run = _anderson_bjorck(lo, fa, hi, fb, tol_ev)
                runs[n] = (run, k, target, next(run))
        while runs:
            for n in runs:
                spend(n)
            self._half_sweeps([c for _, _, _, c in runs.values()],
                              [start[brackets[n][1]] for n in runs])
            for n, (run, k, target, c) in list(runs.items()):
                try:
                    runs[n] = (run, k, target, run.send(self.phase(c, k) - target))
                except StopIteration as stop:
                    found[n] = stop.value
                    del runs[n]
        return found

    def solve(self, n_list, tol_ev: float) -> list[tuple[int, float]]:
        """Eigenvalues of the requested levels inside the window, as (n, E), in the order requested.

        All levels advance together, in rounds (module docstring); the first
        round takes the staircase to be empty, so an engine solves once.  The
        certificate counts at E -+ tol/2 are clamped to the window: a window
        end's count is known, so the node-count step still lies within
        tol/2 of E, and no sweep leaves the window.
        """
        n_list = list(n_list)
        levels = sorted(set(n_list))
        e_lo, e_mid, e_hi = self._blocks.energies
        # e_mid is the first isolation point of a window wider than tol that
        # holds two levels or more; no bracket of a level below nodes(e_mid)
        # reaches e_hi.  n_up is the count at e_mid, or at e_hi once counted.
        split = e_hi - e_lo > tol_ev
        n_lo, n_up = self.count_round([e_lo, e_mid if split else e_hi])
        if split and (n_up - n_lo < 2 or not all(n_lo <= n < n_up for n in levels)):
            (n_up,) = self.count_round([e_hi])
            split = n_up - n_lo > 1
            if not split:  # one level: no isolation, so e_mid leaves the staircase
                i = self._stair_e.index(e_mid)
                del self._stair_e[i], self._stair_n[i]
        for n in n_list:
            if not n_lo <= n < n_up:
                raise NoBracket(
                    f"state n={n} not bracketed: nodes({e_lo:.6g})={n_lo}, "
                    f"nodes({e_hi:.6g})={n_up}")
        steps = dict.fromkeys(levels, 0)

        def spend(n):
            if steps[n] >= MAX_BISECTIONS:
                raise NonConvergence(f"no convergence to {tol_ev} eV in {MAX_BISECTIONS} steps")
            steps[n] += 1

        for n in levels if split else ():  # e_mid: every level's first isolation step
            spend(n)
        self._bisect(levels, tol_ev, spend, isolate=True)
        brackets = {}
        for n in levels:
            lo, _, hi, _ = self._bracket(n)
            if hi - lo > tol_ev:
                brackets[n] = (lo, hi)
        refined = {n: e for n, e in self._refine(brackets, tol_ev, spend).items()
                   if e is not None}
        half = 0.5 * tol_ev
        counts = self.count_round([min(max(e + s, e_lo), e_hi)
                                   for e in refined.values() for s in (-half, half)])
        found = {n: e for (n, e), below, above in zip(refined.items(), counts[::2], counts[1::2])
                 if (below, above) == (n, n + 1)}
        # uncertified, or isolation already reached tol: bisect the staircase bracket
        rest = [n for n in levels if n not in found]
        self._bisect(rest, tol_ev, spend, isolate=False)
        for n in rest:
            lo, _, hi, _ = self._bracket(n)
            found[n] = 0.5 * (lo + hi)
        return [(n, found[n]) for n in n_list]


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the memory one solve frees in the heap for the next (glibc; once per process).

    Each domain solve allocates and frees up to about 1.6 MB of tables at
    8001 points (levels 0-2, traced by tracemalloc).  Under glibc's default
    thresholds that memory goes back to the kernel, and the next solve
    faults it in again page by page: about 850 minor faults per 8001-point
    oracle-compare request.  An mmap threshold of MMAP_THRESHOLD
    and a trim threshold of TRIM_THRESHOLD keep it mapped, at the cost of up
    to TRIM_THRESHOLD of freed heap kept by the process.  Nothing is set
    where libc.so.6 does not load or has no mallopt (macOS, Windows, musl),
    or where the environment already tunes glibc's
    malloc (MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_ or a glibc.malloc.
    entry in GLIBC_TUNABLES).
    """
    if ("MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _tables(u_fn, m_fn, grid: GridSpec, hbar2: float):
    """The engine's tables on grid: U at the nodes and midpoints, then p = 2 m / hbar2 there."""
    _keep_freed_heap()
    xs = grid.xs()
    points = (xs, 0.5 * (xs[:-1] + xs[1:]))
    return (*(np.asarray(u_fn(x), dtype=float) for x in points),
            *(2.0 * np.asarray(m_fn(x), dtype=float) / hbar2 for x in points))


def _effective_engine(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec,
                      grid: GridSpec) -> _ShootingEngine:
    """The engine of the effective-potential problem on grid.

    mm must be mol's own mass model, ``MassModel.for_molecule(mol, eta)``:
    ``u_eff`` reads only eta from it and p reads m0 and beta, so any other
    model would pair a U_eff and a p of different problems.  The grid must
    stay SINGULARITY_MARGIN right of the mass singularity.  Both raise
    ConfigError before any table is evaluated.  hbar^2 = E0 m0 r0^2 comes
    from mol, as does the scale of ``u_eff``, so that the closed-form energies
    -e_scale eps solve this problem exactly.  The window is (min U_eff, 0)
    over the node table, its floor moved up by one part in 1e12.
    """
    if mm != MassModel.for_molecule(mol, mm.eta):
        raise ConfigError(f"mass model (m0 = {mm.m0}, beta = {mm.beta}) is not that of "
                          f"{mol.name} (m0 = {mol.m0}, beta = {mol.beta})")
    if mm.singularity_x is not None and grid.x_min <= mm.singularity_x + SINGULARITY_MARGIN:
        raise ConfigError(f"x_min = {grid.x_min} must stay right of the mass singularity "
                          f"at {mm.singularity_x:.4f} + {SINGULARITY_MARGIN} A margin")
    tables = _tables(lambda x: u_eff(mm, ordering, mol, x), mm.mass, grid,
                     mol.E0 * mol.m0 * mol.r0**2)
    e_floor = float(np.min(tables[0]))
    return _ShootingEngine(tables, grid.h, (e_floor + abs(e_floor) * 1e-12, 0.0))


def solve_on_grid(u_fn, m_fn, grid: GridSpec, n_list, e_window,
                  tol_ev: float = 1e-7) -> list[tuple[int, float]]:
    """Eigenvalues (n, E) of any potential/mass pair (eV, amu, Angstrom) inside e_window."""
    tables = _tables(u_fn, m_fn, grid, HBAR2_EV_AMU_A2)
    return _ShootingEngine(tables, grid.h, e_window).solve(n_list, tol_ev)


def solve_states(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec,
                 grid: GridSpec, n_list, tol_ev: float = 1e-7) -> list[tuple[int, float]]:
    """Eigenvalues (n, E) of the effective-potential problem, in the order requested.

    mm must be ``MassModel.for_molecule(mol, eta)`` (ConfigError otherwise);
    ``_effective_engine`` builds the tables and picks the window (min U_eff, 0).
    """
    return _effective_engine(mm, ordering, mol, grid).solve(n_list, tol_ev)


def shoot_state(mm: MassModel, ordering: AmbiguityOrdering, mol: MoleculeSpec,
                grid: GridSpec, n: int, tol_ev: float = 1e-7) -> float:
    """Eigenvalue of one level: ``solve_states(..., [n], tol_ev)[0][1]``.

    Kept only as a name the benchmark tracer (``e2ebench/tracing.py``) wraps.
    """
    return solve_states(mm, ordering, mol, grid, [n], tol_ev)[0][1]


def default_domain(mol: MoleculeSpec, eta: float) -> dict[str, tuple[float, float]]:
    """The oracle-compare domain study: ``{label: (x_min, x_max)}`` in solve order.

    The eigenfunctions live on z = exp(-beta x) in (0, 1/eta), which for
    eta > 0 reaches left of x = 0 up to the mass singularity.  At eta = 0 the
    study is one ``physical`` domain from the deep anchor x_min = -0.95 r0; at
    eta > 0 it is the ``boundary`` domain from the physical boundary x = 0,
    then the ``singular`` domain from 5 SINGULARITY_MARGIN right of the
    singularity.  x_max is placed where |V| has dropped to 1e-5 of the well
    depth.
    """
    x_max = math.log(1000.0 * mol.V2 / (0.01 * mol.D)) / mol.beta
    singularity = MassModel.for_molecule(mol, eta).singularity_x
    if singularity is None:
        return {"physical": (-0.95 * mol.r0, x_max)}
    return {"boundary": (0.0, x_max),
            "singular": (singularity + 5 * SINGULARITY_MARGIN, x_max)}
