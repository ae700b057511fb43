"""Shooting-method eigensolver: sanity tests and cross-validation."""
import ctypes
import math
import os
import platform
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from _oracles import (bisect_level, constant_mass_epsilon, fd_derivative, molecule_hbar2,
                      potential_value, rk4_extended, rk4_propagators_matmul, sweep_reference,
                      trapezoid, u_ordering)
from pdmorse import (LI_KUHN, WEYL, AmbiguityOrdering, ConfigError, GridSpec, MassModel,
                     NoBracket, NonConvergence, default_domain, energy_ev,
                     get_molecule, physical_psi, reduce,
                     shoot_state, solve_on_grid, solve_states, u_eff)
from pdmorse import kernels, oracle
from pdmorse.catalog import REFERENCE_ETAS
from pdmorse.reports import oracle_compare_rows
from pdmorse.units import HBAR2_EV_AMU_A2


def flat_potential(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def const_mass(m0):
    return lambda x: np.full_like(np.asarray(x, dtype=float), m0)


def box_level(n):
    """Exact level n of a unit-mass particle in the box [0, 1] A (eV)."""
    return HBAR2_EV_AMU_A2 * math.pi**2 * (n + 1) ** 2 / 2.0


# a window (eV) of the flat box, above its zero floor
BOX_WINDOW = (1e-4, 3.0)


def engine_on(u_fn, m_fn, grid, window):
    """A fresh engine on the tables of u_fn and m_fn over grid, with the given window."""
    return oracle._ShootingEngine(oracle._tables(u_fn, m_fn, grid, HBAR2_EV_AMU_A2),
                                  grid.h, window)


def effective_engine(mm, mol, grid):
    """A fresh engine as solve_states builds it, and its window."""
    engine = oracle._effective_engine(mm, WEYL, mol, grid)
    e_lo, _, e_hi = engine._blocks.energies
    return engine, (e_lo, e_hi)


def assert_certified(engine, n, e, tol):
    """Level n sits at e: the node count steps from n to n + 1 within tol/2 of
    e, and the Pruefer phase minus (n + 1) pi changes sign within tol of e."""
    assert engine.count_round([e - 0.5 * tol])[0] == n
    assert engine.count_round([e + 0.5 * tol])[0] == n + 1
    target = (n + 1) * math.pi
    assert engine.phase(e - tol, 1.0) < target < engine.phase(e + tol, 1.0)


class TestUOrdering:
    def test_constant_mass_vanishes(self):
        mm = MassModel(m0=1.0, eta=0.0, beta=1.5)
        assert np.allclose(u_ordering(mm, WEYL, np.linspace(-1, 5, 11), HBAR2_EV_AMU_A2), 0.0)

    def test_weyl_origin_closed_form(self):
        # hand expansion at x = 0, eta = 0.2: U = (3/100) hbar^2 beta^2 / m0
        beta = 1.9425
        mm = MassModel(m0=0.5, eta=0.2, beta=beta)
        expected = 0.03 * HBAR2_EV_AMU_A2 * beta**2 / 0.5
        got = float(u_ordering(mm, WEYL, 0.0, HBAR2_EV_AMU_A2))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_weyl_equals_li_kuhn_pointwise(self):
        # the two presets produce identical ordering terms everywhere
        mm = MassModel(m0=0.7, eta=0.2, beta=1.3)
        xs = np.linspace(-0.5, 6.0, 101)
        assert np.allclose(u_ordering(mm, WEYL, xs, HBAR2_EV_AMU_A2),
                           u_ordering(mm, LI_KUHN, xs, HBAR2_EV_AMU_A2), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("eta", [0.3, 0.95])
    def test_u_eff_carries_the_ordering_term(self, h2, eta):
        # U_eff minus the paper-form ordering term, built from the analytic
        # mass derivatives with the molecule's hbar^2, is the same for every
        # ordering
        mm = MassModel.for_molecule(h2, eta)
        hbar2 = molecule_hbar2(h2)
        xs = np.linspace(mm.singularity_x + oracle.SINGULARITY_MARGIN, 6.0, 101)
        rest = u_eff(mm, WEYL, h2, xs) - u_ordering(mm, WEYL, xs, hbar2)
        for o in (LI_KUHN, AmbiguityOrdering(a=0.3, alpha=-0.2, gamma=0.1),
                  AmbiguityOrdering(a=-0.5, alpha=0.7, gamma=0.4),
                  AmbiguityOrdering(a=2.0, alpha=-1.5, gamma=0.25)):
            np.testing.assert_allclose(u_eff(mm, o, h2, xs) - u_ordering(mm, o, xs, hbar2), rest,
                                       rtol=1e-12, atol=1e-12 * np.abs(rest).max())


class TestUEff:
    def test_eta0_is_bare_potential(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        xs = np.linspace(-0.5, 8.0, 64)
        assert np.allclose(u_eff(mm, WEYL, h2, xs), potential_value(h2, xs),
                           rtol=1e-14, atol=0.0)

    def test_decays_at_large_x(self, h2):
        mm = MassModel.for_molecule(h2, 0.2)
        assert abs(float(u_eff(mm, WEYL, h2, 40.0))) < 1e-12

    def test_matches_finite_difference_mass_derivatives(self, h2):
        # rebuild U_eff with FD values of m' and m'' and compare at x = 0
        mm = MassModel.for_molecule(h2, 0.2)
        x = 0.0
        m = float(mm.mass(x))
        m1 = fd_derivative(lambda t: float(mm.mass(t)), x, order=1, h=1e-5)
        m2 = fd_derivative(lambda t: float(mm.mass(t)), x, order=2, h=1e-4)
        h2_ = molecule_hbar2(h2)
        o = WEYL
        u_ord = -h2_ / (4 * m**3 * (o.a + 1)) * (
            (o.alpha + o.gamma - o.a) * m * m2
            + 2 * (o.a - o.alpha * o.gamma - o.alpha - o.gamma) * m1**2)
        redef = h2_ / (4 * m**2) * (1.5 * m1**2 / m - m2)
        expected = u_ord + potential_value(h2, x) + redef
        assert float(u_eff(mm, WEYL, h2, x)) == pytest.approx(expected, rel=1e-8)


class TestPhysicalPsi:
    def test_constant_mass(self):
        mm = MassModel(m0=4.0, eta=0.0, beta=1.0)
        assert np.allclose(physical_psi(mm, 1.3, [0.5]), [1.0])

    def test_doubles_at_origin_for_half_eta(self):
        mm = MassModel(m0=1.0, eta=0.5, beta=1.0)
        assert float(physical_psi(mm, 0.0, [1.0])[0]) == pytest.approx(2.0, rel=1e-14)

    def test_normalized_state_square_integrable(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        xs = np.linspace(-0.7, 10.0, 2001)
        fake_phi = np.exp(-((xs - 0.1) ** 2) / 0.05)
        psi = physical_psi(mm, xs, fake_phi)
        assert np.isfinite(trapezoid(psi**2, xs))


class TestBox:
    def test_levels_match_analytic(self):
        grid = GridSpec(0.0, 1.0, 2001)
        tol = 1e-10
        results = solve_on_grid(flat_potential, const_mass(1.0), grid,
                                range(6), BOX_WINDOW, tol_ev=tol)
        fresh = engine_on(flat_potential, const_mass(1.0), grid, BOX_WINDOW)
        for n, e in results:
            exact = box_level(n)
            assert abs(e - exact) / exact < 1e-6
            assert_certified(fresh, n, e, tol)


    def test_blocked_levels_match_step_by_step(self, monkeypatch):
        # the window (1e-4, 3) eV lies above the flat floor: every q < 0
        grid = GridSpec(0.0, 1.0, 2001)
        tol = 1e-10
        engine = engine_on(flat_potential, const_mass(1.0), grid, BOX_WINDOW)
        blocked = engine.solve(range(6), tol)
        assert engine._blocks.m == oracle.MAX_BLOCK
        monkeypatch.setattr(oracle, "MAX_BLOCK", 1)
        plain = solve_on_grid(flat_potential, const_mass(1.0), grid, range(6), BOX_WINDOW, tol)
        for (n, e), (_, e_plain) in zip(blocked, plain):
            assert abs(e - e_plain) <= tol, (n, e - e_plain)


def reference_domain(mol, eta):
    """The last domain of the study: ``singular`` at eta > 0, ``physical`` at eta = 0."""
    return list(default_domain(mol, eta).values())[-1]


class TestSolver:
    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_matches_per_level_bisection(self, name, eta, monkeypatch):
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        grid = GridSpec(*reference_domain(mol, eta), 2001)
        tol = 1e-7
        counts = []
        count_round = oracle._ShootingEngine.count_round

        def recording(self, energies):
            energies = list(energies)
            counts.extend(energies)
            return count_round(self, energies)

        monkeypatch.setattr(oracle._ShootingEngine, "count_round", recording)
        solved = solve_states(mm, WEYL, mol, grid, range(5), tol_ev=tol)
        # two window ends, two certificates per level and a few isolating
        # bisections; a level that falls back to bisection needs ~20 more
        assert len(counts) <= 2 + 4 * len(solved)
        monkeypatch.undo()
        engine, window = effective_engine(mm, mol, grid)
        for n, e in solved:
            assert abs(e - bisect_level(engine, n, *window, tol)) <= tol

    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_staircase_counts_match_reference_sweep(self, name, eta, monkeypatch):
        # every count a real oracle-compare solve stores (both domains, the
        # certificates at E -+ tol/2 next to each level included) must equal
        # the count of a full sweep of the reference loop at that energy
        visits = []
        count_round = oracle._ShootingEngine.count_round

        def recording(self, energies):
            energies = list(energies)
            counts = count_round(self, energies)
            visits.extend((self, e, nodes) for e, nodes in zip(energies, counts))
            return counts

        monkeypatch.setattr(oracle._ShootingEngine, "count_round", recording)
        rows = oracle_compare_rows(get_molecule(name), eta, WEYL, 2, 8001)
        assert len({engine for engine, _, _ in visits}) == (2 if eta > 0.0 else 1)
        assert len(visits) >= 2 * len(rows)
        for engine, e, nodes in visits:
            props = kernels.rk4_propagators(*engine._q(e), engine.h)
            assert nodes == sweep_reference(*props, 0.0, 1.0)[2], (name, eta, e)

    def test_results_follow_request_order(self, h2):
        mm = MassModel.for_molecule(h2, 0.2)
        grid = GridSpec(*reference_domain(h2, 0.2), 2001)
        levels = dict(solve_states(mm, WEYL, h2, grid, [0, 1, 3]))
        mixed = solve_states(mm, WEYL, h2, grid, [3, 0, 3, 1])
        assert mixed == [(n, levels[n]) for n in (3, 0, 3, 1)]
        assert levels[0] < levels[1] < levels[3]
        box = solve_on_grid(flat_potential, const_mass(1.0), GridSpec(0.0, 1.0, 1001),
                            [2, 0, 2], (1e-4, 3.0))
        assert [n for n, _ in box] == [2, 0, 2]
        assert box[0][1] == box[2][1]

    def test_failed_certification_falls_back_to_bisection(self, monkeypatch):
        # a refinement that lands in the next level up must be caught by the
        # node-count certificate and replaced by staircase bisection
        refined = []

        def wrong_level(self, brackets, tol_ev, spend):
            refined.extend(brackets)
            return {n: box_level(n + 1) for n in brackets}

        monkeypatch.setattr(oracle._ShootingEngine, "_refine", wrong_level)
        grid = GridSpec(0.0, 1.0, 2001)
        tol = 1e-9
        results = solve_on_grid(flat_potential, const_mass(1.0), grid, range(4),
                                BOX_WINDOW, tol_ev=tol)
        assert refined == [0, 1, 2, 3]
        scan = engine_on(flat_potential, const_mass(1.0), grid, BOX_WINDOW)
        for n, e in results:
            assert abs(e - box_level(n)) / box_level(n) < 1e-6
            assert abs(e - bisect_level(scan, n, *BOX_WINDOW, tol)) <= tol
        fresh = engine_on(flat_potential, const_mass(1.0), grid, BOX_WINDOW)
        for n, e in results:
            assert_certified(fresh, n, e, tol)

    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_solve_on_grid_reproduces_solve_states(self, name, eta):
        # the generic solver scales p by the CODATA hbar^2 and solve_states by
        # the molecule's; given solve_states's U table and window, and the
        # mass rescaled by the ratio of the two, it returns the same energies
        # up to the rounding of that rescale
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        grid = GridSpec(*reference_domain(mol, eta), 2001)
        _, window = effective_engine(mm, mol, grid)
        levels = [4, 0, 2, 1, 3]
        ratio = HBAR2_EV_AMU_A2 / molecule_hbar2(mol)
        generic = solve_on_grid(lambda x: u_eff(mm, WEYL, mol, x), lambda x: mm.mass(x) * ratio,
                                grid, levels, window)
        solved = solve_states(mm, WEYL, mol, grid, levels)
        assert [n for n, _ in generic] == [n for n, _ in solved] == levels
        np.testing.assert_allclose([e for _, e in generic], [e for _, e in solved],
                                   rtol=0.0, atol=1e-12)

    @staticmethod
    def _record_tables(monkeypatch):
        """Record the points of every u_eff and MassModel.mass evaluation."""
        calls = {"u_eff": [], "mass": []}
        mass = MassModel.mass
        monkeypatch.setattr(oracle, "u_eff",
                            lambda *args: calls["u_eff"].append(args[-1]) or u_eff(*args))
        monkeypatch.setattr(MassModel, "mass",
                            lambda self, x: calls["mass"].append(x) or mass(self, x))
        return calls

    def test_u_eff_tables_built_once(self, h2, monkeypatch):
        # one table of U_eff and one of the mass at the nodes, then one of each
        # at the midpoints; the window is read off the node table
        calls = self._record_tables(monkeypatch)
        mm = MassModel.for_molecule(h2, 0.2)
        grid = GridSpec(*reference_domain(h2, 0.2), 2001)
        solve_states(mm, WEYL, h2, grid, [0])
        xs = grid.xs()
        for points in calls.values():
            assert [len(x) for x in points] == [grid.points, grid.points - 1]
            np.testing.assert_array_equal(points[0], xs)
            np.testing.assert_array_equal(points[1], 0.5 * (xs[:-1] + xs[1:]))

    @pytest.mark.parametrize("offset", [-0.1, 0.5 * oracle.SINGULARITY_MARGIN],
                             ids=["left_of_singularity", "inside_margin"])
    def test_singularity_margin_checked_before_tables(self, h2, monkeypatch, offset):
        # a grid that starts inside the margin is refused before U_eff or m
        # is evaluated
        calls = self._record_tables(monkeypatch)
        mm = MassModel.for_molecule(h2, 0.2)
        grid = GridSpec(mm.singularity_x + offset, 6.0, 4001)
        with pytest.raises(ConfigError, match="must stay right of the mass singularity"):
            solve_states(mm, WEYL, h2, grid, [0])
        assert calls == {"u_eff": [], "mass": []}

    def test_mass_model_of_another_molecule_is_refused(self, h2, monkeypatch):
        # U_eff reads only eta from the mass model and p reads m0 and beta:
        # H2 at eta 0.2 with m0 doubled gave level 0 at -4.5926 eV (-4.5294
        # with its own model) without a word; now it is refused, as is
        # another beta, before U_eff or m is evaluated
        calls = self._record_tables(monkeypatch)
        grid = GridSpec(*reference_domain(h2, 0.2), 2001)
        for mm in (MassModel(m0=2.0 * h2.m0, eta=0.2, beta=h2.beta),
                   MassModel(m0=h2.m0, eta=0.2, beta=1.01 * h2.beta)):
            with pytest.raises(ConfigError, match="is not that of H2"):
                solve_states(mm, WEYL, h2, grid, [0])
        assert calls == {"u_eff": [], "mass": []}

    @staticmethod
    def _window_above_level_2(tol):
        """The box on 1001 points, its level 2 and a window whose top lies tol/4 above it."""
        grid = GridSpec(0.0, 1.0, 1001)
        level = solve_on_grid(flat_potential, const_mass(1.0), grid, [2], BOX_WINDOW, 1e-12)[0][1]
        return grid, level, (BOX_WINDOW[0], level + 0.25 * tol)

    def test_certificates_stay_inside_the_window(self, monkeypatch):
        # the window's top lies tol/4 above level 2 of the grid: the count at
        # E + tol/2 is clamped to the window's top, whose count is known, so
        # no sweep leaves the window and level 2 still lies within tol/2
        tol = 1e-6
        grid, level, window = self._window_above_level_2(tol)
        swept = []
        engine = oracle._ShootingEngine
        count_round, half_sweeps = engine.count_round, engine._half_sweeps

        def counting(self, energies):
            energies = list(energies)
            swept.extend(energies)
            return count_round(self, energies)

        def matching(self, energies, starts):
            energies = list(energies)
            swept.extend(energies)
            return half_sweeps(self, energies, starts)

        monkeypatch.setattr(engine, "count_round", counting)
        monkeypatch.setattr(engine, "_half_sweeps", matching)
        results = solve_on_grid(flat_potential, const_mass(1.0), grid, range(3), window, tol)
        assert swept and all(window[0] <= e <= window[1] for e in swept), max(swept) - window[1]
        assert [n for n, _ in results] == [0, 1, 2]
        assert abs(results[2][1] - level) <= 0.5 * tol

    def test_staircase_holds_each_energy_once(self, monkeypatch):
        # the certificate of level 2 is clamped to the window's top, which
        # the first round counted: the second round that asks for the top is
        # answered from the staircase, so no energy joins it twice
        tol = 1e-6
        grid, _, window = self._window_above_level_2(tol)
        engine = engine_on(flat_potential, const_mass(1.0), grid, window)
        rounds = []
        count_round = oracle._ShootingEngine.count_round
        monkeypatch.setattr(oracle._ShootingEngine, "count_round",
                            lambda self, energies: rounds.append(list(energies))
                            or count_round(self, energies))
        assert [n for n, _ in engine.solve(range(3), tol)] == [0, 1, 2]
        assert sum(window[1] in energies for energies in rounds) == 2
        assert len(set(engine._stair_e)) == len(engine._stair_e)
        assert window[1] in engine._stair_e

    @pytest.mark.parametrize("domain", ["boundary", "singular"])
    def test_low_levels_leave_the_window_top_uncounted(self, h2, domain, monkeypatch):
        # H2 eta 0.2, levels 0-2 at 8001 points, as oracle-compare solves
        # them: no bracket reaches the window top, so it is never counted;
        # the rounds need at most half of the step table's blocks, the fill
        # stops at the end of the pass that holds the last of them, and the
        # energies are those of an engine whose table was filled whole first
        mm = MassModel.for_molecule(h2, 0.2)
        grid = GridSpec(*default_domain(h2, 0.2)[domain], 8001)
        counted, needed = [], [0]
        count_round, fill = oracle._ShootingEngine.count_round, oracle._BlockTables.fill

        def counting(self, energies):
            energies = list(energies)
            counted.extend(energies)
            return count_round(self, energies)

        def filling(self, blocks=None):
            needed.append(blocks)
            fill(self, blocks)

        monkeypatch.setattr(oracle._ShootingEngine, "count_round", counting)
        monkeypatch.setattr(oracle._BlockTables, "fill", filling)
        engine, (_, e_hi) = effective_engine(mm, h2, grid)
        solved = engine.solve(range(3), 1e-6)
        assert counted and e_hi not in counted
        blocks = engine._blocks
        nb, chunk = blocks._table.shape[-1], oracle.FILL_CHUNK // blocks.m
        assert 0 < max(needed) <= nb // 2
        assert blocks.filled == -(-max(needed) // chunk) * chunk < nb
        monkeypatch.undo()
        full, _ = effective_engine(mm, h2, grid)
        full._blocks.fill()
        assert bits(full.solve(range(3), 1e-6)) == bits(solved)

    def test_levels_past_the_midpoint_count_the_window_top(self, lih):
        # LiH eta 0, levels 0-12 at 2001 points: the upper levels' brackets
        # reach the window top, which is counted, and the whole table is filled
        mm = MassModel.for_molecule(lih, 0.0)
        engine, (_, e_hi) = effective_engine(mm, lih, GridSpec(*reference_domain(lih, 0.0), 2001))
        assert [n for n, _ in engine.solve(range(13), 1e-6)] == list(range(13))
        assert e_hi in engine._stair_e
        assert engine._blocks.filled == engine._blocks._table.shape[-1]

    def test_window_of_one_level_is_not_bisected(self):
        # a window that holds level 1 of the box alone: its midpoint is
        # counted but leaves the staircase, the refinement runs on the whole
        # window, and the energy and staircase are those of a solve that
        # counts the window ends alone first
        grid = GridSpec(0.0, 1.0, 1001)
        window = (0.5 * (box_level(0) + box_level(1)), 0.5 * (box_level(1) + box_level(2)))
        engine = engine_on(flat_potential, const_mass(1.0), grid, window)
        tol = 1e-7
        ((n, e),) = engine.solve([1], tol)
        assert (n, e) == (1, 0.08251303686623324)
        assert list(zip(engine._stair_e, engine._stair_n)) == [
            (window[0], 1), (e - 0.5 * tol, 1), (e + 0.5 * tol, 2), (window[1], 2)]
        assert window[0] in engine._matched and window[1] in engine._matched

    @pytest.mark.parametrize("n", [-1, 12])
    def test_unbracketed_level_names_both_window_ends(self, n):
        # below the window and at its top: both messages give the counts at
        # both ends, the top's included
        engine = engine_on(flat_potential, const_mass(1.0), GridSpec(0.0, 1.0, 1001), BOX_WINDOW)
        with pytest.raises(NoBracket) as raised:
            engine.solve([0, n], 1e-7)
        assert str(raised.value) == f"state n={n} not bracketed: nodes(0.0001)=0, nodes(3)=12"

    def test_step_budget_raises_nonconvergence(self, h2, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_BISECTIONS", 2)
        mm = MassModel.for_molecule(h2, 0.0)
        with pytest.raises(NonConvergence):
            solve_states(mm, WEYL, h2, GridSpec(-0.7, 10.0, 2001), [0])


ORDERINGS = {"weyl": WEYL, "likuhn": LI_KUHN,
             "(0.5,-0.25,-0.25)": AmbiguityOrdering(a=0.5, alpha=-0.25, gamma=-0.25)}


def full_count(engine, e):
    """Node count of one sweep over the full grid at e."""
    return kernels.sweep(*kernels.rk4_propagators(*engine._q(e), engine.h), 0.0, 1.0)[2]


class TestRightStart:
    """The right half-sweep starts TAIL_MARGIN deep in the forbidden tail."""

    @pytest.mark.parametrize("points", [2001, 8001])
    @pytest.mark.parametrize("ordering", list(ORDERINGS))
    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_energies_match_uncut_reference(self, name, eta, ordering, points, monkeypatch):
        # the uncut reference starts every right half-sweep at x_max
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        tol = 1e-6
        levels = range(3)
        domains = default_domain(mol, eta)
        if eta == 0.0:
            domains["boundary"] = (0.0, domains["physical"][1])
        for label, domain in domains.items():
            grid = GridSpec(*domain, points)
            cut = solve_states(mm, ORDERINGS[ordering], mol, grid, levels, tol)
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "TAIL_MARGIN", math.inf)
                uncut = solve_states(mm, ORDERINGS[ordering], mol, grid, levels, tol)
            engine = oracle._effective_engine(mm, ORDERINGS[ordering], mol, grid)
            for (n, e), (_, e_ref) in zip(cut, uncut):
                assert abs(e - e_ref) <= 1e-14, (label, n, e - e_ref)
                for side, expected in ((e - 0.5 * tol, n), (e + 0.5 * tol, n + 1)):
                    assert engine.count_round([side])[0] == full_count(engine, side) == expected

    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_phase_propagates_under_half_the_grid(self, name, eta, monkeypatch):
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        grid = GridSpec(*reference_domain(mol, eta), 8001)
        engine, _ = effective_engine(mm, mol, grid)
        levels = solve_states(mm, WEYL, mol, grid, range(3))
        steps = []
        sweep = kernels.sweep
        monkeypatch.setattr(kernels, "sweep",
                            lambda *args, **kw: steps.append(len(args[0])) or sweep(*args, **kw))
        for _, e in levels:
            steps.clear()
            engine.phase(e + 1e-9, 1.0)
            assert len(steps) == 2 and sum(steps) < (grid.points - 1) / 2, (e, steps)

    def test_start_falls_back_to_x_max(self):
        # a flat box has no forbidden tail: the sweep starts at the wall
        engine = engine_on(flat_potential, const_mass(1.0), GridSpec(0.0, 1.0, 1001), BOX_WINDOW)
        assert engine._right_starts(np.array([1.0]))[0] == 1000

    def test_start_reaches_the_margin(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        engine, _ = effective_engine(mm, h2, GridSpec(-0.7, 10.0, 8001))
        qn = engine._q(-4.0)[0]
        start = engine._right_starts(np.array([-4.0]))[0]
        turn = engine.i_match + np.flatnonzero(qn[engine.i_match:] < 0.0)[-1] + 1
        assert turn == engine._tail_start(-4.0)
        depth = engine.h * np.cumsum(np.sqrt(qn[turn + 1:start + 1]))
        assert depth[-1] >= oracle.TAIL_MARGIN > depth[-2]
        assert start < 0.25 * qn.size

    def test_tail_start_follows_the_signs_of_q(self, h2):
        # the settled tail starts one past the last step with a q < 0 or NaN
        mm = MassModel.for_molecule(h2, 0.4)
        grid = GridSpec(*reference_domain(h2, 0.4), 2001)
        x_nan = grid.xs()[1500:1502].mean()  # one midpoint far out in the tail

        def u(x):
            return np.where(x == x_nan, math.nan, u_eff(mm, WEYL, h2, x))

        e_lo = float(np.min(u_eff(mm, WEYL, h2, grid.xs())))
        engine = engine_on(u, mm.mass, grid, (e_lo, 0.0))
        assert math.isnan(engine.u_mids[1500])
        for e in np.concatenate([np.linspace(e_lo - 1.0, 0.5, 37), engine.u_nodes[::97]]):
            qn, qm = engine._q(e)
            bad = ~(np.minimum(np.minimum(qn[:-1], qm), qn[1:]) >= 0.0)
            expected = int(np.flatnonzero(bad)[-1]) + 1 if bad.any() else 0
            assert engine._tail_start(e) == expected, e


def smooth_potential(seed: int, length: float):
    """A random smooth potential on [0, length]: six cosines of falling amplitude (eV)."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=6) * 40.0 / np.arange(1, 7)
    phase = rng.uniform(0.0, 2.0 * math.pi, 6)

    def u(x):
        x = np.asarray(x, dtype=float)
        return sum(a * np.cos(2.0 * math.pi * (j + 1) * x / length + f)
                   for j, (a, f) in enumerate(zip(amp, phase)))
    return u


def reference_count(engine, e):
    """Node count of the reference loop over the full grid, step by step."""
    return sweep_reference(*kernels.rk4_propagators(*engine._q(e), engine.h), 0.0, 1.0)[2]


def spiked_potential(grid):
    """smooth_potential(6) with a NaN at one midpoint (near node 2500) and
    1e12 eV spikes at nodes 900, 901 and 3000 of the 4001-point grid."""
    smooth = smooth_potential(6, 1.0)
    xs = grid.xs()
    x_nan, spikes = xs[2500:2502].mean(), xs[[900, 901, 3000]]

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.where(x == x_nan, math.nan, np.where(np.isin(x, spikes), 1e12, smooth(x)))
    return u


class TestBlockedSweeps:
    """Sweeps over blocks of up to MAX_BLOCK steps count what the step-by-step loop counts."""

    @staticmethod
    def _engine_at_the_bound(u, grid, m: int = oracle.MAX_BLOCK):
        """An engine on u with unit mass over a window whose top puts
        m h sqrt(max(-q)) at pi/2, less a rounding margin: blocks of m steps."""
        k = (1.0 - 1e-9) * 0.5 * math.pi / (m * grid.h)
        tables = oracle._tables(u, const_mass(1.0), grid, HBAR2_EV_AMU_A2)
        u_min = float(np.nanmin(np.concatenate(tables[:2])))
        window = (u_min - 50.0, u_min + k * k / tables[2][0])
        return oracle._ShootingEngine(tables, grid.h, window), window

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_counts_match_reference_at_the_block_bound(self, seed):
        grid = GridSpec(0.0, 1.0, 4001)
        engine, (e_lo, e_hi) = self._engine_at_the_bound(smooth_potential(seed, 1.0), grid)
        assert engine._blocks.m == oracle.MAX_BLOCK
        energies = np.concatenate([np.linspace(e_lo, e_hi, 41),
                                   np.random.default_rng(seed).uniform(e_lo, e_hi, 40)])
        assert reference_count(engine, e_hi) > 50
        # the same table rule over a window wide enough for blocks of one step
        plain, _ = self._engine_at_the_bound(smooth_potential(seed, 1.0), grid, 1)
        assert plain._blocks.m == 1
        for e in energies:
            assert engine.count_round([e])[0] == reference_count(engine, e), e
            engine.phase(e, 1.0)
            plain.phase(e, 1.0)
            assert ([side[2] for side in engine._matched[e]]
                    == [side[2] for side in plain._matched[e]]), e

    def test_block_products_match_sequential_products(self):
        rng = np.random.default_rng(7)
        for m in (2, 4, 8, 16):
            steps = rng.uniform(-2.0, 2.0, (3, 2, 2, m, 5))
            expected = np.empty((2, 2, 3, 5))
            for e in range(3):
                for b in range(5):
                    product = np.eye(2)
                    for k in range(m):
                        product = steps[e, :, :, k, b] @ product
                    expected[:, :, e, b] = product
            before = steps.copy()
            got = np.array(kernels.block_products(steps)).reshape(2, 2, 3, 5)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
            assert steps.tobytes() == before.tobytes()  # the input is left as it was

    def test_nan_and_wall_spikes_run_step_by_step(self):
        # a NaN midpoint and 1e12 eV spikes: the whole grid runs in blocks of
        # one step, and every count is still the reference loop's
        grid = GridSpec(0.0, 1.0, 4001)
        engine, (e_lo, e_hi) = self._engine_at_the_bound(spiked_potential(grid), grid)
        assert engine._blocks.m == 1
        for e in np.linspace(e_lo, e_hi, 41):
            assert engine.count_round([e])[0] == reference_count(engine, e), e

    @pytest.mark.parametrize("where, value, m", [
        (None, 0.0, oracle.MAX_BLOCK), ("node", math.nan, 1), ("midpoint", math.nan, 1),
        ("node", math.inf, 1), ("node", -math.inf, 1), ("node", 1e12, 1)],
        ids=["smooth", "NaN node", "NaN midpoint", "+inf", "-inf", "1e12 spike"])
    def test_one_bad_point_gives_blocks_of_one_step(self, where, value, m):
        # one non-finite q at the window ends, or one step that could grow
        # the solution by more than exp(BLOCK_GROWTH), takes the whole grid
        # to m = 1; every engine gets the smooth grid's window
        grid = GridSpec(0.0, 1.0, 4001)
        smooth = smooth_potential(6, 1.0)
        _, window = self._engine_at_the_bound(smooth, grid)
        xs = grid.xs()
        x_bad = {"node": xs[2500], "midpoint": xs[2500:2502].mean(), None: math.nan}[where]
        engine = engine_on(lambda x: np.where(x == x_bad, value, smooth(x)), const_mass(1.0),
                           grid, window)
        if where is not None:
            table = engine.u_nodes if where == "node" else engine.u_mids
            np.testing.assert_equal(table[2500], value)
        assert engine._blocks.m == m
        # rounds outside a solve fill the table and evaluate it (inf * 0 at
        # e_mid on the +-inf grids) without a numpy warning
        e_lo, e_mid, e_hi = engine._blocks.energies
        energies = [e_lo, 0.5 * (e_lo + e_mid), e_mid, e_hi]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine.count_round(energies)
            engine._half_sweeps(energies, engine._right_starts(np.array(energies)))
        assert engine._blocks.filled == engine._blocks._table.shape[-1]

    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["+inf", "-inf"])
    def test_infinite_point_solves_without_warnings(self, value):
        # the +-inf grids above: the table build and a solve of every level
        # in the window (inf * 0 at the window's midpoint) warn nothing
        grid = GridSpec(0.0, 1.0, 4001)
        smooth = smooth_potential(6, 1.0)
        _, window = self._engine_at_the_bound(smooth, grid)
        x_bad = grid.xs()[2500]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = solve_on_grid(lambda x: np.where(x == x_bad, value, smooth(x)),
                                   const_mass(1.0), grid, range(62), window)
        assert [n for n, _ in solved] == list(range(62))
        assert all(math.isfinite(e) for _, e in solved)

    # m of every default-domain engine, both orderings, by domain in solve
    # order (the README table)
    DEFAULT_BLOCKS = {
        ("H2", 2001): {0.0: (8,), 0.2: (8, 8), 0.4: (8, 4), 0.6: (4, 1)},
        ("LiH", 2001): {0.0: (4,), 0.2: (4, 4), 0.4: (4, 2), 0.6: (2, 1)},
        ("H2", 8001): {0.0: (16,), 0.2: (16, 16), 0.4: (16, 16), 0.6: (16, 4)},
        ("LiH", 8001): {0.0: (16,), 0.2: (16, 16), 0.4: (16, 8), 0.6: (8, 2)},
    }

    @pytest.mark.parametrize("ordering", ["weyl", "likuhn"])
    @pytest.mark.parametrize("name, points", list(DEFAULT_BLOCKS))
    def test_default_domains_keep_their_block_size(self, name, points, ordering):
        mol = get_molecule(name)
        for eta, expected in self.DEFAULT_BLOCKS[name, points].items():
            mm = MassModel.for_molecule(mol, eta)
            got = tuple(oracle._effective_engine(mm, ORDERINGS[ordering], mol,
                                                 GridSpec(*domain, points))._blocks.m
                        for domain in default_domain(mol, eta).values())
            assert got == expected, eta

    def test_left_wall_runs_step_by_step(self, h2):
        # H2 eta 0 on [-2.5, 10] A: the node rule allows blocks of 16, but
        # steps into the wall could grow the solution by more than
        # exp(BLOCK_GROWTH) per block (golden: oracle-compare --domain=-2.5,10)
        mm = MassModel.for_molecule(h2, 0.0)
        engine, (e_lo, e_hi) = effective_engine(mm, h2, GridSpec(-2.5, 10.0, 8001))
        assert engine._blocks.m == 1
        k = engine.h * math.sqrt(-min(float(q.min()) for e in (e_lo, e_hi) for q in engine._q(e)))
        assert oracle.MAX_BLOCK * k <= 0.5 * math.pi

    def test_wide_window_forces_single_steps(self):
        # a window so high that two steps can hold two nodes: blocks of one step
        grid = GridSpec(0.0, 1.0, 1001)
        k = 1.01 * 0.25 * math.pi / grid.h
        engine = engine_on(flat_potential, const_mass(1.0), grid,
                           (0.0, k * k * HBAR2_EV_AMU_A2 / 2.0))
        assert engine._blocks.m == 1

    def test_sweep_states_per_solve(self, h2, monkeypatch):
        # H2, eta 0.2, levels 0-2 on the 8001-point singular domain: with
        # blocks of 16 the sweeps walk 3,729 Python states (blocks or steps);
        # sweeps that fell back to single steps would walk about 20x as many
        mm = MassModel.for_molecule(h2, 0.2)
        grid = GridSpec(*reference_domain(h2, 0.2), 8001)
        states = []
        sweep = kernels.sweep
        monkeypatch.setattr(kernels, "sweep",
                            lambda *args: states.append(len(args[0])) or sweep(*args))
        solve_states(mm, WEYL, h2, grid, range(3), tol_ev=1e-6)
        assert sum(states) <= 4500, (len(states), sum(states))


def bits(values) -> str:
    """Exact text of a nest of floats and ints: equal only if every bit is."""
    return repr(values)


class TestBatchedRounds:
    """A round of K energies gives, bit for bit, what K rounds of one give."""

    GRID = GridSpec(0.0, 1.0, 4001)

    @staticmethod
    def _rows_by_energy(blocks, energies, b0, b1):
        """The rows of blocks b0..b1-1 at each energy, from one ``rows`` call: {k: four rows}."""
        m = blocks.m
        return {k: [r[j] for r in rows]
                for ks, rows in blocks.rows(energies, b0 * m, [b1 * m] * len(energies))
                for j, k in enumerate(ks)}

    def test_block_products_match_single_energy_evaluations(self):
        # rows of K energies against rows of each energy alone, over ranges
        # at the start, inside and at the end of the grid
        engine, (e_lo, e_hi) = TestBlockedSweeps._engine_at_the_bound(
            smooth_potential(5, 1.0), self.GRID)
        blocks = engine._blocks
        assert blocks.m == oracle.MAX_BLOCK
        energies = list(np.linspace(e_lo, e_hi, 7))
        nb = -(-(self.GRID.points - 1) // blocks.m)
        for b0, b1 in ((0, 50), (0, nb), (56, 60), (150, 200), (nb - 1, nb)):
            batched = self._rows_by_energy(blocks, energies, b0, b1)
            assert sorted(batched) == list(range(7))
            for k, e in enumerate(energies):
                (alone,) = self._rows_by_energy(blocks, [e], b0, b1).values()
                assert [r.shape for r in alone] == [(b1 - b0,)] * 4, (b0, b1)
                for got, single in zip(batched[k], alone):
                    assert got.tobytes() == single.tobytes(), (b0, b1, k)

    def test_rows_outlive_the_next_evaluation(self):
        # every evaluation makes its own arrays: 7 energies over the whole
        # grid take several evaluations, and the rows of the first are
        # unchanged after the rest
        engine, (e_lo, e_hi) = TestBlockedSweeps._engine_at_the_bound(
            smooth_potential(5, 1.0), self.GRID)
        blocks = engine._blocks
        nb = -(-(self.GRID.points - 1) // blocks.m)
        evaluations = blocks.rows(list(np.linspace(e_lo, e_hi, 7)), 0, [nb * blocks.m] * 7)
        ks, first = next(evaluations)
        kept = [r.copy() for r in first]
        assert len(ks) < 7 and len(list(evaluations)) >= 1
        for got, want in zip(first, kept):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case, m", [("blocked", oracle.MAX_BLOCK), ("spiked", 1),
                                         ("step by step", 1)])
    def test_rounds_match_rounds_of_one(self, case, m):
        # energies across the window, in blocks of MAX_BLOCK steps, on the
        # spiked grid (blocks of one step) and on a window high enough for
        # blocks of one step by the node rule
        u = spiked_potential(self.GRID) if case == "spiked" else smooth_potential(5, 1.0)
        bound = 1 if case == "step by step" else oracle.MAX_BLOCK

        def engine():
            return TestBlockedSweeps._engine_at_the_bound(u, self.GRID, bound)

        batched, (e_lo, e_hi) = engine()
        assert batched._blocks.m == m
        energies = list(np.linspace(e_lo, e_hi, 9))
        counts = batched.count_round(energies)
        starts = batched._right_starts(np.array(energies))
        batched._half_sweeps(energies, starts)
        for e, nodes, start in zip(energies, counts, starts):
            alone, _ = engine()
            assert alone.count_round([e])[0] == nodes == reference_count(alone, e), e
            assert alone._right_starts(np.array([e]))[0] == start
            alone._half_sweeps([e], [start])
            assert bits(alone._matched[e]) == bits(batched._matched[e]), e

    def test_block_table_evaluations_per_solve(self, h2, monkeypatch):
        # H2, eta 0.2, levels 0-12 on the 2001-point singular domain: one
        # evaluation per sweep made 151; rounds share them among 96 energies
        evaluations = []
        products = kernels.block_products
        monkeypatch.setattr(kernels, "block_products",
                            lambda steps: evaluations.append(len(steps)) or products(steps))
        mm = MassModel.for_molecule(h2, 0.2)
        solve_states(mm, WEYL, h2, GridSpec(*reference_domain(h2, 0.2), 2001), range(13),
                     tol_ev=1e-6)
        assert len(evaluations) <= 30 < sum(evaluations), evaluations


class TestOneStepTable:
    """An engine fills each step of its step table once; every sweep reads it."""

    def test_each_step_is_filled_once(self, h2, monkeypatch):
        # a full solve on an m = 1 grid, and rounds on the spiked grid
        # (m = 1) and on a smooth one (m = MAX_BLOCK), then a full fill:
        # rk4_propagators sees each step of each engine once
        mm = MassModel.for_molecule(h2, 0.6)
        singular = oracle._effective_engine(mm, WEYL, h2,
                                            GridSpec(*reference_domain(h2, 0.6), 2001))
        grid = TestBatchedRounds.GRID
        spiked, _ = TestBlockedSweeps._engine_at_the_bound(spiked_potential(grid), grid)
        smooth, _ = TestBlockedSweeps._engine_at_the_bound(smooth_potential(5, 1.0), grid)
        assert singular._blocks.m == spiked._blocks.m == 1
        assert smooth._blocks.m == oracle.MAX_BLOCK
        filled = []
        rk4 = kernels.rk4_propagators
        monkeypatch.setattr(kernels, "rk4_propagators",
                            lambda *a: filled.append(a[1].size) or rk4(*a))
        solved = singular.solve(range(13), 1e-6)
        assert [n for n, _ in solved] == list(range(13))
        for engine in (singular, spiked, smooth):
            if engine is not singular:
                e_lo, _, e_hi = engine._blocks.energies
                inside = list(np.linspace(e_lo, e_hi, 9))
                engine.count_round(inside)
                engine._half_sweeps(inside, engine._right_starts(np.array(inside)))
            engine._blocks.fill()
            engine._blocks.fill()  # fills nothing more
            assert sum(filled) == engine.u_mids.size
            filled.clear()

    @pytest.mark.parametrize("window", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                        (0.0, math.inf), (-math.inf, 0.0)])
    def test_window_without_energies_raises(self, window):
        with pytest.raises(NoBracket, match=r"energy window \[.*\] eV is empty or not finite"):
            engine_on(flat_potential, const_mass(1.0), GridSpec(0.0, 1.0, 1001), window)


def table_steps(engine, energies):
    """The engine's table evaluated at each energy, single steps in step order.

    Four (K, steps) arrays, by Horner's rule in the order of operations of
    ``_BlockTables.rows``, so each entry has the bits the sweeps see.  Fills
    the whole table first.
    """
    blocks = engine._blocks
    blocks.fill()
    d = (np.asarray(energies) - blocks.energies[1])[:, None]
    # (i, j, step in block, block) -> (entry, step), less the padding
    c2, f, c1 = (t.transpose(0, 1, 3, 2).reshape(4, -1)[:, :engine.u_mids.size]
                 for t in blocks._table)
    return [(c2[e] * d + c1[e]) * d + f[e] for e in range(4)]


def default_engines(points):
    """Engines as oracle-compare builds them: every default domain of H2 and LiH
    at every reference eta, on grids of the given points."""
    for name in ("H2", "LiH"):
        mol = get_molecule(name)
        for eta in REFERENCE_ETAS:
            for label, domain in default_domain(mol, eta).items():
                engine = oracle._effective_engine(MassModel.for_molecule(mol, eta), WEYL, mol,
                                                  GridSpec(*domain, points))
                yield f"{name} eta {eta} {label}", engine


def ulps_off(got, ref) -> float:
    """Largest |got - ref| in ulps of max(|ref|, 1): got float64, ref np.longdouble or mpf."""
    if isinstance(ref, list):
        import mpmath

        err = np.array([float(abs(mpmath.mpf(float(g)) - r)) for g, r in zip(got, ref)])
        ref = np.array([float(r) for r in ref])
    else:
        err = np.abs(got - ref).astype(float)
    return float(np.max(err / np.spacing(np.maximum(np.abs(ref), 1.0).astype(float))))


class TestStepTableCoefficients:
    """The table's closed-form Newton coefficients against the RK4 steps they stand for."""

    ENERGIES = 21
    ULPS = 128  # of max(|entry|, 1); these tables read at most 97

    @pytest.mark.parametrize("points", [2001, 8001])
    def test_midpoint_is_rk4_propagators_and_m01_is_linear(self, points, monkeypatch):
        # a full fill calls rk4_propagators only at e_mid, and its middle row
        # holds those steps bit for bit; m01 = h + h^3 q_m/6 has no d^2 term
        calls = []
        rk4 = kernels.rk4_propagators
        monkeypatch.setattr(kernels, "rk4_propagators",
                            lambda *args: calls.append(args) or rk4(*args))
        for label, engine in default_engines(points):
            calls.clear()
            engine._blocks.fill()
            e_mid = engine._blocks.energies[1]
            q_nodes, q_mids = engine._q(e_mid)
            # chunks share their end nodes
            nodes = np.concatenate([q[0][:-1] for q in calls] + [calls[-1][0][-1:]])
            assert nodes.tobytes() == q_nodes.tobytes(), label
            assert np.concatenate([q[1] for q in calls]).tobytes() == q_mids.tobytes(), label
            table = engine._blocks._table
            m, nb = table.shape[3:]
            steps = table[1].transpose(0, 1, 3, 2).reshape(4, nb * m)[:, :q_mids.size]
            for got, want in zip(steps, rk4(q_nodes, q_mids, engine.h)):
                assert got.tobytes() == want.tobytes(), label
            assert np.all(table[0, 0, 1] == 0.0), label

    @pytest.mark.parametrize("points", [2001, 8001])
    def test_steps_match_extended_precision_rk4(self, points):
        # every step at ENERGIES energies across the window against RK4 in
        # np.longdouble, where that is wider than float64; mpmath checks a
        # sample of steps, 16 per engine where np.longdouble is no wider
        # (and 2 elsewhere, so that its path runs on every host)
        wide = np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
        rng = np.random.default_rng(points)
        worst = (0.0, None)
        for label, engine in default_engines(points):
            e_lo, _, e_hi = engine._blocks.energies
            energies = np.linspace(e_lo, e_hi, self.ENERGIES)
            tables = (engine.u_nodes, engine.u_mids, engine.p_nodes, engine.p_mids)
            got = table_steps(engine, energies)
            sample = rng.choice(engine.u_mids.size, 2 if wide else 16, replace=False).tolist()
            for k, e in enumerate(energies):
                pairs = list(zip(got, rk4_extended(tables, engine.h, e))) if wide else []
                pairs += zip((step[:, sample] for step in got),
                             rk4_extended(tables, engine.h, e, sample))
                for step, ref in pairs:
                    worst = max(worst, (ulps_off(step[k], ref), (label, e)))
        assert 1.0 < worst[0] <= self.ULPS, worst


class TestAgainstTightSolve:
    """Every oracle-compare energy of the benchmark shapes is within 1e-9 eV of
    a solve on the same grid to tol_ev = 1e-11 (the rows use 1e-6)."""

    @pytest.mark.parametrize("points, n_max", [(2001, 12), (8001, 2)])
    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_rows_match_tight_solve(self, name, eta, points, n_max):
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        rows = oracle_compare_rows(mol, eta, WEYL, n_max, points)
        study = default_domain(mol, eta)
        checked = 0
        for label, domain in study.items():
            grid = GridSpec(*domain, points)
            tight = dict(solve_states(mm, WEYL, mol, grid, range(n_max + 1), tol_ev=1e-11))
            for row in rows:
                if row["domain"].startswith(label):
                    assert abs(row["E_oracle_eV"] - tight[row["n"]]) <= 1e-9, (label, row["n"])
                    checked += 1
        assert checked == len(rows) == len(study) * (n_max + 1)


class TestMorseEta0:
    def test_h2_ground_state(self, h2, h2_eta0):
        mm = MassModel.for_molecule(h2, 0.0)
        grid = GridSpec(-0.7, 10.0, 8001)
        (n0, e0), = solve_states(mm, WEYL, h2, grid, [0])
        expected = -h2_eta0.e_scale * constant_mass_epsilon(h2_eta0, 0)
        assert abs(e0 - expected) < 0.002

    def test_grid_halving_stability(self, h2, h2_eta0):
        mm = MassModel.for_molecule(h2, 0.0)
        tol = 1e-7
        e_coarse = solve_states(mm, WEYL, h2, GridSpec(-0.7, 10.0, 4001), [0],
                                tol_ev=tol)[0][1]
        e_fine = solve_states(mm, WEYL, h2, GridSpec(-0.7, 10.0, 8001), [0],
                              tol_ev=tol)[0][1]
        assert abs(e_fine - e_coarse) < 4 * tol

    def test_domain_extension_stability(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        e_a = solve_states(mm, WEYL, h2, GridSpec(-0.7 * h2.r0, 10.0, 8001), [0],
                           tol_ev=1e-9)[0][1]
        e_b = solve_states(mm, WEYL, h2, GridSpec(-0.95 * h2.r0, 10.0, 8001), [0],
                           tol_ev=1e-9)[0][1]
        assert abs(e_a - e_b) < 1e-4

    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_converges_to_the_closed_form_as_h4(self, name):
        # the shooting problem takes hbar^2 = E0 m0 r0^2 from the molecule, as
        # the closed form does, so its error is the RK4 grid error alone: at
        # most 5e-9 eV at 8001 points and at least 8x smaller at 16001 (h^4
        # gives 16x); a second hbar^2 would leave a floor of some 1e-8 eV
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, 0.0)
        sys_ = reduce(mol, 0.0, WEYL)
        coarse, fine = ([abs(e - energy_ev(sys_, n))
                         for n, e in solve_states(mm, WEYL, mol,
                                                  GridSpec(*reference_domain(mol, 0.0), points),
                                                  [2, 4], tol_ev=1e-11)]
                        for points in (8001, 16001))
        assert max(coarse) <= 5e-9, coarse
        assert all(f <= c / 8.0 for c, f in zip(coarse, fine)), (coarse, fine)

    def test_unbound_level_raises(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        grid = GridSpec(-0.7, 10.0, 2001)
        with pytest.raises(NoBracket):
            solve_states(mm, WEYL, h2, grid, [40])

    def test_shoot_state_energy_is_certified_and_phase_matched(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        grid = GridSpec(-0.7, 10.0, 4001)
        tol = 1e-7
        e = shoot_state(mm, WEYL, h2, grid, 1, tol)
        assert e == solve_states(mm, WEYL, h2, grid, [1], tol)[0][1]
        assert_certified(effective_engine(mm, h2, grid)[0], 1, e, tol)


class TestSturmProperty:
    def test_node_count_monotone_in_energy(self, h2):
        mm = MassModel.for_molecule(h2, 0.0)
        grid = GridSpec(-0.7, 10.0, 2001)
        engine = oracle._effective_engine(mm, WEYL, h2, grid)
        # one round per energy: the Sturm staircase scanned one count at a time
        counts = [engine.count_round([float(e)])[0] for e in np.linspace(-4.7, -0.05, 40)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestGridSpec:
    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 101)

    def test_too_coarse(self):
        with pytest.raises(ConfigError):
            GridSpec(0.0, 50.0, 501)

    def test_inverted_domain(self):
        with pytest.raises(ConfigError):
            GridSpec(2.0, 1.0, 1001)


class TestDomainStudy:
    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_study_is_pinned(self, name, eta):
        # the labels, their order and the exact floats of every oracle-compare domain
        mol = get_molecule(name)
        x_max = math.log(1e5 * mol.V2 / mol.D) / mol.beta
        if eta == 0.0:
            expected = [("physical", (-0.95 * mol.r0, x_max))]
        else:
            expected = [("boundary", (0.0, x_max)),
                        ("singular", (math.log(eta) / mol.beta + 0.05, x_max))]
        assert list(default_domain(mol, eta).items()) == expected


class TestFreedHeap:
    """The oracle keeps the heap a solve frees mapped for the next solve."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_repeated_solve_faults_in_no_fresh_pages(self):
        # A fresh process, so that live objects of earlier tests do not sit
        # above the freed tables, and glibc's documented default thresholds
        # (128 KiB each, no dynamic adjustment), so that the heap history of
        # the imports does not decide the outcome.  Without the oracle's
        # thresholds each call then faults in 600-900 pages that the call
        # before it gave back to the kernel.
        code = ("import ctypes, resource\n"
                "from pdmorse import WEYL, get_molecule\n"
                "from pdmorse.reports import oracle_compare_rows\n"
                "libc = ctypes.CDLL('libc.so.6')\n"
                "libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD\n"
                "libc.mallopt(-1, 128 * 1024)  # M_TRIM_THRESHOLD\n"
                "for _ in range(3):\n"
                "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "    oracle_compare_rows(get_molecule('H2'), 0.2, WEYL, 1, 8001)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = {name: value for name, value in os.environ.items() if name not in
               ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 50

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        """The mallopt calls of one fresh _keep_freed_heap() run against a stand-in libc."""
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        oracle._keep_freed_heap.cache_clear()

        def run():
            oracle._keep_freed_heap()
            return calls

        yield run
        oracle._keep_freed_heap.cache_clear()

    def test_sets_both_thresholds(self, mallopt_calls):
        assert mallopt_calls() == [(oracle._M_MMAP_THRESHOLD, 32 * 2**20),
                                   (oracle._M_TRIM_THRESHOLD, 64 * 2**20)]

    def test_no_libc_sets_nothing(self, mallopt_calls, monkeypatch):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", missing)
        assert mallopt_calls() == []

    @pytest.mark.parametrize("name, value", [("MALLOC_TRIM_THRESHOLD_", "131072"),
                                             ("MALLOC_MMAP_THRESHOLD_", "131072"),
                                             ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")])
    def test_environment_settings_win(self, mallopt_calls, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert mallopt_calls() == []


class TestKernels:
    @staticmethod
    def _q_tables():
        # random tables keep one sign: with mixed signs m10 is a cancelling
        # sum whose relative error no summation order can bound
        rng = np.random.default_rng(11)
        for lo, hi in ((0.0, 3000.0), (-3000.0, 0.0)):
            yield f"random[{lo:g},{hi:g}]", rng.uniform(lo, hi, 513), rng.uniform(lo, hi, 512), 0.01
        for name in ("H2", "LiH"):
            mol = get_molecule(name)
            for eta in (0.0, 0.4):
                mm = MassModel.for_molecule(mol, eta)
                grid = GridSpec(*reference_domain(mol, eta), 4001)
                u_n, u_m, p_n, p_m = oracle._tables(lambda x: u_eff(mm, WEYL, mol, x),
                                                    mm.mass, grid, molecule_hbar2(mol))
                for e in (-4.0, -1.0):
                    yield f"{name}/eta={eta}/E={e}", p_n * (u_n - e), p_m * (u_m - e), grid.h

    def test_closed_form_propagators_match_matmul_reference(self):
        # bound fixed from float64 before measuring: a few ulp per entry
        for label, q_nodes, q_mids, h in self._q_tables():
            for qn, qm, step in ((q_nodes, q_mids, h), (q_nodes[::-1], q_mids[::-1], -h)):
                got = kernels.rk4_propagators(qn, qm, step)
                ref = rk4_propagators_matmul(qn, qm, step)
                for a, b in zip(got, ref):
                    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-14, label
                assert (kernels.sweep(*got, 0.0, 1.0)[2]
                        == kernels.sweep(*ref, 0.0, 1.0)[2]), label

    @staticmethod
    def _random_tables(count: int, seed: int):
        """Short step tables with mixed signs, signed zeros, NaN, +-inf and
        magnitudes up to 1e200, so that sign changes land on rescale steps."""
        rng = np.random.default_rng(seed)
        starts = (0.0, 1.0, -1.0, 1e-300, math.nan)
        sizes = rng.integers(1, 40, count)
        top = np.repeat(rng.choice([1.0, 60.0, 200.0], count), sizes)
        kind = rng.random((4, sizes.sum()))
        mag = 10.0 ** (-2.0 + (top + 2.0) * rng.random(kind.shape))
        mag[kind < 0.08] = 0.0
        mag[(kind >= 0.08) & (kind < 0.09)] = math.nan
        mag[(kind >= 0.09) & (kind < 0.10)] = math.inf
        sign = rng.choice([-1.0, 1.0], kind.shape)
        ends = np.cumsum(sizes)
        # every other table ends in a run of non-negative entries (a settled tail)
        pos = np.arange(sizes.sum()) - np.repeat(ends - sizes, sizes)
        odd = np.repeat(np.arange(count) % 2 == 1, sizes)
        sign[:, odd & (pos >= np.repeat(sizes // 2, sizes))] = 1.0
        block = sign * mag
        dphi0 = rng.choice([1.0, -1.0], count)
        for i, (a, b) in enumerate(zip(ends - sizes, ends)):
            yield tuple(block[:, a:b]), starts[i % len(starts)], float(dphi0[i])

    @staticmethod
    def _same(x: float, y: float) -> bool:
        """Bit equality of results, with NaN matching NaN and -0.0 != 0.0."""
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)

    def test_sweep_matches_reference_bit_for_bit(self):
        for cols, phi0, dphi0 in self._random_tables(10_000, seed=2010):
            ref = sweep_reference(*cols, phi0, dphi0)
            got = kernels.sweep(*cols, phi0, dphi0)
            assert got[2] == ref[2], (cols, phi0, dphi0)
            assert self._same(got[0], ref[0]) and self._same(got[1], ref[1]), (cols, phi0)

    def test_reversed_adjugate_sweep_is_the_forward_sweep_of_swapped_entries(self):
        # the half-sweep's identity: adj = [[e, -b], [-c, a]] acts on
        # (phi, -phi') as [[e, b], [c, a]] does on (phi, phi'); over reversed
        # views both give the same nodes and values, up to the sign of zero
        for cols, phi0, dphi0 in self._random_tables(10_000, seed=2011):
            a, b, c, e = (m[::-1] for m in cols)
            adj = kernels.sweep(e, -b, -c, a, phi0, dphi0)
            swapped = kernels.sweep(e, b, c, a, phi0, -dphi0)
            assert adj[2] == swapped[2], (cols, phi0, dphi0)
            for x, y in ((adj[0], swapped[0]), (adj[1], -swapped[1])):
                assert x == y or (math.isnan(x) and math.isnan(y)), (cols, phi0, dphi0)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_count_stops_at_a_settled_state_in_the_tail(self, chunk):
        # count_round's order: sweep to one past the last step with a negative
        # (or NaN) entry, then on in chunks until phi and phi' share a sign
        for cols, phi0, dphi0 in self._random_tables(10_000, seed=2010):
            negative = np.flatnonzero(~np.logical_and.reduce([m >= 0.0 for m in cols]))
            t = int(negative[-1]) + 1 if negative.size else 0
            phi, dphi, nodes = kernels.sweep(*(m[:t] for m in cols), phi0, dphi0)
            while t < len(cols[0]) and not kernels.settled(phi, dphi):
                phi, dphi, more = kernels.sweep(*(m[t:t + chunk] for m in cols), phi, dphi)
                nodes, t = nodes + more, t + chunk
            assert nodes == sweep_reference(*cols, phi0, dphi0)[2], (cols, phi0)

    @pytest.mark.parametrize("steps, phi0, expected", [
        # + -> 0 -> - is no node; the zero state takes a plain step
        ([(0.0, 0.0, 0.0, 1.0), (1.0, -1.0, 0.0, 1.0)], 1.0, 0),
        # a node and a rescale on the same step
        ([(-1e251, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)], 1.0, 1),
        ([(1e251, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0)], -1.0, 1),
        # a NaN state counts nothing from then on
        ([(math.nan, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0)], 1.0, 0),
        # a same-sign step that lands exactly on +-1e250: no rescale, no node
        ([(1.0, 0.0, 0.0, 1.0), (1e250, 0.0, 0.0, 1.0)], 1.0, 0),
        ([(1.0, 0.0, 0.0, 1.0), (1e250, 0.0, 0.0, 1.0)], -1.0, 0),
        # phi' = -1 + 1 is +0.0 here; negating the state to share the phi > 0
        # branch would give -0.0
        ([(1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 1.0, 1.0)], -1.0, 0),
    ])
    def test_edge_steps_match_reference(self, steps, phi0, expected):
        cols = tuple(np.array(col) for col in zip(*steps))
        ref = sweep_reference(*cols, phi0, 1.0)
        got = kernels.sweep(*cols, phi0, 1.0)
        assert ref[2] == got[2] == expected
        assert self._same(got[0], ref[0]) and self._same(got[1], ref[1])

    def test_rescaling_preserves_nodes(self):
        # a steep growth region must trigger renormalization without
        # corrupting the node count
        n = 4001
        q_nodes = np.full(n, 4000.0)   # strongly forbidden region
        q_mids = np.full(n - 1, 4000.0)
        props = kernels.rk4_propagators(q_nodes, q_mids, 0.01)
        phi, dphi, nodes = kernels.sweep(*props, 0.0, 1.0)
        assert np.isfinite(phi) and np.isfinite(dphi)
        assert nodes == 0
