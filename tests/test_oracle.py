"""Shooting-method eigensolver: sanity tests and cross-validation."""
import math

import numpy as np
import pytest

from _oracles import (bisect_level, fd_derivative, rk4_propagators_matmul, scan_nodes,
                      sweep_reference)
from pdmorse import (LI_KUHN, WEYL, ConfigError, GridSpec, MassModel, NoBracket,
                     NonConvergence, constant_mass_epsilon, default_domain,
                     get_molecule, physical_psi, potential_value, reduce,
                     shoot_state, solve_on_grid, solve_states, u_eff, u_ordering)
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


def effective_engine(mm, mol, grid):
    """A fresh engine on solve_states's tables, and its window (min U_eff (1 -+ 1e-12), 0)."""
    engine = oracle._ShootingEngine(lambda x: u_eff(mm, WEYL, mol, x), mm.mass, grid)
    e_floor = float(np.min(engine.u_nodes))
    return engine, (e_floor + abs(e_floor) * 1e-12, 0.0)


def assert_certified(engine, n, e, tol):
    """Level n sits at e: the node count steps from n to n + 1 within tol/2 of
    e, and the Pruefer phase minus (n + 1) pi changes sign within tol of e."""
    assert engine.count_nodes(e - 0.5 * tol) == n
    assert engine.count_nodes(e + 0.5 * tol) == n + 1
    target = (n + 1) * math.pi
    assert engine.phase(e - tol, 1.0) < target < engine.phase(e + tol, 1.0)


class TestUOrdering:
    def test_constant_mass_vanishes(self):
        mm = MassModel(m0=1.0, eta=0.0, beta=1.5)
        assert np.allclose(u_ordering(mm, WEYL, np.linspace(-1, 5, 11)), 0.0)

    def test_weyl_origin_closed_form(self):
        # hand expansion at x = 0, eta = 0.2: U = (3/100) hbar^2 beta^2 / m0
        beta = 1.9425
        mm = MassModel(m0=0.5, eta=0.2, beta=beta)
        expected = 0.03 * HBAR2_EV_AMU_A2 * beta**2 / 0.5
        assert float(u_ordering(mm, WEYL, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_weyl_equals_li_kuhn_pointwise(self):
        # the two presets produce identical ordering terms everywhere
        mm = MassModel(m0=0.7, eta=0.2, beta=1.3)
        xs = np.linspace(-0.5, 6.0, 101)
        assert np.allclose(u_ordering(mm, WEYL, xs), u_ordering(mm, LI_KUHN, xs),
                           rtol=1e-13, atol=0.0)


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
        h2_ = HBAR2_EV_AMU_A2
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
        assert np.isfinite(np.trapezoid(psi**2, xs))


class TestBox:
    def test_levels_match_analytic(self):
        grid = GridSpec(0.0, 1.0, 2001)
        tol = 1e-10
        results = solve_on_grid(flat_potential, const_mass(1.0), grid,
                                range(6), (1e-4, 3.0), tol_ev=tol)
        fresh = oracle._ShootingEngine(flat_potential, const_mass(1.0), grid)
        for n, e in results:
            exact = box_level(n)
            assert abs(e - exact) / exact < 1e-6
            assert_certified(fresh, n, e, tol)


def reference_domain(mol, eta):
    return default_domain(mol, eta, left="singular" if eta > 0.0 else "physical")


class TestSolver:
    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_matches_per_level_bisection(self, name, eta, monkeypatch):
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        grid = GridSpec(*reference_domain(mol, eta), 2001)
        tol = 1e-7
        counts = []
        count_nodes = oracle._ShootingEngine.count_nodes
        monkeypatch.setattr(oracle._ShootingEngine, "count_nodes",
                            lambda self, e: counts.append(e) or count_nodes(self, e))
        solved = solve_states(mm, WEYL, mol, grid, range(5), tol_ev=tol)
        # two window ends, two certificates per level and a few isolating
        # bisections; a level that falls back to bisection needs ~20 more
        assert len(counts) <= 2 + 4 * len(solved)
        monkeypatch.undo()
        engine, window = effective_engine(mm, mol, grid)
        for n, e in solved:
            assert abs(e - bisect_level(engine.count_nodes, n, *window, tol)) <= tol

    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_staircase_counts_match_reference_sweep(self, name, eta, monkeypatch):
        # every count a real oracle-compare solve stores (both domains, the
        # certificates at E -+ tol/2 next to each level included) must equal
        # the count of a full sweep of the reference loop at that energy
        visits = []
        count_nodes = oracle._ShootingEngine.count_nodes

        def recording(self, e):
            visits.append((self, e, count_nodes(self, e)))
            return visits[-1][2]

        monkeypatch.setattr(oracle._ShootingEngine, "count_nodes", recording)
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

        def wrong_level(self, n, lo, hi, tol_ev, spend):
            refined.append(n)
            return box_level(n + 1)

        monkeypatch.setattr(oracle._ShootingEngine, "_refine", wrong_level)
        grid = GridSpec(0.0, 1.0, 2001)
        tol = 1e-9
        results = solve_on_grid(flat_potential, const_mass(1.0), grid, range(4),
                                (1e-4, 3.0), tol_ev=tol)
        assert refined == [0, 1, 2, 3]
        scan = oracle._ShootingEngine(flat_potential, const_mass(1.0), grid)
        for n, e in results:
            assert abs(e - box_level(n)) / box_level(n) < 1e-6
            assert abs(e - bisect_level(scan.count_nodes, n, 1e-4, 3.0, tol)) <= tol
        fresh = oracle._ShootingEngine(flat_potential, const_mass(1.0), grid)
        for n, e in results:
            assert_certified(fresh, n, e, tol)

    @pytest.mark.parametrize("eta", REFERENCE_ETAS)
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_solve_on_grid_reproduces_solve_states(self, name, eta):
        # the generic solver, given solve_states's tables and window, returns
        # the same energies bit for bit
        mol = get_molecule(name)
        mm = MassModel.for_molecule(mol, eta)
        grid = GridSpec(*reference_domain(mol, eta), 2001)
        _, window = effective_engine(mm, mol, grid)
        levels = [4, 0, 2, 1, 3]
        generic = solve_on_grid(lambda x: u_eff(mm, WEYL, mol, x), mm.mass, grid,
                                levels, window)
        assert generic == solve_states(mm, WEYL, mol, grid, levels)

    def test_u_eff_tables_built_once(self, h2, monkeypatch):
        # one table at the nodes and one at the midpoints; the window is read
        # off the node table
        calls = []
        monkeypatch.setattr(oracle, "u_eff", lambda *args: calls.append(args) or u_eff(*args))
        mm = MassModel.for_molecule(h2, 0.2)
        solve_states(mm, WEYL, h2, GridSpec(*reference_domain(h2, 0.2), 2001), [0])
        assert len(calls) == 2

    def test_step_budget_raises_nonconvergence(self, h2, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_BISECTIONS", 2)
        mm = MassModel.for_molecule(h2, 0.0)
        with pytest.raises(NonConvergence):
            solve_states(mm, WEYL, h2, GridSpec(-0.7, 10.0, 2001), [0])


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
        energies = np.linspace(-4.7, -0.05, 40)
        counts = scan_nodes(lambda x: u_eff(mm, WEYL, h2, x), mm.mass, grid, energies)
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestGridSpec:
    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            GridSpec(0.0, 1.0, 101)

    def test_too_coarse(self):
        with pytest.raises(ConfigError):
            GridSpec(0.0, 50.0, 501)

    def test_singularity_margin_enforced(self, h2):
        mm = MassModel.for_molecule(h2, 0.2)
        grid = GridSpec(mm.singularity_x - 0.1, 6.0, 4001)
        with pytest.raises(ConfigError):
            solve_states(mm, WEYL, h2, grid, [0])

    def test_inverted_domain(self):
        with pytest.raises(ConfigError):
            GridSpec(2.0, 1.0, 1001)


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
                xs = grid.xs()
                xm = 0.5 * (xs[:-1] + xs[1:])
                for e in (-4.0, -1.0):
                    p_n = 2.0 * mm.mass(xs) / HBAR2_EV_AMU_A2
                    p_m = 2.0 * mm.mass(xm) / HBAR2_EV_AMU_A2
                    yield (f"{name}/eta={eta}/E={e}", p_n * (u_eff(mm, WEYL, mol, xs) - e),
                           p_m * (u_eff(mm, WEYL, mol, xm) - e), grid.h)

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

    def test_nodes_only_count_matches_reference(self):
        for cols, phi0, dphi0 in self._random_tables(10_000, seed=2010):
            got = kernels.sweep(*cols, phi0, dphi0, nodes_only=True)
            assert got == (None, None, sweep_reference(*cols, phi0, dphi0)[2]), (cols, phi0)

    @pytest.mark.parametrize("steps, phi0, expected", [
        # + -> 0 -> - is no node; the zero state takes a plain step
        ([(0.0, 0.0, 0.0, 1.0), (1.0, -1.0, 0.0, 1.0)], 1.0, 0),
        # a node and a rescale on the same step
        ([(-1e251, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0)], 1.0, 1),
        ([(1e251, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0)], -1.0, 1),
        # a NaN state counts nothing from then on
        ([(math.nan, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0)], 1.0, 0),
    ])
    def test_edge_steps_match_reference(self, steps, phi0, expected):
        cols = tuple(np.array(col) for col in zip(*steps))
        ref = sweep_reference(*cols, phi0, 1.0)
        got = kernels.sweep(*cols, phi0, 1.0)
        assert ref[2] == got[2] == expected
        assert self._same(got[0], ref[0]) and self._same(got[1], ref[1])
        assert kernels.sweep(*cols, phi0, 1.0, nodes_only=True)[2] == expected

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
