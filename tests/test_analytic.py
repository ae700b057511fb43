"""Closed-form spectrum, enumeration, and quantization internals."""
import math

import numpy as np
import pytest

from _oracles import constant_mass_epsilon, nu_branch_internals, nu_internals, reality_check
from pdmorse import (LI_KUHN, WEYL, AmbiguityOrdering, DegenerateDenominator,
                     RealityViolation, ReducedSystem, energy_ev, epsilon_nl, make_state,
                     nu_consistent_epsilon, reduce, spectrum)
from pdmorse.analytic import discriminant_root

TABLE_GATE = 0.005  # eV; reference energies carry 3 printed decimals


def synthetic_system(v1, v2, eta, e_scale=1.0):
    """Weyl-combination synthetic well built directly from reduced numbers."""
    return ReducedSystem(v1=v1, v2=v2, eta=eta, eps1=v1, eps2=-eta * 0.5 - v2,
                         e_scale=e_scale)


class TestTabulatedEnergies:
    @pytest.mark.parametrize("eta,n,expected", [
        (0.2, 0, -4.528), (0.6, 0, -4.637), (0.2, 15, -0.251), (0.4, 2, -3.955),
    ])
    def test_h2_pdm_cells(self, h2, eta, n, expected):
        sys = reduce(h2, eta, WEYL)
        assert energy_ev(sys, n) == pytest.approx(expected, abs=TABLE_GATE)

    def test_h2_eta02_ground_epsilon(self, h2_eta02):
        assert epsilon_nl(h2_eta02, 0) == pytest.approx(289.32, abs=0.02)

    @pytest.mark.parametrize("n,expected", [(0, -2.446)])
    def test_lih_eta02(self, lih, n, expected):
        sys = reduce(lih, 0.2, WEYL)
        assert energy_ev(sys, n) == pytest.approx(expected, abs=TABLE_GATE)

    def test_lih_eta06_n20(self, lih):
        sys = reduce(lih, 0.6, WEYL)
        assert energy_ev(sys, 20) == pytest.approx(-1.486, abs=TABLE_GATE)

    @pytest.mark.parametrize("n,expected", [(0, -4.476), (15, -0.057)])
    def test_h2_constant_mass(self, h2_eta0, n, expected):
        e = -h2_eta0.e_scale * constant_mass_epsilon(h2_eta0, n)
        assert e == pytest.approx(expected, abs=TABLE_GATE)
        # the generic formula agrees at eta = 0
        assert energy_ev(h2_eta0, n) == pytest.approx(e, rel=1e-12)

    def test_lih_constant_mass_n20(self, lih):
        sys = reduce(lih, 0.0, WEYL)
        e = -sys.e_scale * constant_mass_epsilon(sys, 20)
        assert e == pytest.approx(-0.211, abs=TABLE_GATE)

    def test_constant_mass_rejects_eta(self, h2_eta02):
        with pytest.raises(ValueError):
            constant_mass_epsilon(h2_eta02, 0)


class TestRealityCondition:
    def test_h2_eta06_true(self, h2):
        assert reality_check(reduce(h2, 0.6, WEYL))

    def test_eta_zero_always_true(self, h2_eta0):
        assert reality_check(h2_eta0)

    def test_shallow_well_high_eta_false(self):
        sys = synthetic_system(v1=0.01, v2=0.02, eta=0.9)
        assert not reality_check(sys)
        with pytest.raises(RealityViolation):
            epsilon_nl(sys, 0)
        with pytest.raises(RealityViolation):
            spectrum(sys)

    def test_equivalence_with_reduced_form(self, h2):
        # inequality form vs eps1 - eta^2/2 > 0 on 1000 random parameter draws
        rng = np.random.default_rng(17)
        for _ in range(1000):
            o = AmbiguityOrdering(a=float(rng.uniform(-0.9, 3)),
                                  alpha=float(rng.uniform(-1.5, 1.5)),
                                  gamma=float(rng.uniform(-1.5, 1.5)))
            eta = float(rng.uniform(0.0, 0.999))
            v1 = float(10 ** rng.uniform(-4, 3))
            sys = ReducedSystem(v1=v1, v2=2 * v1, eta=eta,
                                eps1=v1 - 4 * eta**2 * (o.c_ord - 0.25),
                                eps2=-eta * o.c2_ord - 2 * v1, e_scale=1.0)
            assert reality_check(sys, o) == (sys.eps1 - eta**2 / 2 > 0)


class TestSpectrum:
    def test_h2_eta0_count(self, h2_eta0):
        states = spectrum(h2_eta0)
        assert states[-1].n == 16
        # count formula: largest n with 2n+1 < -eps2/sqrt(eps1)
        limit = -h2_eta0.eps2 / math.sqrt(h2_eta0.eps1)
        expected = int((limit - 1) // 2)
        assert states[-1].n == expected

    def test_lih_eta0_includes_n20(self, lih):
        sys = reduce(lih, 0.0, WEYL)
        ns = [s.n for s in spectrum(sys)]
        assert 20 in ns
        expected = int((-sys.eps2 / math.sqrt(sys.eps1) - 1) // 2)
        assert ns[-1] == expected

    def test_empty_for_subcritical_well(self):
        sys = synthetic_system(v1=0.25, v2=0.4, eta=0.0)
        assert spectrum(sys) == []

    def test_nan_root_is_not_admitted(self, h2_eta02):
        # a NaN quantization root passes every comparison but s > 0; it used to
        # be admitted at every n, so the enumeration never ended
        from dataclasses import replace

        assert spectrum(replace(h2_eta02, eps2=math.nan)) == []

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.4, 0.6])
    def test_monotone_negative(self, h2, lih, eta):
        for mol in (h2, lih):
            states = spectrum(reduce(mol, eta, WEYL))
            energies = [s.E for s in states]
            assert all(e < 0 for e in energies)
            assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_state_energy_relation_exact(self, h2_eta02):
        for st in spectrum(h2_eta02):
            assert st.E == -h2_eta02.e_scale * st.eps_nl

    def test_a_tilde_identity(self, h2, lih):
        # A_tilde * eta == A to 1e-12 relative for every enumerated state
        for mol in (h2, lih):
            for eta in (0.2, 0.4, 0.6):
                sys = reduce(mol, eta, WEYL)
                for st in spectrum(sys):
                    a = discriminant_root(sys, st.eps_nl)
                    assert abs(st.A_tilde * eta - a) <= 1e-12 * a

    def test_eta0_has_no_a_tilde(self, h2_eta0):
        assert make_state(h2_eta0, 0).A_tilde is None


class TestLimitReduction:
    def test_small_eta_approaches_constant_mass(self, h2, lih):
        from pdmorse.catalog import REFERENCE_ENERGIES

        for mol in (h2, lih):
            sys0 = reduce(mol, 0.0, WEYL)
            sys8 = reduce(mol, 1e-8, WEYL)
            for n in REFERENCE_ENERGIES[(mol.name, 0.0)]:
                e_lim = energy_ev(sys8, n)
                e0 = -sys0.e_scale * constant_mass_epsilon(sys0, n)
                assert abs(e_lim - e0) < 1e-6


class TestNuInternals:
    def test_closure_at_public_roots(self, h2_eta02):
        for st in spectrum(h2_eta02):
            nu = nu_internals(h2_eta02, st.eps_nl, st.n)
            scale = max(1.0, abs(nu.lambda_n), abs(nu.k2))
            assert abs(nu.lambda_ - nu.lambda_n) / scale < 1e-9

    def test_pi_pairing_misses_by_half_eta(self, h2, lih):
        # the pi-slope pairing overshoots closure by exactly eta/2 at every
        # public eigenvalue; the tau-slope pairing closes
        for mol in (h2, lih):
            for eta in (0.2, 0.4, 0.6):
                sys = reduce(mol, eta, WEYL)
                for st in spectrum(sys):
                    nu = nu_internals(sys, st.eps_nl, st.n)
                    scale = max(1.0, abs(nu.lambda_n), abs(nu.k2))
                    assert abs(nu.lambda_pi - nu.lambda_n - eta / 2.0) / scale < 1e-9

    def test_tau_slope_negative(self, h2):
        for eta in (0.0, 0.2, 0.6):
            sys = reduce(h2, eta, WEYL)
            st = make_state(sys, 0)
            assert nu_internals(sys, st.eps_nl, 0).tau_slope < 0

    def test_eta0_tau_slope_value(self, h2_eta0):
        st = make_state(h2_eta0, 0)
        nu = nu_internals(h2_eta0, st.eps_nl, 0)
        assert nu.tau_slope == pytest.approx(-2.0 * math.sqrt(4 * h2_eta0.eps1) / 2.0, rel=1e-12)

    def test_lambda_n_substitution_n3(self, h2_eta02):
        eps = epsilon_nl(h2_eta02, 3)
        nu = nu_internals(h2_eta02, eps, 3)
        s = math.sqrt(eps)
        a = nu.k1 - nu.k2  # k1 - k2 = 2 s A
        a /= 2.0 * s
        eta = h2_eta02.eta
        expected = 2 * 3 * (a / 2 + eta * s + eta) + eta * 6
        assert nu.lambda_n == pytest.approx(expected, rel=1e-12)

    def test_branch_explorer_matches_default(self, h2_eta02):
        eps = epsilon_nl(h2_eta02, 2)
        a = nu_internals(h2_eta02, eps, 2)
        b = nu_branch_internals(h2_eta02, eps, 2, k_root=2, pi_sign=-1)
        assert a.lambda_pi == pytest.approx(b.lambda_pi, rel=1e-14)
        assert a.tau_slope == pytest.approx(b.tau_slope, rel=1e-14)

    def test_no_pi_pairing_closes_at_public_root(self, h2_eta02):
        # all four (k-root, pi-sign) pairings leave a finite defect at the
        # public eigenvalue; only the tau-slope assignment closes
        eps = epsilon_nl(h2_eta02, 0)
        for k_root in (1, 2):
            for pi_sign in (-1, 1):
                nu = nu_branch_internals(h2_eta02, eps, 0, k_root, pi_sign)
                scale = max(1.0, abs(nu.lambda_n), abs(nu.k2))
                assert abs(nu.lambda_pi - nu.lambda_n) / scale > 1e-6

    def test_pi_pairing_closes_at_consistent_root(self, h2, lih):
        for mol in (h2, lih):
            for eta in (0.2, 0.6):
                sys = reduce(mol, eta, WEYL)
                for n in (0, 2, 5):
                    eps = nu_consistent_epsilon(sys, n)
                    nu = nu_internals(sys, eps, n)
                    scale = max(1.0, abs(nu.lambda_n), abs(nu.k2))
                    assert abs(nu.lambda_pi - nu.lambda_n) / scale < 1e-12

    def test_consistent_root_close_to_public(self, h2_eta02):
        for n in (0, 1, 2):
            e_pub = -h2_eta02.e_scale * epsilon_nl(h2_eta02, n)
            e_con = -h2_eta02.e_scale * nu_consistent_epsilon(h2_eta02, n)
            assert abs(e_pub - e_con) < 0.005


class TestBranchValidity:
    def test_h2_eta06_top_state_excluded(self, h2):
        # n = 16 solves the squared closed form with E_16 > E_15 < 0, but
        # violates the unsquared quantization identity (spurious branch);
        # enumeration must stop at n = 15, matching the reference table
        sys = reduce(h2, 0.6, WEYL)
        states = spectrum(sys)
        assert states[-1].n == 15
        s16 = math.sqrt(epsilon_nl(sys, 16))
        w = math.sqrt(sys.eps1 - sys.eta**2 / 2)
        assert 2 * w - (2 * s16 + 33) * sys.eta < 0
        # off the branch, no quantization-constant assignment closes
        nu = nu_internals(sys, s16**2, 16)
        scale = max(1.0, abs(nu.lambda_n), abs(nu.k2))
        assert abs(nu.lambda_ - nu.lambda_n) / scale > 1e-6

    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.4, 0.6, 0.9])
    def test_make_state_serves_exactly_the_listed_levels(self, h2, lih, eta):
        # a level past the listing (the squared branch included) is refused,
        # not served as a state
        orderings = (WEYL, LI_KUHN, AmbiguityOrdering(a=0.3, alpha=-0.2, gamma=0.1))
        for mol in (h2, lih):
            for ordering in orderings:
                sys = reduce(mol, eta, ordering)
                states = spectrum(sys)
                assert [make_state(sys, st.n) for st in states] == states
                for n in range(len(states), len(states) + 30):
                    with pytest.raises(RealityViolation):
                        make_state(sys, n)


class TestDegenerateDenominator:
    def test_raises_near_zero_denominator(self):
        # eta = 0.5 and eps1 = 0.75 eta^2 make sqrt(eps1 - eta^2/2) = eta/2,
        # so the n = 0 denominator vanishes identically
        sys = ReducedSystem(v1=0.1875, v2=1.0, eta=0.5, eps1=0.1875, eps2=-1.25,
                            e_scale=1.0)
        with pytest.raises(DegenerateDenominator):
            epsilon_nl(sys, 0)

    def test_physical_regimes_far_from_degeneracy(self, h2_eta02):
        w = math.sqrt(h2_eta02.eps1 - h2_eta02.eta**2 / 2)
        assert abs(h2_eta02.eta - 2 * w) > 28


class TestNegativeN:
    def test_rejected(self, h2_eta0):
        with pytest.raises(ValueError):
            epsilon_nl(h2_eta0, -1)


class TestComplexBranch:
    def test_negative_discriminant_radicand(self):
        from pdmorse import ComplexBranch

        # 4 eta^2 eps + 4 eta eps2 + eta^2 + 4 eps1 < 0 for a strongly
        # negative eps2 with a shallow eps1
        sys = ReducedSystem(v1=1.0, v2=100.0, eta=0.5, eps1=1.0, eps2=-100.25,
                            e_scale=1.0)
        with pytest.raises(ComplexBranch):
            discriminant_root(sys, 1.0)
        with pytest.raises(ComplexBranch):
            nu_internals(sys, 1.0, 0)
