"""Unit reduction, potential, mass model, and ordering parameters."""
import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import fd_derivative, mass_terms, potential_value
from pdmorse import (LI_KUHN, WEYL, AmbiguityOrdering, ConfigError, MassModel,
                     MassSingularity, MoleculeSpec, parse_ordering, reduce)

# Direct arithmetic from the H2 parameter set (independent of reduce()).
H2_D = 4.7446
H2_ALPHA = 1.440558
H2_E0 = 1.508343932e-2
H2_V1_EXPECTED = 2.0 * H2_D / (H2_ALPHA**2 * H2_E0)
H2_ESCALE_EXPECTED = H2_ALPHA**2 * H2_E0 / 2.0


class TestPotential:
    def test_at_zero_is_minus_d(self, h2):
        assert potential_value(h2, 0.0) == pytest.approx(-h2.D, rel=1e-14)

    def test_asymptotically_zero(self, h2):
        assert abs(potential_value(h2, 50.0)) < 1e-12

    def test_at_ln2_over_beta(self, h2):
        x = math.log(2.0) / h2.beta
        assert potential_value(h2, x) == pytest.approx(-0.75 * h2.D, rel=1e-12)

    def test_vectorized(self, h2):
        xs = np.array([0.0, 0.5, 1.0])
        vals = potential_value(h2, xs)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(-h2.D)


class TestMassModel:
    def test_constant_mass_limit(self):
        mm = MassModel(m0=1.5, eta=0.0, beta=2.0)
        assert mm.mass(0.7) == pytest.approx(1.5, rel=1e-15)

    def test_quadruples_at_origin_for_half_eta(self):
        mm = MassModel(m0=2.0, eta=0.5, beta=1.0)
        assert mm.mass(0.0) == pytest.approx(8.0, rel=1e-14)

    def test_singularity_raises(self):
        mm = MassModel(m0=1.0, eta=0.5, beta=1.3)
        with pytest.raises(MassSingularity):
            mm.mass(math.log(0.5) / 1.3)

    def test_eta_range_enforced(self):
        with pytest.raises(ConfigError):
            MassModel(m0=1.0, eta=1.0, beta=1.0)
        with pytest.raises(ConfigError):
            MassModel(m0=1.0, eta=-0.1, beta=1.0)

    @pytest.mark.parametrize("eta", [0.2, 0.6, 0.9])
    def test_derivatives_match_finite_differences(self, eta):
        mm = MassModel(m0=0.7, eta=eta, beta=1.9)
        for x in (0.0, 0.4, 2.0):
            d1 = fd_derivative(lambda t: float(mm.mass(t)), x, order=1)
            d2 = fd_derivative(lambda t: float(mm.mass(t)), x, order=2, h=1e-4)
            m, m1, m2 = mass_terms(mm, x)
            assert m == mm.mass(x)
            assert float(m1) == pytest.approx(d1, rel=1e-8)
            assert float(m2) == pytest.approx(d2, rel=1e-6)

    def test_strictly_decreasing_toward_m0(self):
        mm = MassModel(m0=1.0, eta=0.5, beta=1.942)
        xs = np.linspace(0.0, 8.0, 200)
        ms = mm.mass(xs)
        assert np.all(np.diff(ms) < 0)
        assert float(mm.mass(40.0)) == pytest.approx(1.0, rel=1e-12)


class TestOrdering:
    def test_weyl_preset(self):
        assert (WEYL.a, WEYL.alpha, WEYL.gamma) == (1.0, 0.0, 0.0)
        assert WEYL.beta_order == -1.0
        assert WEYL.c_ord == pytest.approx(0.25)
        assert WEYL.c2_ord == pytest.approx(0.5)

    def test_li_kuhn_preset(self):
        assert (LI_KUHN.a, LI_KUHN.alpha, LI_KUHN.gamma) == (0.0, 0.0, -0.5)
        # same reduced combinations as Weyl: the two presets are equivalent
        assert LI_KUHN.c_ord == pytest.approx(WEYL.c_ord)
        assert LI_KUHN.c2_ord == pytest.approx(WEYL.c2_ord)

    def test_constraint_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            o = AmbiguityOrdering(a=float(rng.uniform(-0.9, 3)),
                                  alpha=float(rng.uniform(-2, 2)),
                                  gamma=float(rng.uniform(-2, 2)))
            assert o.alpha + o.beta_order + o.gamma == pytest.approx(-1.0, abs=1e-12)

    def test_a_minus_one_rejected(self):
        with pytest.raises(ConfigError):
            AmbiguityOrdering(a=-1.0, alpha=0.0, gamma=0.0)

    @pytest.mark.parametrize("alpha, gamma", [(math.nan, 0.0), (math.inf, 0.0),
                                              (1e17, 1.0)])
    def test_broken_constraint_is_config_error(self, alpha, gamma):
        # a typed error, not an assert, so it also holds under python -O
        with pytest.raises(ConfigError, match="alpha \\+ beta \\+ gamma = -1"):
            AmbiguityOrdering(a=0.0, alpha=alpha, gamma=gamma)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_broken_identity_is_rejected_on_construction(self, a):
        # alpha + beta + gamma = -1 holds, so the identity check is what fires
        with pytest.raises(ConfigError, match=f"^ordering {a:g},0,0 breaks the identity "
                                              "A1 \\+ A2 = c_ord - 1/4 in floating point$"):
            AmbiguityOrdering(a=a, alpha=0.0, gamma=0.0)

    def test_parse(self):
        assert parse_ordering("weyl") is WEYL
        assert parse_ordering("likuhn") is LI_KUHN
        o = parse_ordering("0.5,-0.25,0.1")
        assert (o.a, o.alpha, o.gamma) == (0.5, -0.25, 0.1)
        with pytest.raises(ConfigError):
            parse_ordering("nonsense")

    def test_combination_identity_random(self):
        # A1 + A2 == c_ord - 1/4 across 1000 random orderings
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = float(rng.uniform(-0.95, 4.0))
            o = AmbiguityOrdering(a=a, alpha=float(rng.uniform(-2, 2)),
                                  gamma=float(rng.uniform(-2, 2)))
            lhs = o.A1 + o.A2
            rhs = o.c_ord - 0.25
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestReduce:
    def test_h2_values(self, h2, h2_eta0):
        assert h2_eta0.v1 == pytest.approx(H2_V1_EXPECTED, rel=1e-14)
        assert h2_eta0.v2 == pytest.approx(2.0 * H2_V1_EXPECTED, rel=1e-14)
        assert h2_eta0.e_scale == pytest.approx(H2_ESCALE_EXPECTED, rel=1e-14)
        # quoted rounded values
        assert h2_eta0.v1 == pytest.approx(303.15, abs=0.01)
        assert h2_eta0.v2 == pytest.approx(606.30, abs=0.02)
        assert h2_eta0.e_scale == pytest.approx(0.015651, abs=1e-6)

    def test_eta_zero_collapses_ordering_terms(self, h2):
        rng = np.random.default_rng(3)
        for _ in range(50):
            o = AmbiguityOrdering(a=float(rng.uniform(-0.9, 3)),
                                  alpha=float(rng.uniform(-1, 1)),
                                  gamma=float(rng.uniform(-1, 1)))
            sys = reduce(h2, 0.0, o)
            assert sys.eps1 == sys.v1
            assert sys.eps2 == -sys.v2

    def test_h2_eta02_weyl(self, h2, h2_eta02):
        # Weyl makes the eps1 bracket vanish; c2_ord = 1/2
        assert h2_eta02.eps1 == h2_eta02.v1
        assert h2_eta02.eps2 == pytest.approx(-606.40, abs=0.02)

    def test_likuhn_also_keeps_eps1(self, h2):
        sys = reduce(h2, 0.4, LI_KUHN)
        assert sys.eps1 == sys.v1

    def test_generic_ordering_shifts_eps1(self, h2):
        bdd = AmbiguityOrdering(a=0.0, alpha=0.0, gamma=0.0)  # c_ord = 0
        sys = reduce(h2, 0.4, bdd)
        assert sys.eps1 == pytest.approx(sys.v1 + 4 * 0.4**2 * 0.25, rel=1e-14)
        assert sys.eps1 != sys.v1

    def test_rescale_invariance(self, h2):
        # D -> kappa D with E0 -> kappa E0 (realized via m0 -> m0/kappa so the
        # E0 consistency guard stays satisfied)
        kappa = 3.7
        scaled = MoleculeSpec(name="H2k", D=h2.D * kappa, r0=h2.r0,
                              m0=h2.m0 / kappa, alpha_prime=h2.alpha_prime,
                              E0=h2.E0 * kappa)
        a = reduce(h2, 0.3, WEYL)
        b = reduce(scaled, 0.3, WEYL)
        assert b.v1 == pytest.approx(a.v1, rel=1e-12)
        assert b.v2 == pytest.approx(a.v2, rel=1e-12)
        assert b.e_scale == pytest.approx(a.e_scale * kappa, rel=1e-12)

    def test_explicit_well_override(self, h2):
        well = replace(h2, V1=0.25 * h2.alpha_prime**2 * h2.E0 / 2,
                       V2=0.4 * h2.alpha_prime**2 * h2.E0 / 2)
        sys = reduce(well, 0.0, WEYL)
        assert sys.v1 == pytest.approx(0.25, rel=1e-12)
        assert sys.v2 == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_broken_combination_identity_is_config_error(self, h2, a):
        with pytest.raises(ConfigError, match="A1 \\+ A2 = c_ord - 1/4"):
            reduce(h2, 0.2, AmbiguityOrdering(a=a, alpha=0.0, gamma=0.0))

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_overflowing_reduced_parameter_is_config_error(self, eta):
        # every physical parameter finite, but v1 = 2 V1 / (alpha'^2 E0) overflows
        heavy = MoleculeSpec(name="x", D=1e300, r0=2.5, m0=1e10, alpha_prime=0.8)
        with pytest.raises(ConfigError, match="v1 = inf is not finite"):
            reduce(heavy, eta, WEYL)

    def test_eta_out_of_range(self, h2):
        with pytest.raises(ConfigError):
            reduce(h2, 1.5, WEYL)
        with pytest.raises(ConfigError):
            reduce(h2, -0.2, WEYL)


class TestMoleculeSpec:
    def test_e0_computed_when_absent(self, h2):
        mol = MoleculeSpec(name="x", D=h2.D, r0=h2.r0, m0=h2.m0,
                           alpha_prime=h2.alpha_prime)
        assert mol.E0 == pytest.approx(h2.E0, rel=2e-5)

    def test_e0_consistency_guard(self, h2):
        with pytest.raises(ConfigError):
            MoleculeSpec(name="x", D=h2.D, r0=h2.r0, m0=h2.m0,
                         alpha_prime=h2.alpha_prime, E0=h2.E0 * 1.01)

    def test_positivity(self):
        with pytest.raises(ConfigError):
            MoleculeSpec(name="x", D=-1.0, r0=1.0, m0=1.0, alpha_prime=1.0)

    @pytest.mark.parametrize("field, value", [
        ("D", math.inf), ("r0", math.inf), ("m0", math.inf), ("alpha_prime", math.inf),
        ("E0", math.inf), ("V1", math.inf), ("V2", -math.inf), ("V1", math.nan),
        ("D", 1e308),  # V2 = 2 D overflows
    ])
    def test_non_finite_parameters(self, h2, field, value):
        params = dict(name="x", D=h2.D, r0=h2.r0, m0=h2.m0, alpha_prime=h2.alpha_prime)
        params[field] = value
        with pytest.raises(ConfigError, match="finite"):
            MoleculeSpec(**params)

    def test_default_well(self, h2):
        assert h2.V1 == h2.D
        assert h2.V2 == 2.0 * h2.D
