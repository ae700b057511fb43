"""Jacobi machinery, eigenfunctions, normalization, equation residuals."""
import math

import numpy as np
import pytest

from _oracles import (constant_mass_epsilon, gauss_legendre_integral, jacobi_finite_sum,
                      jacobi_recurrence_mp, make_z_grid, node_count, nu_consistent_state,
                      ode_residual, rodrigues_psi)
from pdmorse import (WEYL, DomainUnsupported, NormOverflow, SignConvention, attach_norm,
                     jacobi, make_state, norm_const, norm_const_quadrature, phi, phi_eta0,
                     reduce)
from pdmorse.analytic import spectrum
from pdmorse.catalog import REFERENCE_ETAS, get_molecule
from pdmorse.wavefn import _phi_pq, _scaled_jacobi, norm_const_eta0

PRINTED = SignConvention.PRINTED
NORMALIZABLE = SignConvention.NORMALIZABLE


def paper_pq(st, convention):
    """The paper's Jacobi parameters: p = A_tilde, q = -2 sqrt(eps) printed, +2 normalizable."""
    q = 2.0 * math.sqrt(st.eps_nl)
    return st.A_tilde, (-q if convention is PRINTED else q)


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi(0, 1.7, -0.3, 0.42) == 1.0

    def test_degree_one_closed_form(self):
        p, q, x = 2.1, -0.7, 0.31
        expected = (p + q + 2) * x / 2 + (p - q) / 2
        assert jacobi(1, p, q, x) == pytest.approx(expected, rel=1e-15)

    def test_against_finite_sum_oracle(self):
        assert jacobi(5, 1.3, -0.4, 0.37) == pytest.approx(
            jacobi_finite_sum(5, 1.3, -0.4, 0.37), rel=1e-12)

    def test_recurrence_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200)  :
            n = int(rng.integers(0, 11))
            p = float(rng.uniform(-0.9, 5))
            q = float(rng.uniform(-0.9, 5))
            x = float(rng.uniform(-1, 1))
            expected = jacobi_finite_sum(n, p, q, x)
            assert jacobi(n, p, q, x) == pytest.approx(expected, rel=2e-12, abs=1e-13)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(0, 11))
            p = float(rng.uniform(-0.9, 4))
            q = float(rng.uniform(-0.9, 4))
            x = float(rng.uniform(-1, 1))
            lhs = jacobi(n, p, q, -x)
            rhs = (-1.0) ** n * jacobi(n, q, p, x)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    # log|P_n| from (mantissa, log scale) against mpmath; the deep corner's
    # branch parameters reach p = 22,000 and q = 2,445 at degrees near 2,440
    X_PROBE = np.array([-0.93, -0.4, 0.1, 0.77])

    @staticmethod
    def _assert_log_form(n, p, q, x, reference):
        import mpmath

        mantissa, log_scale = _scaled_jacobi(n, p, q, x)
        for ref, m, scale in zip(reference, mantissa, log_scale):
            assert math.copysign(1.0, m) == float(mpmath.sign(ref))
            assert np.log(abs(m)) + scale == pytest.approx(float(mpmath.log(abs(ref))),
                                                           abs=1e-11)

    # (250, -1.5, 0.5) takes the plain order: its c_k/a_k <= 0 at k = 2
    @pytest.mark.parametrize("n, p, q", [(201, 0.0, 0.0), (250, 0.5, 1.5), (400, 30.0, 5.0),
                                         (250, -1.5, 0.5)])
    def test_past_degree_200_matches_mpmath_jacobi(self, n, p, q):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            reference = [mpmath.jacobi(n, p, q, x) for x in self.X_PROBE]
        self._assert_log_form(n, p, q, self.X_PROBE, reference)
        assert jacobi(n, p, q, 0.1) == pytest.approx(float(reference[2]), rel=1e-12)

    @pytest.mark.parametrize("n, p, q", [(250, 30.0, 5.0), (600, 400.0, 12.0),
                                         (1200, 5000.0, 20.0), (2440, 22000.0, 2444.0)])
    def test_deep_degrees_match_60_digit_recurrence(self, n, p, q):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            reference = [jacobi_recurrence_mp(n, p, q, x) for x in self.X_PROBE[1:]]
        self._assert_log_form(n, p, q, self.X_PROBE[1:], reference)

    def test_unscaled_points_keep_the_plain_recurrence_bits(self):
        # up to degree 200 and below 1e150 every point carries the bits of the
        # plain recurrence ((b1 + b2 x) P_k - c P_{k-1}) / a, so those levels'
        # outputs stay the same
        x = np.linspace(-0.999, 0.999, 257)
        for n, p, q in ((7, 1.3, -0.4), (150, 50.0, 3.0), (200, 12.0, 40.0)):
            prev, cur = np.ones_like(x), 0.5 * ((p + q + 2.0) * x + (p - q))
            for k in range(2, n + 1):
                t = 2.0 * k + p + q
                a = 2.0 * k * (k + p + q) * (t - 2.0)
                b1 = (t - 1.0) * (p * p - q * q)
                b2 = (t - 1.0) * t * (t - 2.0)
                c = 2.0 * (k + p - 1.0) * (k + q - 1.0) * t
                prev, cur = cur, ((b1 + b2 * x) * cur - c * prev) / a
            mantissa, log_scale = _scaled_jacobi(n, p, q, x)
            assert np.abs(cur).max() < 1e150 and not log_scale.any()
            assert mantissa.tobytes() == cur.tobytes() == jacobi(n, p, q, x).tobytes()

    def test_non_finite_eigenfunction_is_typed(self):
        # a value past the largest float is refused, not printed as inf
        with pytest.raises(DomainUnsupported, match="not finite"):
            _phi_pq(30, 2.0, 3.0, 0.5, np.array([0.01, 0.5]), 1.7e308)  # phi(0.01) ~ 1.06 N

    def test_vectorized(self):
        x = np.linspace(-1, 1, 7)
        vals = jacobi(3, 0.5, 0.5, x)
        assert vals.shape == x.shape


class TestPhi:
    def test_ground_state_reduces_to_xi(self, h2_eta02):
        # P_0 = 1, so phi is xi = z^{sqrt(eps)} (1 - eta z)^{(1 + A_tilde)/2}
        st = make_state(h2_eta02, 0)
        z = np.array([0.2, 0.5, 0.8])
        xi = z ** math.sqrt(st.eps_nl) * (1 - h2_eta02.eta * z) ** (0.5 * (1 + st.A_tilde))
        assert phi(h2_eta02, st, z, NORMALIZABLE) == pytest.approx(xi, rel=1e-14)

    def test_normalizable_branch_vanishes_at_origin(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        assert phi(h2_eta02, st, 1e-8, NORMALIZABLE) < 1e-100

    def test_printed_branch_diverges_at_origin(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        assert phi(h2_eta02, st, 1e-8, PRINTED) > 1e100

    def test_first_excited_has_one_node_in_unit_interval(self, h2_eta02):
        st = make_state(h2_eta02, 1)
        z = np.linspace(0, 1, 10002)[1:-1]
        vals = phi(h2_eta02, st, z, NORMALIZABLE)
        signs = np.sign(vals)
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 1

    def test_norm_const_scales_output(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        st_scaled = attach_norm(h2_eta02, st, NORMALIZABLE)
        ratio = (phi(h2_eta02, st_scaled, 0.5, NORMALIZABLE)
                 / phi(h2_eta02, st, 0.5, NORMALIZABLE))
        assert ratio == pytest.approx(st_scaled.norm_const, rel=1e-12)


class TestDeepLevelAssembly:
    def test_deep_corner_matches_mpmath(self, tmp_path):
        # D 8 eV, r0 2.5 A, m0 40 amu, alpha' 0.8 at eta 0.6, n = 20: p = 1606,
        # q = 2429, N = 5.4e299.  At most of these z, z^{q/2} or
        # (1 - eta z)^{(1+p)/2} falls below the normal float range while N P_n
        # is huge, so phi must come from the log-space assembly
        mpmath = pytest.importorskip("mpmath")
        from pdmorse import load_molecule_config

        path = tmp_path / "deep.cfg"
        path.write_text("name = deep\nD_eV = 8\nr0_angstrom = 2.5\n"
                        "m0_amu = 40\nalpha_prime = 0.8\n")
        sys_ = reduce(load_molecule_config(path), 0.6, WEYL)
        st = attach_norm(sys_, make_state(sys_, 20))
        p, q = paper_pq(st, NORMALIZABLE)
        z = np.array([0.3, 0.48878, 0.68390, 0.78146, 0.89366, 0.97659])
        got = phi(sys_, st, z)
        with mpmath.workdps(50):
            for zi, value in zip(z, got):
                zz = mpmath.mpf(zi)
                ref = (mpmath.mpf(st.norm_const) * zz ** (mpmath.mpf(q) / 2)
                       * (1 - mpmath.mpf(0.6) * zz) ** ((1 + mpmath.mpf(p)) / 2)
                       * mpmath.jacobi(20, p, q, 2 * mpmath.mpf(0.6) * zz - 1))
                assert value == pytest.approx(float(ref), rel=1e-11, abs=1e-300), zi


class TestNodeCounts:
    @pytest.mark.parametrize("eta,n", [(0.2, 2), (0.2, 6), (0.4, 10), (0.6, 15)])
    def test_natural_domain_count_equals_n(self, h2, eta, n):
        sys = reduce(h2, eta, WEYL)
        st = make_state(sys, n)
        assert node_count(sys, st, NORMALIZABLE, domain="natural") == n

    def test_physical_window_drops_left_nodes(self, h2):
        # nodes between z = 1 and the mass singularity are outside (0, 1);
        # the physical-window count therefore undershoots n for higher levels
        sys = reduce(h2, 0.2, WEYL)
        st = make_state(sys, 6)
        physical = node_count(sys, st, NORMALIZABLE, domain="physical")
        natural = node_count(sys, st, NORMALIZABLE, domain="natural")
        assert natural == 6
        assert physical < natural


class TestRodrigues:
    def test_n0_constant(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        assert rodrigues_psi(h2_eta02, st.eps_nl, 0, 0.4) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("convention", [PRINTED, NORMALIZABLE])
    def test_ratio_to_jacobi_constant(self, h2_eta02, n, convention):
        st = make_state(h2_eta02, 3)
        eps = st.eps_nl
        at = st.A_tilde
        q = -2 * math.sqrt(eps) if convention is PRINTED else 2 * math.sqrt(eps)
        rng = np.random.default_rng(41 + n)
        z = rng.uniform(0.05, 0.95, size=20)
        rod = rodrigues_psi(h2_eta02, eps, n, z, convention)
        jac = jacobi(n, at, q, 2 * h2_eta02.eta * z - 1)
        ratios = rod / jac
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9

    def test_degree_cap(self, h2_eta02):
        with pytest.raises(ValueError):
            rodrigues_psi(h2_eta02, 1.0, 4, 0.5)


def shallow_params(n, eta=1.0 - 1e-6):
    """(n, p, q, eta) of a printed-branch level with sqrt(eps) = 0.3, A_tilde = 0.8."""
    return n, 0.8, -2.0 * 0.3, eta


class TestNormalization:
    # at eta = 0.2 the closed form's support (0, 1/eta) holds visibly more
    # than (0, 1), so this also pins the quadrature's interval
    @pytest.mark.parametrize("eta", [1.0 - 1e-6, 0.2])
    @pytest.mark.parametrize("n", [0, 1])
    def test_closed_form_matches_quadrature(self, n, eta):
        params = shallow_params(n, eta)
        closed = norm_const(*params)
        quad = norm_const_quadrature(*params)
        assert abs(closed - quad) / quad < 1e-6

    def test_deep_state_unsupported(self, h2_eta02):
        st = make_state(h2_eta02, 0)  # -2 sqrt(eps) ~ -34
        params = (0, *paper_pq(st, PRINTED), h2_eta02.eta)
        with pytest.raises(DomainUnsupported):
            norm_const(*params)
        with pytest.raises(DomainUnsupported):
            norm_const_quadrature(*params)

    @pytest.mark.parametrize("eta", [0.2, 0.4, 0.6])
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_quadrature_agrees_with_closed_form_on_every_level(self, name, eta):
        # both normalize over the full support (0, 1/eta); the integral 1/N^2
        # falls to ~1e-23 (LiH n = 0), so the quadrature tolerance is relative
        levels = spectrum(reduce(get_molecule(name), eta, WEYL))
        checked = 0
        for st in levels:
            for conv in (PRINTED, NORMALIZABLE):
                params = (st.n, *paper_pq(st, conv), eta)
                try:
                    closed = norm_const(*params)
                except DomainUnsupported:
                    continue
                assert norm_const_quadrature(*params) == pytest.approx(closed, rel=1e-11), \
                    (st.n, conv)
                checked += 1
        assert checked >= len(levels)  # every normalizable level has a finite constant

    def test_attach_norm_is_the_closed_form(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        out = attach_norm(h2_eta02, st, NORMALIZABLE)
        assert out.norm_const == norm_const(0, *paper_pq(st, NORMALIZABLE), h2_eta02.eta) > 0

    @pytest.mark.parametrize("eta", [e for e in REFERENCE_ETAS if e > 0])
    @pytest.mark.parametrize("name", ["H2", "LiH"])
    def test_printed_branch_normalizable_iff_sqrt_eps_below_half(self, name, eta):
        # phi^2 ~ z^{-2 sqrt(eps)} at the origin on the printed branch; the
        # normalizable branch always has a constant unless it overflows
        sys_ = reduce(get_molecule(name), eta, WEYL)
        for st in spectrum(sys_):
            printed = (st.n, *paper_pq(st, PRINTED), eta)
            if math.sqrt(st.eps_nl) >= 0.5:
                with pytest.raises(DomainUnsupported, match="not integrable"):
                    norm_const(*printed)
                with pytest.raises(DomainUnsupported, match="not integrable"):
                    attach_norm(sys_, st, PRINTED)
            else:
                assert attach_norm(sys_, st, PRINTED).norm_const == norm_const(*printed) > 0
            try:
                value = attach_norm(sys_, st, NORMALIZABLE).norm_const
            except NormOverflow:
                continue
            assert math.isfinite(value) and value > 0


class TestOdeResidual:
    def test_consistent_states_satisfy_equation(self, h2_eta02):
        grid = make_z_grid(1024)
        for n in (0, 1):
            st = nu_consistent_state(h2_eta02, n)
            assert ode_residual(h2_eta02, st, grid, NORMALIZABLE) < 1e-6

    def test_public_root_residual_is_larger(self, h2_eta02):
        grid = make_z_grid(1024)
        st_pub = make_state(h2_eta02, 0)
        st_con = nu_consistent_state(h2_eta02, 0)
        r_pub = ode_residual(h2_eta02, st_pub, grid, NORMALIZABLE)
        r_con = ode_residual(h2_eta02, st_con, grid, NORMALIZABLE)
        assert r_con < 1e-6 < r_pub

    def test_convergence_order(self, h2_eta02):
        st = nu_consistent_state(h2_eta02, 0)
        r256 = ode_residual(h2_eta02, st, make_z_grid(256), NORMALIZABLE)
        r1024 = ode_residual(h2_eta02, st, make_z_grid(1024), NORMALIZABLE)
        order = math.log2(r256 / r1024) / 2.0
        assert order >= 2.0

    def test_eta0_laguerre_form(self, h2_eta0):
        from dataclasses import replace

        eps = constant_mass_epsilon(h2_eta0, 0)
        st = replace(make_state(h2_eta0, 0), eps_nl=eps, E=-h2_eta0.e_scale * eps)
        assert ode_residual(h2_eta0, st, make_z_grid(2048)) < 1e-6

    def test_coarse_grid_rejected(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        with pytest.raises(ValueError):
            ode_residual(h2_eta02, st, make_z_grid(32))

    def test_nonuniform_grid_rejected(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        z = np.concatenate([np.linspace(0.01, 0.5, 64), np.linspace(0.51, 0.99, 80)])
        with pytest.raises(ValueError):
            ode_residual(h2_eta02, st, z)


class TestConventionSelection:
    def test_exactly_one_convention_is_bounded_with_small_residual(self, h2_eta02):
        # deterministic selection: the normalizable branch is the only one
        # that is both bounded at the origin and solves the equation
        grid = make_z_grid(1024)
        st = nu_consistent_state(h2_eta02, 0)
        outcomes = {}
        for conv in (PRINTED, NORMALIZABLE):
            bounded = abs(phi(h2_eta02, st, 1e-8, conv)) < 1.0
            residual = ode_residual(h2_eta02, st, grid, conv)
            outcomes[conv] = bounded and residual < 1e-6
        assert outcomes[NORMALIZABLE]
        assert not outcomes[PRINTED]


class TestPhiEta0:
    def test_requires_eta0(self, h2_eta02):
        st = make_state(h2_eta02, 0)
        with pytest.raises(ValueError):
            phi_eta0(h2_eta02, st, 0.5)

    def test_node_count_matches_level(self, h2_eta0):
        from dataclasses import replace

        eps = constant_mass_epsilon(h2_eta0, 3)
        st = replace(make_state(h2_eta0, 3), eps_nl=eps)
        z = np.linspace(1e-6, 3.0, 20001)
        vals = phi_eta0(h2_eta0, st, z)
        signs = np.sign(vals)
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 3


def eta0_levels(molecule):
    sys_ = reduce(molecule, 0.0, WEYL)
    return [(sys_, st) for st in spectrum(sys_)]


class TestEta0Normalization:
    """Closed-form Laguerre norm at eta = 0, against mpmath and unit probability."""

    @pytest.fixture(scope="class", params=["h2", "lih"])
    def levels(self, request):
        return eta0_levels(request.getfixturevalue(request.param))

    def test_closed_form_against_mpmath(self, levels):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for sys_, st in levels:
                two_s = 2 * mpmath.sqrt(mpmath.mpf(st.eps_nl))
                two_w = 2 * mpmath.sqrt(mpmath.mpf(sys_.eps1))
                ref = mpmath.sqrt(two_w ** (two_s + 1) * mpmath.factorial(st.n)
                                  / mpmath.gamma(st.n + two_s + 1))
                got = attach_norm(sys_, st).norm_const
                assert abs(got / ref - 1) < 1e-13, st.n

    def test_unit_probability(self, levels):
        # z = u^4 smooths the z^{2s} endpoint power; the tail beyond t = 2Wz =
        # 4n + 4s + 80 is below double precision
        k = 4
        for sys_, st in levels:
            st = attach_norm(sys_, st)
            t_max = 4 * st.n + 4 * math.sqrt(st.eps_nl) + 80
            u_max = (t_max / (2 * math.sqrt(sys_.eps1))) ** (1 / k)
            total = gauss_legendre_integral(
                lambda u: phi_eta0(sys_, st, u**k) ** 2 * k * u ** (k - 1), 0.0, u_max, 400)
            assert abs(total - 1.0) < 1e-12, st.n

    def test_laguerre_identity_by_mpmath_quadrature(self, lih):
        # the identity itself, for the level the old finite-window quadrature
        # missed by 20%; L_n from its explicit finite sum
        mpmath = pytest.importorskip("mpmath")
        sys_, st = eta0_levels(lih)[12]
        n = st.n
        with mpmath.workdps(50):
            s = mpmath.sqrt(mpmath.mpf(st.eps_nl))
            w = mpmath.sqrt(mpmath.mpf(sys_.eps1))
            coeffs = [(-1) ** k * mpmath.binomial(n + 2 * s, n - k) / mpmath.factorial(k)
                      for k in range(n, -1, -1)]
            integral = mpmath.quad(
                lambda z: z ** (2 * s) * mpmath.exp(-2 * w * z)
                * mpmath.polyval(coeffs, 2 * w * z) ** 2,
                mpmath.linspace(0, 4 * (n + s + 15) / (2 * w), 8) + [mpmath.inf])
            ref = 1 / mpmath.sqrt(integral)
        assert abs(norm_const_eta0(sys_, st) / ref - 1) < 1e-13

    def test_convention_does_not_apply(self, h2_eta0):
        st = make_state(h2_eta0, 2)
        expected = norm_const_eta0(h2_eta0, st)
        for conv in (PRINTED, NORMALIZABLE):
            assert attach_norm(h2_eta0, st, conv).norm_const == expected

    def test_overflowing_norm_is_typed(self, h2_eta0):
        from dataclasses import replace

        # a fictitious deep level: log N ~ 1e3, beyond the largest float
        st = replace(make_state(h2_eta0, 0), eps_nl=1000.0**2)
        deep = replace(h2_eta0, eps1=1100.0**2)
        with pytest.raises(NormOverflow, match="overflows a float") as info:
            norm_const_eta0(deep, st)
        assert isinstance(info.value, DomainUnsupported)

    def test_deep_level_stays_finite(self, h2_eta0):
        from dataclasses import replace

        # L_400 at t ~ 1e3 passes 1e300: the scaled recurrence keeps the
        # product with the envelope finite and the node count exact
        st = replace(make_state(h2_eta0, 0), n=400, eps_nl=150.0**2, norm_const=None)
        sys_ = replace(h2_eta0, eps1=550.5**2)
        st = attach_norm(sys_, st)
        z = np.linspace(1e-4, 4.0, 40001)
        with np.errstate(over="raise", invalid="raise"):
            vals = phi_eta0(sys_, st, z)
        assert np.all(np.isfinite(vals)) and np.abs(vals).max() > 1e-3
        signs = np.sign(vals[vals != 0])
        assert int(np.sum(signs[1:] * signs[:-1] < 0)) == 400

    @pytest.mark.parametrize("n, alpha, ts", [
        (12, 30.0, [1.0, 20.0, 60.0]),
        (400, 300.0, [50.0, 400.0, 1000.0, 1500.0, 2500.0]),  # rescaled, up to e^694
        # the Q_k form: before the first zero, among the zeros and past the last
        (900, 800.0, [50.0, 300.0, 1000.0, 2500.0, 4000.0, 5500.0, 8000.0]),
        (1200, 2400.0, [200.0, 800.0, 2000.0, 4000.0, 6000.0, 8000.0, 12000.0]),
    ])
    def test_scaled_laguerre_against_mpmath(self, n, alpha, ts):
        from pdmorse.wavefn import _scaled_laguerre

        mpmath = pytest.importorskip("mpmath")
        mantissa, log_scale = _scaled_laguerre(n, alpha, np.array(ts))
        with mpmath.workdps(50):
            for i, t in enumerate(ts):
                ref = mpmath.laguerre(n, alpha, t)
                assert np.sign(mantissa[i]) == mpmath.sign(ref)
                got = math.log(abs(mantissa[i])) + log_scale[i]
                assert abs(got - float(mpmath.log(abs(ref)))) < 1e-12, t

    def test_unscaled_points_keep_the_plain_recurrence_bits(self):
        # Laguerre runs the Jacobi recurrence's helper: up to degree 200 and
        # below 1e150 every point carries the bits of the plain recurrence
        # ((2k - 1 + alpha - t) L_{k-1} - (k - 1 + alpha) L_{k-2}) / k
        from pdmorse.wavefn import _scaled_laguerre

        t = np.linspace(0.01, 60.0, 257)
        for n, alpha in ((2, 30.0), (17, 10.0), (150, 3.0)):
            prev, cur = np.ones_like(t), 1.0 + alpha - t
            for k in range(2, n + 1):
                prev, cur = cur, ((2 * k - 1 + alpha - t) * cur - (k - 1 + alpha) * prev) / k
            mantissa, log_scale = _scaled_laguerre(n, alpha, t)
            assert np.abs(cur).max() < 1e150 and not log_scale.any()
            assert mantissa.tobytes() == cur.tobytes()

    def test_scalar_and_signed_norm(self, h2_eta0):
        from dataclasses import replace

        st = attach_norm(h2_eta0, make_state(h2_eta0, 1))
        z = np.array([0.05, 0.2, 0.6])
        vals = phi_eta0(h2_eta0, st, z)
        assert phi_eta0(h2_eta0, st, 0.2) == vals[1]
        flipped = phi_eta0(h2_eta0, replace(st, norm_const=-st.norm_const), z)
        np.testing.assert_array_equal(flipped, -vals)
        zero = phi_eta0(h2_eta0, replace(st, norm_const=0.0), z)
        np.testing.assert_array_equal(zero, 0.0)

    @pytest.mark.parametrize("norm", [math.inf, math.nan])
    def test_non_finite_value_is_typed(self, h2_eta0, norm):
        # the finite check the eta > 0 assembly applies: refused, not inf or nan
        from dataclasses import replace

        st = replace(make_state(h2_eta0, 1), norm_const=norm)
        with pytest.raises(DomainUnsupported, match="not finite"):
            phi_eta0(h2_eta0, st, np.array([0.05, 0.2]))


class TestTypedFailures:
    def test_quadrature_panel_budget(self):
        from pdmorse import PdmorseError, QuadratureFailure
        from pdmorse.quadrature import adaptive_gauss

        with pytest.raises(QuadratureFailure, match="exceeded 3 panels") as info:
            adaptive_gauss(lambda x: np.sin(40.0 * x) ** 2, 0.0, 10.0, max_panels=3)
        assert isinstance(info.value, PdmorseError)

    def test_quadrature_non_finite_integrand_fails_fast(self):
        from pdmorse import QuadratureFailure
        from pdmorse.quadrature import adaptive_gauss

        calls = []

        def f(x):
            calls.append(1)
            return np.full_like(x, np.nan)

        with pytest.raises(QuadratureFailure, match="not finite"):
            adaptive_gauss(f, 0.0, 1.0)
        assert len(calls) == 2  # one panel, not the whole budget

    def test_eta_positive_closed_form_overflow_is_typed(self, tmp_path, monkeypatch):
        from pdmorse import load_molecule_config
        from pdmorse import wavefn
        from pdmorse.model import LI_KUHN

        path = tmp_path / "deep.cfg"
        path.write_text("name = deep\nD_eV = 8\nr0_angstrom = 2.5\n"
                        "m0_amu = 40\nalpha_prime = 0.8\n")
        sys_ = reduce(load_molecule_config(path), 0.1, LI_KUHN)
        st = make_state(sys_, 161)
        with pytest.raises(NormOverflow, match="overflows a float"):
            norm_const(161, *paper_pq(st, NORMALIZABLE), 0.1)

        def no_fallback(*args, **kwargs):
            raise AssertionError("an overflowing closed form must not fall back")

        monkeypatch.setattr(wavefn, "norm_const_quadrature", no_fallback)
        with pytest.raises(NormOverflow):
            attach_norm(sys_, st)
