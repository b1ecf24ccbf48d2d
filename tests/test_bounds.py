import math
import re

import numpy as np
import pytest

from funupdate import (BoundValue, DecayParams, Ellipse, FunctionSpec, Interval, Wedge,
                       bound_exp_superlinear, bound_exp_wedge, bound_markov,
                       bound_markov_hpd, chebyshev_poly_bound, decay_params_from_matrix,
                       demko_decay, field_of_values_boundary, leftmost_real_point, phi_abs,
                       scalar_derivative, stieltjes_k_constant, stieltjes_update_decay)
from funupdate.errors import DomainError
from helpers import make_hermitian, tridiag_sparse


class TestPhiAbs:
    def test_joukowski_closed_form(self):
        assert phi_abs(Interval(-1.0, 1.0), -2.0) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-12)

    def test_boundary_maps_to_one(self):
        assert phi_abs(Interval(-1.0, 1.0), 1.0) == pytest.approx(1.0, abs=1e-12)
        e = Ellipse(0.0, 1.0, 2.0)
        # rightmost boundary point of the ellipse is tau*(rho+1/rho)/2
        assert phi_abs(e, 0.5 * (2.0 + 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_condition_number_identity(self):
        kappa = 101.0
        got = phi_abs(Interval(0.1, 10.1), 0.0)
        want = (math.sqrt(kappa) + 1.0) / (math.sqrt(kappa) - 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_interior_point_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            phi_abs(Interval(-1.0, 1.0), 0.5)

    def test_wedge_not_supported(self):
        with pytest.raises(ValueError):
            phi_abs(Wedge(0.0, 1.0, 1.5), -10.0)

    def test_continuity_at_boundary(self):
        for off in (1e-6, -0.0):
            val = phi_abs(Interval(-1.0, 1.0), 1.0 + 1e-6)
            assert val - 1.0 <= 5e-3
        assert phi_abs(Interval(2.0, 4.0), 2.0 - 1e-6) - 1.0 <= 5e-3

    def test_complex_point(self):
        assert phi_abs(Interval(-1.0, 1.0), 2.0j) > 1.0


class TestRegionValidation:
    def test_rejects_malformed_regions(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Ellipse(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            Ellipse(0.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            Wedge(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Wedge(0.0, -1.0, 1.5)


class TestLeftmostRealPoint:
    def test_interval_and_ellipse(self):
        assert leftmost_real_point(Interval(-3.0, 2.0)) == pytest.approx(-3.0)
        assert leftmost_real_point(Ellipse(1.0, 2.0, 2.0)) == pytest.approx(1.0 - 2.5)

    def test_wedge(self):
        w = Wedge(0.0, 1.0, 2.0)  # degenerate wedge = interval [-4 rho, 0]
        assert leftmost_real_point(w) == pytest.approx(-4.0)


class TestExpSuperlinear:
    def test_decreasing_over_validity_range(self):
        rho = 5.05
        start = math.ceil(math.e * rho) - 1
        values = [bound_exp_superlinear(0.0, rho, m).value for m in range(start, start + 20)]
        assert all(v is not None and np.isfinite(v) for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_gate_below_window(self):
        r = bound_exp_superlinear(0.0, 5.05, 5)
        assert not r.applicable and r.value is None
        assert r.rate > 0  # rate is reported regardless

    def test_window_edge_stays_finite_under_scaling(self):
        for s in (1.0, 2.0, 5.0):
            rho = 5.05 * s
            m = math.ceil(math.e * rho) - 1
            r = bound_exp_superlinear(0.0, rho, m)
            assert r.applicable and np.isfinite(r.value)

    def test_norm_factors(self):
        base = bound_exp_superlinear(0.0, 2.0, 20).value
        scaled = bound_exp_superlinear(0.0, 2.0, 20, b_norm=2.0, c_norm=3.0).value
        assert scaled == pytest.approx(6.0 * base)


class TestExpWedge:
    def test_finite_and_decreasing_in_window(self):
        region = Wedge(0.0, 101.0, 1.5)
        lo = math.ceil(1.5 * 101.0 ** (1 / 1.5) + 4.0 / 1.5 - 1.0)
        values = [bound_exp_wedge(region, m).value for m in range(lo + 1, lo + 30)]
        assert all(v is not None and np.isfinite(v) for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_flat_angle_reduces_to_square_exponent(self):
        rho = 50.0
        region = Wedge(0.0, rho, 2.0)
        m = math.ceil(2.0 * math.sqrt(rho)) + 2  # inside [2 sqrt(rho), 2 rho]
        r = bound_exp_wedge(region, m)
        assert r.applicable
        want_rate = math.exp(-((m + 1.0 - 2.0) / (2.0 * math.sqrt(rho))) ** 2)
        assert r.rate == pytest.approx(want_rate, rel=1e-12)

    def test_below_window_not_applicable(self):
        r = bound_exp_wedge(Wedge(0.0, 101.0, 1.5), 5)
        assert not r.applicable and r.value is None

    def test_requires_wedge(self):
        with pytest.raises(ValueError):
            bound_exp_wedge(Interval(-1.0, 1.0), 10)


class TestMarkov:
    def test_m0_is_pure_constant(self):
        got = bound_markov(Interval(0.1, 10.1), 0.0, -15.8114, 0, 2.0, 3.0)
        assert got.value == pytest.approx(8.0 * 15.8114 * 6.0)
        assert got.applicable and got.rate == 1.0

    def test_consistency_with_hpd_form(self):
        f = FunctionSpec.inverse_sqrt()
        fp = abs(scalar_derivative(f, 0.1))
        for m in (1, 5, 17):
            via_region = bound_markov(Interval(0.1, 10.1), 0.0, fp, m)
            via_hpd = bound_markov_hpd(101.0, fp, 1.0, m)
            assert via_region.value == pytest.approx(via_hpd.value, rel=1e-12)
            assert via_region.rate == pytest.approx(via_hpd.rate, rel=1e-12)
            assert via_region.rate == pytest.approx(phi_abs(Interval(0.1, 10.1), 0.0) ** -m,
                                                    rel=1e-12)

    def test_rate_strictly_below_one(self):
        assert 1.0 / phi_abs(Interval(0.5, 2.0), 0.2) < 1.0

    def test_support_must_be_left_of_region(self):
        with pytest.raises(ValueError):
            bound_markov(Interval(0.1, 10.1), 0.1, 1.0, 3)


class TestMarkovHpd:
    def test_unit_condition_number(self):
        assert bound_markov_hpd(1.0, 3.0, 1.0, 1) == BoundValue(True, 0.0, 0.0)
        assert bound_markov_hpd(1.0, 3.0, 1.0, 0).value == pytest.approx(24.0)
        assert bound_markov_hpd(1.0, 3.0, 1.0, 0).rate == 1.0

    def test_rate_value(self):
        s = math.sqrt(101.0)
        rate = (s - 1.0) / (s + 1.0)
        assert rate == pytest.approx(0.8197, abs=1e-3)
        got = bound_markov_hpd(101.0, 1.0, 1.0, 1)
        assert got.value == pytest.approx(8.0 * rate)
        assert got.rate == pytest.approx(rate)

    def test_doubling_m_squares_the_rate_factor(self):
        b1 = bound_markov_hpd(101.0, 1.0, 1.0, 7)
        b2 = bound_markov_hpd(101.0, 1.0, 1.0, 14)
        assert b2.value / 8.0 == pytest.approx((b1.value / 8.0) ** 2, rel=1e-12)
        assert b2.rate == pytest.approx(b1.rate ** 2, rel=1e-12)

    def test_invalid_kappa(self):
        with pytest.raises(ValueError):
            bound_markov_hpd(0.5, 1.0, 1.0, 1)


def _best_polynomial_error_lp(f, degree, a, b, points=2001):
    """Discrete minimax reference by linear programming."""
    from scipy.optimize import linprog

    x = np.linspace(a, b, points)
    fx = np.asarray([f(t) for t in x])
    vand = np.vander(x, degree + 1, increasing=True)
    a_ub = np.block([[vand, -np.ones((points, 1))], [-vand, -np.ones((points, 1))]])
    b_ub = np.concatenate([fx, -fx])
    cost = np.zeros(degree + 2)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * (degree + 1) + [(0.0, None)])
    assert res.success
    return res.x[-1]


class TestChebyshevBound:
    def test_polynomial_is_reproduced(self):
        f = FunctionSpec.polynomial([1.0, -2.0, 3.0, 0.5])
        for m in (3, 7):
            got = chebyshev_poly_bound(f, (-1.0, 1.0), m)
            assert got.applicable and got.value <= 1e-12 and got.rate is None

    def test_sandwiched_by_minimax_oracle(self):
        # the surrogate can never undercut four times the true best error
        # and, the interpolant being near-best, stays within a small factor
        eps5 = _best_polynomial_error_lp(math.exp, 5, -1.0, 1.0)
        got = chebyshev_poly_bound(FunctionSpec.exp(), (-1.0, 1.0), 5).value
        assert got >= 4.0 * eps5 * (1.0 - 1e-6)
        assert got <= 4.0 * eps5 * 1.5

    def test_monotone_in_degree(self):
        f = FunctionSpec.exp()
        vals = [chebyshev_poly_bound(f, (-1.0, 1.0), m).value for m in range(1, 12)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-14

    def test_domain_check(self):
        with pytest.raises(DomainError):
            chebyshev_poly_bound(FunctionSpec.inverse_sqrt(), (-1.0, 1.0), 3)

    def test_inverse_away_from_zero(self):
        # 1/x is analytic on [-2, -1]: only an interval holding 0 is rejected
        vals = [chebyshev_poly_bound(FunctionSpec.inverse(), (-2.0, -1.0), m).value
                for m in range(1, 12)]
        assert all(np.isfinite(vals))
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        with pytest.raises(DomainError, match="inverse"):
            chebyshev_poly_bound(FunctionSpec.inverse(), (-1.0, 1.0), 6)


class TestFieldOfValues:
    def test_hermitian_stays_on_real_segment(self):
        rng = np.random.default_rng(31)
        m = make_hermitian(rng, 12, scale=2.0)
        eigs = np.linalg.eigvalsh(m)
        pts = field_of_values_boundary(m, 24)
        assert np.max(np.abs(pts.imag)) <= 1e-10
        assert np.all(pts.real >= eigs[0] - 1e-10)
        assert np.all(pts.real <= eigs[-1] + 1e-10)

    def test_jordan_block_disk_radius(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        pts = field_of_values_boundary(m, 64)
        assert np.max(np.abs(pts)) == pytest.approx(0.5, abs=1e-10)
        # dense sampling over unit vectors never exceeds the disk radius
        rng = np.random.default_rng(32)
        samples = []
        for _ in range(3000):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            x /= np.linalg.norm(x)
            samples.append(abs(np.vdot(x, m @ x)))
        assert max(samples) <= 0.5 + 1e-12
        assert max(samples) >= 0.45

    def test_normal_matrix_boundary_touches_spectrum_hull(self):
        eigs = 2.0 * np.exp(2j * np.pi * np.arange(5) / 5.0)
        m = np.diag(eigs)
        pts = field_of_values_boundary(m, 6)
        for p in pts:
            assert np.min(np.abs(p - eigs)) <= 1e-10

    def test_angle_count_validation(self):
        with pytest.raises(ValueError):
            field_of_values_boundary(np.eye(2), 3)


class TestDecayBounds:
    def test_flat_spectrum(self):
        p = DecayParams(2.0, 2.0, 1.0, 1.0)
        assert p.decay_rate == 0.0
        assert demko_decay(p, 0) == pytest.approx(1.0)  # C = max(1/2, 4/4) = 1
        assert demko_decay(p, 1) == 0.0
        assert demko_decay(p, 7) == 0.0

    def test_tridiagonal_limit_rate(self):
        p = DecayParams(1.0, 5.0, 1.0, 1.0)
        want = (math.sqrt(5.0) - 1.0) / (math.sqrt(5.0) + 1.0)
        assert p.decay_rate == pytest.approx(want, rel=1e-12)
        assert p.decay_rate == pytest.approx(0.381966, abs=1e-6)
        assert demko_decay(p, 0) == pytest.approx(max(1.0, (1 + math.sqrt(5)) ** 2 / 10.0))

    def test_stieltjes_distance_zero(self):
        p = DecayParams(1.0, 5.0, 0.5, 2.0)
        assert stieltjes_update_decay(p, 0, 0) == pytest.approx(4.0 * 2.0 / 0.5)

    def test_stieltjes_monotone_in_distance(self):
        p = DecayParams(1.0, 5.0, 1.0, 1.0)
        vals = [stieltjes_update_decay(p, s, 0) for s in range(10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert stieltjes_update_decay(p, 3, 4) == pytest.approx(stieltjes_update_decay(p, 7, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DecayParams(1.0, 2.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            demko_decay(DecayParams(1.0, 2.0, 1.0, 1.0), -1)


class TestKConstant:
    def test_m_matrix_floor_is_the_infinity_limit(self):
        # all resolvent entries of tridiag(-1, 3, -1) are positive, so the
        # objective decreases to its limit 1 as the shift grows
        a = tridiag_sparse(50, -1.0, 3.0, -1.0).to_dense()
        assert stieltjes_k_constant(a, 25, 24) == pytest.approx(1.0, abs=1e-9)

    def test_signless_variant_has_interior_minimum(self):
        a = tridiag_sparse(50, 1.0, 3.0, 1.0).to_dense()
        k = stieltjes_k_constant(a, 25, 24)
        direct = abs(1.0 + np.linalg.solve(a, np.eye(50)[:, 25])[24])
        assert k <= direct + 1e-12
        assert k < 1.0
        assert k == pytest.approx(direct, rel=1e-6)


@pytest.mark.parametrize("make, message", [
    (lambda: bound_exp_superlinear(0.0, 0.0, 3), "capacity must be positive"),
    (lambda: chebyshev_poly_bound(FunctionSpec.exp(), (1.0, 1.0), 3), "interval needs a < b"),
    (lambda: stieltjes_update_decay(DecayParams(1.0, 2.0, 1.0, 1.0), 0, -1),
     "distances must be nonnegative"),
    (lambda: decay_params_from_matrix(np.diag([-1.0, 2.0]), FunctionSpec.inverse_sqrt(), 0, 1),
     "matrix must be positive definite"),
    (lambda: phi_abs(Ellipse(0.0, 1.0, 2.0), 0.0), "point 0.0 lies inside the region"),
], ids=["superlinear-capacity", "chebyshev-interval", "negative-distance", "non-definite",
        "inside-ellipse"])
def test_typed_input_errors(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
