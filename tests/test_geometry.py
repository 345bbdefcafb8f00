import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from adhocsim import geometry
from adhocsim.errors import GeometryError

SQRT_PI = math.sqrt(math.pi)


def bisect_rho_for_area(area, tol=1e-12):
    """Independent inverse of cap_area by bisection."""
    lo, hi = 0.0, geometry.MAX_DISTANCE
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if geometry.cap_area(mid) < area:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSurfaceDistance:
    def test_identity(self, rng):
        p = geometry.random_point(rng, 1)[0]
        assert geometry.surface_distance(p, p) == 0.0

    def test_antipodal_is_half_great_circle(self, rng):
        p = geometry.random_point(rng, 1)[0]
        d = geometry.surface_distance(p, -p)
        assert d == pytest.approx(SQRT_PI / 2, abs=1e-12)

    def test_orthogonal_directions(self):
        d = geometry.surface_distance([1.0, 0, 0], [0, 1.0, 0])
        assert d == pytest.approx(SQRT_PI / 4, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self, rng):
        pts = geometry.random_point(rng, 300).reshape(100, 3, 3)
        for a, b, c in pts:
            ab = geometry.surface_distance(a, b)
            ba = geometry.surface_distance(b, a)
            assert ab == pytest.approx(ba, abs=1e-14)
            assert ab <= geometry.surface_distance(a, c) + geometry.surface_distance(c, b) + 1e-12

    def test_range(self, rng):
        a = geometry.random_point(rng, 1000)
        b = geometry.random_point(rng, 1000)
        d = geometry.surface_distance(a, b)
        assert np.all((0 <= d) & (d <= geometry.MAX_DISTANCE))

    @given(st.data(), st.sampled_from([((3,), (3,)), ((7, 3), (7, 3)), ((5, 4, 3), (5, 4, 3)),
                                       ((6, 3), (3,)), ((3,), (2, 5, 3))]))
    @settings(max_examples=200, deadline=None)
    def test_central_angle_matches_np_cross_reference(self, data, shapes):
        # the written-out cross product is the same arithmetic as np.cross
        # followed by np.linalg.norm, so the angles agree bit for bit
        floats = st.floats(-1e3, 1e3, allow_subnormal=False)
        a, b = (data.draw(hnp.arrays(np.float64, shape, elements=floats)) for shape in shapes)
        crosses = np.linalg.norm(np.cross(a, b), axis=-1)
        reference = np.arctan2(crosses, np.sum(a * b, axis=-1))
        angle = geometry.central_angle(a, b)
        assert np.shape(angle) == np.shape(reference) and np.all(angle == reference)


class TestCapArea:
    def test_trivial_values(self):
        assert geometry.cap_area(0.0) == 0.0
        assert geometry.cap_area(SQRT_PI / 4) == pytest.approx(0.5, abs=1e-12)
        assert geometry.cap_area(SQRT_PI / 2) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(GeometryError):
            geometry.cap_area(-0.1)
        with pytest.raises(GeometryError):
            geometry.cap_area(SQRT_PI / 2 + 0.1)

    def test_strictly_increasing(self):
        rhos = np.linspace(0, geometry.MAX_DISTANCE, 500)
        areas = geometry.cap_area(rhos)
        assert np.all(np.diff(areas) > 0)

    def test_sandwich(self):
        # pi*rho^2/2 <= area <= pi*rho^2 on (0, sqrt(pi)/4]
        rhos = np.linspace(1e-6, SQRT_PI / 4, 1000)
        areas = geometry.cap_area(rhos)
        assert np.all(math.pi * rhos**2 / 2 <= areas)
        assert np.all(areas <= math.pi * rhos**2)


class TestRhoForArea:
    def test_hemisphere(self):
        assert geometry.rho_for_area(0.5) == pytest.approx(SQRT_PI / 4, abs=1e-12)
        assert geometry.rho_for_area(0.5) == pytest.approx(0.443113, abs=1e-6)

    def test_full_sphere(self):
        assert geometry.rho_for_area(1.0) == pytest.approx(SQRT_PI / 2, abs=1e-12)

    def test_small_cap_against_bisection_oracle(self):
        expected = bisect_rho_for_area(0.01)
        assert expected == pytest.approx(0.0565, abs=1e-4)
        assert geometry.rho_for_area(0.01) == pytest.approx(expected, abs=1e-10)

    def test_out_of_range(self):
        with pytest.raises(GeometryError):
            geometry.rho_for_area(1.5)
        with pytest.raises(GeometryError):
            geometry.rho_for_area(-0.2)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, area):
        assert geometry.cap_area(geometry.rho_for_area(area)) == pytest.approx(
            area, abs=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=float(geometry.MAX_DISTANCE)))
    @settings(max_examples=200, deadline=None)
    def test_inverse_roundtrip(self, rho):
        assert geometry.rho_for_area(geometry.cap_area(rho)) == pytest.approx(
            rho, abs=1e-10
        )


class TestCapRecord:
    """A cap's radius and area, through ``cap_area`` and ``rho_for_area``."""

    def test_roundtrip_constructors(self):
        radius = geometry.rho_for_area(0.25)
        assert geometry.cap_area(radius) == pytest.approx(0.25, abs=1e-12)
        assert geometry.rho_for_area(geometry.cap_area(radius)) == pytest.approx(
            radius, abs=1e-12
        )

    def test_sandwich_holds_for_small_caps(self):
        for rho in np.linspace(1e-4, SQRT_PI / 4, 50):
            area = geometry.cap_area(rho)
            assert math.pi * rho**2 / 2 <= area <= math.pi * rho**2


class TestRandomPoint:
    def test_deterministic_per_seed(self):
        a = geometry.random_point(np.random.default_rng(7), 10)
        b = geometry.random_point(np.random.default_rng(7), 10)
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self, rng):
        pts = geometry.random_point(rng, 1000)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_mean_direction_is_zero(self):
        pts = geometry.random_point(np.random.default_rng(11), 1_000_000)
        # 3 sigma of a coordinate mean is about 3/sqrt(3 N) ~ 0.0017 < 0.004
        assert np.all(np.abs(pts.mean(axis=0)) < 0.004)

    def test_pole_distance_matches_distance_cdf(self):
        pts = geometry.random_point(np.random.default_rng(13), 200_000)
        d = np.sort(geometry.surface_distance(pts, np.array([0.0, 0.0, 1.0])))
        n = len(d)
        cdf = geometry.distance_cdf(d)
        ks = max(
            np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)
        )
        assert ks < 0.005


class TestDistanceLaw:
    def test_cdf_trivial_values(self):
        assert geometry.distance_cdf(0.0) == 0.0
        assert geometry.distance_cdf(SQRT_PI / 4) == pytest.approx(0.5, abs=1e-12)
        assert geometry.distance_cdf(SQRT_PI / 2) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_out_of_range(self):
        with pytest.raises(GeometryError):
            geometry.distance_cdf(1.0)


class TestExpectedDeltaPowL:
    def test_reference_value(self):
        # delta = exp(-2 sqrt(pi)) makes the closed form (1 + e^-pi) / 4
        delta = math.exp(-2 * SQRT_PI)
        val = geometry.expected_delta_pow_L(delta)
        assert val == pytest.approx((1 + math.exp(-math.pi)) / 4, abs=1e-15)
        assert val == pytest.approx(0.260804, abs=1e-6)

    def test_limit_at_one(self):
        assert geometry.expected_delta_pow_L(1.0) == 1.0

    def test_domain(self):
        for bad in (0.0, -0.3, 1.2):
            with pytest.raises(GeometryError):
                geometry.expected_delta_pow_L(bad)

    def test_monotone_and_in_unit_interval(self):
        deltas = np.linspace(0.01, 0.99, 99)
        vals = [geometry.expected_delta_pow_L(d) for d in deltas]
        assert all(0 < v < 1 for v in vals)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("delta", [0.5, math.exp(-2 * SQRT_PI)])
    def test_against_monte_carlo_oracle(self, delta):
        r = np.random.default_rng(99)
        a = geometry.random_point(r, 1_000_000)
        b = geometry.random_point(r, 1_000_000)
        vals = delta ** geometry.surface_distance(a, b)
        se = vals.std(ddof=1) / 1000.0
        assert abs(vals.mean() - geometry.expected_delta_pow_L(delta)) <= 3 * se


class TestGeodesic:
    def test_endpoints(self, rng):
        a, b = geometry.random_point(rng, 2)
        d = geometry.surface_distance(a, b)
        np.testing.assert_allclose(geometry.geodesic_arc(a, b, [0.0])[0], a, atol=1e-12)
        np.testing.assert_allclose(geometry.geodesic_arc(a, b, [d])[0], b, atol=1e-9)

    def test_midpoint_equidistant(self, rng):
        a, b = geometry.random_point(rng, 2)
        d = geometry.surface_distance(a, b)
        mid = geometry.geodesic_arc(a, b, [d / 2])[0]
        assert geometry.surface_distance(a, mid) == pytest.approx(
            geometry.surface_distance(b, mid), abs=1e-10
        )

    def test_antipodal_rejected(self, rng):
        p = geometry.random_point(rng, 1)[0]
        with pytest.raises(GeometryError):
            geometry.geodesic_arc(p, -p, [0.1])

    def test_arclength_out_of_range(self, rng):
        a, b = geometry.random_point(rng, 2)
        d = geometry.surface_distance(a, b)
        with pytest.raises(GeometryError):
            geometry.geodesic_arc(a, b, [d + 0.1])
        with pytest.raises(GeometryError):
            geometry.geodesic_arc(a, b, [-0.1])

    def test_arc_stays_on_sphere_and_additive(self, rng):
        a, b = geometry.random_point(rng, 2)
        d = geometry.surface_distance(a, b)
        s = np.linspace(0, d, 50)
        pts = geometry.geodesic_arc(a, b, s)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        along = geometry.surface_distance(a, pts)
        np.testing.assert_allclose(along, s, atol=1e-10)
