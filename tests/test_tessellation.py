import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adhocsim import experiment, geometry, tessellation
from adhocsim.errors import ConfigurationError

SQRT_PI = math.sqrt(math.pi)


def bisect_min_n(area_constant):
    """Independent oracle: smallest integer n with C*ln(n)/n <= 0.5."""
    n = 3
    while area_constant * math.log(n) / n > 0.5:
        n += 1
        if n > 10_000_000:
            raise AssertionError("no valid n found")
    return n


class TestDeploy:
    def test_deterministic(self):
        a = tessellation.deploy(100, 7)
        b = tessellation.deploy(100, 7)
        np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_rejects_tiny_n(self):
        with pytest.raises(ConfigurationError):
            tessellation.deploy(1, 0)

    def test_two_nodes_distinct(self):
        dep = tessellation.deploy(2, 3)
        assert geometry.surface_distance(dep.nodes[0], dep.nodes[1]) > 0

    def test_hemisphere_fraction(self):
        dep = tessellation.deploy(100_000, 5)
        frac = np.mean(dep.nodes[:, 2] > 0)
        assert abs(frac - 0.5) < 0.005  # binomial 3 sigma is ~0.0047


class TestRhoForN:
    def test_inverse_property(self):
        rho = tessellation.rho_for_n(5000, 100.0)
        assert geometry.cap_area(rho) * 5000 / math.log(5000) == pytest.approx(
            100.0, abs=1e-9
        )

    def test_min_n_boundary_for_paper_constant(self):
        min_n = bisect_min_n(100.0)
        assert min_n == 1457
        with pytest.raises(ConfigurationError):
            tessellation.rho_for_n(min_n - 1, 100.0)
        tessellation.rho_for_n(min_n, 100.0)  # accepted

    def test_spec_scale_rejection(self):
        with pytest.raises(ConfigurationError) as err:
            tessellation.rho_for_n(1275, 100.0)
        assert "1457" in str(err.value)  # error names the minimum usable n

    def test_non_integer_n_formula(self):
        # area 1*ln(e)/e = 1/e; rho is the cap radius of that area
        rho = tessellation.rho_for_n(math.e, 1.0)
        assert rho == pytest.approx(math.asin(math.sqrt(1 / math.e)) / SQRT_PI, abs=1e-12)

    def test_small_constant_always_valid(self):
        assert tessellation.min_valid_n(1.2) == 2


class TestBuildTessellation:
    def test_packing_and_covering_certificate(self, small_instance):
        dep, tess, _, _, _, _ = small_instance
        rho = tess.rho_n
        gram = tess.centers @ tess.centers.T
        np.fill_diagonal(gram, -1.0)
        theta_min = math.acos(min(max(gram.max(), -1.0), 1.0))
        assert geometry.RADIUS * theta_min >= 2 * rho * (1 - 1e-9)
        d = geometry.surface_distance(dep.nodes, tess.centers[tess.cell_of_node])
        assert d.max() <= 2 * rho * (1 + 1e-9)

    def test_maximality_probe(self, small_instance):
        _, tess, _, _, _, _ = small_instance
        probes = geometry.random_point(np.random.default_rng(77), 10_000)
        cos = probes @ tess.centers.T
        dmin = geometry.RADIUS * np.arccos(np.clip(cos.max(axis=1), -1, 1))
        assert dmin.max() <= 2 * tess.rho_n * (1 + 1e-9)

    def test_cell_count_against_counting_oracle(self, small_instance):
        _, tess, _, _, _, _ = small_instance
        lo = 1.0 / geometry.cap_area(min(2 * tess.rho_n, geometry.MAX_DISTANCE))
        hi = 1.0 / geometry.cap_area(tess.rho_n)
        assert math.floor(lo) <= tess.num_cells <= math.ceil(hi)

    def test_adjacency_symmetric_irreflexive(self, small_instance):
        _, tess, _, _, _, _ = small_instance
        for c in range(tess.num_cells):
            assert c not in tess.neighbors[c]
            for d in tess.neighbors[c]:
                assert c in tess.neighbors[int(d)]
                dist = geometry.surface_distance(tess.centers[c], tess.centers[int(d)])
                assert dist <= 4 * tess.rho_n * (1 + 1e-8)

    def test_deterministic(self):
        dep = tessellation.deploy(300, 9)
        rho = tessellation.rho_for_n(300, 1.2)
        t1 = tessellation.build_tessellation(dep, rho, 10)
        t2 = tessellation.build_tessellation(dep, rho, 10)
        np.testing.assert_array_equal(t1.centers, t2.centers)
        np.testing.assert_array_equal(t1.cell_of_node, t2.cell_of_node)

    def test_hemisphere_scale_cell_count(self):
        # At rho = sqrt(pi)/4 the counting oracle gives 1..2 cells: disjoint
        # in-disks of area 1/2 allow at most two, and one 2*rho disk already
        # covers the sphere.
        dep = tessellation.deploy(50, 3)
        tess = tessellation.build_tessellation(dep, SQRT_PI / 4, 4)
        assert 1 <= tess.num_cells <= 2

    @given(st.integers(2, 5000), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_certificate_on_random_instances(self, n, seed):
        # packing: the closest pair of centers is >= 2*rho apart; covering:
        # the farthest point from every center is within 2*rho; the stored
        # ratios are those two numbers over 2*rho
        rho = tessellation.rho_for_n(n, 1.2)
        tess = tessellation.build_tessellation(tessellation.deploy(n, seed), rho, seed + 1)
        if tess.num_cells > 1:
            pairs = geometry.surface_distance(tess.centers[:, None], tess.centers[None])
            gap = pairs[~np.eye(tess.num_cells, dtype=bool)].min()
            assert gap >= 2 * rho * (1 - 1e-9)
            assert tess.gap_ratio == pytest.approx(gap / (2 * rho), rel=1e-9)
        cover = tessellation._farthest_uncovered(tess.centers)[1][0]
        assert cover <= 2 * rho * (1 + 1e-9)
        assert tess.cover_ratio == pytest.approx(cover / (2 * rho), rel=1e-12)

    def test_one_packing_pass(self, monkeypatch):
        # one build draws exactly ceil(10/cap_area(rho)) candidates, on an
        # instance where probing for uncovered points once took four passes
        dep = tessellation.deploy(1000, 7)
        rho = tessellation.rho_for_n(1000, 1.2)
        drawn = []
        draw = geometry.random_point

        def counting(rng, size=None):
            drawn.append(1 if size is None else size)
            return draw(rng, size)

        monkeypatch.setattr(geometry, "random_point", counting)
        tessellation.build_tessellation(dep, rho, 8)
        assert sum(drawn) == math.ceil(10 / geometry.cap_area(rho))

    def test_rho_too_large_rejected(self):
        dep = tessellation.deploy(10, 0)
        with pytest.raises(ConfigurationError):
            tessellation.build_tessellation(dep, 0.6, 1)


def per_candidate_packing(candidates, cos_threshold):
    """The packing one candidate at a time, each tested against every center
    accepted before it: the reference for ``tessellation._greedy_packing``."""
    accepted = np.empty_like(candidates)
    count = 0
    for cand in candidates:
        if count == 0 or np.max(accepted[:count] @ cand) <= cos_threshold:
            accepted[count] = cand
            count += 1
    return accepted[:count]


def near_threshold_candidates(rho, seed):
    """Centers packed far apart, then around each of them five candidates at
    the packing distance, spread so that they do not meet each other: each
    one's cosine to its center lies within 1e-15 of the packing threshold,
    where a blocked product and a per-candidate one may round apart."""
    rng = np.random.default_rng(seed)
    theta = 2 * rho / geometry.RADIUS
    threshold = math.cos(theta) + 1e-15
    centers = per_candidate_packing(geometry.random_point(rng, 6000), math.cos(3.5 * theta))
    rings = []
    for c in centers:
        u = np.cross(c, rng.normal(size=3))
        u /= np.linalg.norm(u)
        v = np.cross(c, u)
        angle = np.arccos(threshold + rng.uniform(-1e-15, 1e-15, 5))[:, None]
        phi = (rng.uniform(0, 0.2, 5) + np.arange(5) * 2 * math.pi / 5)[:, None]
        rings.append(np.cos(angle) * c + np.sin(angle) * (np.cos(phi) * u + np.sin(phi) * v))
    return np.vstack([centers, *rings]), threshold


class TestBlockedSetUp:
    @pytest.mark.parametrize("n, seed", [(250, 1), (1000, 2), (4000, 3), (16000, 4)])
    def test_packing_matches_the_reference_on_random_candidates(self, n, seed):
        rho = tessellation.rho_for_n(n, 1.2)
        threshold = math.cos(2 * rho / geometry.RADIUS) + 1e-15
        rng = np.random.default_rng(seed)
        candidates = geometry.random_point(rng, math.ceil(10 / geometry.cap_area(rho)))
        assert (tessellation._greedy_packing(candidates, threshold).tobytes()
                == per_candidate_packing(candidates, threshold).tobytes())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_packing_matches_the_reference_at_the_threshold(self, seed):
        # Over 300 candidates decided within a few ulps of the threshold,
        # behind the first block: the screening product must not decide them.
        rho = tessellation.rho_for_n(100_000, 1.2)
        candidates, threshold = near_threshold_candidates(rho, seed)
        assert len(candidates) > 1000
        assert (tessellation._greedy_packing(candidates, threshold).tobytes()
                == per_candidate_packing(candidates, threshold).tobytes())

    def test_assignment_in_row_blocks_matches_one_product(self):
        n = 3 * tessellation._ASSIGN_ROWS + 17
        dep, tess = experiment.prepare_instance(n, 5, 1.2)
        one_product = np.argmax(dep.nodes @ tess.centers.T, axis=1)
        assert tess.cell_of_node.tobytes() == one_product.astype(np.int64).tobytes()


class TestCoveringCertificate:
    """The farthest point from a set of centers, in closed form below four
    centers and from the spherical Voronoi diagram from four on."""

    @pytest.mark.parametrize("centers, point, angle", [
        ([[0, 0, 1.0]], [0, 0, -1.0], math.pi),
        ([[0, 0, 1.0], [math.sin(1.0), 0, math.cos(1.0)]],
         [-math.sin(0.5), 0, -math.cos(0.5)], math.pi - 0.5),
        ([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
         [-1 / math.sqrt(3)] * 3, math.acos(-1 / math.sqrt(3))),
    ])
    def test_fewer_than_four_centers(self, centers, point, angle):
        found, dist = tessellation._farthest_uncovered(np.array(centers))
        np.testing.assert_allclose(found[0], point, rtol=1e-12, atol=1e-12)
        assert dist[0] == pytest.approx(geometry.RADIUS * angle, rel=1e-12)
        assert np.all(np.diff(dist) <= 0)  # farthest first

    def test_antipodal_pair(self):
        # every point of the equator is a farthest point
        found, dist = tessellation._farthest_uncovered(np.array([[0, 0, 1.0], [0, 0, -1.0]]))
        assert abs(found[0, 2]) < 1e-12 and np.linalg.norm(found[0]) == pytest.approx(1.0)
        assert dist[0] == pytest.approx(geometry.RADIUS * math.pi / 2, rel=1e-12)

    def test_voronoi_error_stops_the_build(self, monkeypatch):
        import scipy.spatial

        def broken(*args, **kwargs):
            raise RuntimeError("voronoi failed")

        monkeypatch.setattr(scipy.spatial, "SphericalVoronoi", broken)
        dep = tessellation.deploy(300, 9)
        with pytest.raises(RuntimeError, match="voronoi failed"):
            tessellation.build_tessellation(dep, tessellation.rho_for_n(300, 1.2), 10)


class TestOccupancy:
    def test_single_cell_holds_everything(self):
        dep = tessellation.deploy(40, 8)
        tess = tessellation.build_tessellation(dep, SQRT_PI / 4, 9)
        if tess.num_cells == 1:
            assert tess.occupancy().min() == 40

    def test_empty_cell_flags_zero(self):
        # 30 nodes over many cells leaves some empty
        dep = tessellation.deploy(30, 11)
        rho = tessellation.rho_for_n(3000, 1.2)
        tess = tessellation.build_tessellation(dep, rho, 12)
        assert tess.occupancy().min() == 0

    def test_high_probability_floor(self):
        # pi*n*rho^2/4 holds in at least 95% of seeds at the paper scale
        n, hits, seeds = 5000, 0, 100
        rho = tessellation.rho_for_n(n, 100.0)
        floor = math.pi * n * rho**2 / 4
        for seed in range(seeds):
            dep = tessellation.deploy(n, seed)
            tess = tessellation.build_tessellation(dep, rho, 10_000 + seed)
            if tess.occupancy().min() >= floor:
                hits += 1
        assert hits >= 0.95 * seeds


class TestRelayTable:
    @pytest.mark.parametrize("n,n_scale,seed", [(30, 3000, 11), (250, 250, 1), (600, 600, 42)])
    def test_relay_is_the_node_nearest_the_center(self, n, n_scale, seed):
        # the 30-node instance spreads its nodes over far more cells than it fills
        dep = tessellation.deploy(n, seed)
        rho = tessellation.rho_for_n(n_scale, 1.2)
        tess = tessellation.build_tessellation(dep, rho, seed + 1)
        relay = tess.relay_of_cell
        assert relay.shape == (tess.num_cells,)
        for c in range(tess.num_cells):
            ids = np.flatnonzero(tess.cell_of_node == c)
            if len(ids) == 0:
                assert relay[c] == -1
            else:
                d = [geometry.surface_distance(dep.nodes[i], tess.centers[c]) for i in ids]
                assert relay[c] == ids[int(np.argmin(d))]
        assert np.any(relay < 0) == (tess.occupancy().min() == 0)
        assert not relay.flags.writeable
        with pytest.raises(ValueError):
            relay[0] = 0

    @pytest.mark.parametrize("n,cells", [(250, 19), (250, 600), (4000, 219), (32000, 1404)])
    def test_relays_equal_the_per_cell_scan(self, n, cells):
        # The relay table slices one stable sort of the nodes by cell; the
        # reference scans every node once per cell.  Both take each cell's
        # nodes in ascending id, so the products and the relays are the same.
        rng = np.random.default_rng(n + cells)
        nodes, centers = geometry.random_point(rng, n), geometry.random_point(rng, cells)
        cell_of_node = np.argmax(nodes @ centers.T, axis=1)
        expected = np.full(cells, -1, dtype=np.int64)
        for c in range(cells):
            ids = np.flatnonzero(cell_of_node == c)
            if len(ids):
                expected[c] = ids[np.argmax(nodes[ids] @ centers[c])]
        assert np.any(expected < 0) == (cells > n)
        relays = tessellation.all_cell_relays(centers, cell_of_node, nodes)
        assert relays.tobytes() == expected.tobytes()
