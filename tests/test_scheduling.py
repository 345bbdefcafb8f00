import math

import numpy as np
import pytest

from adhocsim import experiment, geometry, scheduling, tessellation
from adhocsim.errors import ConfigurationError


def synthetic_tessellation(centers, rho, normalize=True):
    """Tessellation stub with hand-placed centers (tests only)."""
    centers = np.asarray(centers, dtype=float)
    if normalize:
        centers /= np.linalg.norm(centers, axis=1)[:, None]
    return tessellation.Tessellation(
        centers=centers,
        rho_n=rho,
        cell_of_node=np.zeros(0, dtype=np.int64),
        relay_of_cell=np.full(len(centers), -1, dtype=np.int64),
        gap_ratio=math.nan,
        cover_ratio=math.nan,
    )


def reference_greedy_coloring(conflicts):
    """Largest degree first, on numpy colors: the reference for
    ``scheduling._greedy_coloring``."""
    m = len(conflicts)
    order = sorted(range(m), key=lambda c: (-len(conflicts[c]), c))
    colors = np.full(m, -1, dtype=np.int64)
    for c in order:
        used = {colors[d] for d in conflicts[c] if colors[d] >= 0}
        color = 0
        while color in used:
            color += 1
        colors[c] = color
    return colors


def reference_rebalance(colors, conflicts):
    """Singleton classes filled from the largest, on numpy colors: the
    reference for ``scheduling._rebalance_classes``."""
    colors = colors.copy()
    num_colors = int(colors.max()) + 1
    members = [list(np.flatnonzero(colors == k)) for k in range(num_colors)]
    for _ in range(num_colors):
        singles = [k for k in range(num_colors) if len(members[k]) == 1]
        if not singles:
            break
        moved = False
        for k in singles:
            target = members[k][0]
            donors = sorted(
                (c for c in range(len(colors)) if len(members[colors[c]]) >= 3),
                key=lambda c: (-len(members[colors[c]]), c),
            )
            for c in donors:
                if c not in conflicts[target]:
                    members[colors[c]].remove(c)
                    colors[c] = k
                    members[k].append(c)
                    moved = True
                    break
        if not moved:
            break
    return colors


@pytest.mark.parametrize("n, seed", [(250, 0), (250, 3), (1000, 1), (4000, 2), (16000, 4)])
def test_coloring_matches_the_reference(n, seed):
    dep, tess = experiment.prepare_instance(n, seed, 1.2)
    for sched in (scheduling.build_schedule(tess, 12.0),
                  scheduling.build_conservative_schedule(tess, "sqrt_log"),
                  scheduling.build_conservative_schedule(tess, "log")):
        conflicts = scheduling._conflict_sets(tess, sched.conflict_multiplier)
        expected = reference_rebalance(reference_greedy_coloring(conflicts), conflicts)
        assert sched.color_of_cell.tobytes() == expected.tobytes(), sched.regime


def reference_adjacency(centers, rho_n):
    """Centers within ``4*rho_n*(1+1e-9)``, one dense product: the reference
    for ``tess.neighbors``."""
    theta_adj = min(4.0 * rho_n * (1.0 + 1e-9) / geometry.RADIUS, math.pi)
    adj_matrix = centers @ centers.T >= math.cos(theta_adj) - 1e-15
    np.fill_diagonal(adj_matrix, False)
    return [np.flatnonzero(row) for row in adj_matrix]


def reference_conflict_sets(tess, delta):
    """Centers within ``delta*rho_n``, each cell's reference adjacency OR-ed
    in: the reference for ``scheduling._conflict_sets``."""
    theta = min(delta * tess.rho_n / geometry.RADIUS, math.pi)
    conflict = tess.centers @ tess.centers.T >= math.cos(theta) - 1e-15
    for c, nbrs in enumerate(reference_adjacency(tess.centers, tess.rho_n)):
        conflict[c, nbrs] = True
    np.fill_diagonal(conflict, False)
    return [set(np.flatnonzero(row).tolist()) for row in conflict]


def assert_proximity_matches_the_references(tess, deltas):
    expected = reference_adjacency(tess.centers, tess.rho_n)
    assert [row.tolist() for row in tess.neighbors] == [row.tolist() for row in expected]
    for delta in deltas:
        assert scheduling._conflict_sets(tess, delta) == reference_conflict_sets(tess, delta)


def desk_deltas(n):
    """Both ends of the fixed regime and the conservative ``log`` growth; at
    ``MIN_CONFLICT_MULTIPLIER`` the adjacency radius is the larger."""
    return (scheduling.MIN_CONFLICT_MULTIPLIER, scheduling.DEFAULT_CONFLICT_MULTIPLIER,
            scheduling.DEFAULT_CONFLICT_MULTIPLIER * scheduling.growth_value("log", n))


@pytest.mark.parametrize("n, seed", [(250, 0), (1000, 1), (4000, 2), (16000, 4)])
def test_proximity_matches_the_dense_references(n, seed):
    _, tess = experiment.prepare_instance(n, seed, 1.2)
    assert_proximity_matches_the_references(tess, desk_deltas(n))


@pytest.mark.parametrize("delta", desk_deltas(4000), ids=["min", "default", "log"])
def test_proximity_matches_the_dense_references_at_near_ties(delta):
    # Ring centers whose cosine to the pole is a few ulps either side of each
    # threshold cosine (adjacency and delta*rho); the pole's products with
    # them are those cosines exactly.
    rho = 0.005
    cosines = []
    for radius in (4.0 * rho * (1.0 + 1e-9), delta * rho):
        t = math.cos(min(radius / geometry.RADIUS, math.pi)) - 1e-15
        cosines += [t + k * np.spacing(t) for k in range(-3, 4)]
    azimuth = np.linspace(0.0, 2.0 * math.pi, len(cosines), endpoint=False)
    z = np.array(cosines)
    ring = np.column_stack([np.sqrt(1.0 - z**2) * np.cos(azimuth),
                            np.sqrt(1.0 - z**2) * np.sin(azimuth), z])
    tess = synthetic_tessellation(np.vstack([[0.0, 0.0, 1.0], ring]), rho, normalize=False)
    assert (tess.centers @ tess.centers.T)[0, 1:].tolist() == cosines
    assert 0 < len(tess.neighbors[0]) < len(cosines)
    assert_proximity_matches_the_references(tess, [delta])


class TestBuildSchedule:
    def test_single_cell_gets_one_color(self):
        tess = synthetic_tessellation([[0, 0, 1.0]], 0.4)
        sched = scheduling.build_schedule(tess, 12.0)
        assert sched.num_colors == 1

    def test_two_conflicting_cells_two_colors(self):
        rho = 0.02
        theta = 2 * rho / geometry.RADIUS  # centers exactly 2*rho apart
        tess = synthetic_tessellation(
            [[0, 0, 1.0], [math.sin(theta), 0, math.cos(theta)]], rho
        )
        sched = scheduling.build_schedule(tess, 12.0)
        assert sched.num_colors == 2

    def test_rejects_small_multiplier(self, small_instance):
        _, tess, _, _, _, _ = small_instance
        with pytest.raises(ConfigurationError):
            scheduling.build_schedule(tess, 3.9)

    def test_proper_and_separated(self, small_instance):
        _, tess, sched, _, _, _ = small_instance
        scheduling.assert_proper(sched, tess)
        # same-color cells are strictly farther than delta*rho apart
        for cells in sched.cells_by_color:
            if len(cells) < 2:
                continue
            pts = tess.centers[cells]
            gram = pts @ pts.T
            np.fill_diagonal(gram, -1.0)
            theta = math.acos(min(max(gram.max(), -1.0), 1.0))
            assert geometry.RADIUS * theta > sched.conflict_multiplier * tess.rho_n * (
                1 - 1e-9
            )

    def test_adjacent_cells_never_share_a_color(self):
        # centers just beyond 4*rho: adjacent (within 4*rho*(1+1e-9)), but
        # not in conflict at delta = 4
        rho = 0.02
        theta = 4 * rho * (1 + 5e-10) / geometry.RADIUS
        tess = synthetic_tessellation(
            [[0, 0, 1.0], [math.sin(theta), 0, math.cos(theta)]], rho
        )
        assert list(tess.neighbors[0]) == [1]
        shared = scheduling.Schedule(
            color_of_cell=np.zeros(2, dtype=np.int64), conflict_multiplier=4.0, regime="fixed"
        )
        with pytest.raises(AssertionError, match="adjacent"):
            scheduling.assert_proper(shared, tess)
        assert scheduling.build_schedule(tess, 4.0).num_colors == 2

    def test_conflicting_cells_never_share_a_color(self):
        # centers 6*rho apart: beyond adjacency (4*rho*(1+1e-9)), within the
        # conflict radius delta*rho = 12*rho
        rho = 0.02
        theta = 6 * rho / geometry.RADIUS
        tess = synthetic_tessellation(
            [[0, 0, 1.0], [math.sin(theta), 0, math.cos(theta)]], rho
        )
        assert [len(row) for row in tess.neighbors] == [0, 0]

        def schedule(colors):
            return scheduling.Schedule(color_of_cell=np.array(colors, dtype=np.int64),
                                       conflict_multiplier=12.0, regime="fixed")

        with pytest.raises(AssertionError, match="conflicting cells share a color"):
            scheduling.assert_proper(schedule([0, 0]), tess)
        scheduling.assert_proper(schedule([0, 1]), tess)
        assert scheduling.build_schedule(tess, 12.0).color_of_cell.tolist() == [0, 1]

    def test_no_singleton_classes_when_avoidable(self):
        # At this scale the conflict graph is sparse enough that rebalancing
        # removes every singleton color class.
        n = 2000
        rho = tessellation.rho_for_n(n, 1.2)
        dep = tessellation.deploy(n, 42)
        tess = tessellation.build_tessellation(dep, rho, 43)
        sched = scheduling.build_schedule(tess, 12.0)
        sizes = np.array([len(c) for c in sched.cells_by_color])
        assert sizes.min() >= 2


class TestColorClasses:
    def test_lone_color_holds_the_only_cell(self):
        tess = synthetic_tessellation([[0, 0, 1.0]], 0.4)
        sched = scheduling.build_schedule(tess, 12.0)
        assert [cells.tolist() for cells in sched.cells_by_color] == [[0]]
        assert sched.color_of_cell.tolist() == [0]

    def test_each_cell_in_exactly_its_color_class(self, small_instance):
        _, tess, sched, _, _, _ = small_instance
        assert len(sched.cells_by_color) == sched.num_colors
        seen = {}
        for color, cells in enumerate(sched.cells_by_color):
            assert cells.tolist() == sorted(cells.tolist())
            for c in cells.tolist():
                assert c not in seen
                seen[c] = color
        assert seen == dict(enumerate(sched.color_of_cell.tolist()))
        assert len(seen) == tess.num_cells


class TestConservative:
    def test_growth_values(self):
        assert scheduling.growth_value("log", 100) == pytest.approx(math.log(100))
        assert scheduling.growth_value("sqrt_log", 100) == pytest.approx(
            math.sqrt(math.log(100))
        )
        assert scheduling.growth_value("pow:0.25", 16) == pytest.approx(2.0)

    def test_log_growth_doubles_multiplier(self):
        # n = e^2 versus n = e^4 doubles the conflict radius
        a = 12.0 * scheduling.growth_value("log", math.e**2)
        b = 12.0 * scheduling.growth_value("log", math.e**4)
        assert b == pytest.approx(2 * a)

    def test_unknown_growth_rejected(self, small_instance):
        _, tess, _, _, _, _ = small_instance
        with pytest.raises(ConfigurationError):
            scheduling.build_conservative_schedule(tess, "constant")

    def test_conservative_regime_recorded(self, small_instance):
        _, tess, _, _, _, _ = small_instance
        sched = scheduling.build_conservative_schedule(tess, "log")
        assert sched.regime == "conservative:log"
        assert sched.conflict_multiplier == pytest.approx(12.0 * math.log(600))
        scheduling.assert_proper(sched, tess)

    def test_longer_schedule_than_fixed(self, small_instance):
        _, tess, sched, _, _, _ = small_instance
        cons = scheduling.build_conservative_schedule(tess, "log")
        assert cons.num_colors >= sched.num_colors


class TestExport:
    def test_save(self, tmp_path, small_instance):
        _, _, sched, _, _, _ = small_instance
        path = tmp_path / "sched.txt"
        scheduling.save_schedule(sched, path)
        text = path.read_text()
        assert f"colors {sched.num_colors}" in text
        assert text.count("\ns ") == len(sched.color_of_cell)
