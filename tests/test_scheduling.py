import math

import numpy as np
import pytest

from adhocsim import geometry, scheduling, tessellation
from adhocsim.errors import ConfigurationError


def synthetic_tessellation(centers, rho):
    """Tessellation stub with hand-placed centers (tests only)."""
    centers = np.asarray(centers, dtype=float)
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    neighbors = tessellation._adjacency(centers, rho)
    return tessellation.Tessellation(
        centers=centers,
        rho_n=rho,
        cell_of_node=np.zeros(0, dtype=np.int64),
        neighbors=neighbors,
        nodes_in_cell=[np.empty(0, dtype=np.int64) for _ in centers],
    )


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
        _, tess, _, _, _ = small_instance
        with pytest.raises(ConfigurationError):
            scheduling.build_schedule(tess, 3.9)

    def test_proper_and_separated(self, small_instance):
        _, tess, sched, _, _ = small_instance
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
            color_of_cell=np.zeros(2, dtype=np.int64),
            num_colors=1,
            conflict_multiplier=4.0,
            regime="fixed",
            cells_by_color=[np.array([0, 1])],
        )
        with pytest.raises(AssertionError, match="adjacent"):
            scheduling.assert_proper(shared, tess)
        assert scheduling.build_schedule(tess, 4.0).num_colors == 2

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
        _, tess, sched, _, _ = small_instance
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
        _, tess, _, _, _ = small_instance
        with pytest.raises(ConfigurationError):
            scheduling.build_conservative_schedule(tess, 600, "constant")

    def test_conservative_regime_recorded(self, small_instance):
        _, tess, _, _, _ = small_instance
        sched = scheduling.build_conservative_schedule(tess, 600, "log")
        assert sched.regime == "conservative:log"
        assert sched.conflict_multiplier == pytest.approx(12.0 * math.log(600))
        scheduling.assert_proper(sched, tess)

    def test_longer_schedule_than_fixed(self, small_instance):
        _, tess, sched, _, _ = small_instance
        cons = scheduling.build_conservative_schedule(tess, 600, "log")
        assert cons.num_colors >= sched.num_colors


class TestExport:
    def test_save(self, tmp_path, small_instance):
        _, _, sched, _, _ = small_instance
        path = tmp_path / "sched.txt"
        scheduling.save_schedule(sched, path)
        text = path.read_text()
        assert f"colors {sched.num_colors}" in text
        assert text.count("\ns ") == len(sched.color_of_cell)
