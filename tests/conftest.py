import numpy as np
import pytest

from adhocsim import routing, scheduling, tessellation

DESK_AREA_CONSTANT = 1.2


@pytest.fixture(scope="session")
def small_instance():
    """600-node network with tessellation, fixed schedule and all routes."""
    n = 600
    rho = tessellation.rho_for_n(n, DESK_AREA_CONSTANT)
    dep = tessellation.deploy(n, 42)
    tess = tessellation.build_tessellation(dep, rho, 43)
    sched = scheduling.build_schedule(tess, 12.0)
    conns = routing.pick_connections(dep, 45)
    paths = routing.cell_paths(conns, dep, tess)
    chains, hops = routing.relay_chains(conns, paths, dep, tess)
    routes = [routing.build_route(*a, tess.rho_n) for a in zip(conns, paths, chains, hops)]
    return dep, tess, sched, conns, routes


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
