"""Node deployment and the certified Voronoi tessellation.

Cell centers are a maximal packing at pairwise distance ``2*rho_n``, so
every center keeps an exclusive in-disk of radius ``rho_n`` while
maximality keeps the covering radius at ``2*rho_n``.  Both inequalities
are asserted on every build, which is the uniform-cell-size certificate
the routing and scheduling layers rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import ConfigurationError

_MAX_AREA = 0.5  # keeps rho_n <= sqrt(pi)/4 so the cap-area sandwich applies
_PACK_BLOCK = 128  # packing candidates screened by one product
_PACK_MARGIN = 1e-12  # a screened candidate this far above the threshold is rejected
_ASSIGN_ROWS = 2048  # nodes assigned to their nearest center per product


@dataclass(frozen=True)
class Deployment:
    """``n`` uniform nodes on the sphere, reproducible from the seed."""

    seed: int
    nodes: np.ndarray  # (n, 3) unit vectors

    @property
    def n(self) -> int:
        return len(self.nodes)


def deploy(n: int, seed: int) -> Deployment:
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got {n}")
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    return Deployment(seed=int(seed), nodes=geometry.random_point(rng, n))


def min_valid_n(area_constant: float) -> int:
    """Smallest node count with ``area_constant*ln(n)/n <= 0.5``."""
    if area_constant * math.exp(-1.0) <= _MAX_AREA:  # peak of ln(n)/n is 1/e
        return 2
    lo, hi = 3, 4
    while area_constant * math.log(hi) / hi > _MAX_AREA:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if area_constant * math.log(mid) / mid > _MAX_AREA:
            lo = mid
        else:
            hi = mid
    return hi


def rho_for_n(n, area_constant: float) -> float:
    """Cell scale: radius of a cap of area ``area_constant*ln(n)/n``."""
    if n < 2:
        raise ConfigurationError("n must be at least 2")
    area = area_constant * math.log(n) / n
    if area > _MAX_AREA:
        raise ConfigurationError(
            f"area_constant*ln(n)/n = {area:.4f} exceeds {_MAX_AREA}; "
            f"with area_constant={area_constant} the minimum usable n is "
            f"{min_valid_n(area_constant)}"
        )
    return geometry.rho_for_area(area)


@dataclass
class Tessellation:
    """Voronoi cells of a maximal ``2*rho_n`` center packing."""

    centers: np.ndarray  # (m, 3) unit vectors
    rho_n: float
    cell_of_node: np.ndarray  # (n,) cell index per node
    relay_of_cell: np.ndarray = field(repr=False)  # (m,) node nearest each center, -1 if empty
    gap_ratio: float  # closest center pair / (2*rho_n), >= 1 (inf for one cell)
    cover_ratio: float  # covering radius / (2*rho_n), <= 1
    adjacency_radius: float = field(init=False)  # neighbors' centers are within it
    neighbors: list[np.ndarray] = field(init=False, repr=False)  # symmetric, irreflexive

    def __post_init__(self):
        self.adjacency_radius = 4.0 * self.rho_n * (1.0 + 1e-9)  # 4*rho_n, tiny float slack
        self.neighbors = centers_within(self.centers, self.adjacency_radius)

    @property
    def num_cells(self) -> int:
        return len(self.centers)

    def occupancy(self) -> np.ndarray:
        return np.bincount(self.cell_of_node, minlength=self.num_cells)


def _greedy_packing(candidates: np.ndarray, cos_threshold: float) -> np.ndarray:
    """The candidates, in order, whose cosine to every one accepted before
    them is at most ``cos_threshold``.  One product per block of
    ``_PACK_BLOCK`` rejects those more than ``_PACK_MARGIN`` above it against
    earlier blocks, far beyond rounding; the rest take the per-candidate
    test, so the accepted set is the one that test alone gives."""
    accepted = np.empty_like(candidates)
    count = 0
    for start in range(0, len(candidates), _PACK_BLOCK):
        block = candidates[start:start + _PACK_BLOCK]
        if count:
            block = block[np.max(block @ accepted[:count].T, axis=1)
                          <= cos_threshold + _PACK_MARGIN]
        for cand in block:
            if count == 0 or np.max(accepted[:count] @ cand) <= cos_threshold:
                accepted[count] = cand
                count += 1
    return accepted[:count]


def _farthest_uncovered(centers: np.ndarray):
    """Candidate farthest points, farthest first, and their distances to the
    nearest center; the first is the point farthest from every center.

    The maximum sits where the distances to the nearest centers balance.  For
    four or more centers that is a vertex of the spherical Voronoi diagram.
    For fewer it is one of a few closed-form points: a center's antipode, the
    far midpoint of a pair (any point of the great circle between an exactly
    antipodal pair), or a pole of the plane through three centers.
    """
    if len(centers) >= 4:
        from scipy.spatial import SphericalVoronoi

        candidates = SphericalVoronoi(centers, radius=1.0).vertices
    else:
        candidates = list(-centers)
        for a, b in itertools.combinations(centers, 2):
            mid = a + b
            if np.linalg.norm(mid) < 1e-12:  # antipodal pair
                mid = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
            candidates.append(-mid)
        if len(centers) == 3:
            normal = np.cross(centers[1] - centers[0], centers[2] - centers[0])
            candidates += [normal, -normal]
        candidates = np.array(candidates)
    candidates = candidates / np.linalg.norm(candidates, axis=1)[:, None]
    cos_nearest = np.max(candidates @ centers.T, axis=1)
    order = np.argsort(cos_nearest, kind="stable")
    angles = np.arccos(np.clip(cos_nearest[order], -1.0, 1.0))
    return candidates[order], geometry.RADIUS * angles


def build_tessellation(dep: Deployment, rho_n: float, seed: int) -> Tessellation:
    """Build the certified tessellation for one deployment.

    One greedy pass packs ``10/cap_area(rho_n)`` random candidates at
    pairwise distance ``2*rho_n``.  Completion then adds, in batches, the
    spherical Voronoi vertices still farther than ``2*rho_n`` from every
    center, packed greedily farthest first, until none is left: the packing
    is kept and the covering radius is certifiably ``<= 2*rho_n``.
    """
    if rho_n <= 0:
        raise ConfigurationError("rho_n must be positive")
    if 2.0 * rho_n > geometry.MAX_DISTANCE + 1e-12:
        raise ConfigurationError("rho_n too large: 2*rho_n exceeds the sphere diameter")

    cos_pack = math.cos(min(2.0 * rho_n / geometry.RADIUS, math.pi))
    limit = 2.0 * rho_n * (1.0 + 1e-12)
    rng = np.random.default_rng(seed)
    n_cand = math.ceil(10.0 / geometry.cap_area(rho_n))
    centers = _greedy_packing(geometry.random_point(rng, n_cand), cos_pack + 1e-15)
    points, dists = _farthest_uncovered(centers)
    while dists[0] > limit:
        far = _greedy_packing(points[dists > limit], cos_pack + 1e-15)
        centers = np.vstack([centers, far])
        points, dists = _farthest_uncovered(centers)

    # Hard A1 certificate, not statistical: the loop above ends only once the
    # farthest point from every center is within 2*rho_n (covering); the
    # closest pair of centers is at least 2*rho_n apart (packing).
    gram = centers @ centers.T
    np.fill_diagonal(gram, -np.inf)
    i, j = np.unravel_index(np.argmax(gram), gram.shape)
    if len(centers) > 1 and gram[i, j] > cos_pack + 1e-12:
        raise AssertionError("packing violated: two centers closer than 2*rho_n")
    gap = geometry.surface_distance(centers[i], centers[j]) if len(centers) > 1 else math.inf
    # Each node's nearest center, _ASSIGN_ROWS nodes per product: memory stays bounded.
    cell_of_node = np.concatenate([np.argmax(dep.nodes[k:k + _ASSIGN_ROWS] @ centers.T, axis=1)
                                   for k in range(0, dep.n, _ASSIGN_ROWS)])

    return Tessellation(
        centers=centers,
        rho_n=float(rho_n),
        cell_of_node=cell_of_node,
        relay_of_cell=all_cell_relays(centers, cell_of_node, dep.nodes),
        gap_ratio=float(gap / (2.0 * rho_n)),
        cover_ratio=float(dists[0] / (2.0 * rho_n)),
    )


def all_cell_relays(
    centers: np.ndarray, cell_of_node: np.ndarray, nodes: np.ndarray
) -> np.ndarray:
    """Relay node per cell, the node nearest its center; -1 marks an empty
    cell.  The table is read-only."""
    relays = np.full(len(centers), -1, dtype=np.int64)
    order = np.argsort(cell_of_node, kind="stable")  # each cell's nodes in ascending id
    cells = np.split(order, np.searchsorted(cell_of_node[order], np.arange(1, len(centers))))
    for c, ids in enumerate(cells):
        if len(ids):
            relays[c] = ids[np.argmax(nodes[ids] @ centers[c])]
    relays.flags.writeable = False
    return relays


def centers_within(centers: np.ndarray, distance: float) -> list[np.ndarray]:
    """Per center, the other centers within surface ``distance`` (tiny float
    slack), in ascending index: the one proximity rule of cell adjacency,
    schedule conflicts and the properness check."""
    near = centers @ centers.T >= math.cos(min(distance / geometry.RADIUS, math.pi)) - 1e-15
    np.fill_diagonal(near, False)
    return [np.flatnonzero(row) for row in near]


def save_tessellation(tess: Tessellation, path) -> None:
    """Write centers, scale and node assignment as plain text."""
    with open(path, "w") as fh:
        fh.write("# adhocsim tessellation v1\n")
        fh.write(f"rho_n {tess.rho_n!r}\n")
        fh.write(f"cells {tess.num_cells}\n")
        fh.write(f"nodes {len(tess.cell_of_node)}\n")
        for i, c in enumerate(tess.centers):
            fh.write(f"c {i} {float(c[0])!r} {float(c[1])!r} {float(c[2])!r}\n")
        for i, cell in enumerate(tess.cell_of_node):
            fh.write(f"a {i} {cell}\n")

