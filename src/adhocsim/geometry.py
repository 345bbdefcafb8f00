"""Geometry on the sphere of unit surface area.

Locations are unit direction vectors (numpy arrays of shape ``(3,)`` or
``(..., 3)``).  The unit-area sphere has embedding radius
``1/(2*sqrt(pi))`` and every distance handled here is a great-circle
length measured along the surface, so an antipodal pair is ``sqrt(pi)/2``
apart.  A spherical cap of surface radius ``rho`` has area
``sin(sqrt(pi)*rho)**2``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GeometryError

RADIUS = 1.0 / (2.0 * math.sqrt(math.pi))
MAX_DISTANCE = math.pi * RADIUS  # antipodal separation, sqrt(pi)/2

_SQRT_PI = math.sqrt(math.pi)
_EPS = 1e-12


def central_angle(a, b):
    """Angle at the sphere center between directions ``a`` and ``b``.

    Uses atan2 of cross/dot, which stays accurate for nearly parallel and
    nearly antipodal pairs where arccos loses precision.  The cross product
    is written out because the overhead of ``np.cross`` is several times
    the arithmetic on a scalar call; the result is the same, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    c1 = a2 * b0 - a0 * b2
    c2 = a0 * b1 - a1 * b0
    return np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), np.sum(a * b, axis=-1))


def surface_distance(a, b):
    """Great-circle distance between two points on the unit-area sphere."""
    return RADIUS * central_angle(a, b)


def cap_area(rho):
    """Area of a spherical cap of surface radius ``rho``.

    Equals ``0.5 * (1 - cos(2*sqrt(pi)*rho)) == sin(sqrt(pi)*rho)**2``.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < -_EPS) or np.any(rho_arr > MAX_DISTANCE + _EPS):
        raise GeometryError(f"cap radius must lie in [0, {MAX_DISTANCE!r}]")
    area = np.sin(_SQRT_PI * np.clip(rho_arr, 0.0, MAX_DISTANCE)) ** 2
    return float(area) if np.isscalar(rho) or rho_arr.ndim == 0 else area


def rho_for_area(area):
    """Surface radius of the spherical cap with the given area fraction."""
    area_arr = np.asarray(area, dtype=float)
    if np.any(area_arr < -_EPS) or np.any(area_arr > 1.0 + _EPS):
        raise GeometryError("cap area must lie in [0, 1]")
    rho = np.arcsin(np.sqrt(np.clip(area_arr, 0.0, 1.0))) / _SQRT_PI
    return float(rho) if np.isscalar(area) or area_arr.ndim == 0 else rho


def random_point(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uniform points on the sphere via normalized Gaussian directions."""
    v = rng.standard_normal((int(size), 3))
    norms = np.linalg.norm(v, axis=1)
    # Resample the (measure-zero) degenerate draws.
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    v /= norms[:, None]
    return v


def distance_cdf(l):
    """CDF of the distance between two independent uniform points."""
    l_arr = np.asarray(l, dtype=float)
    if np.any(l_arr < -_EPS) or np.any(l_arr > MAX_DISTANCE + _EPS):
        raise GeometryError(f"distance must lie in [0, {MAX_DISTANCE!r}]")
    val = 0.5 * (1.0 - np.cos(2.0 * _SQRT_PI * np.clip(l_arr, 0.0, MAX_DISTANCE)))
    return float(val) if np.isscalar(l) or l_arr.ndim == 0 else val


def expected_delta_pow_L(delta: float) -> float:
    """Closed form of ``E[delta**L]`` for the uniform pair distance ``L``.

    Returns ``2*pi*(1 + delta**(sqrt(pi)/2)) / (4*pi + log(delta)**2)``.
    ``delta == 1`` is accepted and returns the limit value 1.
    """
    if delta == 1.0:
        return 1.0
    if not 0.0 < delta < 1.0:
        raise GeometryError("delta must lie in (0, 1]")
    log_d = math.log(delta)
    return 2.0 * math.pi * (1.0 + delta ** (_SQRT_PI / 2.0)) / (4.0 * math.pi + log_d**2)


def geodesic_arc(a, b, arclengths) -> np.ndarray:
    """Points along the minor great-circle arc from ``a`` to ``b``.

    ``arclengths`` are surface lengths measured from ``a``; each must lie in
    ``[0, surface_distance(a, b)]``.  Antipodal endpoints are rejected since
    the minor arc is then not unique.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta = float(central_angle(a, b))
    if theta > math.pi - 1e-9:
        raise GeometryError("antipodal endpoints: geodesic is ambiguous")
    d = RADIUS * theta
    s = np.asarray(arclengths, dtype=float)
    if np.any(s < -_EPS) or np.any(s > d + _EPS):
        raise GeometryError("arclength outside [0, distance(a, b)]")
    if theta < 1e-15:
        return np.tile(a, (len(s), 1))
    phi = np.clip(s, 0.0, d) / RADIUS
    sin_theta = math.sin(theta)
    pts = (
        np.sin(theta - phi)[:, None] * a[None, :] + np.sin(phi)[:, None] * b[None, :]
    ) / sin_theta
    # Renormalize to keep the unit-norm invariant against rounding.
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts
