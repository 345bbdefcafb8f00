"""SINR computation and the SINR -> packet-success-probability maps.

The receiver sees signal power ``P * d**(-alpha)`` over great-circle
distance ``d``, and interference summed over every concurrently
transmitting node network-wide.  Success-probability models are
pure maps from SINR to ``[0, 1]``; the continuous variants are
nondecreasing and approach one as SINR grows, while ``threshold`` and
``constant_p`` are the two discontinuous baseline variants kept for
reference comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import geometry
from .errors import ConfigurationError


@dataclass(frozen=True)
class RadioParams:
    tx_power: float = 1.0
    noise: float = 1e-9
    alpha: float = 3.0

    def __post_init__(self):
        if self.tx_power <= 0:
            raise ConfigurationError("tx_power must be positive")
        if self.noise < 0:
            raise ConfigurationError("noise must be nonnegative")
        if self.alpha <= 2:
            raise ConfigurationError("path-loss exponent must exceed 2")


def path_gain(distance, alpha: float):
    """Propagation gain ``d**(-alpha)`` for surface distance ``d``."""
    return np.asarray(distance, dtype=float) ** (-alpha)


def pair_gain(receivers, transmitters, alpha: float):
    """Path gain from each transmitter (k, 3) to each receiver (m, 3), and
    their surface distances, both (m, k); a co-located pair's gain is inf.
    Distances are the arccos of elementwise dot products: accurate for pairs
    a proper schedule keeps cells apart and, unlike a BLAS matrix product,
    the same for a pair in any batch.  Signal links can be short and need
    atan2, so callers pass their powers."""
    receivers = np.asarray(receivers, dtype=float)
    transmitters = np.asarray(transmitters, dtype=float)
    cos = (receivers[:, None, :] * transmitters[None, :, :]).sum(axis=-1)
    dist = geometry.RADIUS * np.arccos(np.clip(cos, -1.0, 1.0))
    with np.errstate(divide="ignore"):
        return path_gain(dist, alpha), dist


def sinr(signal, receivers, interferers, radio: RadioParams, own):
    """Per-receiver SINR and nearest-interferer distance; the one SINR kernel.

    ``signal`` (m,) is each receiver's received signal power, ``receivers``
    (m, 3) and ``interferers`` (k, 3) are positions.  Receiver ``i`` sums
    interference (``pair_gain``, in interferer order) over every interferer
    except row ``own[i]``, its own transmitter; the sum is network-wide with
    no range truncation (a transmitting receiver hears infinite interference).
    Returns ``(gamma, nearest)``, where ``nearest`` is the surface distance of
    the closest counted interferer, inf when there is none.
    """
    signal = np.asarray(signal, dtype=float)
    if len(interferers) <= 1:  # nobody but the own transmitter
        return signal / radio.noise, np.full(len(signal), np.inf)
    gain, dist = pair_gain(receivers, interferers, radio.alpha)
    rows = np.arange(len(dist))
    gain[rows, own], dist[rows, own] = 0.0, np.inf
    return signal / (radio.noise + radio.tx_power * gain.sum(axis=-1)), dist.min(axis=-1)


@dataclass(frozen=True)
class ThresholdModel:
    """All-or-nothing reception at a fixed SINR threshold.

    Discontinuous by design: this is the idealized baseline in which a
    scheduled transmission either meets the threshold and always succeeds
    or always fails.
    """

    beta: float = 10.0
    continuous = False

    def success(self, gamma: float) -> float:
        return 1.0 if gamma >= self.beta else 0.0


@dataclass(frozen=True)
class ConstantPModel:
    """Every transmission succeeds with a fixed probability ``p``.

    The SINR-independent lossy baseline; discontinuous at infinity by
    design (it never approaches one).
    """

    p: float = 0.9
    continuous = False

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ConfigurationError("p must lie in (0, 1)")

    def success(self, gamma: float) -> float:
        return self.p


@dataclass(frozen=True)
class BpskPacketModel:
    """Packet success of ``bits`` independent BPSK symbols: ``(1 - erfc(sqrt(g))/2)**bits``."""

    bits: int = 256
    continuous = True

    def __post_init__(self):
        if self.bits < 1:
            raise ConfigurationError("bits must be at least 1")

    def success(self, gamma: float) -> float:
        if gamma <= 0.0:
            return 0.5**self.bits
        return (1.0 - 0.5 * math.erfc(math.sqrt(gamma))) ** self.bits


@dataclass(frozen=True)
class LogisticModel:
    """Logistic success curve in dB: ``1/(1 + exp(-a*(10*log10(g) - midpoint_db)))``."""

    a: float = 1.0
    midpoint_db: float = 10.0
    continuous = True

    def __post_init__(self):
        if self.a <= 0:
            raise ConfigurationError("slope a must be positive")

    def success(self, gamma: float) -> float:
        if gamma <= 0.0:
            return 0.0
        x = self.a * (10.0 * math.log10(gamma) - self.midpoint_db)
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)


LinkModel = Union[ThresholdModel, ConstantPModel, BpskPacketModel, LogisticModel]

_MODEL_NAMES = {
    "threshold": ThresholdModel,
    "constant_p": ConstantPModel,
    "bpsk_packet": BpskPacketModel,
    "logistic": LogisticModel,
}


def make_link_model(name: str, **params) -> LinkModel:
    """Build a link model from its config name and per-variant parameters."""
    try:
        cls = _MODEL_NAMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown link model {name!r}; expected one of {sorted(_MODEL_NAMES)}"
        ) from None
    if name == "bpsk_packet" and "bits" in params:
        if not float(params["bits"]).is_integer():
            raise ConfigurationError(f"bits must be a whole number, got {params['bits']!r}")
        params = {**params, "bits": int(params["bits"])}
    return cls(**params)


def filter_model_params(name: str, params: dict) -> dict:
    """Keep the parameters the chosen variant accepts.

    Config sections carry defaults for every variant; keys belonging to a
    different variant are dropped, keys unknown to all variants are an error.
    """
    import dataclasses

    if name not in _MODEL_NAMES:
        raise ConfigurationError(f"unknown link model {name!r}")
    all_fields = {
        f.name for cls in _MODEL_NAMES.values() for f in dataclasses.fields(cls)
    }
    own_fields = {f.name for f in dataclasses.fields(_MODEL_NAMES[name])}
    unknown = set(params) - all_fields
    if unknown:
        raise ConfigurationError(f"unknown link model parameters: {sorted(unknown)}")
    return {k: v for k, v in params.items() if k in own_fields}


def hop_success_with_retries(p: float, attempts: int) -> float:
    """Probability that a hop whose attempts each succeed with probability
    ``p`` succeeds within ``attempts`` tries: ``1 - (1-p)**attempts``."""
    if attempts < 1:
        raise ConfigurationError("attempt budget must be at least 1")
    return 1.0 - (1.0 - p) ** attempts
