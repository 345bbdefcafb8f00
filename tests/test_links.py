import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adhocsim import geometry, links
from adhocsim.errors import ConfigurationError


def place_at_distances(distances):
    """Points along a meridian at the given surface distances from the pole."""
    pole = np.array([0.0, 0.0, 1.0])
    out = [pole]
    for d in distances:
        theta = d / geometry.RADIUS
        out.append(np.array([math.sin(theta), 0.0, math.cos(theta)]))
    return out


def one_link(rx, tx, interferers, radio):
    """The kernel for one receiver whose own transmitter is column 0 of its
    gain row."""
    signal = radio.tx_power * links.path_gain(geometry.surface_distance(tx, rx), radio.alpha)
    gain = links.pair_gain([rx], [tx, *interferers], radio.alpha)[0]
    return links.sinr([signal], gain, radio, own=[0])[0]


class TestSinr:
    def test_no_interferers_is_signal_over_noise(self):
        radio = links.RadioParams(tx_power=2.0, noise=1e-6, alpha=3.0)
        rx, tx = place_at_distances([0.1])
        gamma = one_link(rx, tx, [], radio)
        assert gamma == pytest.approx(2.0 * 0.1**-3.0 / 1e-6, rel=1e-9)
        gain = links.pair_gain([rx], [tx], radio.alpha)[0]
        alone = links.sinr([2.0 * 0.1**-3.0], gain, radio, own=[0])
        assert alone[0] == pytest.approx(gamma, rel=1e-15)

    @given(st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_lone_transmitter_is_signal_over_noise_bit_for_bit(self, signal, noise):
        # one column, the receiver's own: nothing is summed
        radio = links.RadioParams(tx_power=2.0, noise=noise)
        rx, tx = place_at_distances([0.1])
        gain = links.pair_gain([rx], [tx], radio.alpha)[0]
        with np.errstate(divide="ignore", over="ignore"):
            gamma = links.sinr([signal], gain, radio, own=[0])
            assert gamma.tolist() == (np.array([signal]) / noise).tolist()

    def test_symmetric_interferer_gives_one(self):
        radio = links.RadioParams(noise=0.0, alpha=3.0)
        rx, tx, intf = place_at_distances([0.2, -0.2])
        assert one_link(rx, tx, [intf], radio) == pytest.approx(1.0, rel=1e-9)

    def test_bounded_sinr_geometry(self):
        # signal from t0*rho away, single interferer at (m0+8)*rho, zero noise:
        # the ratio is exactly ((m0+8)/t0)**alpha
        radio = links.RadioParams(noise=0.0, alpha=3.0)
        rho, t0, m0 = 1e-5, 0.05, 64.0
        rx, tx, intf = place_at_distances([t0 * rho, (m0 + 8) * rho])
        expected = ((m0 + 8) / t0) ** radio.alpha
        assert one_link(rx, tx, [intf], radio) == pytest.approx(expected, rel=1e-6)

    def test_monotone_in_interferers(self, rng):
        radio = links.RadioParams()
        pts = geometry.random_point(rng, 8)
        rx, tx, rest = pts[0], pts[1], list(pts[2:])
        vals = [one_link(rx, tx, rest[:k], radio) for k in range(len(rest) + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_power_scale_invariance_when_interference_limited(self, rng):
        pts = geometry.random_point(rng, 4)
        lo = one_link(pts[0], pts[1], pts[2:], links.RadioParams(tx_power=1.0, noise=0.0))
        hi = one_link(pts[0], pts[1], pts[2:], links.RadioParams(tx_power=7.5, noise=0.0))
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_radio_param_validation(self):
        with pytest.raises(ConfigurationError):
            links.RadioParams(alpha=2.0)
        with pytest.raises(ConfigurationError):
            links.RadioParams(tx_power=0.0)
        for bad in ({"alpha": math.nan}, {"alpha": math.inf}, {"tx_power": math.inf},
                    {"tx_power": math.nan}, {"noise": math.nan}, {"noise": math.inf}):
            with pytest.raises(ConfigurationError):
                links.RadioParams(**bad)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_direct_sums(self, seed, m, k):
        radio = links.RadioParams(tx_power=1.5, noise=1e-9, alpha=3.5)
        rng = np.random.default_rng(seed)
        rx = geometry.random_point(rng, m)
        itf = geometry.random_point(rng, k)
        signal = rng.uniform(1.0, 1e6, m)
        own = rng.integers(k, size=m)
        counted = [[j for j in range(k) if j != own[i]] for i in range(m)]
        # arccos is accurate only away from the receiver
        assume(all(
            np.all(geometry.central_angle(itf[c], rx[i]) >= 0.05)
            for i, c in enumerate(counted)
        ))
        gamma = links.sinr(signal, links.pair_gain(rx, itf, radio.alpha)[0], radio, own=own)
        for i, c in enumerate(counted):
            d = geometry.surface_distance(itf[c], rx[i])
            interference = radio.tx_power * np.sum(d ** -radio.alpha)
            assert gamma[i] == pytest.approx(signal[i] / (radio.noise + interference), rel=1e-12)


class TestSuccessModels:
    def test_threshold_edges(self):
        model = links.ThresholdModel(beta=10.0)
        assert model.success(10.0) == 1.0
        assert model.success(9.999) == 0.0

    def test_constant_p(self):
        model = links.ConstantPModel(p=0.9)
        for g in (0.0, 1.0, 1e9):
            assert model.success(g) == 0.9

    def test_bpsk_tail(self):
        # 0.5*erfc(sqrt(25)) ~ 7.7e-13, so a one-bit packet is sure by gamma=25
        model = links.BpskPacketModel(bits=1)
        assert model.success(25.0) == pytest.approx(1.0, abs=1e-6)
        assert model.success(25.0) == pytest.approx(
            1.0 - 0.5 * math.erfc(5.0), abs=1e-15
        )

    def test_logistic_midpoint(self):
        model = links.LogisticModel(a=1.0, midpoint_db=10.0)
        assert model.success(10.0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("params", [{"a": math.inf}, {"a": math.nan}, {"a": 0.0},
                                        {"midpoint_db": math.nan}, {"midpoint_db": -math.inf}])
    def test_logistic_rejects_a_bad_slope_or_midpoint(self, params):
        with pytest.raises(ConfigurationError):
            links.LogisticModel(**params)

    @pytest.mark.parametrize(
        "model",
        [
            links.ThresholdModel(12.0),
            links.ConstantPModel(0.7),
            links.BpskPacketModel(64),
            links.LogisticModel(0.8, 12.0),
        ],
    )
    def test_nondecreasing_on_grid(self, model):
        gammas = np.concatenate([[0.0], np.logspace(-3, 6, 400)])
        vals = [model.success(g) for g in gammas]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    @pytest.mark.parametrize("model", [links.BpskPacketModel(64), links.LogisticModel()])
    def test_continuous_models_modulus(self, model):
        # |phi(g+h) - phi(g)| shrinks with h on a dense grid
        gammas = np.logspace(-2, 4, 200)
        for h in (1e-3, 1e-6):
            diffs = [
                abs(model.success(g + h) - model.success(g)) for g in gammas
            ]
            assert max(diffs) < 10 * h + 1e-9

    def test_continuous_models_approach_one(self):
        for model in (links.BpskPacketModel(256), links.LogisticModel()):
            assert model.success(1e9) > 1 - 1e-6

    def test_factory(self):
        model = links.make_link_model("logistic", a=0.5, midpoint_db=20.0)
        assert isinstance(model, links.LogisticModel)
        with pytest.raises(ConfigurationError):
            links.make_link_model("nope")


class TestRetries:
    def test_constant_half_two_attempts(self):
        assert links.hop_success_with_retries(0.5, 2) == pytest.approx(0.75)

    def test_single_attempt_reduces_to_phi(self):
        model = links.LogisticModel()
        g = 12.0
        assert links.hop_success_with_retries(model.success(g), 1) == model.success(g)

    def test_expansion_oracle(self):
        # 1 - (1 - 0.9)^3 expanded directly
        expected = 0.9 + 0.1 * 0.9 + 0.01 * 0.9
        assert links.hop_success_with_retries(0.9, 3) == pytest.approx(expected)
        assert expected == pytest.approx(0.999)

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            links.hop_success_with_retries(0.5, 0)

    @given(st.integers(min_value=1, max_value=6), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_budget(self, attempts, p):
        a = links.hop_success_with_retries(p, attempts)
        b = links.hop_success_with_retries(p, attempts + 1)
        assert b >= a
