"""Staleness discount math and the reproducible heterogeneity/fault model."""

import numpy as np
import pytest

from repro.scheduler.heterogeneity import HeterogeneityModel
from repro.scheduler.staleness import (
    build_staleness,
    constant_discount,
    hinge_discount,
    polynomial_discount,
)


# ---------------------------------------------------------------- staleness
def test_constant_discount_ignores_staleness():
    fn = constant_discount()
    assert fn(0) == fn(3) == fn(1000) == 1.0


def test_polynomial_discount_matches_fedasync_formula():
    fn = polynomial_discount(exponent=0.5)
    for tau in (0, 1, 4, 9):
        assert fn(tau) == pytest.approx((1 + tau) ** -0.5)
    assert fn(0) == 1.0


def test_polynomial_discount_monotone_decreasing():
    fn = polynomial_discount(exponent=1.0)
    values = [fn(t) for t in range(10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hinge_discount_flat_then_decays():
    fn = hinge_discount(threshold=4, slope=0.5)
    assert fn(0) == fn(4) == 1.0
    assert fn(6) == pytest.approx(1.0 / (1.0 + 0.5 * 2))
    assert fn(10) < fn(6)


def test_negative_staleness_clamped():
    assert polynomial_discount(0.5)(-3) == 1.0
    assert hinge_discount()(-1) == 1.0


def test_build_staleness_resolves_names_and_callables():
    assert build_staleness("constant")(7) == 1.0
    assert build_staleness("polynomial", exponent=2.0)(1) == pytest.approx(0.25)
    assert build_staleness(None)(0) == 1.0
    custom = lambda tau: 0.5  # noqa: E731
    assert build_staleness(custom) is custom
    with pytest.raises(ValueError):
        build_staleness("no_such_discount")


# ------------------------------------------------------------ heterogeneity
def test_latency_reproducible_across_instances():
    a = HeterogeneityModel(latency="lognormal", mean=1.0, sigma=0.7, seed=11)
    b = HeterogeneityModel(latency="lognormal", mean=1.0, sigma=0.7, seed=11)
    for client in range(5):
        for k in range(5):
            assert a.sample(client, k) == b.sample(client, k)


def test_latency_independent_of_interleaving():
    """Draws are keyed by (client, dispatch#): asking out of order must give
    the same answers — the property that makes async runs repeatable."""
    m = HeterogeneityModel(latency="lognormal", mean=2.0, sigma=0.5, dropout=0.3, seed=4)
    forward = [m.sample(c, k) for c in range(4) for k in range(4)]
    backward = [m.sample(c, k) for c in reversed(range(4)) for k in reversed(range(4))]
    assert forward == list(reversed(backward))


def test_uniform_latency_bounded():
    m = HeterogeneityModel(latency="uniform", low=0.5, high=2.0, seed=0)
    draws = [m.sample(c, k)[0] for c in range(10) for k in range(10)]
    assert all(0.5 <= d <= 2.0 for d in draws)


def test_constant_latency():
    m = HeterogeneityModel(latency="constant", mean=3.5, seed=0)
    assert m.sample(0, 0)[0] == 3.5
    assert m.sample(7, 3)[0] == 3.5


def test_lognormal_latency_positive_with_heavy_tail():
    m = HeterogeneityModel(latency="lognormal", mean=1.0, sigma=1.0, seed=0)
    draws = np.array([m.sample(c, k)[0] for c in range(20) for k in range(20)])
    assert (draws > 0).all()
    assert draws.max() / np.median(draws) > 3.0  # stragglers exist


def test_dropout_rate_roughly_matches():
    m = HeterogeneityModel(latency="constant", mean=1.0, dropout=0.25, seed=0)
    dropped = sum(m.sample(c, k)[1] for c in range(50) for k in range(40))
    assert 0.15 < dropped / 2000 < 0.35


def test_client_spread_is_persistent():
    m = HeterogeneityModel(latency="constant", mean=1.0, client_spread=0.8, seed=0)
    factors = {c: m.speed_factor(c) for c in range(8)}
    assert len({round(f, 9) for f in factors.values()}) > 1  # clients differ
    for c, f in factors.items():
        assert m.speed_factor(c) == f  # but each is stable
        assert m.sample(c, 0)[0] == pytest.approx(f)


@pytest.mark.parametrize("latency", ["lognormal", "uniform", "constant"])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("spread", [0.0, 0.5])
def test_sample_is_the_keyed_draw_written_out(latency, dropout, spread):
    """Every sample is a pure function of ``(seed, client, dispatch)``: the
    formula below, from fresh keyed generators.  The grid revisits every
    client, so per-client state kept between samples is checked too."""
    seed, mean, sigma, low, high = 7, 0.8, 0.6, 0.2, 1.5
    m = HeterogeneityModel(latency=latency, mean=mean, sigma=sigma, low=low, high=high,
                           dropout=dropout, client_spread=spread, seed=seed)
    for dispatch in range(6):
        for client in range(12):
            rng = np.random.default_rng((seed, client, dispatch, 0x1A7E27))
            if latency == "lognormal":
                delay = mean * float(np.exp(sigma * rng.standard_normal()))
            elif latency == "uniform":
                delay = float(rng.uniform(low, high))
            else:
                delay = mean
            if spread > 0:
                factor_rng = np.random.default_rng((seed, client, 0x5CA1E))
                delay *= float(np.exp(spread * factor_rng.standard_normal()))
            dropped = bool(dropout > 0 and rng.random() < dropout)
            assert m.sample(client, dispatch) == (delay, dropped)


def test_from_config_accepts_dict_model_none():
    m = HeterogeneityModel.from_config({"latency": "uniform", "low": 1, "high": 2}, seed=3)
    assert m.latency == "uniform" and m.seed == 3
    same = HeterogeneityModel.from_config(m, seed=99)
    assert same is m
    null = HeterogeneityModel.from_config(None, seed=0)
    assert null.sample(0, 0) == (1.0, False)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        HeterogeneityModel(latency="pareto")
    with pytest.raises(ValueError):
        HeterogeneityModel(mean=0.0)
    with pytest.raises(ValueError):
        HeterogeneityModel(dropout=1.0)
