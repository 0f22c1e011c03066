"""The FedAsync merge, ``_interpolate``: it allocates less than the expression
it was written as, and must still be that expression bit for bit."""

import numpy as np
import pytest

from repro.scheduler.policies import _interpolate


def _written_out(g, c, weight):
    return ((1.0 - weight) * g + weight * np.asarray(c)).astype(g.dtype)


@pytest.mark.parametrize("g_dtype, c_dtype", [
    (np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
])
@pytest.mark.parametrize("weight", [0.6, 0.6 * 0.5 ** 0.5, np.float64(0.3)])
def test_interpolate_is_the_written_out_formula(g_dtype, c_dtype, weight, rng):
    g = {"w": rng.standard_normal((5, 3)).astype(g_dtype), "b": rng.standard_normal(3).astype(g_dtype)}
    c = {k: rng.standard_normal(v.shape).astype(c_dtype) for k, v in g.items()}
    before = {k: v.copy() for k, v in {**g, **{"c" + k: v for k, v in c.items()}}.items()}
    out = _interpolate(g, c, weight)
    for key in g:
        want = _written_out(g[key], c[key], weight)
        # a numpy-scalar weight computes wider, but never widens the state
        assert out[key].dtype == g[key].dtype
        assert np.array_equal(out[key], want)
        assert not np.shares_memory(out[key], g[key]) and not np.shares_memory(out[key], c[key])
    after = {**g, **{"c" + k: v for k, v in c.items()}}
    assert all(np.array_equal(after[k], before[k]) for k in before)  # inputs untouched


def test_interpolate_adopts_integer_buffers_and_keeps_unmatched_keys():
    g = {"steps": np.asarray(3, dtype=np.int64), "w": np.ones(2, dtype=np.float32),
         "only_global": np.full(2, 7.0, dtype=np.float32)}
    c = {"steps": np.asarray(9, dtype=np.int64), "w": np.zeros(2, dtype=np.float32),
         "only_client": np.ones(1)}
    out = _interpolate(g, c, 0.25)
    assert set(out) == set(g)
    assert out["steps"] == 9 and out["steps"].dtype == np.int64
    assert out["steps"] is not c["steps"] and out["only_global"] is not g["only_global"]
    assert np.array_equal(out["only_global"], g["only_global"])
    assert np.array_equal(out["w"], np.full(2, 0.75, dtype=np.float32))
