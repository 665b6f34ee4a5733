"""Finite-difference verification of the analytic gradients.

The exhaustive sweep runs on reduced-width instances of the standard
wiring so every coordinate gets checked; the full-size topology gets a
random spot check on top.
"""

import numpy as np
import pytest

from rnx.features import REFERENCE_DIM
from rnx.neural import init_weights
from rnx.training import backward_tbptt, gradient_check, sequence_loss

ABS_TOL = 1e-7
REL_TOL = 1e-4


def test_exhaustive_sweep_on_reduced_instances():
    res = gradient_check(seed=0, instances=2)
    assert res.passed
    assert res.failures == 0
    # every parameter of every instance is visited
    assert res.checked == 2 * 2364
    assert res.max_abs_err < 1e-6


def test_sweep_covers_reference_dim_too():
    res = gradient_check(seed=1, instances=1, feature_dim=REFERENCE_DIM)
    assert res.passed
    assert res.checked == 1 * (2364 - 3 * (4 + 15 + 18))


@pytest.mark.parametrize("instances", [0, -3])
def test_sweep_of_no_instances_is_rejected(instances):
    # a check of nothing would report failures=0, a pass
    with pytest.raises(ValueError, match="instances"):
        gradient_check(seed=0, instances=instances)


def test_full_size_model_spot_check():
    rng = np.random.default_rng(401)
    model = init_weights(17, REFERENCE_DIM)
    feats = rng.normal(size=(1, 5, REFERENCE_DIM))
    gains = rng.uniform(0.0, 1.0, size=(1, 5, 22))
    gains[rng.random(gains.shape) < 0.1] = -1.0
    vads = rng.integers(0, 2, size=(1, 5)).astype(np.float64)

    grads, _ = backward_tbptt(model, feats, gains, vads)
    params = model.parameters()
    step = 1e-4
    keys = sorted(params)
    for _ in range(40):
        key = keys[rng.integers(len(keys))]
        flat = params[key].reshape(-1)
        idx = int(rng.integers(flat.size))
        orig = flat[idx]
        flat[idx] = orig + step
        up = sequence_loss(model, feats, gains, vads)
        flat[idx] = orig - step
        down = sequence_loss(model, feats, gains, vads)
        flat[idx] = orig
        fd = (up - down) / (2.0 * step)
        a = grads[key].reshape(-1)[idx]
        err = abs(a - fd)
        assert err <= ABS_TOL or err <= REL_TOL * max(abs(a), abs(fd)), (key, idx, a, fd)
