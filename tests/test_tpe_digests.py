"""TPE keeps the exact proposals it made when these digests were recorded.

``DIGESTS`` holds the sha256 of every proposal of the cheap sessions in
``tools/tpe_digests.py``, which regenerates them.  They were made with the
numpy and scipy versions in ``MADE_WITH``; other versions may draw or round
differently, so the pinning test skips under them.
"""

import importlib.util
import math
import os

import numpy as np
import pytest
import scipy
from scipy.special import ndtr

from idkit.optimizers import make_optimizer
from idkit.optimizers.tpe import _Parzen
from idkit.space import Continuous, DesignSpace, ParamSpec

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "tpe_digests.py")

MADE_WITH = ("2.4.6", "1.17.1")  # numpy, scipy
DIGESTS = {
    "scf": "cd527009edb3d78dad4110b98ba1b68e0cde7b84294f9179d20dc7a438bf7135",
    "motf-60": "9593be69ac2b12c8536ebfa52e4274fbb4137fbc070606321ee4d4453bf499f6",
    "tpv-batch3": "6e0f2ae487a03428fcec6705d3e16b94d54b00b5bf4dc2bc7725017410b66499",
    "motf-warm": "6ee6ad65219d17dd9f839eccc185e2bd5a9e1c0132d62b2cbae80866a42f0b3a",
}


def load_tool():
    spec = importlib.util.spec_from_file_location("tpe_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != MADE_WITH,
    reason=f"digests made with numpy {MADE_WITH[0]} and scipy {MADE_WITH[1]}; "
    f"this is numpy {np.__version__} and scipy {scipy.__version__}",
)
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_session_proposals_keep_their_bytes(name):
    assert load_tool().session_digest(name) == DIGESTS[name]


def test_split_orders_ties_and_failures_by_loss_then_index():
    space = DesignSpace("line", [ParamSpec("x", Continuous(0.0, 1.0))], response_dim=1)
    session = make_optimizer("tpe", space, config={"gamma": 0.5}, seed=0)
    losses = [0.3, math.inf, 0.1, 0.3, math.inf, 0.1, 0.2, 0.3, math.inf, 0.0, 0.1]
    for i, loss in enumerate(losses):
        session.history.append((np.array([float(i)]), loss))
    good, bad = session._split()
    assert len(good) == 6
    order = np.concatenate([good, bad])[:, 0].astype(int).tolist()
    assert order == sorted(range(len(losses)), key=lambda i: (losses[i], i))


def test_density_equals_building_and_scoring_one_coordinate_at_a_time():
    rng = np.random.default_rng(3)
    n, dims, m = 300, 4, 40  # 300 kernels span two blocks of the kernel pass
    mu = rng.random((n, dims)) ** 3  # crowded near 0, so far kernels underflow
    mu[::10] = mu[1::10]  # and some values tie
    density = _Parzen(mu, np.zeros((n, 0), dtype=int), np.zeros(0, dtype=int), 1e-3)
    x = rng.random((dims, m))
    got = density.logpdf(x, np.zeros((0, m), dtype=int))
    for d in range(dims):
        order = np.argsort(mu[:, d])
        gaps = np.diff(mu[order, d])
        nn = np.empty(n)
        nn[order[0]], nn[order[-1]] = gaps[0], gaps[-1]
        nn[order[1:-1]] = np.minimum(gaps[:-1], gaps[1:])
        sigma = np.clip(nn, 1e-3, 1.0)[:, None]
        assert np.array_equal(density.sigma[:, d], sigma[:, 0])
        z = (x[d] - mu[:, d : d + 1]) / sigma
        mass = ndtr((1.0 - mu[:, d : d + 1]) / sigma) - ndtr((0.0 - mu[:, d : d + 1]) / sigma)
        comp = -0.5 * z * z - np.log(sigma * math.sqrt(2.0 * math.pi)) - np.log(np.maximum(mass, 1e-300))
        stack = np.vstack([comp, np.zeros((1, m))])  # the uniform component last
        top = stack.max(axis=0)
        want = top + np.log(np.exp(stack - top).sum(axis=0)) - math.log(n + 1)
        assert np.array_equal(got[d], want)
