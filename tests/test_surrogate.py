"""Network trainer, input gradients, and the three inverse-design methods."""

import re

import numpy as np
import pytest

from idkit import surrogate as sg
from idkit.problems import motf_space
from idkit.space import Categorical, Continuous, DesignSpace, ParamSpec, mse_loss
from idkit.tmm import motf_forward

SMALL = dict(epochs=120, lr=0.02, momentum=0.9, hidden=(64, 64))


def _two_branch(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 1))
    return (x + 1.0) / 2.0, x**2


# -- gradients ----------------------------------------------------------------


def _fd_grad(model, x, y, h=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = mse_loss(model.forward(xp.reshape(1, -1))[0], y)
        fm = mse_loss(model.forward(xm.reshape(1, -1))[0], y)
        g[i] = (fp - fm) / (2.0 * h)
    return g


def _kink_free(model, x, margin=1e-3):
    """Central differences are only trustworthy away from rectifier kinks."""
    _, _, zs = model._forward_cache(x.reshape(1, -1))
    return all(np.min(np.abs(z)) > margin for z in zs[:-1])


@pytest.mark.parametrize("widths", [(6, 32, 32, 4), (4, 48, 6), (3, 16, 16, 16, 2)])
def test_grad_input_matches_finite_differences(widths):
    rng = np.random.default_rng(1)
    model = sg.DenseNet.init(widths, seed=5)
    checked = 0
    while checked < 25:
        x = rng.uniform(0.0, 1.0, widths[0])
        if not _kink_free(model, x):
            continue
        y = rng.standard_normal(widths[-1])
        g = sg.grad_input(model, x, y)
        fd = _fd_grad(model, x, y)
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
        assert np.max(rel) <= 1e-4
        checked += 1


def test_grad_input_zero_at_own_prediction():
    model = sg.DenseNet.init((5, 24, 3), seed=0)
    x = np.full(5, 0.3)
    y = model.forward(x.reshape(1, -1))[0]
    assert np.array_equal(sg.grad_input(model, x, y), np.zeros(5))


def test_grad_input_linear_closed_form():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((7, 3))
    model = sg.DenseNet([A], [np.zeros(3)])
    x = rng.uniform(0.0, 1.0, 7)
    y = rng.standard_normal(3)
    want = 2.0 * A @ (x @ A - y)
    np.testing.assert_allclose(sg.grad_input(model, x, y), want, rtol=0, atol=1e-12)


def _combined_backprop(model, acts, zs, delta):
    """One pass forming every gradient: the reference for the split passes."""
    gw, gb = [None] * len(model.weights), [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (zs[i - 1] > 0.0)
    return gw, gb, delta


def test_weight_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    model = sg.DenseNet.init((3, 8, 8, 2), seed=2)
    x = rng.uniform(0.0, 1.0, (5, 3))
    assert all(_kink_free(model, row) for row in x)
    y = rng.standard_normal((5, 2))

    def loss(m):
        return float(np.sum((m.forward(x) - y) ** 2))

    pred, acts, zs = model._forward_cache(x)
    gw, gb = model._backprop(acts, zs, 2.0 * (pred - y))
    h = 1e-6
    for grads, params in ((gw, "weights"), (gb, "biases")):
        for i, g in enumerate(grads):
            fd = np.empty_like(g)
            for j in np.ndindex(g.shape):
                plus, minus = model.copy(), model.copy()
                getattr(plus, params)[i][j] += h
                getattr(minus, params)[i][j] -= h
                fd[j] = (loss(plus) - loss(minus)) / (2.0 * h)
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)
            assert np.max(rel) <= 1e-6, (params, i)


def test_split_passes_equal_the_combined_pass_exactly():
    rng = np.random.default_rng(8)
    model = sg.DenseNet.init((6, 32, 32, 4), seed=3)
    x = rng.uniform(0.0, 1.0, 6)
    y = rng.standard_normal(4)
    pred, acts, zs = model._forward_cache(x.reshape(1, -1))
    delta = 2.0 * (pred - y.reshape(1, -1))
    assert np.array_equal(sg.grad_input(model, x, y), model._input_grad(zs, delta).reshape(6))

    xb = rng.uniform(0.0, 1.0, (9, 6))
    pred, acts, zs = model._forward_cache(xb)
    delta = rng.standard_normal(pred.shape)
    ref_gw, ref_gb, ref_gx = _combined_backprop(model, acts, zs, delta)
    gw, gb = model._backprop(acts, zs, delta)
    assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))
    assert np.array_equal(model._input_grad(zs, delta), ref_gx)


# -- trainer ------------------------------------------------------------------


def test_train_forward_linear_teacher_default_config():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((8, 4))
    x = rng.uniform(0.0, 1.0, (3000, 8))
    y = x @ A
    cfg = sg.TrainConfig()
    model, log = sg.train_forward(x, y, cfg)
    split_rng = np.random.default_rng(cfg.seed)
    val = split_rng.permutation(3000)[:300]
    rel = np.linalg.norm(model.forward(x[val]) - y[val]) / np.linalg.norm(y[val])
    assert rel <= 1e-2
    assert len(log) == cfg.epochs


def test_train_forward_deterministic():
    enc, ys = _two_branch(400)
    cfg = sg.TrainConfig(epochs=5, hidden=(16,), lr=0.02, momentum=0.9)
    m1, l1 = sg.train_forward(enc, ys, cfg)
    m2, l2 = sg.train_forward(enc, ys, cfg)
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))


def test_train_forward_rejects_tiny_dataset():
    with pytest.raises(ValueError):
        sg.train_forward(np.zeros((20, 3)), np.zeros((20, 2)))


def test_train_forward_divergence_raises():
    enc, ys = _two_branch(400)
    cfg = sg.TrainConfig(epochs=10, lr=500.0, clip_norm=0.0)
    with np.errstate(all="ignore"), pytest.raises(sg.TrainingDiverged, match="epoch"):
        sg.train_forward(enc, ys, cfg)


def test_train_forward_beats_mean_baseline_on_thin_film_data():
    space = motf_space()
    rng = np.random.default_rng(9)
    pts = [space.sample_uniform(rng) for _ in range(1000)]
    x = np.array([space.encode_onehot(p) for p in pts])
    y = np.array([motf_forward(p) for p in pts])
    cfg = sg.TrainConfig(epochs=200, lr=0.05, momentum=0.9, head_lr_scale=50.0, seed=1)
    model, log = sg.train_forward(x, y, cfg)
    split_rng = np.random.default_rng(cfg.seed)
    order = split_rng.permutation(1000)
    val, train = order[:100], order[100:]
    baseline = float(np.mean((y[val] - y[train].mean(axis=0)) ** 2))
    best_val = min(entry[2] for entry in log)
    assert best_val < baseline


def test_returned_weights_are_best_validation_snapshot():
    enc, ys = _two_branch(500)
    cfg = sg.TrainConfig(epochs=30, lr=0.02, momentum=0.9, hidden=(16,))
    model, log = sg.train_forward(enc, ys, cfg)
    split_rng = np.random.default_rng(cfg.seed)
    val = split_rng.permutation(500)[:50]
    d = model.forward(enc[val]) - ys[val]
    got = float(np.mean(d * d))
    assert got <= min(entry[2] for entry in log) + 1e-12


# -- inverse model ------------------------------------------------------------


def test_train_inverse_recovers_bijection():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, (5000, 3))
    y = 2.0 * x
    cfg = sg.TrainConfig(epochs=300, lr=0.1, momentum=0.9, hidden=(256, 256), head_lr_scale=3.0)
    model, _ = sg.train_inverse(x, y, cfg)
    probe = rng.uniform(0.0, 1.0, (50, 3))
    np.testing.assert_allclose(model.forward(2.0 * probe), probe, rtol=0, atol=1e-2)


def test_train_inverse_collapses_on_two_branch_teacher():
    enc, ys = _two_branch()
    model, _ = sg.train_inverse(enc, ys, sg.TrainConfig(**SMALL))
    pred_enc = model.forward(np.full((32, 1), 0.81))
    decoded = 2.0 * pred_enc - 1.0
    assert np.max(np.abs(decoded)) <= 0.2


# -- tandem -------------------------------------------------------------------


def test_tandem_beats_inverse_on_two_branch_teacher():
    enc, ys = _two_branch()
    cfg = sg.TrainConfig(**SMALL)
    fwd, _ = sg.train_forward(enc, ys, cfg)
    inv, _ = sg.train_inverse(enc, ys, cfg)
    frozen = [w.copy() for w in fwd.weights] + [b.copy() for b in fwd.biases]
    tnd, tlog = sg.train_tandem(fwd, ys, cfg)

    after = list(fwd.weights) + list(fwd.biases)
    assert all(np.array_equal(a, b) for a, b in zip(frozen, after))

    targets = np.full((64, 1), 0.81)
    x_tnd = 2.0 * np.clip(tnd.forward(targets), 0.0, 1.0) - 1.0
    x_inv = 2.0 * np.clip(inv.forward(targets), 0.0, 1.0) - 1.0
    err_tnd = float(np.mean((x_tnd**2 - 0.81) ** 2))
    err_inv = float(np.mean((x_inv**2 - 0.81) ** 2))
    assert err_tnd <= 0.1 * err_inv

    train_curve = np.array([entry[1] for entry in tlog])
    ma = np.convolve(train_curve, np.ones(5) / 5.0, mode="valid")
    assert np.all(ma[1:] <= ma[:-1] * 1.01)


def test_tandem_with_a_design_narrower_than_the_response():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 5))
    fwd = sg.DenseNet([A], [np.zeros(5)])
    x = rng.uniform(0.1, 0.9, (600, 3))
    y = x @ A
    cfg = sg.TrainConfig(epochs=200, lr=0.1, hidden=(32, 32))
    tnd, log = sg.train_tandem(fwd, y, cfg)
    assert tnd.widths == (5, 32, 32, 3)
    # the returned net maps raw responses: its cycle loss is the logged one's size
    cycle = float(np.mean((fwd.forward(np.clip(tnd.forward(y), 0.0, 1.0)) - y) ** 2))
    assert cycle <= 0.02 * float(np.mean((y - y.mean(axis=0)) ** 2))
    assert cycle <= 2.0 * min(entry[2] for entry in log)


# -- gradient-descent design ---------------------------------------------------


def _continuous_space(dim, response_dim):
    params = tuple(ParamSpec(f"x{i}", Continuous(0.0, 1.0)) for i in range(dim))
    return DesignSpace("box", params, response_dim=response_dim)


def test_gd_inverse_solves_exact_linear_model():
    rng = np.random.default_rng(3)
    space = _continuous_space(5, 8)
    q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
    A = q * rng.uniform(0.6, 1.0, 5)
    model = sg.DenseNet([A.T.copy()], [np.zeros(8)])
    x_star = rng.uniform(0.2, 0.8, 5)
    cands = sg.gd_inverse(model, space, x_star @ A.T, n_starts=6, n_steps=400, lr=0.4, seed=1)
    best_pt, best_loss = cands[0]
    assert best_loss <= 1e-6
    np.testing.assert_allclose(best_pt.values, x_star, rtol=0, atol=1e-4)


def test_gd_inverse_zero_steps_returns_starts():
    space = _continuous_space(4, 2)
    model = sg.DenseNet.init((4, 8, 2), seed=0)
    y = np.zeros(2)
    cands = sg.gd_inverse(model, space, y, n_starts=5, n_steps=0, seed=11)
    rng = np.random.default_rng(11)
    starts = [space.sample_uniform(rng) for _ in range(5)]
    assert sorted(tuple(p.values) for p, _ in cands) == sorted(
        tuple(p.values) for p in starts
    )


def test_gd_inverse_mixed_space_candidates_valid_and_ranked():
    params = (
        ParamSpec("mat", Categorical(("a", "b", "c"))),
        ParamSpec("t", Continuous(0.0, 1.0)),
        ParamSpec("u", Continuous(0.0, 1.0)),
    )
    space = DesignSpace("mix", params, response_dim=4)
    model = sg.DenseNet.init((space.onehot_length, 32, 4), seed=0)
    y = np.array([0.3, -0.2, 0.1, 0.4])
    cands = sg.gd_inverse(model, space, y, n_starts=8, n_steps=50, lr=0.05, seed=2)
    assert all(space.validate(p) for p, _ in cands)
    losses = [loss for _, loss in cands]
    assert losses == sorted(losses)

    rng = np.random.default_rng(2)
    start_losses = []
    for _ in range(8):
        p = space.sample_uniform(rng)
        pred = model.forward(space.encode_onehot(p).reshape(1, -1))[0]
        start_losses.append(mse_loss(pred, y))
    assert losses[0] <= min(start_losses) + 1e-12


def test_project_simplex_properties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.standard_normal(rng.integers(2, 7)) * 3.0
        p = sg._project_simplex(v)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(sg._project_simplex(p), p, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        sg._project_simplex(np.array([0.2, 0.3, 0.5])), [0.2, 0.3, 0.5], atol=1e-15
    )


# -- persistence ----------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    model = sg.DenseNet.init((7, 20, 20, 3), seed=6)
    path = str(tmp_path / "net.bin")
    sg.save_model(model, path, {"problem": "demo"})
    loaded, meta = sg.load_model(path)
    assert loaded.widths == model.widths
    assert meta["problem"] == "demo"
    assert meta["widths"] == [7, 20, 20, 3]
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, loaded.weights))
    assert all(np.array_equal(a, b) for a, b in zip(model.biases, loaded.biases))


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMODELxxxx")
    with pytest.raises(ValueError, match="magic"):
        sg.load_model(str(path))


# cut inside the layer count, inside the widths, and inside the weights
@pytest.mark.parametrize("cut,expected", [(10, 12), (14, 24), (1805, 1808)])
def test_checkpoint_truncated_rejected(tmp_path, cut, expected):
    path = str(tmp_path / "net.bin")
    sg.save_model(sg.DenseNet.init((7, 20, 3), seed=6), path)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[:cut])
    msg = f"{path}: checkpoint truncated: expected {expected} bytes, got {cut}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        sg.load_model(path)


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "net.bin")
    sg.save_model(sg.DenseNet.init((7, 20, 3), seed=6), path)
    with open(path, "ab") as fh:
        fh.write(b"\0" * 8)
    with pytest.raises(ValueError, match="has trailing bytes: expected 1808 bytes, got 1816"):
        sg.load_model(path)


def test_training_log_csv(tmp_path):
    path = str(tmp_path / "log.csv")
    sg.save_training_log([(0, 1.5, 2.5), (1, 0.25, 0.125)], path)
    lines = open(path).read().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1] == "0,1.5,2.5"
    assert lines[2] == "1,0.25,0.125"


def test_encode_dataset_shapes():
    from idkit.records import EvalRecord

    space = motf_space()
    rng = np.random.default_rng(0)
    recs = []
    for trial in range(4):
        p = space.sample_uniform(rng)
        recs.append(EvalRecord(p, np.zeros(space.response_dim), 0.0, trial))
    x, y = sg.encode_dataset(space, recs)
    assert x.shape == (4, space.onehot_length)
    assert y.shape == (4, space.response_dim)
