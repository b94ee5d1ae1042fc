"""Autodiff core: forward fixtures, finite-difference oracles, Adam."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spjscc.numcore import (
    OP_KINDS,
    AdamState,
    NonFiniteError,
    ShapeError,
    Tape,
    adam_step,
)
from spjscc.numcore import tape as tape_mod


def central_diff(f, x, h=1e-5):
    """Finite-difference gradient of scalar f at x, looping every entry."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# forward fixtures
# ---------------------------------------------------------------------------


def test_relu_fixture():
    t = Tape()
    y = t.relu(t.leaf([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(y.value, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    y = tape_mod._softmax(np.zeros(4, dtype=np.float32))
    np.testing.assert_allclose(y, [0.25] * 4, atol=1e-7)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(2, 1, 6, 7)).astype(np.float32)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    t = Tape()
    out = t.conv2d(t.leaf(img), t.leaf(w), t.leaf(np.zeros(1)), stride=1)
    np.testing.assert_array_equal(out.value, img)


def test_conv2d_stride2_output_size():
    t = Tape()
    x = t.leaf(np.zeros((1, 3, 32, 32), dtype=np.float32))
    w = t.leaf(np.zeros((8, 3, 3, 3), dtype=np.float32))
    assert t.conv2d(x, w, t.leaf(np.zeros(8)), stride=2).shape == (1, 8, 16, 16)


def test_tconv2d_doubles_spatial_size():
    t = Tape()
    x = t.leaf(np.zeros((1, 4, 8, 8), dtype=np.float32))
    w = t.leaf(np.zeros((4, 6, 3, 3), dtype=np.float32))
    assert t.tconv2d(x, w, t.leaf(np.zeros(6)), stride=2).shape == (1, 6, 16, 16)


def test_shape_mismatch_names_dims():
    t = Tape()
    a = t.leaf(np.zeros((2, 3)))
    for shape in ((4, 5), (3,)):  # a non-1 axis differs; ranks differ
        b = t.leaf(np.zeros(shape))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*" + re.escape(str(shape))):
            t.add(a, b)
    # a bias must be one value per output channel; the error names op, bias and weight
    w = t.leaf(np.zeros((3, 4)))
    with pytest.raises(ShapeError, match=r"dense.*\(2, 4\).*\(3, 4\)"):
        t.dense(a, w, t.leaf(np.zeros((2, 4))))
    x = t.leaf(np.zeros((1, 2, 8, 8)))
    with pytest.raises(ShapeError, match=r"conv2d.*\(5,\).*\(4, 2, 3, 3\)"):
        t.conv2d(x, t.leaf(np.zeros((4, 2, 3, 3))), t.leaf(np.zeros(5)), stride=1)
    with pytest.raises(ShapeError, match=r"transposed-conv2d.*\(5,\).*\(2, 4, 3, 3\)"):
        t.tconv2d(x, t.leaf(np.zeros((2, 4, 3, 3))), t.leaf(np.zeros(5)), stride=2)


def test_nonfinite_output_rejected():
    t = Tape()
    x = t.leaf([0.0, 1.0])
    with pytest.raises(NonFiniteError):
        t.reciprocal(x)


# ---------------------------------------------------------------------------
# backward fixtures
# ---------------------------------------------------------------------------


def test_sum_of_squares_gradient():
    t = Tape(dtype=np.float64)
    x = t.leaf([1.0, 2.0, 3.0])
    y = t.reduce_sum(t.mul(x, x))
    (g,) = t.backward(y, wrt=(x,))
    np.testing.assert_allclose(g, [2.0, 4.0, 6.0])


def test_dense_relu_dense_manual_chain_rule():
    # y = w2 @ relu(w1 @ x); hand chain rule on a 2x2 example
    w1 = np.array([[1.0, -2.0], [3.0, 0.5]])
    w2 = np.array([[2.0, -1.0], [0.0, 4.0]])
    x = np.array([[1.0, 2.0]])  # batch of one row vector

    t = Tape(dtype=np.float64)
    xt = t.leaf(x)
    zero = t.leaf(np.zeros(2))
    h = t.dense(xt, t.leaf(w1.T), zero)  # row-vector convention: x @ w1.T
    a = t.relu(h)
    y = t.dense(a, t.leaf(w2.T), zero)
    s = t.reduce_sum(y)
    (gx,) = t.backward(s, wrt=(xt,))

    # forward by hand: h = [1-4, 3+1] = [-3, 4]; relu -> [0, 4]
    # ds/da = column sums of w2 = [2, 3]; mask [0, 1] -> dh = [0, 3]
    # dx = dh @ w1 = [0*row0 + 3*row1] = [9, 1.5]
    np.testing.assert_allclose(gx, [[9.0, 1.5]])


def test_fanout_accumulates_both_paths():
    # f = sum(x*x) + 3*sum(x)  => df/dx = 2x + 3 (merged-path analytic value)
    t = Tape(dtype=np.float64)
    x = t.leaf([1.0, -2.0, 0.5])
    f = t.add(t.reduce_sum(t.mul(x, x)), t.scalar_mul(t.reduce_sum(x), 3.0))
    (g,) = t.backward(f, wrt=(x,))
    np.testing.assert_allclose(g, [2 * 1.0 + 3, 2 * -2.0 + 3, 2 * 0.5 + 3])


def test_nonleaf_wrt_gets_its_gradient():
    t = Tape()
    x = t.leaf([1.0, 2.0])
    y = t.scalar_mul(x, 3.0)
    z = t.reduce_sum(t.mul(y, y))
    gy, gx = t.backward(z, wrt=(y, x))
    np.testing.assert_array_equal(gy, [6.0, 12.0])  # 2y
    np.testing.assert_array_equal(gx, [18.0, 36.0])  # 2y * 3
    (gz,) = t.backward(z, wrt=(z,))
    assert gz == 1.0


def test_wrt_that_does_not_feed_output_gets_zeros():
    t = Tape()
    x = t.leaf([1.0, 2.0])
    unused = t.leaf(np.ones((2, 3)))
    z = t.reduce_sum(t.mul(x, x))
    later = t.relu(x)  # recorded after the output
    gx, gu, gl = t.backward(z, wrt=(x, unused, later))
    np.testing.assert_array_equal(gx, [2.0, 4.0])
    np.testing.assert_array_equal(gu, np.zeros((2, 3)))
    np.testing.assert_array_equal(gl, np.zeros(2))


def test_backward_seed_shape_checked():
    t = Tape()
    x = t.leaf([[1.0, 2.0]])
    y = t.relu(x)
    with pytest.raises(ShapeError):
        t.backward(y, wrt=(x,))  # non-scalar output, no seed
    with pytest.raises(ShapeError):
        t.backward(y, seed=np.ones(3), wrt=(x,))


def test_softmax_properties_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = tape_mod._softmax(rng.normal(scale=5.0, size=(4, 7)))
        assert np.all(y > 0)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_softmax_properties_hypothesis(vals):
    y = tape_mod._softmax(np.asarray(vals, dtype=np.float64))
    assert np.all(y > 0)
    assert abs(y.sum() - 1.0) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prelu_matches_where_definition_exactly(dtype):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 4, 4)).astype(dtype)
    x[0, :, 0, :] = 0.0
    x[1, 1, :, 1] = -0.0
    slope = np.array([0.25, -0.5, 0.0], dtype=dtype)
    s = slope.reshape(1, 3, 1, 1)
    t = Tape(dtype=dtype)
    xt, st_ = t.leaf(x), t.leaf(slope)
    y = t.prelu(xt, st_)
    assert np.array_equal(y.value, np.where(x > 0, x, x * s))
    g = rng.normal(size=x.shape).astype(dtype)
    gx, gs = t.backward(y, seed=g, wrt=(xt, st_))
    neg = x <= 0
    assert np.array_equal(gx, g * np.where(neg, s, np.asarray(1.0, dtype=dtype)))
    assert np.array_equal(gs, (g * x * neg).sum(axis=(0, 2, 3)))


def test_prelu_refuses_a_slope_that_is_not_one_per_channel():
    t = Tape()
    x = t.leaf(np.zeros((2, 3, 4, 4)))
    for slope in (np.asarray(0.25), np.full(2, 0.25)):
        with pytest.raises(ShapeError, match=r"one slope per channel.*\(2, 3, 4, 4\) and " + re.escape(str(slope.shape))):
            t.prelu(x, t.leaf(slope))


def test_relu_mean_pool_is_bit_equal_to_relu_then_the_2x2_mean_in_float32():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4, 6, 8)).astype(np.float32)
    x[0, :, 0, :] = 0.0
    x[1, 1, :, 1] = -0.0
    g = rng.normal(size=(3, 4, 3, 4)).astype(np.float32)
    t = Tape()
    xt = t.leaf(x)
    y = t.relu_mean_pool(xt)
    (gx,) = t.backward(y, seed=g, wrt=(xt,))
    # the unfused rules: relu, then the 2x2 mean of the rectified map in quadrant order
    r = np.maximum(x, 0)
    pooled = r[:, :, ::2, ::2] + r[:, :, ::2, 1::2]
    pooled += r[:, :, 1::2, ::2]
    pooled += r[:, :, 1::2, 1::2]
    pooled *= 0.25
    # backward: the mean's gradient repeated over each 2x2 block, then relu's mask
    unfused_gx = np.repeat(np.repeat(g / 4, 2, axis=2), 2, axis=3) * (x > 0)
    assert y.value.dtype == gx.dtype == np.float32
    assert y.value.tobytes() == pooled.tobytes()
    assert gx.tobytes() == unfused_gx.tobytes()


def test_relu_mean_pool_refuses_odd_height_or_width():
    t = Tape()
    for shape in ((1, 2, 3, 4), (1, 2, 4, 5)):
        with pytest.raises(ShapeError, match=r"even H and W.*" + re.escape(str(shape))):
            t.relu_mean_pool(t.leaf(np.zeros(shape)))


# ---------------------------------------------------------------------------
# backward pruning: only gradients on a path from wrt to the output
# ---------------------------------------------------------------------------


def _classifier_tape(batch=2):
    from spjscc.classifier import init_classifier, perceive_with_tape

    model = init_classifier(10, (32, 32), seed=8)
    imgs = np.random.default_rng(8).uniform(size=(batch, 3, 32, 32))
    tape, x, logits = perceive_with_tape(model, imgs)
    seed = np.random.default_rng(9).normal(size=logits.shape)
    return tape, x, logits, seed


def _counting(monkeypatch, name):
    calls = []
    real = getattr(tape_mod, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tape_mod, name, wrapped)
    return calls


def test_pruned_input_gradient_equals_full_query_bitwise():
    tape, x, logits, seed = _classifier_tape()
    params = [tape_mod.Tensor(tape, nid) for nid in tape.params.values()]
    (alone,) = tape.backward(logits, seed=seed, wrt=(x,))
    full = tape.backward(logits, seed=seed, wrt=(x, *params))
    assert alone.tobytes() == full[0].tobytes()


def test_pruned_codec_parameter_gradients_ignore_image_leaf():
    from spjscc.jscc import CodecConfig, init_decoder, init_encoder
    from spjscc.training import TrainConfig, _step_loss

    cfg = CodecConfig()
    enc, dec = init_encoder(cfg, 3), init_decoder(cfg, 4)
    imgs = np.random.default_rng(3).uniform(size=(2, 3, 32, 32)).astype(np.float32)
    rng = np.random.default_rng(4)
    tape, total, _, _ = _step_loss(enc, dec, imgs, None, 10.0, "train", rng, 1.0,
                                   TrainConfig(loss_mode="mse", lambda_rate=0.1))
    names = sorted(tape.params)
    by_name = tape.grad_by_name(total)
    x_leaf = tape_mod.Tensor(tape, 0)  # encode records the image first
    assert x_leaf.shape == imgs.shape
    with_x = tape.backward(total, wrt=[x_leaf] + [tape_mod.Tensor(tape, tape.params[n]) for n in names])
    assert np.abs(with_x[0]).sum() > 0
    for n, g in zip(names, with_x[1:]):
        assert by_name[n].tobytes() == g.tobytes(), n


def test_pruned_queries_skip_unneeded_conv_products(monkeypatch):
    from spjscc.classifier import CONV_CHANNELS

    weight_grads = _counting(monkeypatch, "_weight_grad")
    scatters = _counting(monkeypatch, "_scatter_add")
    tape, x, logits, seed = _classifier_tape()
    tape.backward(logits, seed=seed, wrt=(x,))
    assert len(weight_grads) == 0
    assert len(scatters) == len(CONV_CHANNELS)
    scatters.clear()
    tape.grad_by_name(logits, seed=seed)
    assert len(weight_grads) == len(CONV_CHANNELS)
    # the first conv reads the image leaf: no input gradient for it
    assert len(scatters) == len(CONV_CHANNELS) - 1
    assert all(taps.shape[2] != 3 for _, taps, *_ in scatters)


# ---------------------------------------------------------------------------
# finite-difference oracle over every op kind (64-bit)
# ---------------------------------------------------------------------------


def _fd_cases(rng):
    """(name, input arrays, graph builder) per differentiable op kind.

    Builder maps leaf tensors to a scalar via the op under test plus a fixed
    reduction; the oracle perturbs the raw inputs.
    """
    n = rng.normal

    def red(t, y):
        # deterministic scalarization with non-uniform weights
        w = t.leaf(np.linspace(0.5, 1.5, y.value.size).reshape(y.value.shape))
        return t.reduce_sum(t.mul(y, w))

    cases = []
    cases.append(("add", [n(size=(3, 4)), n(size=(3, 4))],
                  lambda t, a, b: red(t, t.add(a, b))))
    cases.append(("add-broadcast", [n(size=(3, 4)), n(size=(1, 4))],
                  lambda t, a, b: red(t, t.add(a, b))))
    cases.append(("mul", [n(size=(2, 5)), n(size=(2, 5))],
                  lambda t, a, b: red(t, t.mul(a, b))))
    cases.append(("mul-broadcast", [n(size=(2, 5)), n(size=(2, 1))],
                  lambda t, a, b: red(t, t.mul(a, b))))
    cases.append(("scalar-mul", [n(size=(4,))],
                  lambda t, a: red(t, t.scalar_mul(a, -1.7))))
    cases.append(("relu", [n(size=(3, 3)) + 0.05],  # keep off the kink
                  lambda t, a: red(t, t.relu(a))))
    cases.append(("prelu", [n(size=(2, 3, 4, 4)) + 0.05, np.abs(n(size=(3,))) + 0.1],
                  lambda t, a, s: red(t, t.prelu(a, s))))
    cases.append(("sigmoid", [n(size=(3, 4))],
                  lambda t, a: red(t, t.sigmoid(a))))
    cases.append(("sqrt", [np.abs(n(size=(3, 4))) + 0.5],
                  lambda t, a: red(t, t.sqrt(a))))
    cases.append(("reciprocal", [np.abs(n(size=(3, 4))) + 0.5,],
                  lambda t, a: red(t, t.reciprocal(a))))
    cases.append(("conv2d-s1", [n(size=(2, 3, 5, 5)), n(size=(4, 3, 3, 3)), n(size=(4,))],
                  lambda t, x, w, b: red(t, t.conv2d(x, w, b, stride=1))))
    cases.append(("conv2d-s2", [n(size=(2, 2, 6, 6)), n(size=(3, 2, 3, 3)), n(size=(3,))],
                  lambda t, x, w, b: red(t, t.conv2d(x, w, b, stride=2))))
    cases.append(("tconv2d-s2", [n(size=(2, 3, 4, 4)), n(size=(3, 2, 3, 3)), n(size=(2,))],
                  lambda t, x, w, b: red(t, t.tconv2d(x, w, b, stride=2))))
    cases.append(("tconv2d-s1", [n(size=(1, 2, 5, 5)), n(size=(2, 2, 3, 3)), np.zeros(2)],
                  lambda t, x, w, b: red(t, t.tconv2d(x, w, b, stride=1))))
    cases.append(("dense", [n(size=(3, 2, 2, 2)), n(size=(8, 5)), n(size=(5,))],
                  lambda t, x, w, b: red(t, t.dense(x, w, b))))
    x = n(size=(2, 3, 4, 4))
    cases.append(("relu-mean-pool", [x + 0.05 * np.sign(x)],  # every entry at least 0.05 off the kink
                  lambda t, a: red(t, t.relu_mean_pool(a))))
    cases.append(("mean-spatial", [n(size=(2, 3, 4, 4))],
                  lambda t, a: red(t, t.reduce_mean(a, axis=(2, 3)))))
    cases.append(("concat", [n(size=(2, 3)), n(size=(2, 2))],
                  lambda t, a, b: red(t, t.concat([a, b], axis=1))))
    cases.append(("sum-axis", [n(size=(3, 4, 2))],
                  lambda t, a: red(t, t.reduce_sum(a, axis=(1,), keepdims=False))))
    cases.append(("mean-axis", [n(size=(3, 4, 2))],
                  lambda t, a: red(t, t.reduce_mean(a, axis=(0, 2), keepdims=True))))
    cases.append(("cross-entropy-with-logits", [n(size=(4, 6))],
                  lambda t, a: t.cross_entropy(a, [0, 3, 5, 2])))
    cases.append(("reshape", [n(size=(2, 6))],
                  lambda t, a: red(t, t.reshape(a, (3, 4)))))
    cases.append(("slice", [n(size=(2, 6, 3))],
                  lambda t, a: red(t, t.slice(a, axis=1, start=1, stop=4))))
    return cases


def test_every_op_matches_central_finite_differences():
    """Reverse-mode vs central differences, 64-bit, >=5 instances per op."""
    worst = {}
    for instance in range(5):
        rng = np.random.default_rng(100 + instance)
        for name, arrays, build in _fd_cases(rng):
            arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
            tape = Tape(dtype=np.float64)
            leaves = [tape.leaf(a) for a in arrays]
            out = build(tape, *leaves)
            an_grads = tape.backward(out, wrt=leaves)
            for k, a in enumerate(arrays):
                def f(v, k=k):
                    t2 = Tape(dtype=np.float64)
                    ls = [t2.leaf(v if j == k else arrays[j]) for j in range(len(arrays))]
                    return float(build(t2, *ls).value)

                fd = central_diff(f, a.copy())
                err = max_rel_err(an_grads[k], fd)
                worst[name] = max(worst.get(name, 0.0), err)
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    assert not bad, f"gradient mismatch beyond 1e-4: {bad}"


def test_fd_cases_cover_every_op_kind():
    """Adding or deleting an op kind cannot silently drop finite-difference coverage.

    ste-threshold is the one exception: its straight-through gradient is by
    design not the derivative of its forward step, so
    test_ste_threshold_forward_hard_backward_identity pins it instead.
    """
    recorded = set()
    for _, arrays, build in _fd_cases(np.random.default_rng(100)):
        tape = Tape(dtype=np.float64)
        build(tape, *[tape.leaf(a) for a in arrays])
        recorded |= {node.kind for node in tape.nodes} - {"leaf"}
    assert recorded == set(OP_KINDS) - {"ste-threshold"}


def test_conv2d_parameter_gradient_vs_finite_differences():
    # every weight and bias entry perturbed individually
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2, 5, 5))
    w0 = rng.normal(size=(3, 2, 3, 3))
    b0 = rng.normal(size=(3,))

    def scalar(w, b):
        t = Tape(dtype=np.float64)
        y = t.conv2d(t.leaf(x), t.leaf(w), t.leaf(b), stride=1)
        return float(t.reduce_sum(t.mul(y, y)).value)

    t = Tape(dtype=np.float64)
    wt, bt = t.leaf(w0), t.leaf(b0)
    y = t.conv2d(t.leaf(x), wt, bt, stride=1)
    gw, gb = t.backward(t.reduce_sum(t.mul(y, y)), wrt=(wt, bt))
    fd_w = central_diff(lambda w: scalar(w, b0), w0.copy())
    fd_b = central_diff(lambda b: scalar(w0, b), b0.copy())
    assert max_rel_err(gw, fd_w) < 1e-4
    assert max_rel_err(gb, fd_b) < 1e-4


# ---------------------------------------------------------------------------
# conv kernels against their direct definitions (64-bit)
# ---------------------------------------------------------------------------


def ref_conv2d(x, w, b, s, g):
    """conv2d by its definition, looping over output positions.

    Returns the output and, for upstream gradient g, the gradients of
    sum(g * output) with respect to x, w and b.
    """
    k = w.shape[2]
    p = k // 2
    n, cin, h, wd = x.shape
    xp = np.zeros((n, cin, h + 2 * p, wd + 2 * p))
    xp[:, :, p:p + h, p:p + wd] = x
    ho, wo = (h + 2 * p - k) // s + 1, (wd + 2 * p - k) // s + 1
    out = np.empty((n, w.shape[0], ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for y in range(ho):
        for z in range(wo):
            win = (slice(None), slice(None), slice(y * s, y * s + k), slice(z * s, z * s + k))
            out[:, :, y, z] = np.einsum("ncij,ocij->no", xp[win], w) + b
            gxp[win] += np.einsum("no,ocij->ncij", g[:, :, y, z], w)
            gw += np.einsum("no,ncij->ocij", g[:, :, y, z], xp[win])
    return out, gxp[:, :, p:p + h, p:p + wd], gw, g.sum(axis=(0, 2, 3))


def ref_tconv2d(x, w, b, s, g):
    """transposed-conv2d by its definition, looping over output positions.

    Input position y feeds output row y*s + i - k//2 through kernel row i;
    each output position gathers every (input, kernel) pair that lands on it.
    """
    k = w.shape[2]
    p = k // 2
    n, _, h, wd = x.shape

    def sources(o, size):
        pairs = [(i, (o + p - i) // s) for i in range(k)
                 if (o + p - i) % s == 0 and 0 <= (o + p - i) // s < size]
        return np.array([i for i, _ in pairs]), np.array([y for _, y in pairs])

    out = np.empty((n, w.shape[1], h * s, wd * s))
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for y in range(h * s):
        ki, ys = sources(y, h)
        for z in range(wd * s):
            kj, zs = sources(z, wd)
            xi = (slice(None), slice(None), ys[:, None], zs[None, :])
            wi = (slice(None), slice(None), ki[:, None], kj[None, :])
            out[:, :, y, z] = np.einsum("ncij,coij->no", x[xi], w[wi]) + b
            gx[xi] += np.einsum("no,coij->ncij", g[:, :, y, z], w[wi])
            gw[wi] += np.einsum("no,ncij->coij", g[:, :, y, z], x[xi])
    return out, gx, gw, g.sum(axis=(0, 2, 3))


# (op, input shape, weight shape, stride): every codec and classifier layer at
# batch 2, plus odd H with stride 2, 5x5 kernels and a thin (3-channel) side
# on either end of both ops
KERNEL_GEOMETRIES = [
    ("conv2d", (2, 3, 32, 32), (32, 3, 3, 3), 2),  # encoder es0
    ("conv2d", (2, 32, 16, 16), (32, 32, 3, 3), 1),  # encoder es1, es2
    ("conv2d", (2, 32, 16, 16), (32, 32, 3, 3), 2),  # encoder es3
    ("conv2d", (2, 32, 8, 8), (32, 32, 3, 3), 1),  # ec0, ec1, dc0, dc1
    ("conv2d", (2, 16, 32, 32), (3, 16, 3, 3), 1),  # decoder ds2
    ("conv2d", (2, 32, 32, 32), (3, 32, 3, 3), 1),
    ("conv2d", (2, 3, 32, 32), (32, 3, 3, 3), 1),  # classifier conv0
    ("conv2d", (2, 32, 16, 16), (64, 32, 3, 3), 1),  # classifier conv1
    ("conv2d", (2, 64, 8, 8), (128, 64, 3, 3), 1),  # classifier conv2
    ("conv2d", (2, 3, 7, 9), (4, 3, 3, 3), 2),
    ("conv2d", (2, 3, 9, 7), (4, 3, 5, 5), 1),
    ("conv2d", (2, 3, 9, 7), (4, 3, 5, 5), 2),
    ("conv2d", (2, 3, 9, 7), (16, 3, 5, 5), 2),
    ("conv2d", (2, 16, 9, 7), (3, 16, 5, 5), 1),
    ("transposed-conv2d", (2, 32, 8, 8), (32, 32, 3, 3), 2),  # decoder ds0
    ("transposed-conv2d", (2, 32, 16, 16), (32, 16, 3, 3), 2),  # decoder ds1
    ("transposed-conv2d", (2, 3, 5, 7), (3, 4, 3, 3), 2),
    ("transposed-conv2d", (2, 3, 5, 7), (3, 4, 5, 5), 2),
    ("transposed-conv2d", (2, 3, 5, 7), (3, 4, 5, 5), 1),
    ("transposed-conv2d", (2, 3, 3, 4), (3, 16, 3, 3), 2),
    ("transposed-conv2d", (2, 16, 4, 3), (16, 3, 5, 5), 2),
]


def _geometry_id(g):
    return "{}-x{}-w{}-s{}".format(g[0], "x".join(map(str, g[1])), "x".join(map(str, g[2])), g[3])


def _check_against_direct_definition(kind, x_shape, w_shape, stride):
    rng = np.random.default_rng(sum(x_shape) + sum(w_shape) + stride)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    b = rng.normal(size=(w_shape[0] if kind == "conv2d" else w_shape[1],))
    t = Tape(dtype=np.float64)
    leaves = [t.leaf(x), t.leaf(w), t.leaf(b)]
    if kind == "conv2d":
        y = t.conv2d(*leaves, stride=stride)
        ref = ref_conv2d
    else:
        y = t.tconv2d(*leaves, stride=stride)
        ref = ref_tconv2d
    g = rng.normal(size=y.shape)
    want = ref(x, w, b, stride, g)
    got = [y.value] + t.backward(y, seed=g, wrt=leaves)
    for name, a, e in zip(("output", "grad x", "grad w", "grad b"), got, want):
        assert a.shape == e.shape, name
        np.testing.assert_allclose(a, e, rtol=0, atol=1e-10, err_msg=name)


@pytest.mark.parametrize(
    "kind,x_shape,w_shape,stride", KERNEL_GEOMETRIES,
    ids=[_geometry_id(g) for g in KERNEL_GEOMETRIES],
)
def test_conv_kernels_match_direct_definition(kind, x_shape, w_shape, stride):
    _check_against_direct_definition(kind, x_shape, w_shape, stride)


# (op, input shape, weight shape, stride, window values of one sample): wide
# passes at batch 5 whose blocked passes (forward, both gradients, less the
# stride-2 scatters) all read windows of one size per sample
MULTI_BLOCK_GEOMETRIES = [
    ("conv2d", (5, 8, 5, 5), (8, 8, 3, 3), 1, 25 * 9 * 8),
    ("conv2d", (5, 8, 6, 6), (8, 8, 3, 3), 2, 9 * 9 * 8),
    ("transposed-conv2d", (5, 8, 3, 3), (8, 8, 3, 3), 2, 9 * 9 * 8),
]


@pytest.mark.parametrize(
    "kind,x_shape,w_shape,stride,per_sample", MULTI_BLOCK_GEOMETRIES,
    ids=[_geometry_id(g) for g in MULTI_BLOCK_GEOMETRIES],
)
def test_wide_conv_passes_match_direct_definition_across_blocks(monkeypatch, kind, x_shape, w_shape, stride, per_sample):
    """Two samples a block: every blocked pass runs blocks of 2, 2 and 1 samples."""
    monkeypatch.setattr(tape_mod, "_WINDOW_BLOCK", 2 * per_sample)
    samples = []

    def recorded(*args, real=tape_mod._window_blocks):
        for blk, cols in real(*args):
            samples.append(cols.size // per_sample)
            yield blk, cols

    monkeypatch.setattr(tape_mod, "_window_blocks", recorded)
    _check_against_direct_definition(kind, x_shape, w_shape, stride)
    passes = 3 if stride == 1 else 2
    assert samples == [2, 2, 1] * passes


def test_kernel_geometries_reach_every_form(monkeypatch):
    """Each conv helper meets each of its three forms on some KERNEL_GEOMETRIES case.

    A call is classified by the channel counts it contracts and produces, the
    rule the helpers branch on, so editing the cases cannot silently leave a
    form without its check against the direct definitions.
    """
    channels = {  # helper -> (contracted, produced) channel counts of a call
        "_correlate": lambda xp, taps, s: (taps.shape[2], taps.shape[3]),
        "_scatter_add": lambda rows, taps, s, h, w: (taps.shape[3], taps.shape[2]),
        "_weight_grad": lambda xp, rows, kh, kw, s: (xp.shape[3], rows.shape[3]),
    }
    reached = set()
    for name, count in channels.items():
        def wrapped(*args, name=name, count=count, real=getattr(tape_mod, name)):
            reached.add((name, tape_mod._form(*count(*args))))
            return real(*args)

        monkeypatch.setattr(tape_mod, name, wrapped)
    for kind, x_shape, w_shape, stride in KERNEL_GEOMETRIES:
        t = Tape(dtype=np.float64)
        bias = np.ones(w_shape[0] if kind == "conv2d" else w_shape[1])
        leaves = [t.leaf(np.ones(x_shape)), t.leaf(np.ones(w_shape)), t.leaf(bias)]
        y = (t.conv2d if kind == "conv2d" else t.tconv2d)(*leaves, stride=stride)
        t.backward(y, seed=np.ones(y.shape), wrt=leaves)
    assert reached == {(name, form) for name in channels for form in ("offsets", "columns", "taps")}


@pytest.mark.parametrize(
    "kind,x_shape,w_shape,stride", KERNEL_GEOMETRIES,
    ids=[_geometry_id(g) for g in KERNEL_GEOMETRIES],
)
def test_conv_gradient_helpers_read_an_nhwc_view_to_the_same_bits_as_a_copy(kind, x_shape, w_shape, stride):
    """conv2d hands its upstream gradient to _scatter_add and _weight_grad as g.transpose(0, 2, 3, 1).

    In float32, at batch 1 and at the geometry's batch, both helpers give the
    bits they give for the contiguous _nhwc(g) rows, in every form.
    """
    if kind == "transposed-conv2d":  # the helpers then run the stride-s conv2d it is the adjoint of
        x_shape = (x_shape[0], w_shape[1], x_shape[2] * stride, x_shape[3] * stride)
    rng = np.random.default_rng(sum(x_shape) + sum(w_shape) + stride)
    kh, kw = w_shape[2:]
    for n in (1, x_shape[0]):
        x = rng.normal(size=(n, *x_shape[1:])).astype(np.float32)
        taps = tape_mod._taps(rng.normal(size=w_shape).astype(np.float32))
        xp = tape_mod._nhwc(x, kh // 2, kw // 2)
        ho, wo = (xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
        g = rng.normal(size=(n, w_shape[0], ho, wo)).astype(np.float32)
        view, rows = g.transpose(0, 2, 3, 1), tape_mod._nhwc(g)
        assert not view.flags.c_contiguous and rows.flags.c_contiguous
        for helper in (
            lambda r: tape_mod._scatter_add(r, taps, stride, x_shape[2], x_shape[3]),
            lambda r: tape_mod._weight_grad(xp, r, kh, kw, stride),
        ):
            assert helper(view).tobytes() == helper(rows).tobytes()


@pytest.mark.parametrize("kind", ["conv2d", "transposed-conv2d"])
def test_conv_shape_errors(kind):
    t = Tape()
    op = t.conv2d if kind == "conv2d" else t.tconv2d
    x = t.leaf(np.zeros((1, 3, 8, 8)))
    b = t.leaf(np.zeros(4))
    with pytest.raises(ShapeError, match=r"channel mismatch.*\(1, 3, 8, 8\).*\(4, 4, 3, 3\)"):
        op(x, t.leaf(np.zeros((4, 4, 3, 3))), b, stride=1)
    with pytest.raises(ShapeError, match=r"4-d.*\(3, 8, 8\)"):
        op(t.leaf(np.zeros((3, 8, 8))), t.leaf(np.zeros((3, 3, 3, 3))), b, stride=1)
    with pytest.raises(ShapeError, match=r"4-d.*\(3, 3, 3\)"):
        op(x, t.leaf(np.zeros((3, 3, 3))), b, stride=1)


def test_tconv2d_rejects_even_kernel():
    t = Tape()
    x = t.leaf(np.zeros((1, 2, 3, 3)))
    with pytest.raises(ShapeError, match=r"odd kernel.*\(2, 2, 2, 2\)"):
        t.tconv2d(x, t.leaf(np.zeros((2, 2, 2, 2))), t.leaf(np.zeros(2)), stride=2)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    p = {"w": np.array([1.0, -2.0], dtype=np.float32)}
    before = p["w"].copy()
    adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, AdamState(), lr=0.1)
    np.testing.assert_array_equal(p["w"], before)


def test_adam_descends_on_square():
    p = {"p": np.array([1.0])}
    adam_step(p, {"p": np.array([2.0])}, AdamState(), lr=0.1)  # grad of p^2 at 1
    assert p["p"][0] < 1.0


def test_adam_reaches_quadratic_minimum():
    # f(p) = p0^2 + 4*p1^2, minimum 0 at the origin
    p = {"p": np.array([1.5, -1.0])}
    state = AdamState()
    for _ in range(200):
        g = np.array([2 * p["p"][0], 8 * p["p"][1]])
        adam_step(p, {"p": g}, state, lr=0.05)
    loss = p["p"][0] ** 2 + 4 * p["p"][1] ** 2
    assert loss < 1e-3


def test_adam_rejects_a_gradient_whose_square_overflows_before_any_parameter_moves():
    p = {"a": np.array([1.0], dtype=np.float32), "b": np.array([1.0, 2.0], dtype=np.float32)}
    state = AdamState()
    grads = {"a": np.array([0.5], dtype=np.float32), "b": np.array([1.0, 2e19], dtype=np.float32)}
    with pytest.raises(NonFiniteError, match="'b'.*overflows float32 when squared"):
        adam_step(p, grads, state, lr=0.1)
    np.testing.assert_array_equal(p["a"], [1.0])
    np.testing.assert_array_equal(p["b"], [1.0, 2.0])
    assert state.t == 0 and state.v == {}
    # the largest float32 whose square is finite still steps, with no overflow warning
    grads["b"][1] = np.sqrt(np.finfo(np.float32).max, dtype=np.float32)
    adam_step(p, grads, state, lr=0.1)
    assert np.isfinite(state.v["b"]).all() and (p["b"] < [1.0, 2.0]).all()


def test_adam_rejects_nonfinite_gradient():
    p = {"w": np.array([1.0])}
    before = p["w"].copy()
    with pytest.raises(NonFiniteError, match="w"):
        adam_step(p, {"w": np.array([np.nan])}, AdamState(), lr=0.1)
    np.testing.assert_array_equal(p["w"], before)


@pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
def test_adam_refuses_a_learning_rate_that_is_not_finite_and_positive(lr):
    p = {"w": np.array([1.0])}
    with pytest.raises(ValueError, match="lr must be finite and positive"):
        adam_step(p, {"w": np.array([0.5])}, AdamState(), lr=lr)
    np.testing.assert_array_equal(p["w"], [1.0])


def test_ste_threshold_forward_hard_backward_identity():
    t = Tape(dtype=np.float64)
    x = t.leaf([0.2, 0.7, 0.5])
    y = t.ste_threshold(x)
    np.testing.assert_array_equal(y.value, [0.0, 1.0, 0.0])
    (g,) = t.backward(t.reduce_sum(t.scalar_mul(y, 2.0)), wrt=(x,))
    np.testing.assert_array_equal(g, [2.0, 2.0, 2.0])
