import logging

import numpy as np
import pytest

from checks import MARGIN, fd_wrt, norm_rel_err
from numpy.lib.stride_tricks import sliding_window_view

from coordfuse.layers import (
    Conv1d,
    Dense,
    ShapeError,
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    dense_backward,
    dense_forward,
    dropout,
    maxpool1d_backward,
    maxpool1d_forward,
    softmax,
    _windows,
)
from coordfuse.numerics import create_rng

LAYER_TOL = 1e-6


def naive_conv(weights, bias, x):
    """Reference: explicit loops, no vectorization."""
    n_filters, kernel = weights.shape
    length = len(x) - kernel + 1
    out = np.zeros((n_filters, length))
    for f in range(n_filters):
        for t in range(length):
            acc = bias[f]
            for k in range(kernel):
                acc += weights[f, k] * x[t + k]
            out[f, t] = max(acc, 0.0)
    return out


def draw_conv_case(seed, n_filters=3, kernel=4, length=12):
    """Random conv layer + input with all pre-activations away from zero."""
    for attempt in range(100):
        rng = create_rng(seed + 1000 * attempt)
        layer = Conv1d(
            weights=rng.normal(size=(n_filters, kernel)),
            bias=rng.normal(size=n_filters) * 0.1,
        )
        x = rng.normal(size=length)
        win = np.lib.stride_tricks.sliding_window_view(x, kernel)
        pre = win @ layer.weights.T + layer.bias
        if np.abs(pre).min() > MARGIN:
            return layer, x
    raise AssertionError("no kink-free conv draw found")


def test_conv_matches_naive_loop():
    for seed in range(5):
        rng = create_rng(seed)
        layer = Conv1d(rng.normal(size=(4, 5)), rng.normal(size=4))
        x = rng.normal(size=17)
        ref = naive_conv(layer.weights, layer.bias, x)
        assert np.allclose(conv1d_forward(layer, x[None])[0], ref, rtol=1e-12, atol=1e-14)


def test_conv_output_shape_and_sign():
    layer, x = draw_conv_case(0, n_filters=6, kernel=10, length=220)
    out = conv1d_forward(layer, x[None])
    assert out.shape == (1, 6, 211)
    assert out.min() >= 0.0


def test_conv_input_validation():
    layer = Conv1d(np.ones((2, 4)), np.zeros(2))
    with pytest.raises(ShapeError):
        conv1d_forward(layer, np.ones((3, 3)))
    with pytest.raises(ShapeError):  # a lone spectrum is not a stack
        conv1d_forward(layer, np.ones(8))


def test_conv_gradients_match_finite_differences():
    for seed in range(10):
        layer, x = draw_conv_case(seed)
        proj = create_rng(seed + 77).normal(size=(3, 9))

        def loss():
            return float((conv1d_forward(layer, x[None])[0] * proj).sum())

        out = conv1d_forward(layer, x[None])
        d_weights, d_bias = conv1d_backward(layer, x[None], out, proj[None])
        assert norm_rel_err(fd_wrt(loss, layer.weights), d_weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), d_bias) < LAYER_TOL


def test_conv_backward_shape_validation():
    layer, x = draw_conv_case(1)
    out = conv1d_forward(layer, x[None])
    with pytest.raises(ShapeError):
        conv1d_backward(layer, x[None], out, np.zeros((1, 3, 5)))
    with pytest.raises(ShapeError):  # a lone spectrum is not a stack
        conv1d_backward(layer, x, out[0], out[0])
    with pytest.raises(ShapeError):  # nor are one sample's pooled maps
        conv1d_backward(layer, x[None], out[0], out[0])


def naive_pool(x, width, stride):
    n_maps, length = x.shape
    n_windows = (length - width) // stride + 1
    pooled = np.zeros((n_maps, n_windows))
    idx = np.zeros((n_maps, n_windows), dtype=np.int64)
    for f in range(n_maps):
        for t in range(n_windows):
            window = x[f, t * stride : t * stride + width]
            best = int(np.argmax(window))  # first max wins
            pooled[f, t] = window[best]  # NaN if the window holds one
            if np.isnan(window).any():  # no column equals a NaN maximum: the last takes it
                best = width - 1
            idx[f, t] = t * stride + best
    return pooled, idx


def naive_route(shape, idx, grad):
    """Reference pool backward: add each window's gradient at its argmax
    column, windows in order."""
    d_x = np.zeros(shape)
    for f in range(idx.shape[0]):
        for t in range(idx.shape[1]):
            d_x[f, idx[f, t]] += grad[f, t]
    return d_x


def pool_route(x, grad, width, stride):
    """maxpool1d_backward of one sample's `grad` through the forward of its
    maps `x`, as a one-row stack."""
    pooled = maxpool1d_forward(x[None], width, stride)
    return maxpool1d_backward(x[None], pooled, grad[None], width, stride)[0]


@pytest.mark.parametrize("width,stride,length", [(2, 2, 10), (2, 2, 11), (3, 2, 12)])
def test_pool_matches_naive_loop(width, stride, length):
    for seed in range(5):
        x = create_rng(seed).normal(size=(4, length))
        pooled = maxpool1d_forward(x[None], width, stride)[0]
        ref_pooled, ref_idx = naive_pool(x, width, stride)
        assert np.array_equal(pooled, ref_pooled)
        grad = create_rng(seed + 50).normal(size=pooled.shape)
        assert np.array_equal(
            pool_route(x, grad, width, stride), naive_route(x.shape, ref_idx, grad)
        )


def test_pool_tie_takes_earliest():
    x = np.array([[1.0, 1.0, 0.5, 2.0]])
    assert np.array_equal(maxpool1d_forward(x[None], 2, 2)[0], [[1.0, 2.0]])
    assert np.array_equal(pool_route(x, np.array([[10.0, 20.0]]), 2, 2), [[10.0, 0.0, 0.0, 20.0]])


def test_pool_drops_trailing_remainder():
    x = np.array([[1.0, 2.0, 9.0]])
    assert maxpool1d_forward(x[None], 2, 2).shape == (1, 1, 1)
    assert np.array_equal(pool_route(x, np.array([[4.0]]), 2, 2), [[0.0, 4.0, 0.0]])


def test_pool_validation():
    with pytest.raises(ShapeError):
        maxpool1d_forward(np.ones(5), 2, 2)
    with pytest.raises(ShapeError):  # one sample's maps are not a stack
        maxpool1d_forward(np.ones((2, 4)), 2, 2)
    with pytest.raises(ShapeError):
        maxpool1d_forward(np.ones((1, 2, 1)), 2, 2)
    with pytest.raises(ValueError):
        maxpool1d_forward(np.ones((1, 2, 4)), 0, 2)
    x = np.ones((1, 2, 4))
    with pytest.raises(ShapeError):  # one sample's maps are not a stack
        maxpool1d_backward(np.ones((2, 4)), np.ones((2, 2)), np.ones((2, 2)), 2, 2)
    with pytest.raises(ShapeError):
        maxpool1d_backward(x, np.ones((1, 2, 3)), np.ones((1, 2, 3)), 2, 2)
    with pytest.raises(ShapeError):
        maxpool1d_backward(x, np.ones((1, 2, 2)), np.ones((1, 2, 3)), 2, 2)
    with pytest.raises(ShapeError):  # the stacks disagree on n
        maxpool1d_backward(x, np.ones((2, 2, 2)), np.ones((2, 2, 2)), 2, 2)


def test_pool_gradients_match_finite_differences():
    accepted = 0
    for seed in range(100):
        if accepted == 10:
            break
        rng = create_rng(seed)
        x = rng.normal(size=(3, 11))
        win = np.lib.stride_tricks.sliding_window_view(x, 2, axis=1)[:, ::2, :]
        top2 = np.sort(win, axis=2)
        if (top2[..., -1] - top2[..., -2]).min() <= MARGIN:
            continue
        accepted += 1
        proj = rng.normal(size=(3, 5))

        def loss():
            return float((maxpool1d_forward(x[None], 2, 2)[0] * proj).sum())

        d_x = maxpool1d_backward(x[None], maxpool1d_forward(x[None], 2, 2), proj[None], 2, 2)[0]
        assert norm_rel_err(fd_wrt(loss, x), d_x) < LAYER_TOL
    assert accepted == 10


def test_pool_backward_routes_to_argmax():
    x = np.array([[1.0, 5.0, 2.0, 0.5]])
    d_x = pool_route(x, np.array([[10.0, 20.0]]), 2, 2)
    assert np.array_equal(d_x, [[0.0, 10.0, 20.0, 0.0]])


def test_pool_overlapping_windows_accumulate_in_window_order():
    # Width 3, stride 1: column 2 is the maximum of all three windows. Added
    # in window order, the 1 is lost against 1e16 and the sum is 0; the
    # reverse order gives 1.
    x = np.array([[0.0, 0.0, 5.0, 0.0, 0.0]])
    grad = np.array([[1.0, 1e16, -1e16]])
    d_x = pool_route(x, grad, 3, 1)
    assert np.array_equal(d_x, naive_route(x.shape, np.array([[2, 2, 2]]), grad))
    assert np.array_equal(d_x, np.zeros((1, 5)))
    # Tie-heavy maps with gradients of mixed magnitude: every column shared by
    # windows sums the same terms in the same order as the reference.
    rng = create_rng(18)
    x = rng.integers(0, 3, size=(5, 16)).astype(np.float64)
    grad = rng.normal(size=(5, 14)) * 10.0 ** rng.integers(-8, 9, size=(5, 14))
    _, ref_idx = naive_pool(x, 3, 1)
    assert np.array_equal(pool_route(x, grad, 3, 1), naive_route(x.shape, ref_idx, grad))


def test_dense_forward_hand_case():
    layer = Dense(np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([0.5, 1.0]))
    assert np.allclose(dense_forward(layer, np.array([[2.0, 3.0]])), [[2.5, -5.0]])
    layer.relu = True
    assert np.allclose(dense_forward(layer, np.array([[2.0, 3.0]])), [[2.5, 0.0]])


def test_dense_validation():
    layer = Dense(np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        dense_forward(layer, np.ones((1, 4)))
    with pytest.raises(ShapeError):  # a lone input vector is not a stack
        dense_forward(layer, np.ones(3))
    with pytest.raises(ShapeError):  # a lone input vector is not a stack
        dense_backward(layer, np.ones(3), np.ones(2), np.ones(2))
    with pytest.raises(ShapeError):  # the stacks disagree on n
        dense_backward(layer, np.ones((2, 3)), np.ones((1, 2)), np.ones((1, 2)))
    with pytest.raises(ShapeError):
        dense_backward(layer, np.ones((1, 4)), np.ones((1, 2)), np.ones((1, 2)))


def draw_dense_case(seed, in_dim=7, out_dim=5, relu=True):
    for attempt in range(100):
        rng = create_rng(seed + 1000 * attempt)
        layer = Dense(rng.normal(size=(in_dim, out_dim)), rng.normal(size=out_dim) * 0.1, relu)
        v = rng.normal(size=in_dim)
        pre = v @ layer.weights + layer.bias
        if not relu or np.abs(pre).min() > MARGIN:
            return layer, v
    raise AssertionError("no kink-free dense draw found")


@pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
def test_dense_gradients_match_finite_differences(relu):
    for seed in range(10):
        layer, v = draw_dense_case(seed, relu=relu)
        proj = create_rng(seed + 55).normal(size=5)

        def loss():
            return float(dense_forward(layer, v[None])[0] @ proj)

        out = dense_forward(layer, v[None])
        d_weights, d_bias, d_inputs = dense_backward(layer, v[None], out, proj[None])
        assert norm_rel_err(fd_wrt(loss, layer.weights), d_weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), d_bias) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, v), d_inputs[0]) < LAYER_TOL


def test_softmax_cross_entropy_gradients_match_finite_differences():
    # The model's head: a linear dense layer, softmax, negative log-likelihood.
    for seed in range(10):
        layer, v = draw_dense_case(seed, relu=False)
        target = seed % 5

        def loss():
            return cross_entropy(softmax(dense_forward(layer, v[None])), [target])[0]

        logits = dense_forward(layer, v[None])
        _, d_logits = cross_entropy(softmax(logits), [target])
        d_weights, d_bias, d_inputs = dense_backward(layer, v[None], logits, d_logits)
        assert norm_rel_err(fd_wrt(loss, layer.weights), d_weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), d_bias) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, v), d_inputs[0]) < LAYER_TOL


def test_softmax_properties():
    z = np.array([1.0, 2.0, 3.0])
    p = softmax(z)
    assert abs(p.sum() - 1.0) < 1e-15
    assert np.allclose(p, softmax(z + 100.0))
    huge = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(huge).all()
    assert huge[0] > 0.999


def test_dropout_inference_is_identity():
    # No rng: nothing is drawn, whatever keep_prob says.
    v = create_rng(0).normal(size=20)
    out, mask = dropout(0.5, None, v)
    assert np.array_equal(out, v)
    assert mask is None


def test_dropout_keep_one_is_identity():
    v = create_rng(0).normal(size=20)
    rng = create_rng(1)
    out, mask = dropout(1.0, rng, v)
    assert np.array_equal(out, v)
    assert mask is None
    # Nothing to drop, so no draw is taken from the rng.
    assert rng.random() == create_rng(1).random()


def test_dropout_train_scales_survivors():
    v = np.ones(10000)
    out, mask = dropout(0.75, create_rng(3), v)
    assert set(np.unique(out)) <= {0.0, 1.0 / 0.75}
    assert np.array_equal(out, v * mask / 0.75)
    # Kept fraction concentrates near keep_prob; mean output near 1.
    assert abs(mask.mean() - 0.75) < 0.02
    assert abs(out.mean() - 1.0) < 0.03


def test_dropout_seed_determinism():
    v = np.ones(50)
    a, _ = dropout(0.5, create_rng(4), v)
    b, _ = dropout(0.5, create_rng(4), v)
    assert np.array_equal(a, b)


def test_dropout_validation():
    v = np.ones(5)
    with pytest.raises(ValueError):
        dropout(0.0, create_rng(0), v)
    with pytest.raises(ValueError):
        dropout(1.5, create_rng(0), v)


def test_cross_entropy_values_and_gradient():
    probs = np.array([[0.1, 0.7, 0.2]])
    loss, grad = cross_entropy(probs, [1])
    assert abs(loss - (-np.log(0.7))) < 1e-15
    assert np.allclose(grad, [[0.1, -0.3, 0.2]])
    loss, _ = cross_entropy(np.array([[1.0, 0.0]]), [0])
    assert loss == 0.0


def test_cross_entropy_clamps_zero_probability():
    loss, _ = cross_entropy(np.array([[0.0, 1.0]]), [0])
    assert abs(loss - (-np.log(1e-12))) < 1e-9


def test_cross_entropy_index_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.array([[0.5, 0.5]]), [2])
    with pytest.raises(ValueError):
        cross_entropy(np.array([[0.5, 0.5]]), [-1])
    with pytest.raises(ShapeError):  # a lone distribution is not a stack
        cross_entropy(np.array([0.5, 0.5]), 0)
    with pytest.raises(ShapeError):  # one index per row
        cross_entropy(np.array([[0.5, 0.5]]), [0, 1])


def test_cross_entropy_warns_once_per_call_with_the_clamp_count(caplog):
    probs = np.array([[0.0, 1.0], [0.4, 0.6], [1e-13, 1.0 - 1e-13]])
    index = np.array([0, 1, 0])
    with caplog.at_level(logging.WARNING, logger="coordfuse.layers"):
        loss, grad = cross_entropy(probs, index)
    assert len(caplog.records) == 1
    assert "clamping 2 " in caplog.records[0].getMessage()
    rows = [cross_entropy(probs[i : i + 1], index[i : i + 1]) for i in range(3)]
    assert loss == sum(row_loss for row_loss, _ in rows)
    assert np.array_equal(grad, np.concatenate([row_grad for _, row_grad in rows]))
    with pytest.raises(ValueError):  # a negative index must not wrap around
        cross_entropy(probs, np.array([0, -1, 0]))


# Stacked forward passes: row j of an (n, ...) stack must give the result of
# a one-row stack holding that row.
STACK_RTOL = 1e-12
STACK_ATOL = 1e-14


def test_conv_stack_matches_per_sample():
    rng = create_rng(11)
    layer = Conv1d(rng.normal(size=(4, 5)), rng.normal(size=4))
    x = rng.normal(size=(7, 17))
    out = conv1d_forward(layer, x)
    assert out.shape == (7, 4, 13)
    for i in range(7):
        single = conv1d_forward(layer, x[i][None])[0]
        assert np.allclose(out[i], single, rtol=STACK_RTOL, atol=STACK_ATOL)


POOL_WINDOWS = [(1, 1), (2, 2), (3, 2), (2, 3), (3, 1), (4, 4)]


@pytest.mark.parametrize("width,stride", POOL_WINDOWS)
def test_conv_pooled_forward_is_the_pool_of_the_maps(width, stride):
    rng = create_rng(22)
    # Biases of both signs, large enough that some filters clip almost
    # everywhere and others almost nowhere.
    layer = Conv1d(rng.normal(size=(6, 5)), np.array([-3.0, -0.5, 0.0, 0.5, 3.0, -1.0]))
    x = rng.normal(size=(5, 23))
    pooled = conv1d_forward(layer, x, width, stride)
    assert np.array_equal(pooled, maxpool1d_forward(conv1d_forward(layer, x), width, stride))
    assert 0.0 < np.mean(pooled == 0.0) < 1.0
    for i in range(5):
        single = conv1d_forward(layer, x[i][None], width, stride)
        maps = conv1d_forward(layer, x[i][None])
        assert np.array_equal(single, maxpool1d_forward(maps, width, stride))
        assert np.array_equal(pooled[i], single[0])


@pytest.mark.parametrize("width,stride", POOL_WINDOWS)
def test_conv_backward_unpools_like_the_unfused_chain(width, stride):
    rng = create_rng(24)
    layer = Conv1d(rng.normal(size=(6, 5)), np.array([-3.0, -0.5, 0.0, 0.5, 3.0, -1.0]))
    x = rng.normal(size=23)
    pooled = conv1d_forward(layer, x[None], width, stride)
    grad = rng.normal(size=pooled.shape)
    # The unfused chain: plain maps, pool routing, ReLU mask, then the products.
    maps = conv1d_forward(layer, x[None])
    assert 0.0 < np.mean(maps == 0.0) < 1.0
    g = maxpool1d_backward(maps, pooled, grad, width, stride)[0]
    g = np.where(maps[0] > 0.0, g, 0.0)
    window = () if (width, stride) == (1, 1) else (width, stride)  # (1, 1) is the default
    d_weights, d_bias = conv1d_backward(layer, x[None], pooled, grad, *window)
    assert np.array_equal(d_weights, g @ sliding_window_view(x, 5))
    assert np.array_equal(d_bias, g.sum(axis=1))


def draw_pooled_conv_case(seed, width, stride):
    """draw_conv_case whose pool windows also hold no near tie."""
    for attempt in range(100):
        layer, x = draw_conv_case(seed + 100 * attempt, length=23)
        maps = conv1d_forward(layer, x[None])[0]
        n_windows = (maps.shape[1] - width) // stride + 1
        windows = np.sort(sliding_window_view(maps, width, axis=1)[:, ::stride][:, :n_windows])
        top = windows[..., -1]
        gap = top - windows[..., -2] if width > 1 else np.inf
        # A window of clipped maps stays at zero: its pre-activations clear MARGIN.
        if np.all((top == 0.0) | (gap > MARGIN)):
            return layer, x
    raise AssertionError("no tie-free pooled conv draw found")


# (1, 1) is test_conv_gradients_match_finite_differences.
@pytest.mark.parametrize("width,stride", POOL_WINDOWS[1:])
def test_pooled_conv_gradients_match_finite_differences(width, stride):
    for seed in range(5):
        layer, x = draw_pooled_conv_case(seed, width, stride)
        pooled = conv1d_forward(layer, x[None], width, stride)
        proj = create_rng(seed + 88).normal(size=pooled.shape)

        def loss():
            return float((conv1d_forward(layer, x[None], width, stride) * proj).sum())

        d_weights, d_bias = conv1d_backward(layer, x[None], pooled, proj, width, stride)
        assert norm_rel_err(fd_wrt(loss, layer.weights), d_weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), d_bias) < LAYER_TOL


@pytest.mark.parametrize("shape", [(17,), (4, 17)])
def test_windows_is_a_read_only_sliding_window_view(shape):
    x = create_rng(23).normal(size=shape)
    win = _windows(x, 5)
    assert np.array_equal(win, sliding_window_view(x, 5, axis=-1))
    assert win.strides == sliding_window_view(x, 5, axis=-1).strides
    assert not win.flags.writeable


@pytest.mark.parametrize(
    "width,stride,length",
    [(2, 2, 10), (2, 2, 11), (3, 2, 12), (3, 1, 9), (4, 1, 10), (2, 3, 13), (4, 4, 17), (5, 2, 14)],
)
def test_pool_stack_matches_per_sample_with_ties(width, stride, length):
    # Values from {0, 1, 2} make most windows hold ties; one map holds a NaN.
    x = create_rng(12).integers(0, 3, size=(6, 4, length)).astype(np.float64)
    x[5, 1, length // 2] = np.nan
    pooled = maxpool1d_forward(x, width, stride)
    # Gradients of mixed magnitude and sign, with signed zeros: a sum in
    # another order would lose a small term against 1e16 or flip a zero.
    rng = create_rng(21)
    grads = rng.normal(size=pooled.shape)
    grads[...] = np.choose(rng.integers(0, 4, size=grads.shape), [grads, 1e16, -1e16, -0.0])
    stacked = maxpool1d_backward(x, pooled, grads, width, stride)
    for i in range(6):
        single_pooled = maxpool1d_forward(x[i][None], width, stride)
        ref_pooled, ref_idx = naive_pool(x[i], width, stride)
        assert np.array_equal(pooled[i], single_pooled[0], equal_nan=True)
        assert np.array_equal(single_pooled[0], ref_pooled, equal_nan=True)
        single = maxpool1d_backward(x[i][None], single_pooled, grads[i][None], width, stride)[0]
        assert stacked[i].tobytes() == single.tobytes()
        assert single.tobytes() == naive_route(x[i].shape, ref_idx, grads[i]).tobytes()


@pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
def test_dense_stack_matches_per_sample(relu):
    rng = create_rng(13)
    layer = Dense(rng.normal(size=(7, 5)), rng.normal(size=5), relu)
    v = rng.normal(size=(9, 7))
    out = dense_forward(layer, v)
    assert out.shape == (9, 5)
    for i in range(9):
        single = dense_forward(layer, v[i][None])[0]
        assert np.allclose(out[i], single, rtol=STACK_RTOL, atol=STACK_ATOL)


def test_softmax_stack_normalizes_each_row():
    z = create_rng(14).normal(size=(5, 4)) * 50.0
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    for i in range(5):
        assert np.allclose(p[i], softmax(z[i]), rtol=STACK_RTOL, atol=STACK_ATOL)


def test_dropout_stack_draws_match_per_sample_draws():
    v = create_rng(15).normal(size=(6, 20))
    out, mask = dropout(0.6, create_rng(16), v)
    rng = create_rng(16)
    for i in range(6):
        single_out, single_mask = dropout(0.6, rng, v[i])
        assert np.array_equal(mask[i], single_mask)
        assert np.array_equal(out[i], single_out)


def test_dropout_inference_passes_stack_through():
    v = create_rng(17).normal(size=(6, 20))
    out, mask = dropout(0.5, None, v)
    assert np.array_equal(out, v)
    assert mask is None


def test_stacked_forward_input_validation():
    with pytest.raises(ShapeError):
        conv1d_forward(Conv1d(np.ones((2, 4)), np.zeros(2)), np.ones((2, 3, 8)))
    with pytest.raises(ShapeError):
        maxpool1d_forward(np.ones((2, 3, 4, 8)), 2, 2)
    with pytest.raises(ShapeError):
        dense_forward(Dense(np.ones((3, 2)), np.zeros(2)), np.ones((2, 4, 3)))
    with pytest.raises(ShapeError):
        dense_forward(Dense(np.ones((3, 2)), np.zeros(2)), np.ones((4, 2)))
