import numpy as np
import pytest

from checks import MARGIN, fd_wrt, norm_rel_err
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
    relu,
    softmax,
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
        assert np.allclose(conv1d_forward(layer, x), ref, rtol=1e-12, atol=1e-14)


def test_conv_output_shape_and_sign():
    layer, x = draw_conv_case(0, n_filters=6, kernel=10, length=220)
    out = conv1d_forward(layer, x)
    assert out.shape == (6, 211)
    assert out.min() >= 0.0


def test_conv_input_validation():
    layer = Conv1d(np.ones((2, 4)), np.zeros(2))
    with pytest.raises(ShapeError):
        conv1d_forward(layer, np.ones((3, 3)))
    with pytest.raises(ShapeError):
        conv1d_forward(layer, np.ones(3))


def test_conv_gradients_match_finite_differences():
    for seed in range(10):
        layer, x = draw_conv_case(seed)
        proj = create_rng(seed + 77).normal(size=(3, 9))

        def loss():
            return float((conv1d_forward(layer, x) * proj).sum())

        out = conv1d_forward(layer, x)
        d_weights, d_bias = conv1d_backward(layer, x, out, proj)
        assert norm_rel_err(fd_wrt(loss, layer.weights), d_weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), d_bias) < LAYER_TOL


def test_conv_backward_shape_validation():
    layer, x = draw_conv_case(1)
    out = conv1d_forward(layer, x)
    with pytest.raises(ShapeError):
        conv1d_backward(layer, x, out, np.zeros((3, 5)))


def naive_pool(x, width, stride):
    n_maps, length = x.shape
    n_windows = (length - width) // stride + 1
    pooled = np.zeros((n_maps, n_windows))
    idx = np.zeros((n_maps, n_windows), dtype=np.int64)
    for f in range(n_maps):
        for t in range(n_windows):
            window = x[f, t * stride : t * stride + width]
            best = int(np.argmax(window))  # first max wins
            pooled[f, t] = window[best]
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


def pool_route(x, grad, width=2, stride=2):
    """maxpool1d_backward of `grad` through the forward of `x`."""
    return maxpool1d_backward(x, maxpool1d_forward(x, width, stride), grad, width, stride)


@pytest.mark.parametrize("width,stride,length", [(2, 2, 10), (2, 2, 11), (3, 2, 12)])
def test_pool_matches_naive_loop(width, stride, length):
    for seed in range(5):
        x = create_rng(seed).normal(size=(4, length))
        pooled = maxpool1d_forward(x, width, stride)
        ref_pooled, ref_idx = naive_pool(x, width, stride)
        assert np.array_equal(pooled, ref_pooled)
        grad = create_rng(seed + 50).normal(size=pooled.shape)
        assert np.array_equal(
            pool_route(x, grad, width, stride), naive_route(x.shape, ref_idx, grad)
        )


def test_pool_tie_takes_earliest():
    x = np.array([[1.0, 1.0, 0.5, 2.0]])
    assert np.array_equal(maxpool1d_forward(x), [[1.0, 2.0]])
    assert np.array_equal(pool_route(x, np.array([[10.0, 20.0]])), [[10.0, 0.0, 0.0, 20.0]])


def test_pool_drops_trailing_remainder():
    x = np.array([[1.0, 2.0, 9.0]])
    assert maxpool1d_forward(x).shape == (1, 1)
    assert np.array_equal(pool_route(x, np.array([[4.0]])), [[0.0, 4.0, 0.0]])


def test_pool_validation():
    with pytest.raises(ShapeError):
        maxpool1d_forward(np.ones(5))
    with pytest.raises(ShapeError):
        maxpool1d_forward(np.ones((2, 1)), width=2)
    with pytest.raises(ValueError):
        maxpool1d_forward(np.ones((2, 4)), width=0)
    x = np.ones((2, 4))
    with pytest.raises(ShapeError):
        maxpool1d_backward(np.ones((1, 2, 4)), np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        maxpool1d_backward(x, np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        maxpool1d_backward(x, np.ones((2, 2)), np.ones((2, 3)))


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
            return float((maxpool1d_forward(x) * proj).sum())

        d_x = maxpool1d_backward(x, maxpool1d_forward(x), proj)
        assert norm_rel_err(fd_wrt(loss, x), d_x) < LAYER_TOL
    assert accepted == 10


def test_pool_backward_routes_to_argmax():
    x = np.array([[1.0, 5.0, 2.0, 0.5]])
    d_x = pool_route(x, np.array([[10.0, 20.0]]))
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
    layer = Dense(np.array([[1.0, 0.0], [0.0, -2.0]]), np.array([0.5, 1.0]), "identity")
    assert np.allclose(dense_forward(layer, np.array([2.0, 3.0])), [2.5, -5.0])
    layer.activation = "relu"
    assert np.allclose(dense_forward(layer, np.array([2.0, 3.0])), [2.5, 0.0])


def test_dense_validation():
    layer = Dense(np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ShapeError):
        dense_forward(layer, np.ones(4))
    for activation in ("tanh", "softmax"):  # softmax is the model's, not a layer's
        bad = Dense(np.ones((3, 2)), np.zeros(2), activation)
        with pytest.raises(ValueError):
            dense_forward(bad, np.ones(3))


def draw_dense_case(seed, in_dim=7, out_dim=5, activation="relu"):
    for attempt in range(100):
        rng = create_rng(seed + 1000 * attempt)
        layer = Dense(
            rng.normal(size=(in_dim, out_dim)), rng.normal(size=out_dim) * 0.1, activation
        )
        v = rng.normal(size=in_dim)
        pre = v @ layer.weights + layer.bias
        if activation != "relu" or np.abs(pre).min() > MARGIN:
            return layer, v
    raise AssertionError("no kink-free dense draw found")


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_dense_gradients_match_finite_differences(activation):
    for seed in range(10):
        layer, v = draw_dense_case(seed, activation=activation)
        proj = create_rng(seed + 55).normal(size=5)

        def loss():
            return float(dense_forward(layer, v) @ proj)

        out = dense_forward(layer, v)
        grads = dense_backward(layer, v, out, proj)
        assert norm_rel_err(fd_wrt(loss, layer.weights), grads.weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), grads.bias) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, v), grads.inputs) < LAYER_TOL


def test_softmax_cross_entropy_gradients_match_finite_differences():
    # The model's head: a linear dense layer, softmax, negative log-likelihood.
    for seed in range(10):
        layer, v = draw_dense_case(seed, activation="identity")
        target = seed % 5

        def loss():
            return cross_entropy(softmax(dense_forward(layer, v)), target)[0]

        logits = dense_forward(layer, v)
        _, d_logits = cross_entropy(softmax(logits), target)
        grads = dense_backward(layer, v, logits, d_logits)
        assert norm_rel_err(fd_wrt(loss, layer.weights), grads.weights) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, layer.bias), grads.bias) < LAYER_TOL
        assert norm_rel_err(fd_wrt(loss, v), grads.inputs) < LAYER_TOL


def test_softmax_properties():
    z = np.array([1.0, 2.0, 3.0])
    p = softmax(z)
    assert abs(p.sum() - 1.0) < 1e-15
    assert np.allclose(p, softmax(z + 100.0))
    huge = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(huge).all()
    assert huge[0] > 0.999


def test_relu():
    assert np.array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


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
    probs = np.array([0.1, 0.7, 0.2])
    loss, grad = cross_entropy(probs, 1)
    assert abs(loss - (-np.log(0.7))) < 1e-15
    assert np.allclose(grad, [0.1, -0.3, 0.2])
    loss, _ = cross_entropy(np.array([1.0, 0.0]), 0)
    assert loss == 0.0


def test_cross_entropy_clamps_zero_probability():
    loss, _ = cross_entropy(np.array([0.0, 1.0]), 0)
    assert abs(loss - (-np.log(1e-12))) < 1e-9


def test_cross_entropy_index_validation():
    with pytest.raises(ValueError):
        cross_entropy(np.array([0.5, 0.5]), 2)
    with pytest.raises(ValueError):
        cross_entropy(np.array([0.5, 0.5]), -1)


# Stacked forward passes: an (n, ...) stack must give the row-by-row results.
STACK_RTOL = 1e-12
STACK_ATOL = 1e-14


def test_conv_stack_matches_per_sample():
    rng = create_rng(11)
    layer = Conv1d(rng.normal(size=(4, 5)), rng.normal(size=4))
    x = rng.normal(size=(7, 17))
    out = conv1d_forward(layer, x)
    assert out.shape == (7, 4, 13)
    for i in range(7):
        single = conv1d_forward(layer, x[i])
        assert np.allclose(out[i], single, rtol=STACK_RTOL, atol=STACK_ATOL)


@pytest.mark.parametrize("width,stride,length", [(2, 2, 10), (2, 2, 11), (3, 2, 12), (3, 1, 9)])
def test_pool_stack_matches_per_sample_with_ties(width, stride, length):
    # Values from {0, 1, 2} make most windows hold ties.
    x = create_rng(12).integers(0, 3, size=(6, 4, length)).astype(np.float64)
    pooled = maxpool1d_forward(x, width, stride)
    grads = create_rng(21).normal(size=pooled.shape)
    for i in range(6):
        single_pooled = maxpool1d_forward(x[i], width, stride)
        ref_pooled, ref_idx = naive_pool(x[i], width, stride)
        assert np.array_equal(pooled[i], single_pooled)
        assert np.array_equal(single_pooled, ref_pooled)
        assert np.array_equal(
            maxpool1d_backward(x[i], pooled[i], grads[i], width, stride),
            naive_route(x[i].shape, ref_idx, grads[i]),
        )


@pytest.mark.parametrize("activation", ["relu", "identity"])
def test_dense_stack_matches_per_sample(activation):
    rng = create_rng(13)
    layer = Dense(rng.normal(size=(7, 5)), rng.normal(size=5), activation)
    v = rng.normal(size=(9, 7))
    out = dense_forward(layer, v)
    assert out.shape == (9, 5)
    for i in range(9):
        single = dense_forward(layer, v[i])
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
        maxpool1d_forward(np.ones((2, 3, 4, 8)))
    with pytest.raises(ShapeError):
        dense_forward(Dense(np.ones((3, 2)), np.zeros(2)), np.ones((2, 4, 3)))
    with pytest.raises(ShapeError):
        dense_forward(Dense(np.ones((3, 2)), np.zeros(2)), np.ones((4, 2)))
