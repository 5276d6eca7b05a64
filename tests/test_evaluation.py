import math
import tracemalloc

import numpy as np
import pytest

from coordfuse.evaluation import (
    _BLOCK_BYTES,
    CrfParams,
    confusion,
    default_palette,
    dense_energy,
    metrics,
    render_map,
    write_report,
)
from coordfuse.layers import ShapeError
from coordfuse.numerics import create_rng


def naive_confusion(preds, truth, k):
    cm = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(preds, truth):
        cm[t - 1, p - 1] += 1
    return cm


def test_confusion_perfect_is_diagonal():
    labels = np.array([1, 2, 2, 3, 1])
    cm = confusion(labels, labels, num_classes=3)
    assert np.array_equal(cm, np.diag([2, 2, 1]))


def test_confusion_covers_classes_missing_from_the_data():
    cm = confusion(np.array([1, 2]), np.array([1, 1]), num_classes=3)
    assert np.array_equal(cm, [[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(TypeError):
        confusion(np.array([1, 2]), np.array([1, 1]))


def test_confusion_single_error():
    cm = confusion(np.array([2]), np.array([1]), num_classes=2)
    assert np.array_equal(cm, [[0, 1], [0, 0]])


def test_confusion_matches_naive_tally():
    for seed in range(5):
        rng = create_rng(seed)
        k = int(rng.integers(2, 8))
        preds = rng.integers(1, k + 1, size=200)
        truth = rng.integers(1, k + 1, size=200)
        assert np.array_equal(
            confusion(preds, truth, num_classes=k), naive_confusion(preds, truth, k)
        )


def test_confusion_validation():
    with pytest.raises(ShapeError):
        confusion(np.array([1, 2]), np.array([1]), num_classes=2)
    with pytest.raises(ValueError):
        confusion(np.array([]), np.array([]), num_classes=2)
    with pytest.raises(ValueError):
        confusion(np.array([3]), np.array([1]), num_classes=2)
    with pytest.raises(ValueError):
        confusion(np.array([0]), np.array([1]), num_classes=2)


def naive_metrics(cm):
    """Textbook formulas, float arithmetic, written independently."""
    cm = np.asarray(cm, dtype=np.float64)
    total = cm.sum()
    per_class = np.array([cm[i, i] / cm[i].sum() for i in range(len(cm))])
    oa = np.trace(cm) / total
    p_e = sum(cm[i].sum() * cm[:, i].sum() for i in range(len(cm))) / total**2
    kappa = (oa - p_e) / (1.0 - p_e)
    return per_class, oa, per_class.mean(), kappa


def test_metrics_perfect_agreement():
    rep = metrics(np.diag([5, 3, 9]))
    assert rep.oa == 1.0 and rep.aa == 1.0 and rep.kappa == 1.0
    assert np.array_equal(rep.per_class, [1.0, 1.0, 1.0])
    assert np.array_equal(rep.counts, [5, 3, 9])


def test_metrics_chance_agreement():
    rep = metrics(np.array([[1, 1], [1, 1]]))
    assert rep.oa == 0.5 and rep.aa == 0.5
    assert rep.kappa == 0.0


def test_metrics_hand_case_is_exact():
    rep = metrics(np.array([[4, 1], [2, 3]]))
    assert rep.oa == 0.7
    assert rep.kappa == 0.4  # exact, not within-epsilon


def test_metrics_zero_when_matrix_is_marginal_outer_product():
    # rows (3, 6) x cols (6, 3) / 9 has integer entries: chance level exactly.
    rep = metrics(np.array([[2, 1], [4, 2]]))
    assert rep.kappa == 0.0


def test_metrics_matches_naive_recomputation():
    for seed in range(50):
        rng = create_rng(seed)
        k = int(rng.integers(2, 7))
        cm = rng.integers(0, 40, size=(k, k)).astype(np.int64)
        cm += np.eye(k, dtype=np.int64)  # ensure no empty class row
        rep = metrics(cm)
        per_class, oa, aa, kappa = naive_metrics(cm)
        assert np.allclose(rep.per_class, per_class, atol=1e-12)
        assert abs(rep.oa - oa) < 1e-12
        assert abs(rep.aa - aa) < 1e-12
        assert abs(rep.kappa - kappa) < 1e-12


def test_metrics_validation():
    with pytest.raises(ValueError):
        metrics(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ShapeError):
        metrics(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        metrics(np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        metrics(np.array([[2, -1], [0, 3]]))
    with pytest.raises(ValueError, match="class 2"):
        metrics(np.array([[3, 1], [0, 0]]))
    with pytest.raises(ValueError, match="kappa"):
        metrics(np.array([[7]]))


def test_write_report_bytes_are_stable(tmp_path):
    rep = metrics(np.array([[4, 1], [2, 3]]))
    path = tmp_path / "report.json"
    write_report(rep, path, train_counts=[7, 9])
    expected = (
        '{"aa":0.700000,"counts":[5,5],"kappa":0.400000,"oa":0.700000,'
        '"per_class":[0.800000,0.600000],"train_counts":[7,9]}\n'
    )
    assert path.read_text() == expected
    import json

    parsed = json.loads(path.read_text())
    assert parsed["oa"] == 0.7


def test_default_palette():
    pal = default_palette(16)
    assert pal.shape == (17, 3)
    assert pal.dtype == np.uint8
    assert np.array_equal(pal[0], [0, 0, 0])
    colors = {tuple(c) for c in pal}
    assert len(colors) == 17  # black plus 16 distinct class colors
    with pytest.raises(ValueError):
        default_palette(0)


def test_render_map_all_unlabeled_is_black(tmp_path):
    path = tmp_path / "m.ppm"
    render_map(np.zeros((3, 5), dtype=np.int64), default_palette(2), path)
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n5 3\n255\n")
    assert blob[len(b"P6\n5 3\n255\n") :] == b"\x00" * (3 * 5 * 3)


def test_render_map_exact_pixels(tmp_path):
    palette = np.array([[0, 0, 0], [255, 0, 0], [0, 255, 0]], dtype=np.uint8)
    preds = np.array([[1, 2], [0, 1]])
    path = tmp_path / "m.ppm"
    render_map(preds, palette, path)
    body = path.read_bytes().split(b"\n", 3)[3]
    assert body == bytes([255, 0, 0, 0, 255, 0, 0, 0, 0, 255, 0, 0])


def test_render_map_validation(tmp_path):
    path = tmp_path / "m.ppm"
    with pytest.raises(ValueError):
        render_map(np.array([[3]]), default_palette(2), path)
    with pytest.raises(ValueError):
        render_map(np.array([[-1]]), default_palette(2), path)
    with pytest.raises(ShapeError):
        render_map(np.zeros(4, dtype=np.int64), default_palette(2), path)


def test_crf_params_validation():
    CrfParams()
    for field in ("theta_alpha", "theta_beta", "theta_gamma"):
        # 2 theta^2 overflows, underflows to 0, or underflows to a subnormal.
        for theta in (0.0, 1e200, 1e-200, 1e-154):
            with pytest.raises(ValueError, match=field):
                CrfParams(**{field: theta})
        for theta in (1.1e-154, 9e153):
            CrfParams(**{field: theta})


def naive_energy(labeling, probmap, appearance, params):
    """All-pairs double loop with scalar math, written independently."""
    h, w = labeling.shape
    pixels = [(r, c) for r in range(h) for c in range(w)]
    e = 0.0
    for r, c in pixels:
        e += -math.log(max(probmap[r, c, labeling[r, c] - 1], 1e-12))
    for ri, ci in pixels:
        for rj, cj in pixels:
            if (ri, ci) == (rj, cj) or labeling[ri, ci] == labeling[rj, cj]:
                continue
            d_pos = (ri - rj) ** 2 + (ci - cj) ** 2
            d_app = float(((appearance[ri, ci] - appearance[rj, cj]) ** 2).sum())
            e += params.w1 * math.exp(
                -d_pos / (2 * params.theta_alpha**2) - d_app / (2 * params.theta_beta**2)
            )
            e += params.w2 * math.exp(-d_pos / (2 * params.theta_gamma**2))
    return e


def row_loop_energy(labeling, probmap, appearance, params):
    """Reference: one vectorized row of the pairwise sum per query pixel,
    with the positional and appearance terms in one `exp`."""
    h, w = labeling.shape
    n = h * w
    k = probmap.shape[2]
    labels = labeling.reshape(n)
    probs = probmap.reshape(n, k)
    feats = appearance.reshape(n, -1)
    r, c = np.divmod(np.arange(n), w)
    pos = np.stack([r, c], axis=1).astype(np.float64)
    chosen = probs[np.arange(n), labels - 1]
    energy = float(-np.log(np.clip(chosen, 1e-12, None)).sum())
    two_a2 = 2.0 * params.theta_alpha**2
    two_b2 = 2.0 * params.theta_beta**2
    two_g2 = 2.0 * params.theta_gamma**2
    for i in range(n):
        d_pos = ((pos - pos[i]) ** 2).sum(axis=1)
        d_app = ((feats - feats[i]) ** 2).sum(axis=1)
        kernel = params.w1 * np.exp(-d_pos / two_a2 - d_app / two_b2)
        kernel += params.w2 * np.exp(-d_pos / two_g2)
        energy += float(kernel[labels != labels[i]].sum())
    return energy


def _random_instance(rng, h, w, k, bands=3):
    labeling = rng.integers(1, k + 1, size=(h, w))
    raw = rng.random((h, w, k)) + 1e-3
    probmap = raw / raw.sum(axis=2, keepdims=True)
    appearance = rng.random((h, w, bands))
    return labeling, probmap, appearance


def test_energy_single_pixel_is_unary_only():
    probmap = np.array([[[0.25, 0.75]]])
    e = dense_energy(np.array([[2]]), probmap, np.zeros((1, 1, 3)), CrfParams())
    assert abs(e - (-math.log(0.75))) < 1e-12


def test_energy_zero_weights_equal_unary_sum():
    rng = create_rng(5)
    labeling, probmap, appearance = _random_instance(rng, 4, 5, 3)
    params = CrfParams(w1=0.0, w2=0.0)
    e = dense_energy(labeling, probmap, appearance, params)
    unary = sum(
        -math.log(probmap[r, c, labeling[r, c] - 1]) for r in range(4) for c in range(5)
    )
    assert e == unary


def test_energy_matches_naive_double_loop():
    for seed in range(5):
        rng = create_rng(seed)
        labeling, probmap, appearance = _random_instance(rng, 3, 4, 3)
        params = CrfParams(
            w1=float(rng.random() * 3),
            w2=float(rng.random() * 3),
            theta_alpha=float(rng.random() * 5 + 0.5),
            theta_beta=float(rng.random() + 0.1),
            theta_gamma=float(rng.random() * 5 + 0.5),
        )
        a = dense_energy(labeling, probmap, appearance, params)
        b = naive_energy(labeling, probmap, appearance, params)
        assert abs(a - b) < 1e-9


@pytest.mark.parametrize("bands", [0, 1])
def test_energy_with_fewer_than_two_appearance_bands(bands):
    # The first band is written into each block directly; with no band at
    # all every appearance distance is 0.
    labeling, probmap, appearance = _random_instance(create_rng(bands), 3, 4, 3, bands)
    params = CrfParams(w1=1.3, w2=0.7, theta_alpha=2.0, theta_beta=0.4, theta_gamma=1.5)
    a = dense_energy(labeling, probmap, appearance, params)
    b = naive_energy(labeling, probmap, appearance, params)
    assert abs(a - b) < 1e-9


def _block_starts(h, w):
    """First pixel of each query block of `dense_energy`: a crop wider than
    tall is transposed, and a block starting in image row r sizes itself to
    the (h - r) * w pixels it is compared with."""
    h, w = max(h, w), min(h, w)
    n = h * w
    starts = [0]
    while True:
        start = starts[-1]
        stop = start + max(1, _BLOCK_BYTES // (8 * (n - start // w * w)))
        if stop >= n:
            return starts
        starts.append(stop)


@pytest.mark.parametrize(
    "h,w",
    [(1, 1), (1, 600), (600, 1), (13, 17), (23, 29), (17, 13), (29, 23), (64, 3),
     (64, 64)],
)
def test_energy_matches_row_loop_oracle(h, w):
    rng = create_rng(h * 1000 + w)
    labeling, probmap, appearance = _random_instance(rng, h, w, 4)
    params = CrfParams(w1=1.3, w2=0.7, theta_alpha=5.0, theta_beta=0.4, theta_gamma=2.5)
    if (h, w) in ((13, 17), (23, 29), (17, 13), (29, 23), (64, 3)):
        # Several blocks, with a boundary inside an image row.
        starts = _block_starts(h, w)
        assert len(starts) > 1 and any(s % min(h, w) for s in starts)
    a = dense_energy(labeling, probmap, appearance, params)
    b = row_loop_energy(labeling, probmap, appearance, params)
    assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("h,w", [(13, 29), (64, 3), (40, 50)])
def test_energy_is_invariant_under_transposition(h, w):
    rng = create_rng(h * 100 + w)
    labeling, probmap, appearance = _random_instance(rng, h, w, 5)
    params = CrfParams(w1=0.9, w2=1.4, theta_alpha=4.0, theta_beta=0.6, theta_gamma=2.0)
    a = dense_energy(labeling, probmap, appearance, params)
    b = dense_energy(
        labeling.T, probmap.transpose(1, 0, 2), appearance.transpose(1, 0, 2), params
    )
    assert abs(a - b) <= 1e-12 * abs(a)


@pytest.mark.parametrize("h,w", [(64, 64), (1, 4096), (4096, 1), (145, 145)])
def test_energy_working_memory_is_bounded(h, w):
    # An H x H or W x W table alone would be 128 MiB at 1x4096 or 4096x1.
    rng = create_rng(7)
    labeling, probmap, appearance = _random_instance(rng, h, w, 6)
    inputs = labeling.nbytes + probmap.nbytes + appearance.nbytes
    tracemalloc.start()
    try:
        dense_energy(labeling, probmap, appearance, CrfParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20 + inputs, (peak, inputs)


def test_energy_zero_weights_have_zero_pairwise_part():
    # Several blocks; every kernel is an exact 0, so only the unary sum remains.
    rng = create_rng(12)
    labeling, probmap, appearance = _random_instance(rng, 40, 50, 5)
    assert len(_block_starts(40, 50)) > 1
    chosen = np.take_along_axis(probmap, labeling[:, :, None] - 1, axis=2)
    unary = float(-np.log(chosen.reshape(-1)).sum())
    e = dense_energy(labeling, probmap, appearance, CrfParams(w1=0.0, w2=0.0))
    assert e == unary


def test_energy_extreme_bandwidths_reach_their_limits():
    # theta_beta near the smallest accepted value: the appearance kernel is 1
    # for equal appearance and 0 otherwise, with no NaN and no warning.
    # theta_alpha and theta_gamma near the largest: positional factors are 1.
    labeling = np.array([[1, 2, 1, 2]])
    probmap = np.full((1, 4, 2), 0.5)
    appearance = np.array([[[0.3], [0.3], [0.7], [0.9]]])
    params = CrfParams(w1=2.0, w2=0.5, theta_alpha=9e153, theta_beta=1.1e-154,
                       theta_gamma=9e153)
    e = dense_energy(labeling, probmap, appearance, params)
    # 8 ordered differing-label pairs, 2 of them with equal appearance.
    assert math.isclose(e, 4 * math.log(2.0) + 8 * 0.5 + 2 * 2.0, rel_tol=1e-12)


def test_energy_clamps_zero_probability():
    probmap = np.zeros((1, 1, 2))
    probmap[0, 0, 1] = 1.0
    e = dense_energy(np.array([[1]]), probmap, np.zeros((1, 1, 1)), CrfParams())
    assert abs(e - (-math.log(1e-12))) < 1e-6


def test_energy_nondecreasing_in_smoothness_bandwidth():
    rng = create_rng(9)
    labeling, probmap, appearance = _random_instance(rng, 4, 4, 3)
    assert len(np.unique(labeling)) > 1
    energies = [
        dense_energy(labeling, probmap, appearance, CrfParams(theta_gamma=g))
        for g in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert all(b >= a for a, b in zip(energies, energies[1:]))


def test_energy_pairwise_symmetry():
    # Swapping the two labels of a 2-pixel map leaves the pairwise sum alone;
    # with a uniform probmap the whole energy is invariant.
    probmap = np.full((1, 2, 2), 0.5)
    appearance = np.array([[[0.2], [0.9]]])
    params = CrfParams(w1=2.0, w2=0.5, theta_alpha=3.0, theta_beta=0.4, theta_gamma=2.0)
    e_ab = dense_energy(np.array([[1, 2]]), probmap, appearance, params)
    e_ba = dense_energy(np.array([[2, 1]]), probmap, appearance, params)
    assert abs(e_ab - e_ba) < 1e-15


def test_energy_validation():
    probmap = np.full((2, 2, 2), 0.5)
    appearance = np.zeros((2, 2, 1))
    good = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(ShapeError):
        dense_energy(np.ones((3, 2), dtype=np.int64), probmap, appearance, CrfParams())
    with pytest.raises(ShapeError):
        dense_energy(good, probmap[:1], appearance, CrfParams())
    with pytest.raises(ShapeError):
        dense_energy(good, probmap, appearance[:, :1], CrfParams())
    with pytest.raises(ValueError):
        dense_energy(good * 3, probmap, appearance, CrfParams())
    with pytest.raises(ValueError):
        dense_energy(good, probmap, appearance, CrfParams(theta_beta=-1.0))
    with pytest.raises(ValueError, match="theta_alpha"):
        dense_energy(good, probmap, appearance, CrfParams(theta_alpha=1e200))
    with pytest.raises(ValueError, match="theta_beta"):
        dense_energy(good, probmap, appearance, CrfParams(theta_beta=1e-200))
