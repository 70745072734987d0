import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubenet.proposals import (NEGATIVE, POS_IOU, POSITIVE,
                               PairedFeatureProjector,
                               RegressionTarget, assign_actionness_labels,
                               decode_regression,
                               encode_regression, iou, kmeans_anchors,
                               l2_normalize, smooth_l1)
from tubenet.toi import Box, Tube, pixel_box_to_cells, toi_pool_forward


def test_iou_examples():
    a = Box(0, 0, 9, 9)
    assert iou(a, a) == 1.0
    assert iou(a, Box(20, 20, 29, 29)) == 0.0
    assert iou(a, Box(5, 0, 14, 9)) == pytest.approx(1 / 3)


@given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 10),
       st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_iou_symmetric_and_bounded(x, y, w, h):
    a = Box(x, y, x + w - 1, y + h - 1)
    b = Box(5, 5, 14, 14)
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == iou(b, a)


def test_kmeans_distinct_boxes_zero_distortion():
    boxes = [(4, 6), (10, 3), (7, 7)]
    anchors = kmeans_anchors(boxes, k=3, seed=0)
    got = sorted((a.width, a.height) for a in anchors)
    assert got == sorted((float(w), float(h)) for w, h in boxes)


def test_kmeans_recovers_separated_clusters():
    rng = np.random.default_rng(0)
    a = np.column_stack([rng.uniform(4, 6, 50), rng.uniform(4, 6, 50)])
    b = np.column_stack([rng.uniform(40, 60, 50), rng.uniform(40, 60, 50)])
    anchors = kmeans_anchors([tuple(p) for p in np.vstack([a, b])],
                             k=2, seed=1)
    got = sorted((x.width, x.height) for x in anchors)
    expect = sorted([tuple(a.mean(axis=0)), tuple(b.mean(axis=0))])
    for (gw, gh), (ew, eh) in zip(got, expect):
        assert gw == pytest.approx(ew, abs=1e-6)
        assert gh == pytest.approx(eh, abs=1e-6)


def test_kmeans_default_anchor_count():
    rng = np.random.default_rng(2)
    boxes = [(w, h) for w, h in rng.uniform(5, 60, size=(200, 2))]
    anchors = kmeans_anchors(boxes, k=12, seed=0)
    assert len(anchors) == 12


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    boxes = [(w, h) for w, h in rng.uniform(5, 60, size=(50, 2))]
    a1 = kmeans_anchors(boxes, k=4, seed=7)
    a2 = kmeans_anchors(boxes, k=4, seed=7)
    assert [(a.width, a.height) for a in a1] == \
        [(a.width, a.height) for a in a2]


def test_actionness_exact_match_is_positive():
    gt = [Box(10, 10, 20, 20)]
    labeled = assign_actionness_labels([Box(10, 10, 20, 20)], gt)
    assert labeled[0].label == POSITIVE


def test_actionness_argmax_fallback():
    # nothing clears 0.7, but the best candidate per gt is still positive
    gt = [Box(0, 0, 9, 9)]
    cands = [Box(5, 5, 14, 14), Box(8, 8, 17, 17)]
    labeled = assign_actionness_labels(cands, gt)
    assert labeled[0].label == POSITIVE
    assert labeled[1].label == NEGATIVE


def test_actionness_disjoint_is_negative():
    gt = [Box(0, 0, 9, 9)]
    cands = [Box(0, 0, 9, 9), Box(50, 50, 59, 59)]
    labeled = assign_actionness_labels(cands, gt)
    assert labeled[1].label == NEGATIVE


def _labels_by_loop(candidates, gt):
    """`assign_actionness_labels` as a loop over `iou`: (label,
    actionness) per candidate."""
    ious = [[iou(c, g) for g in gt] or [0.0] for c in candidates]
    positive = [any(v > POS_IOU for v in row) for row in ious]
    for j in range(len(gt)):
        col = [row[j] for row in ious]
        positive[col.index(max(col))] = True
    return [(POSITIVE if p else NEGATIVE, max(row))
            for p, row in zip(positive, ious)]


@pytest.mark.parametrize("seed", range(6))
def test_actionness_labels_equal_the_loop_over_iou(seed):
    # integer corners on a small grid: many tied IoUs, repeated boxes,
    # touching and disjoint pairs; half the candidates are float boxes
    rng = np.random.default_rng(seed)

    def boxes(n, scale=1.0):
        x1, y1 = rng.integers(0, 12, (2, n))
        w, h = rng.integers(0, 6, (2, n))
        return [Box(a * scale, b * scale, (a + c) * scale, (b + d) * scale)
                for a, b, c, d in zip(x1, y1, w, h)]

    gt = boxes(int(rng.integers(0, 4)))
    gt += gt[:1]  # a repeated ground-truth box
    candidates = boxes(40) + boxes(20, 0.7) + gt
    got = assign_actionness_labels(candidates, gt)
    assert [(b.label, b.actionness) for b in got] == \
        _labels_by_loop(candidates, gt)
    assert [b.box for b in got] == candidates


def test_regression_identity():
    b = Box(3, 4, 10, 12)
    t = encode_regression(b, b)
    assert (t.d_cx, t.d_cy, t.d_w, t.d_h) == (0, 0, 0, 0)


def test_regression_hand_case():
    # anchor center (10,10) size 4x4; gt center (12,13) size 6x8
    anchor = Box(8.5, 8.5, 11.5, 11.5)
    gt = Box(9.5, 9.5, 14.5, 16.5)
    t = encode_regression(anchor, gt)
    assert (t.d_cx, t.d_cy, t.d_w, t.d_h) == (2, 3, 2, 4)


@given(st.floats(0, 50), st.floats(0, 50), st.floats(1, 30), st.floats(1, 30),
       st.floats(0, 50), st.floats(0, 50), st.floats(1, 30), st.floats(1, 30))
@settings(max_examples=100, deadline=None)
def test_regression_roundtrip(ax, ay, aw, ah, gx, gy, gw, gh):
    anchor = Box(ax, ay, ax + aw, ay + ah)
    gt = Box(gx, gy, gx + gw, gy + gh)
    back = decode_regression(anchor, encode_regression(anchor, gt))
    assert np.allclose(back.astuple(), gt.astuple(), atol=1e-9)


def test_decode_clamps_a_shrink_past_one_pixel():
    anchor = Box(0, 0, 9, 9)
    box = decode_regression(anchor, RegressionTarget(0.0, 0.0, -12.0, -30.0))
    assert (box.width, box.height) == (1.0, 1.0)
    assert box.center == anchor.center
    # a shrink that leaves at least one pixel is not touched
    box = decode_regression(anchor, RegressionTarget(0.0, 0.0, -9.0, -8.5))
    assert (box.width, box.height) == (1.0, 1.5)


def test_smooth_l1_regions():
    loss, grad = smooth_l1(np.array([0.5, -2.0]))
    assert loss == pytest.approx(0.125 + 1.5)
    assert np.allclose(grad, [0.5, -1.0])


def test_temporal_skip_map_full_frame():
    # the conv5 box that covers the whole 19x25 grid covers the whole
    # 150x200 conv2 grid of the skip-pooled tube
    cells = pixel_box_to_cells(Box(0, 0, 24, 18), (150, 200), (19, 25))
    assert cells.astuple() == (0, 0, 199, 149)


def test_temporal_skip_map_outward_rounding():
    # floor the near corner, ceil the far corner in conv2 cells
    cells = pixel_box_to_cells(Box(0, 0, 9, 12), (150, 200), (19, 25))
    assert cells.astuple() == (0, 0, 79, 102)


def test_l2_normalize():
    v = np.array([3.0, 4.0])
    assert np.allclose(l2_normalize(v), [0.6, 0.8])
    z = np.zeros(4)
    assert np.array_equal(l2_normalize(z), z)


def test_paired_features_unit_halves_and_zero_conv5():
    # with identity projections the descriptor is the two L2-normalized
    # pooled tubes, the conv5 one repeated along depth
    rng = np.random.default_rng(4)
    conv2 = rng.standard_normal((16, 8, 20, 24))
    conv5 = np.zeros((32, 1, 5, 6))
    tube2 = Tube(tuple(Box(2, 2, 10, 12) for _ in range(8)))
    pooled2, _ = toi_pool_forward(conv2, tube2, (8, 4, 4))
    pooled5, _ = toi_pool_forward(conv5, Tube((Box(0, 0, 5, 4),)), (1, 2, 2))
    proj = PairedFeatureProjector(16, 32, proj2=16, proj5=32, rng=rng)
    proj.w2, proj.w5 = np.eye(16), np.eye(32)
    vec, _ = proj.forward(pooled2, pooled5)
    half = 16 * 8 * 4 * 4
    assert vec.shape == (half + 32 * 8 * 2 * 2,)
    assert np.linalg.norm(vec[:half]) == pytest.approx(1.0)
    assert np.all(vec[half:] == 0.0)


def test_paired_features_projected_length_matches_descriptor():
    rng = np.random.default_rng(5)
    proj = PairedFeatureProjector(16, 32, proj2=8, proj5=16, rng=rng)
    assert proj.output_length((16, 8, 4, 4), (32, 1, 2, 2)) == \
        8 * 8 * 4 * 4 + 16 * 8 * 2 * 2


def test_paper_scale_descriptor_is_8192():
    rng = np.random.default_rng(6)
    proj = PairedFeatureProjector(128, 512, proj2=8, proj5=32, rng=rng)
    assert proj.output_length((128, 8, 8, 8), (512, 1, 4, 4)) == 8192


def test_projector_backward_matches_finite_differences():
    from tubenet.tensor import finite_diff_grad

    rng = np.random.default_rng(7)
    proj = PairedFeatureProjector(3, 4, proj2=2, proj5=2, rng=rng)
    p2 = rng.standard_normal((3, 4, 2, 2))
    p5 = rng.standard_normal((4, 2, 2, 2))
    vec, cache = proj.forward(p2, p5)
    gvec = rng.standard_normal(vec.shape)
    gp2, gp5, gw2, gw5 = proj.backward(gvec, cache)

    def loss_p2(v):
        return float((proj.forward(v, p5)[0] * gvec).sum())

    def loss_p5(v):
        return float((proj.forward(p2, v)[0] * gvec).sum())

    f2 = finite_diff_grad(loss_p2, p2)
    f5 = finite_diff_grad(loss_p5, p5)
    assert np.allclose(gp2, f2, atol=1e-6)
    assert np.allclose(gp5, f5, atol=1e-6)

    w2 = proj.w2.copy()

    def loss_w2(v):
        proj.w2 = v
        try:
            return float((proj.forward(p2, p5)[0] * gvec).sum())
        finally:
            proj.w2 = w2

    fw2 = finite_diff_grad(loss_w2, w2)
    assert np.allclose(gw2, fw2, atol=1e-6)
