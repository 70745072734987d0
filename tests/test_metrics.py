import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from tubenet.metrics import (Detection, average_precision, contour_f,
                             default_contour_tolerance, frame_map, iou_box,
                             iou_mask, mean_recall_decay, roc_auc,
                             temporal_stability, tube_iou, video_map)
from tubenet.segmentation import SegMask
from tubenet.toi import Box


def det(video, cls, conf, frame, box):
    return Detection(video=video, cls=cls, confidence=conf, frame=frame,
                     box=box)


def gt(video, cls, frame, box):
    return {"video": video, "cls": cls, "frame": frame, "box": box}


def mask(bits):
    return SegMask(np.asarray(bits, dtype=bool))


# ---------------------------------------------------------------------------
# IoU primitives


def test_box_iou_examples():
    a = Box(0, 0, 9, 9)
    assert iou_box(a, a) == 1.0
    assert iou_box(a, Box(50, 50, 59, 59)) == 0.0
    assert iou_box(a, Box(5, 0, 14, 9)) == pytest.approx(1 / 3)


def test_mask_iou_empty_pair_is_one():
    e = mask(np.zeros((4, 4)))
    assert iou_mask(e, e) == 1.0
    f = mask(np.ones((4, 4)))
    assert iou_mask(e, f) == 0.0
    assert iou_mask(f, f) == 1.0


def test_tube_iou_union_of_extents():
    b = Box(0, 0, 9, 9)
    a_tube = {0: b, 1: b}
    b_tube = {1: b, 2: b}
    # frames 0 and 2 are one-sided -> IoU 0; frame 1 -> 1; mean over 3
    assert tube_iou(a_tube, b_tube) == pytest.approx(1 / 3)
    assert tube_iou(a_tube, a_tube) == 1.0


# ---------------------------------------------------------------------------
# AP / mAP against an exhaustive oracle


def oracle_ap(dets, gts, alpha):
    """Brute-force PR staircase: try every matching independently computed."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    used = set()
    tps = []
    for i in order:
        d = dets[i]
        best, best_j = alpha, None
        for j, g in enumerate(gts):
            if j in used or g["video"] != d.video or g["cls"] != d.cls \
                    or g["frame"] != d.frame:
                continue
            ov = iou_box(d.box, g["box"])
            if ov >= best and (best_j is None or ov > best):
                best, best_j = ov, j
        if best_j is not None:
            used.add(best_j)
            tps.append(1)
        else:
            tps.append(0)
    ap, tp, prev_r = 0.0, 0, 0.0
    for rank, hit in enumerate(tps, start=1):
        tp += hit
        r, p = tp / len(gts), tp / rank
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def test_ap_perfect_and_all_wrong():
    b = Box(0, 0, 9, 9)
    gts = [gt(0, 1, 0, b), gt(0, 1, 1, b)]
    hits = [det(0, 1, 0.9, 0, b), det(0, 1, 0.8, 1, b)]
    assert frame_map(hits, gts, 0.5)[0] == 1.0
    misses = [det(0, 1, 0.9, 0, Box(50, 50, 59, 59))]
    assert frame_map(misses, gts, 0.5)[0] == 0.0


def test_ap_staircase_hand_case():
    b = Box(0, 0, 9, 9)
    far = Box(50, 50, 59, 59)
    gts = [gt(0, 1, 0, b), gt(0, 1, 1, b)]
    dets = [det(0, 1, 0.9, 0, b), det(0, 1, 0.8, 0, far),
            det(0, 1, 0.7, 1, b)]
    got = frame_map(dets, gts, 0.5)[0]
    # hit, miss, hit over 2 gts: 0.5*0.5 + 0.5*(2/3) = 0.8333...
    assert got == pytest.approx(5 / 6, abs=1e-12)
    assert got == pytest.approx(oracle_ap(dets, gts, 0.5), abs=1e-12)


def test_frame_map_matches_oracle_on_random_fixtures():
    rng = np.random.default_rng(0)
    for _ in range(30):
        gts, dets = [], []
        for v in range(2):
            for f in range(2):
                for cls in (1, 2):
                    if rng.random() < 0.7:
                        x = int(rng.integers(0, 20))
                        gts.append(gt(v, cls, f, Box(x, x, x + 9, x + 9)))
        for _ in range(int(rng.integers(1, 11))):
            v = int(rng.integers(0, 2))
            f = int(rng.integers(0, 2))
            cls = int(rng.integers(1, 3))
            x = int(rng.integers(0, 20))
            dets.append(det(v, cls, float(rng.random()), f,
                            Box(x, x, x + 9, x + 9)))
        if not gts:
            continue
        mean, per_class = frame_map(dets, gts, 0.5)
        for cls in per_class:
            d = [x for x in dets if x.cls == cls]
            g = [x for x in gts if x["cls"] == cls]
            assert per_class[cls] == pytest.approx(oracle_ap(d, g, 0.5),
                                                   abs=1e-12)


def test_video_map_perfect_tube():
    b = Box(0, 0, 9, 9)
    tube = {0: b, 1: b, 2: b}
    dets = [Detection(video=0, cls=1, confidence=0.9, tube=tube)]
    gts = [{"video": 0, "cls": 1, "tube": tube}]
    assert video_map(dets, gts, 0.5)[0] == 1.0


def test_map_alpha_validation():
    with pytest.raises(ValueError):
        frame_map([], [gt(0, 1, 0, Box(0, 0, 1, 1))], 1.5)


# ---------------------------------------------------------------------------
# ROC


def test_roc_perfect_detector():
    b = Box(0, 0, 9, 9)
    gts = [gt(0, 1, f, b) for f in range(4)]
    dets = [det(0, 1, 0.9 - 0.1 * f, f, b) for f in range(4)]
    points, auc = roc_auc(dets, gts, 0.5)
    assert points[-1][1] == 1.0
    assert auc == pytest.approx(1.0)


def test_roc_no_detections():
    points, auc = roc_auc([], [gt(0, 1, 0, Box(0, 0, 9, 9))], 0.5)
    assert auc == 0.0


def test_roc_hand_case():
    b = Box(0, 0, 9, 9)
    far = Box(50, 50, 59, 59)
    gts = [gt(0, 1, 0, b), gt(0, 1, 1, b)]
    dets = [det(0, 1, 0.9, 0, b), det(0, 1, 0.8, 0, far),
            det(0, 1, 0.7, 1, b), det(0, 1, 0.6, 1, far)]
    points, auc = roc_auc(dets, gts, 0.5)
    # thresholds sweep: (fp/frame, tpr) = (0,.5) (0.5,.5) (0.5,1) (1,1)
    assert points == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0),
                      (1.0, 1.0)]
    assert auc == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)


# ---------------------------------------------------------------------------
# contour F and temporal stability


def test_contour_identity():
    bits = np.zeros((20, 20), dtype=bool)
    bits[5:15, 5:15] = True
    assert contour_f(mask(bits), mask(bits)) == 1.0


def test_contour_empty_vs_nonempty():
    bits = np.zeros((20, 20), dtype=bool)
    bits[5:15, 5:15] = True
    assert contour_f(mask(np.zeros((20, 20))), mask(bits)) == 0.0


def test_contour_shifted_square_tolerances():
    a = np.zeros((30, 30), dtype=bool)
    a[5:15, 5:15] = True
    b = np.roll(a, 1, axis=1)
    assert contour_f(mask(a), mask(b), tolerance=1) == 1.0
    strict = contour_f(mask(a), mask(b), tolerance=0)

    # pixel-count oracle at tolerance 0: exact boundary coincidence only
    def boundary(m):
        return m & ~ndimage.binary_erosion(m, border_value=0)

    ba, bb = boundary(a), boundary(b)
    prec = (bb & ba).sum() / bb.sum()
    rec = (ba & bb).sum() / ba.sum()
    expect = 2 * prec * rec / (prec + rec)
    assert strict == pytest.approx(expect)


def test_default_tolerance_is_ceil_of_diagonal_fraction():
    assert default_contour_tolerance((240, 320)) == 4  # 0.008*400
    assert default_contour_tolerance((100, 100)) == 2


def test_temporal_stability_static_zero():
    bits = np.zeros((20, 20), dtype=bool)
    bits[5:15, 5:15] = True
    masks = [mask(bits)] * 5
    assert temporal_stability(masks) == 0.0


def test_temporal_stability_monotone_in_displacement():
    base = np.zeros((40, 40), dtype=bool)
    base[5:15, 5:15] = True
    small = [mask(base), mask(np.roll(base, 2, axis=1))]
    large = [mask(base), mask(np.roll(base, 10, axis=1))]
    assert temporal_stability(large) > temporal_stability(small) > 0.0


def _temporal_stability_pairwise(masks):
    """Reference: each consecutive pair computes both masks' boundaries
    and distance maps from scratch."""
    def boundary(bits):
        if not bits.any():
            return np.zeros_like(bits)
        return bits & ~ndimage.binary_erosion(bits, border_value=0)

    vals = []
    for a, b in zip(masks, masks[1:]):
        ab, bb = boundary(a.bits), boundary(b.bits)
        if not ab.any() and not bb.any():
            vals.append(0.0)
        elif not ab.any() or not bb.any():
            vals.append(1.0)
        else:
            da = ndimage.distance_transform_edt(~ab)
            db = ndimage.distance_transform_edt(~bb)
            vals.append(float((db[ab].mean() + da[bb].mean()) / 2.0
                              / math.hypot(*a.bits.shape)))
    return float(np.mean(vals))


@pytest.mark.parametrize("seed", range(6))
def test_temporal_stability_matches_pairwise_formula(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(3, 30)), int(rng.integers(3, 30)))
    masks = []
    for _ in range(int(rng.integers(2, 9))):
        kind = rng.integers(4)
        if kind == 0:
            bits = np.zeros(shape, dtype=bool)
        elif kind == 1:  # full: its boundary is the image border
            bits = np.ones(shape, dtype=bool)
        else:
            bits = rng.random(shape) < rng.random()
        masks.append(mask(bits))
    assert temporal_stability(masks) == _temporal_stability_pairwise(masks)


def test_temporal_stability_empty_and_full_neighbours():
    empty, full = mask(np.zeros((6, 6))), mask(np.ones((6, 6)))
    assert temporal_stability([empty, empty, full, empty]) == \
        _temporal_stability_pairwise([empty, empty, full, empty]) == 2 / 3


def test_temporal_stability_needs_two_frames():
    with pytest.raises(ValueError):
        temporal_stability([mask(np.zeros((4, 4)))])


# ---------------------------------------------------------------------------
# summary statistics


def test_mean_recall_decay_examples():
    mean, recall, decay = mean_recall_decay([0.7, 0.7, 0.7, 0.7])
    assert (mean, recall, decay) == (pytest.approx(0.7), 1.0, 0.0)
    mean, recall, decay = mean_recall_decay([1.0] * 8)
    assert (mean, recall) == (1.0, 1.0)
    _, _, decay = mean_recall_decay([0.8, 0.7, 0.6, 0.5])
    assert decay == pytest.approx(0.3)


def test_mean_recall_decay_dict_input():
    mean, recall, decay = mean_recall_decay(
        {0: [1.0] * 4, 1: [0.0] * 4})
    assert mean == 0.5 and recall == 0.5 and decay == 0.0
