"""Evaluation suite: box/mask IoU, average precision (frame and video level),
ROC/AUC, and the segmentation measures J (region similarity), F (contour
accuracy) and T (temporal stability).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .proposals import iou as iou_box
from .segmentation import SegMask
from .tensor import ShapeError
from .toi import Box


@dataclass(frozen=True)
class Detection:
    """One frame-level or tube-level detection."""

    video: int
    cls: int
    confidence: float
    frame: int | None = None
    box: Box | None = None
    tube: dict | None = None  # frame index -> Box

    def __post_init__(self):
        if not math.isfinite(self.confidence):
            raise ValueError("non-finite confidence")


def iou_mask(a: SegMask, b: SegMask) -> float:
    """Mask IoU; two empty masks agree perfectly (J = 1)."""
    if a.bits.shape != b.bits.shape:
        raise ShapeError(f"mask dims differ: {a.bits.shape} vs {b.bits.shape}")
    union = (a.bits | b.bits).sum()
    if union == 0:
        return 1.0
    return float((a.bits & b.bits).sum() / union)


def tube_iou(a: dict, b: dict) -> float:
    """Spatio-temporal IoU: mean per-frame box IoU over the union of the two
    temporal extents; frames present in only one tube contribute 0."""
    frames = sorted(set(a) | set(b))
    if not frames:
        return 0.0
    vals = [iou_box(a[f], b[f]) if f in a and f in b else 0.0
            for f in frames]
    return float(np.mean(vals))


def _match_detections(detections, gts, match_fn, alpha):
    """Greedy confidence-order matching; each gt is consumed at most once.
    Returns (tp flags, fp flags) aligned with the sorted detection order."""
    order = sorted(range(len(detections)),
                   key=lambda i: (-detections[i].confidence, i))
    used = set()
    tp = np.zeros(len(order), bool)
    for rank, i in enumerate(order):
        det = detections[i]
        best, best_j = alpha, None
        for j, gt in enumerate(gts):
            if j in used or gt["video"] != det.video or gt["cls"] != det.cls:
                continue
            ov = match_fn(det, gt)
            if ov >= best and (best_j is None or ov > best):
                best, best_j = ov, j
        if best_j is not None:
            used.add(best_j)
            tp[rank] = True
    return tp, ~tp, order


def average_precision(detections, gts, match_fn, alpha: float) -> float:
    """Area under the exact precision-recall staircase (all points)."""
    npos = len(gts)
    if npos == 0:
        return 0.0
    if not detections:
        return 0.0
    tp, fp, _ = _match_detections(detections, gts, match_fn, alpha)
    ctp = np.cumsum(tp)
    cfp = np.cumsum(fp)
    recall = ctp / npos
    precision = ctp / np.maximum(ctp + cfp, 1)
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, precision):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


def _frame_match(det, gt):
    if det.frame != gt["frame"]:
        return 0.0
    return iou_box(det.box, gt["box"])


def _video_match(det, gt):
    return tube_iou(det.tube, gt["tube"])


def frame_map(dets, gts, alpha: float):
    """Mean over classes of frame-level AP. gts: dicts with video, frame,
    cls, box."""
    return _mean_ap(dets, gts, _frame_match, alpha)


def video_map(seq_dets, gt_tubes, alpha: float):
    """Mean over classes of tube-level AP. gts: dicts with video, cls, tube."""
    return _mean_ap(seq_dets, gt_tubes, _video_match, alpha)


def _mean_ap(dets, gts, match_fn, alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0,1)")
    classes = sorted({g["cls"] for g in gts})
    per_class = {}
    for cls in classes:
        d = [x for x in dets if x.cls == cls]
        g = [x for x in gts if x["cls"] == cls]
        per_class[cls] = average_precision(d, g, match_fn, alpha)
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return mean, per_class


def roc_auc(dets, gts, alpha: float):
    """ROC of true-positive rate against false positives per frame, over
    the distinct (video, frame) pairs of the ground truths.

    A detection is correct when its class matches and IoU >= alpha. The
    curve sweeps the confidence thresholds; AUC is the trapezoidal area with
    the FP axis normalized to [0, 1] by its maximum (a flat zero-FP curve
    integrates to its final TPR).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0,1)")
    npos = len(gts)
    num_frames = max(len({(g["video"], g.get("frame")) for g in gts}), 1)
    if not dets or npos == 0:
        return [(0.0, 0.0)], 0.0
    tp, fp, order = _match_detections(dets, gts, _frame_match, alpha)
    confs = [dets[i].confidence for i in order]
    ctp = np.cumsum(tp)
    cfp = np.cumsum(fp)
    points = [(0.0, 0.0)]
    for i in range(len(order)):
        if i + 1 < len(order) and confs[i + 1] == confs[i]:
            continue  # same threshold: only the complete prefix is a point
        points.append((cfp[i] / num_frames, ctp[i] / npos))
    xmax = points[-1][0]
    if xmax == 0.0:
        return points, points[-1][1]
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) / xmax * (y0 + y1) / 2.0
    return points, float(auc)


def _ndimage():
    """scipy.ndimage, imported at the first contour. Only contours use it,
    so every command but `eval` runs without loading scipy."""
    from scipy import ndimage
    return ndimage


def _boundary(bits: np.ndarray) -> np.ndarray:
    if not bits.any():
        return np.zeros_like(bits)
    eroded = _ndimage().binary_erosion(bits, border_value=0)
    return bits & ~eroded


def default_contour_tolerance(shape) -> int:
    """0.8% of the image diagonal, rounded up."""
    h, w = shape
    return math.ceil(0.008 * math.hypot(h, w))


@dataclass(frozen=True)
class Contour:
    """A mask's boundary pixels, and every pixel's distance to the nearest
    of them (None for a mask without boundary)."""

    boundary: np.ndarray
    distance: np.ndarray | None


def mask_contour(mask) -> Contour:
    """The `Contour` of a SegMask; a `Contour` is returned as it is."""
    if isinstance(mask, Contour):
        return mask
    b = _boundary(mask.bits)
    return Contour(b, _ndimage().distance_transform_edt(~b) if b.any()
                   else None)


def contour_f(pred, gt, tolerance: float | None = None) -> float:
    """Boundary F-measure: precision/recall of contour pixels within
    `tolerance` (Euclidean pixels) of the other contour. `pred` and `gt`
    are SegMasks or their `mask_contour`s."""
    p, g = mask_contour(pred), mask_contour(gt)
    if p.boundary.shape != g.boundary.shape:
        raise ShapeError(f"mask dims differ: {p.boundary.shape} vs "
                         f"{g.boundary.shape}")
    if tolerance is None:
        tolerance = default_contour_tolerance(p.boundary.shape)
    if p.distance is None and g.distance is None:
        return 1.0
    if p.distance is None or g.distance is None:
        return 0.0
    precision = float((g.distance[p.boundary] <= tolerance).mean())
    recall = float((p.distance[g.boundary] <= tolerance).mean())
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _symmetric_contour_distance(a: Contour, b: Contour) -> float:
    """Mean distance from each boundary pixel to the other boundary,
    averaged over both directions, normalized by the image diagonal."""
    if a.distance is None and b.distance is None:
        return 0.0
    if a.distance is None or b.distance is None:
        return 1.0
    return float((b.distance[a.boundary].mean()
                  + a.distance[b.boundary].mean()) / 2.0
                 / math.hypot(*a.boundary.shape))


def temporal_stability(masks) -> float:
    """Mean symmetric contour distance between consecutive masks (lower is
    more stable; a static sequence scores 0). `masks` are SegMasks or their
    `mask_contour`s; each contour is computed once, though interior masks
    take part in two pairs."""
    contours = [mask_contour(m) for m in masks]
    if len(contours) < 2:
        raise ValueError("temporal stability needs at least 2 frames")
    vals = [_symmetric_contour_distance(a, b)
            for a, b in zip(contours, contours[1:])]
    return float(np.mean(vals))


def mean_recall_decay(per_item_scores):
    """Summary statistics over per-item score lists.

    mean: average of all scores; recall: fraction above 0.5; decay: average
    over items of (first temporal quartile mean - last quartile mean).
    """
    if isinstance(per_item_scores, dict):
        items = list(per_item_scores.values())
    else:
        items = [list(per_item_scores)]
    allv = np.concatenate([np.asarray(v, dtype=np.float64) for v in items])
    if allv.size == 0:
        raise ValueError("no scores")
    mean = float(allv.mean())
    recall = float((allv > 0.5).mean())
    decays = []
    for v in items:
        quarts = np.array_split(np.asarray(v, dtype=np.float64), 4)
        first = quarts[0].mean() if quarts[0].size else 0.0
        last = quarts[-1].mean() if quarts[-1].size else 0.0
        decays.append(first - last)
    return mean, recall, float(np.mean(decays))


def write_report_csv(path, report: dict) -> None:
    """The per-class frame AP, frame-mAP, frame-mAP with true labels,
    video-mAP and AUC of a `run_eval` report (zeros without detections),
    then its J, F and T statistics and label accuracy when it scored
    segmentations."""
    aps = report.get("frame_ap", {})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["class", "ap"])
        for cls in sorted(aps):
            w.writerow([cls, f"{aps[cls]:.6f}"])
        for name, key in (("mAP", "frame_map"),
                          ("mAP_true_label", "frame_map_true_label"),
                          ("video_mAP", "video_map"), ("AUC", "auc")):
            w.writerow([name, f"{report.get(key, 0.0):.6f}"])
        for key in ("J_mean", "J_recall", "J_decay", "F_mean", "F_recall",
                    "F_decay", "T_mean", "label_accuracy"):
            if key in report:
                w.writerow([key, f"{report[key]:.6f}"])


def write_curve_svg(path, points, title: str, xlabel: str, ylabel: str) -> None:
    """Minimal standalone SVG line plot for ROC/PR curves."""
    width, height, margin = 480, 360, 48
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    xmax = max(max(xs), 1e-9)
    ymax = max(max(ys), 1e-9)

    def sx(x):
        return margin + (width - 2 * margin) * x / xmax

    def sy(y):
        return height - margin - (height - 2 * margin) * y / ymax

    path_d = " ".join(
        f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
        for i, (x, y) in enumerate(points)
    )
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="{width / 2}" y="20" text-anchor="middle">{title}</text>\n'
            f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>\n'
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>\n'
            f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
            f'font-size="12">{xlabel}</text>\n'
            f'<text x="14" y="{height / 2}" font-size="12" '
            f'transform="rotate(-90 14 {height / 2})">{ylabel}</text>\n'
            f'<path d="{path_d}" fill="none" stroke="crimson" '
            f'stroke-width="1.5"/>\n</svg>\n'
        )
