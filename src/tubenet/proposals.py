"""Tube Proposal Network machinery: data-driven anchors, actionness labels,
box regression encoding, and the projection of paired conv2/conv5 tube
features to a fixed-length descriptor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .toi import Box


@dataclass(frozen=True)
class Anchor:
    """Center-free box template (width, height) in pixels."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"anchor dims must be positive: {self}")


POSITIVE, NEGATIVE = "positive", "negative"
# a candidate whose IoU with some ground-truth box exceeds this is positive
POS_IOU = 0.7


@dataclass(frozen=True)
class LabeledBox:
    box: Box
    actionness: float
    label: str

    def __post_init__(self):
        if not 0.0 <= self.actionness <= 1.0:
            raise ValueError(f"actionness {self.actionness} outside [0,1]")


@dataclass(frozen=True)
class RegressionTarget:
    d_cx: float
    d_cy: float
    d_w: float
    d_h: float

    def __post_init__(self):
        for v in (self.d_cx, self.d_cy, self.d_w, self.d_h):
            if not math.isfinite(v):
                raise ValueError(f"non-finite regression target {self}")


def iou(a: Box, b: Box) -> float:
    """IoU of two inclusive-corner boxes."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1) + 1
    iy = min(a.y2, b.y2) - max(a.y1, b.y1) + 1
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.width * a.height + b.width * b.height - inter
    return inter / union if union > 0 else 0.0


def _iou_matrix(a, b) -> np.ndarray:
    """`iou` of every box of `a` with every box of `b`, in float64, with
    its operations in its order: the same bytes."""
    a = np.array([box.astuple() for box in a], dtype=np.float64).T[:, :, None]
    b = np.array([box.astuple() for box in b], dtype=np.float64).T[:, None]
    ix = np.minimum(a[2], b[2]) - np.maximum(a[0], b[0]) + 1
    iy = np.minimum(a[3], b[3]) - np.maximum(a[1], b[1]) + 1
    inter = ix * iy
    union = ((a[2] - a[0] + 1) * (a[3] - a[1] + 1)
             + (b[2] - b[0] + 1) * (b[3] - b[1] + 1) - inter)
    out = np.zeros(inter.shape)
    np.divide(inter, union, out=out, where=(ix > 0) & (iy > 0) & (union > 0))
    return out


def kmeans_anchors(boxes, k: int, seed: int):
    """Cluster (w, h) pairs into k anchors under the distance 1 - IoU of
    center-aligned boxes.

    Runs at most 100 iterations. Deterministic given the seed; distortion
    is non-increasing over the reported iterations (an iteration that would
    raise it is discarded).
    """
    pts = np.asarray([(float(w), float(h)) for w, h in boxes], dtype=np.float64)
    if pts.size == 0:
        raise ValueError("no boxes to cluster")
    distinct = np.unique(pts, axis=0)
    if not 1 <= k <= len(distinct):
        raise ValueError(f"k={k} not in [1, {len(distinct)} distinct boxes]")

    def dists(points, centers):
        inter = (np.minimum(points[:, None, 0], centers[None, :, 0])
                 * np.minimum(points[:, None, 1], centers[None, :, 1]))
        areas = points[:, 0] * points[:, 1]
        careas = centers[:, 0] * centers[:, 1]
        return 1.0 - inter / (areas[:, None] + careas[None] - inter)

    rng = np.random.default_rng(seed)
    centers = distinct[rng.choice(len(distinct), size=k, replace=False)]
    prev_distortion = np.inf
    for _ in range(100):
        d = dists(pts, centers)
        assign = d.argmin(axis=1)
        distortion = float(d[np.arange(len(pts)), assign].sum())
        if distortion > prev_distortion + 1e-12:
            break
        prev_distortion = distortion
        new_centers = centers.copy()
        for j in range(k):
            members = pts[assign == j]
            if len(members):
                new_centers[j] = members.mean(axis=0)
            else:
                new_centers[j] = pts[d.min(axis=1).argmax()]
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    order = np.lexsort((centers[:, 1], centers[:, 0]))
    return [Anchor(float(w), float(h)) for w, h in centers[order]]


def assign_actionness_labels(candidates, gt):
    """Label candidate boxes against ground truth.

    Positive when IoU > `POS_IOU` with any gt box, or when the candidate has
    the highest IoU for some gt box (so every gt gets at least one
    positive). Everything else is negative. Each candidate's actionness is
    its best IoU.
    """
    if not candidates:
        return []
    ious = (_iou_matrix(candidates, gt) if gt
            else np.zeros((len(candidates), 1)))
    positive = (ious > POS_IOU).any(axis=1)
    if gt:
        positive[ious.argmax(axis=0)] = True
    return [LabeledBox(c, best, POSITIVE if pos else NEGATIVE)
            for c, best, pos in zip(candidates, ious.max(axis=1).tolist(),
                                    positive.tolist())]


def encode_regression(anchor_box: Box, gt: Box) -> RegressionTarget:
    """Raw center and size displacements, in pixels."""
    acx, acy = anchor_box.center
    gcx, gcy = gt.center
    return RegressionTarget(gcx - acx, gcy - acy,
                            gt.width - anchor_box.width,
                            gt.height - anchor_box.height)


def decode_regression(anchor_box: Box, t: RegressionTarget) -> Box:
    """The box `t` displaces `anchor_box` to; a shrink past one pixel
    leaves a width or height of one pixel."""
    acx, acy = anchor_box.center
    cx, cy = acx + t.d_cx, acy + t.d_cy
    w = max(anchor_box.width + t.d_w, 1.0)
    h = max(anchor_box.height + t.d_h, 1.0)
    return Box(cx - (w - 1) / 2.0, cy - (h - 1) / 2.0,
               cx + (w - 1) / 2.0, cy + (h - 1) / 2.0)


def smooth_l1(diff: np.ndarray):
    """Smooth-L1 loss, elementwise-summed in float64, and its gradient in
    the dtype of `diff`."""
    small = np.abs(diff) < 1.0
    grad = np.where(small, diff, np.sign(diff))
    d = np.asarray(diff, dtype=np.float64)
    loss = np.where(small, 0.5 * d * d, np.abs(d) - 0.5).sum()
    return float(loss), grad


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Whole-vector L2 normalization; a zero vector is left untouched."""
    norm = float(np.linalg.norm(v.ravel()))
    return v if norm == 0.0 else v / norm


class PairedFeatureProjector:
    """Trainable 1x1 projections reducing the paired ToI-pooled tubes to a
    fixed-length descriptor.

    Each tube is L2-normalized, the conv5 tube is duplicated along depth to
    match the conv2 tube, each is channel-projected by a 1x1 convolution,
    and the two halves are vectorized and concatenated. The weights are
    float32, drawn in float64 as they always were, so the generator's
    stream after them does not move.
    """

    def __init__(self, conv2_channels, conv5_channels, proj2, proj5, rng):
        from .tensor import glorot_uniform
        self.w2, self.w5 = (
            glorot_uniform((p, c), rng, c, p, dtype=np.float64)
            .astype(np.float32) for p, c in ((proj2, conv2_channels),
                                             (proj5, conv5_channels)))

    def output_length(self, tube2_shape, tube5_shape) -> int:
        _, d2, h2, w2 = tube2_shape
        _, _, h5, w5 = tube5_shape
        return (self.w2.shape[0] * d2 * h2 * w2
                + self.w5.shape[0] * d2 * h5 * w5)

    def forward(self, pooled2: np.ndarray, pooled5: np.ndarray):
        n2 = l2_normalize(pooled2)
        n5 = l2_normalize(pooled5)
        dup5 = np.repeat(n5, pooled2.shape[1] // pooled5.shape[1], axis=1)
        p2 = np.einsum("oc,cdhw->odhw", self.w2, n2)
        p5 = np.einsum("oc,cdhw->odhw", self.w5, dup5)
        vec = np.concatenate([p2.ravel(), p5.ravel()])
        cache = (pooled2, pooled5, n2, dup5, p2.shape, p5.shape)
        return vec, cache

    def backward(self, grad_vec: np.ndarray, cache):
        pooled2, pooled5, n2, dup5, s2, s5 = cache
        g2 = grad_vec[: int(np.prod(s2))].reshape(s2)
        g5 = grad_vec[int(np.prod(s2)):].reshape(s5)
        gw2 = np.einsum("odhw,cdhw->oc", g2, n2)
        gw5 = np.einsum("odhw,cdhw->oc", g5, dup5)
        gn2 = np.einsum("oc,odhw->cdhw", self.w2, g2)
        gdup5 = np.einsum("oc,odhw->cdhw", self.w5, g5)
        rep = pooled2.shape[1] // pooled5.shape[1]
        gn5 = gdup5.reshape(gdup5.shape[0], pooled5.shape[1], rep,
                            *gdup5.shape[2:]).sum(axis=2)
        gp2 = _l2_normalize_backward(gn2, pooled2)
        gp5 = _l2_normalize_backward(gn5, pooled5)
        return gp2, gp5, gw2, gw5


def _l2_normalize_backward(grad_n: np.ndarray, x: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(x.ravel()))
    if norm == 0.0:
        return grad_n
    n = x / norm
    return (grad_n - n * np.vdot(n, grad_n)) / norm
