"""Tube-of-Interest pooling.

A tube is one box per feature frame. Pooling runs in two max stages:
each frame's box is divided into H x W spatial bins, then frames are
grouped into D temporal bins. The argmax of every output element is
recorded through both stages so the backward pass can route gradients
to exactly the winning input cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ArgmaxMap, ShapeError


@dataclass(frozen=True)
class Box:
    """Inclusive-corner box (x1, y1) .. (x2, y2) in cell or pixel units."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"degenerate box {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1 + 1

    @property
    def height(self) -> float:
        return self.y2 - self.y1 + 1

    @property
    def center(self):
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def astuple(self):
        return (self.x1, self.y1, self.x2, self.y2)


@dataclass(frozen=True)
class Tube:
    """Ordered per-frame boxes; length must equal the host cube depth."""

    boxes: tuple

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not self.boxes:
            raise ValueError("empty tube")

    def __len__(self):
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __getitem__(self, i):
        return self.boxes[i]


def full_frame_tube(depth: int, h: int, w: int) -> Tube:
    return Tube(tuple(Box(0, 0, w - 1, h - 1) for _ in range(depth)))


def bin_edges(extent: int, bins: int):
    """Contiguous bin boundaries over [0, extent) via start_k = floor(k*extent/bins).

    When extent < bins, empty bins clamp onto the nearest source cell so
    every bin holds at least one element.
    """
    if bins < 1 or extent < 1:
        raise ValueError(f"extent {extent} and bins {bins} must be >= 1")
    edges = []
    for k in range(bins):
        start = (k * extent) // bins
        end = ((k + 1) * extent) // bins
        start = min(start, extent - 1)
        end = max(end, start + 1)
        edges.append((start, end))
    return edges


def pixel_box_to_cells(box: Box, feat_hw, pixel_hw) -> Box:
    """Map a pixel-space box onto a feature grid, rounding outward."""
    fh, fw = feat_hw
    ph, pw = pixel_hw
    sy, sx = fh / ph, fw / pw
    x1 = max(0, math.floor(box.x1 * sx))
    y1 = max(0, math.floor(box.y1 * sy))
    x2 = min(fw - 1, max(x1, math.ceil((box.x2 + 1) * sx) - 1))
    y2 = min(fh - 1, max(y1, math.ceil((box.y2 + 1) * sy) - 1))
    return Box(x1, y1, x2, y2)


def _cell_box(box: Box, h: int, w: int) -> tuple:
    x1, y1, x2, y2 = (int(round(v)) for v in box.astuple())
    if not (0 <= x1 <= x2 < w and 0 <= y1 <= y2 < h):
        raise ShapeError(f"box {box.astuple()} outside {h}x{w} feature map")
    return x1, y1, x2, y2


def _box_runs(tube: Tube, h: int, w: int):
    """(first frame, end frame, cell box) of each run of consecutive frames
    whose boxes land on the same cells."""
    boxes = [_cell_box(box, h, w) for box in tube]
    starts = [t for t in range(len(boxes))
              if t == 0 or boxes[t] != boxes[t - 1]]
    return [(t0, t1, boxes[t0])
            for t0, t1 in zip(starts, starts[1:] + [len(boxes)])]


def toi_pool_forward(features: np.ndarray, tube: Tube, out_shape):
    """Pool a (C, d, h, w) cube over a d-frame tube to (C, D, H, W).

    Returns the pooled cube and an ArgmaxMap of flat indices into
    `features` selected through both the spatial and temporal stages.
    Each spatial bin holds its first maximum in row-major order, and each
    temporal bin its first frame's; as in `np.argmax`, a NaN beats any
    number and the first NaN wins.
    """
    c, d, h, w = features.shape
    if len(tube) != d:
        raise ShapeError(f"tube length {len(tube)} != feature depth {d}")
    D, H, W = out_shape
    if D > d:
        raise ShapeError(f"output depth {D} > feature depth {d}")

    # Stage 1: spatial pooling of each box into H x W bins. The frames of
    # a run share their bins, so one argmax per bin pools the whole run.
    spat_idx = np.empty((c, d, H, W), dtype=np.int64)
    frame_base = (np.arange(c)[:, None] * d + np.arange(d)) * (h * w)
    cells = np.arange(h * w).reshape(h, w)
    for t0, t1, (x1, y1, x2, y2) in _box_runs(tube, h, w):
        run = features[:, t0:t1]
        base = frame_base[:, t0:t1]
        for bi, (ys, ye) in enumerate(bin_edges(y2 - y1 + 1, H)):
            rows = slice(y1 + ys, y1 + ye)
            for bj, (xs, xe) in enumerate(bin_edges(x2 - x1 + 1, W)):
                cols = slice(x1 + xs, x1 + xe)
                arg = run[:, :, rows, cols].reshape(c, t1 - t0, -1) \
                    .argmax(axis=2)
                np.add(base, cells[rows, cols].ravel()[arg],
                       out=spat_idx[:, t0:t1, bi, bj])
    flat = np.ascontiguousarray(features).reshape(-1)
    if D == d:  # one frame per temporal bin: stage 2 selects nothing
        return flat[spat_idx], ArgmaxMap(spat_idx, features.shape)

    # Stage 2: temporal max over groups of adjacent frames.
    spat = flat[spat_idx]
    idx = np.empty((c, D, H, W), dtype=np.int64)
    for bd, (ts, te) in enumerate(bin_edges(d, D)):
        arg = spat[:, ts:te].argmax(axis=1)
        idx[:, bd] = np.take_along_axis(
            spat_idx[:, ts:te], arg[:, None], axis=1)[:, 0]
    return flat[idx], ArgmaxMap(idx, features.shape)


def toi_pool_backward(grad_out: np.ndarray, amap: ArgmaxMap) -> np.ndarray:
    """Adjoint of the forward selection: each output gradient is routed to
    its argmax input cell; gradients sum when one input wins several outputs."""
    if grad_out.shape != amap.indices.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != pooled shape {amap.indices.shape}"
        )
    grad_in = np.zeros(int(np.prod(amap.in_shape)), dtype=grad_out.dtype)
    np.add.at(grad_in, amap.indices.ravel(), grad_out.ravel())
    return grad_in.reshape(amap.in_shape)
