"""Per-pixel foreground prediction utilities for the bottom-up pipeline:
binary masks and their file format, mask-to-box inference and the
segmentation loss.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError
from .toi import Box

SM_MAGIC = b"SM"
SM_HEADER_BYTES = 2 + struct.calcsize("<2I")


@dataclass(frozen=True)
class SegMask:
    """Binary foreground map, bool (H, W)."""

    bits: np.ndarray

    def __post_init__(self):
        if self.bits.ndim != 2 or min(self.bits.shape) < 1:
            raise ShapeError(f"mask needs positive 2 dims, got {self.bits.shape}")
        object.__setattr__(self, "bits", self.bits.astype(bool))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]


def save_mask(path, bits: np.ndarray) -> None:
    """Header: magic "SM", H and W as LE u32; payload: row-major packed bits."""
    h, w = bits.shape
    with open(path, "wb") as fh:
        fh.write(SM_MAGIC + struct.pack("<2I", h, w))
        fh.write(np.packbits(bits.astype(bool).ravel()).tobytes())


def load_mask(path) -> np.ndarray:
    """Read a `save_mask` file; a short header or payload is an error."""
    with open(path, "rb") as fh:
        header = fh.read(SM_HEADER_BYTES)
        if header[:2] != SM_MAGIC:
            raise ValueError(f"{path}: bad magic {header[:2]!r}")
        if len(header) < SM_HEADER_BYTES:
            raise ValueError(f"{path}: truncated header, {len(header)} of "
                             f"{SM_HEADER_BYTES} bytes")
        h, w = struct.unpack("<2I", header[2:])
        packed = np.frombuffer(fh.read(), dtype=np.uint8)
    need = (h * w + 7) // 8
    if packed.size < need:
        raise ValueError(f"{path}: truncated payload, {packed.size} of "
                         f"{need} bytes")
    bits = np.unpackbits(packed, count=h * w).astype(bool)
    return bits.reshape(h, w)


def mask_to_box(mask: SegMask) -> Box | None:
    """Tightest box enclosing all foreground pixels; None if the mask is empty."""
    ys, xs = np.nonzero(mask.bits)
    if ys.size == 0:
        return None
    return Box(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))


def channel_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the channel axis of a (2, D, H, W) logit cube: each
    pixel's background and foreground probabilities."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def segmentation_loss(logits: np.ndarray, gt_masks):
    """Mean per-pixel 2-class cross-entropy over a (2, D, H, W) logit cube.

    Channel 1 is foreground. Returns (loss, grad wrt logits).
    """
    if logits.shape[0] != 2:
        raise ShapeError(f"expected 2 logit channels, got {logits.shape}")
    labels = np.stack([m.bits for m in gt_masks])
    if labels.shape != logits.shape[1:]:
        raise ShapeError(
            f"gt masks {labels.shape} do not match logits {logits.shape[1:]}"
        )
    p = channel_softmax(logits)
    n = labels.size
    picked = np.where(labels, p[1], p[0])
    loss = float(-np.log(np.maximum(picked, np.finfo(p.dtype).tiny)).sum(
        dtype=np.float64) / n)
    grad = p - np.stack([~labels, labels])
    grad /= n
    return loss, grad
