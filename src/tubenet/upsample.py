"""3D sub-pixel upsampling.

A convolution in low resolution expands channels by p_d*p_h*p_w, then a
channel-to-space&depth permutation scatters each expanded channel group into
a p_d x p_h x p_w block of the high resolution cube:

    HR[c, i, j, k] = EXP[c', i//p_d, j//p_h, k//p_w]
    c' = c*p_d*p_h*p_w + mod(i, p_d) + p_w*mod(j, p_h) + p_w*p_h*mod(k, p_w)

The raw channel offset mod(i,p_d) + p_w*mod(j,p_h) + p_w*p_h*mod(k,p_w) is
only a permutation of [0, p_d*p_h*p_w) when p_d = p_w; for p_d < p_w the
offsets are still distinct but leave gaps, so they are compacted by rank to
keep the index map a bijection. When p_d = p_w the compaction is the
identity and the formula above holds verbatim.

With a = mod(i,p_d), b = mod(j,p_h) and c = mod(k,p_w), the compacted offset
is a + p_d*b + p_d*p_h*c whenever p_d <= p_w: a < p_d <= p_w, so a + p_w*b
stays below p_w*(b + 1) and the raw offsets sort as the triples (c, b, a)
do, whose rank is that sum. The offset is then a mixed-radix number with
digits (c, b, a), and the permutation is one reshape of the expanded cube to
(C, p_w, p_h, p_d, D, H, W) plus one transpose to (C, D, p_d, H, p_h, W,
p_w), which is the HR cube; it moves every element exactly where the
formula does. `UpscaleFactors.offset_table` keeps the formula itself.

Un-pooling is the alternative the upsampler ablation runs: each LR value
lands on the first corner of its p_d x p_h x p_w block, zeros elsewhere,
and a convolution in high resolution follows (`networks.UnpoolUp`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import KernelSet, ShapeError, conv3d


@dataclass(frozen=True)
class UpscaleFactors:
    """Integer upscale factors for depth, height and width.

    Factor combinations whose channel-offset map is not a bijection of
    [0, p_d*p_h*p_w) (possible when p_d > p_w) are rejected up front.
    """

    p_d: int
    p_h: int
    p_w: int

    def __post_init__(self):
        if min(self.p_d, self.p_h, self.p_w) < 1:
            raise ValueError(f"factors must be >= 1, got {self}")
        if len(set(self.raw_offsets().ravel())) != self.volume:
            raise ValueError(
                f"factors {self} make the channel offset map collide; "
                f"only combinations with p_d <= p_w are bijective"
            )

    @property
    def volume(self) -> int:
        return self.p_d * self.p_h * self.p_w

    def raw_offsets(self) -> np.ndarray:
        """Channel offset of each (i, j, k) phase, as printed."""
        a = np.arange(self.p_d)[:, None, None]
        b = np.arange(self.p_h)[None, :, None]
        c = np.arange(self.p_w)[None, None, :]
        return a + self.p_w * b + self.p_w * self.p_h * c

    def offset_table(self) -> np.ndarray:
        """Raw offsets compacted by rank into [0, volume); identical to
        raw_offsets when p_d = p_w."""
        raw = self.raw_offsets()
        return np.searchsorted(np.sort(raw.ravel()), raw)


def channel_to_spacedepth(expanded: np.ndarray, p: UpscaleFactors) -> np.ndarray:
    """Permute a (C*v, D, H, W) cube into (C, p_d*D, p_h*H, p_w*W)."""
    ce, d, h, w = expanded.shape
    if ce % p.volume:
        raise ShapeError(f"{ce} channels not divisible by factor volume {p.volume}")
    c_out = ce // p.volume
    out = np.empty((c_out, p.p_d * d, p.p_h * h, p.p_w * w),
                   dtype=expanded.dtype)
    # expanded (c*v + a + p_d*b + p_d*p_h*q, i, j, l) lands on HR
    # (c, p_d*i + a, p_h*j + b, p_w*l + q)
    out.reshape(c_out, d, p.p_d, h, p.p_h, w, p.p_w)[...] = expanded.reshape(
        c_out, p.p_w, p.p_h, p.p_d, d, h, w).transpose(0, 4, 3, 5, 2, 6, 1)
    return out


def channel_to_spacedepth_backward(grad_hr: np.ndarray, p: UpscaleFactors
                                   ) -> np.ndarray:
    """Inverse permutation: gradients (or values) back to the expanded layout."""
    c, dh, hh, wh = grad_hr.shape
    if dh % p.p_d or hh % p.p_h or wh % p.p_w:
        raise ShapeError(f"HR shape {grad_hr.shape} not divisible by factors {p}")
    d, h, w = dh // p.p_d, hh // p.p_h, wh // p.p_w
    out = np.empty((c * p.volume, d, h, w), dtype=grad_hr.dtype)
    out.reshape(c, p.p_w, p.p_h, p.p_d, d, h, w)[...] = grad_hr.reshape(
        c, d, p.p_d, h, p.p_h, w, p.p_w).transpose(0, 6, 4, 2, 1, 3, 5)
    return out


def subpixel_upsample3d(lr: np.ndarray, kernels: KernelSet, p: UpscaleFactors
                        ) -> np.ndarray:
    """Channel-expanding convolution in LR space followed by the permutation."""
    if kernels.out_channels % p.volume:
        raise ShapeError(
            f"kernel out channels {kernels.out_channels} not divisible by "
            f"factor volume {p.volume}"
        )
    kd, kh, kw = kernels.kdhw
    expanded = conv3d(lr, kernels, pad=(kd // 2, kh // 2, kw // 2))
    return channel_to_spacedepth(expanded, p)


def unpool3d(lr: np.ndarray, p: UpscaleFactors) -> np.ndarray:
    """Place each LR value on the first corner of its p-block of the HR
    grid, zeros elsewhere."""
    c, d, h, w = lr.shape
    hr = np.zeros((c, d * p.p_d, h * p.p_h, w * p.p_w), dtype=lr.dtype)
    hr[:, ::p.p_d, ::p.p_h, ::p.p_w] = lr
    return hr


def unpool3d_backward(grad_hr: np.ndarray, p: UpscaleFactors) -> np.ndarray:
    """The gradient at each block's first corner, as an LR cube."""
    _, dh, hh, wh = grad_hr.shape
    if dh % p.p_d or hh % p.p_h or wh % p.p_w:
        raise ShapeError(f"HR shape {grad_hr.shape} not divisible by factors {p}")
    return np.ascontiguousarray(grad_hr[:, ::p.p_d, ::p.p_h, ::p.p_w])
