"""Dense 4-D tensor engine: 3D conv / max-pool / FC layers with hand-written
backward passes, a finite-difference gradient oracle, and the binary tensor
file format.

Tensors are plain numpy arrays in fixed (C, D, H, W) layout: channels, then
depth (frames), height, width.

One dtype: every array lives in the model's dtype, float32 in the
pipelines. Parameters, gradients, activations and caches keep it through
each layer, and each backward returns the gradient of an input in that
input's dtype. float64 is kept only where a scalar is reduced (loss sums,
the softmax normaliser, the gradient-clip norm, smooth-L1), in box
geometry (pixel boxes are Python floats, so anchor clustering and the
IoUs behind the actionness labels are too), in `metrics`, in
`finite_diff_grad`, and in `synth`, whose float64 draws keep the
dataset's bytes.

Every GEMM goes through the BLAS that numpy loaded. How that BLAS splits a
GEMM across threads changes the last bits of the result, so runs hold it at
one thread with `blas_threads` to make output bytes independent of the
core count. `blas_threads` finds that BLAS's thread control through a
handle to numpy's own `_multiarray_umath` extension, so it never reaches
another OpenBLAS in the process, such as scipy's. The second core then
goes to whole units of work instead: a large `conv3d` hands half of its
(band, frame) units to a second thread that the call starts and joins;
it is the only call that does. Each worker has scratch of its own, sized
from one budget per call (`_workers`): on two workers each band is half
the size it would be on one, so a call's scratch does not grow with its
worker count. No conv
makes a padded copy of its input: a worker copies the zero-padded input
rows of one band at a time (`_Im2col`). A conv's GEMMs write into the
output itself, so no worker holds a product buffer. A frame whose im2col
matrix is large is computed in bands of whole output rows, and a band's
GEMM is a column slice of its frame's: OpenBLAS's blocked
sgemm sums each output element over K in an order that depends on K
alone. Two other paths sum in other orders, and no band takes either.
numpy runs a product with one output row or column as a GEMV, so a frame
with one output channel is never banded and no band has one column.
OpenBLAS runs a GEMM of M*N*K up to 1e6 in a small-matrix kernel, so
every band's M*N*K exceeds `_GEMM_MIN_MNK`. The bytes therefore stay the
same at one worker or two, banded or whole.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import struct
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from numpy._core import _multiarray_umath
from numpy.lib.stride_tricks import as_strided, sliding_window_view

T4_MAGIC = b"T4"
T4_VERSION = 1
T4_HEADER_BYTES = 2 + struct.calcsize("<H4I")


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def save_tensor(path, values: np.ndarray) -> None:
    """Write a 4-D array: magic "T4", u16 version, four LE u32 dims, then
    raw little-endian float32 values in (C, D, H, W) order."""
    if values.ndim != 4:
        raise ShapeError(f"tensor file stores 4 dims, got {values.shape}")
    header = T4_MAGIC + struct.pack("<H4I", T4_VERSION, *values.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(T4_HEADER_BYTES)
        if header[:2] != T4_MAGIC:
            raise ValueError(f"{path}: bad magic {header[:2]!r}")
        if len(header) < T4_HEADER_BYTES:
            raise ValueError(f"{path}: truncated header, {len(header)} of "
                             f"{T4_HEADER_BYTES} bytes")
        version, c, d, h, w = struct.unpack("<H4I", header[2:])
        if version != T4_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        values = np.frombuffer(fh.read(4 * c * d * h * w), dtype="<f4")
    if values.size != c * d * h * w:
        raise ValueError(f"{path}: truncated payload")
    return values.reshape(c, d, h, w).copy()


@dataclass(frozen=True)
class KernelSet:
    """Convolution weights (out, in, kd, kh, kw) plus per-out-channel bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 5:
            raise ShapeError(f"weights need 5 dims, got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} != ({self.weights.shape[0]},)"
            )

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kdhw(self):
        return self.weights.shape[2:]


@dataclass(frozen=True)
class ArgmaxMap:
    """For each output element, the flat index of the winning input element."""

    indices: np.ndarray  # int64, shaped like the output
    in_shape: tuple

    def __post_init__(self):
        size = int(np.prod(self.in_shape))
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= size
        ):
            raise ValueError("argmax index out of bounds for source shape")


# Elements `glorot_uniform` draws and scales at a time: its float64
# temporary stays at 512 KiB whatever the weights' size.
_DRAW_CHUNK = 2**16


def glorot_uniform(shape, rng: np.random.Generator, fan_in: int, fan_out: int,
                   dtype=np.float32) -> np.ndarray:
    """Uniform weights in +-sqrt(6 / (fan_in + fan_out)); `dtype` is
    float32 or float64, the two dtypes the generator draws in.

    Drawn and scaled in chunks into the output. Each chunk is
    `rng.random(size, dtype)` followed by `r * (2 * limit) - limit` in
    float64, rounded to `dtype` on store: the bytes, and the generator's
    state after the call, of the one-shot draw of the whole shape.
    """
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _DRAW_CHUNK):
        chunk = flat[lo:lo + _DRAW_CHUNK]
        rng.random(out=chunk, dtype=dtype)
        np.subtract(chunk * (2 * limit), limit, out=chunk)
    return out


def make_kernels(out_channels: int, in_channels: int, kdhw, rng) -> KernelSet:
    """float32 Glorot weights and a zero bias."""
    kd, kh, kw = kdhw
    fan_in = in_channels * kd * kh * kw
    fan_out = out_channels * kd * kh * kw
    w = glorot_uniform((out_channels, in_channels, kd, kh, kw), rng,
                       fan_in, fan_out)
    return KernelSet(w, np.zeros(out_channels, dtype=np.float32))


# ---------------------------------------------------------------------------
# Two workers for large convs

# The size, in bytes, of one output frame's im2col matrix from which
# `conv3d` splits its work between two workers. It is also the most
# scratch a conv holds for its units of work, whatever its worker count
# (`_workers`): on one worker a unit is a band of a frame's im2col matrix
# of at most this size (unless the floor in `_Im2col.bands` keeps a band
# wider, which no conv of either reference table meets); on two, each
# worker's band is at most half of it. Every desk-scale conv frame at
# 80x112 is under 8 MiB (the largest, 7.38 MiB, is up1's input-gradient
# conv in `STCNN.train_step`); every conv frame of the top-down reference
# forward at 300x400 is at least 26.3 MB (conv5a/b at 19x25).
_SPLIT_MIN_BYTES = 16 * 2**20

# Every im2col band's GEMM (M output channels, N columns, K rows) has
# M*N*K above this: OpenBLAS's sgemm sums in another order in its
# small-matrix kernel, which it takes up to M*N*K = 1e6; twice that is
# the margin.
_GEMM_MIN_MNK = 2**21


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def _on_two_workers(work, mine, theirs):
    """`work(*theirs)` on a new thread while `work(*mine)` runs here;
    returns once both have, raising this thread's error, else the other's.
    `work` runs numpy only, never a public tubenet function."""
    errors = []

    def helper():
        try:
            work(*theirs)
        except BaseException as e:  # re-raised here, after the join
            errors.append(e)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        work(*mine)
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _workers(gate_bytes):
    """How many workers a `conv3d` runs on: two when `gate_bytes` (one
    output frame's im2col matrix) is at least `_SPLIT_MIN_BYTES`, BLAS is
    held at one thread (otherwise BLAS itself uses the cores) and the
    process may run on two CPUs; else one. The conv sizes its bands from
    this, so that its workers share one scratch budget."""
    if (gate_bytes < _SPLIT_MIN_BYTES or blas_thread_count() != 1
            or _usable_cpus() < 2):
        return 1
    return 2


# ---------------------------------------------------------------------------
# 3D convolution


def _pad_pairs(pad):
    """(before, after) zeros of each axis of a conv's `pad`, whose entries
    are a count for both sides or such a pair."""
    return tuple((p, p) if np.ndim(p) == 0 else tuple(p) for p in pad)


def conv3d_out_shape(in_shape, kernels: KernelSet, stride=(1, 1, 1), pad=(1, 1, 1)):
    c, d, h, w = in_shape
    if c != kernels.in_channels:
        raise ShapeError(
            f"input has {c} channels but kernels expect {kernels.in_channels} "
            f"(input {in_shape}, weights {kernels.weights.shape})"
        )
    kd, kh, kw = kernels.kdhw
    outs = []
    for ext, k, s, (p0, p1) in zip((d, h, w), (kd, kh, kw), stride,
                                   _pad_pairs(pad)):
        o = (ext + p0 + p1 - k) // s + 1
        if o < 1:
            raise ShapeError(
                f"kernel {kernels.kdhw} does not fit input {in_shape} "
                f"with stride {stride} pad {pad}"
            )
        outs.append(o)
    return (kernels.out_channels,) + tuple(outs)


class _Im2col:
    """The im2col matrix of output rows [r0, r1) of an output frame of a
    stride-1 convolution: (C*kd*kh*kw, (r1-r0)*ow), rows ordered
    (C, kd, kh, kw). A frame's matrix is its bands' matrices side by side.

    No padded copy of the input is made. Each worker's scratch, from
    `buffer(rows)`, holds the matrix and a slab: the zero-padded input rows
    that one band of output rows reads, over every padded frame. A frame
    that is one band reads all of them, so its slab is the whole padded
    input. `band(d, r0, r1, scratch)` refills the slab only when asked for
    another band than the one before, so a worker that walks its units
    band-major copies each band's rows once. It copies the matrix into the
    scratch and returns it: a worker must finish with one matrix before
    asking for the next; workers holding scratch of their own may fill
    theirs at once.
    """

    def __init__(self, x: np.ndarray, kdhw, pad):
        self.x, self.kdhw, self.pad = x, tuple(kdhw), _pad_pairs(pad)
        self.oh, self.ow = (n + p0 + p1 - k + 1 for n, k, (p0, p1)
                            in zip(x.shape[2:], kdhw[1:], self.pad[1:]))
        self.k = x.shape[0] * int(np.prod(kdhw))
        self.frame_bytes = self.k * self.oh * self.ow * x.itemsize

    def bands(self, m, workers):
        """(r0, r1) of each band of a frame convolved into `m` output
        channels on `workers` workers, in order: the fewest even bands of
        at most `_SPLIT_MIN_BYTES / workers` bytes each whose count is a
        multiple of `workers`, so that each worker gets as many (on one
        worker, the whole frame if it fits). A band is a GEMM of m rows
        and at least two columns whose M*N*K exceeds `_GEMM_MIN_MNK`, and
        where that floor would be crossed, it wins: fewer, larger bands,
        or with m = 1 the whole frame."""
        if m < 2:
            return [(0, self.oh)]
        row_bytes = self.frame_bytes // self.oh
        most_rows = max(1, _SPLIT_MIN_BYTES // workers // row_bytes)
        fewest_rows = max(_GEMM_MIN_MNK // (m * self.k * self.ow) + 1,
                          -(-2 // self.ow))
        n = -(-self.oh // most_rows)
        n = max(1, min(-(-n // workers) * workers, self.oh // fewest_rows))
        return [(i * self.oh // n, (i + 1) * self.oh // n) for i in range(n)]

    def buffer(self, rows):
        """Scratch for one worker's bands of up to `rows` rows."""
        c, d, _, w = self.x.shape
        (pd, _, pw), kh = self.pad, self.kdhw[1]
        return _BandScratch(
            np.empty(self.k * rows * self.ow, dtype=self.x.dtype),
            np.zeros((c, d + sum(pd), rows + kh - 1, w + sum(pw)),
                     dtype=self.x.dtype))

    def band(self, d, r0, r1, scratch):
        if scratch.rows != (r0, r1):
            scratch.win = self._fill(r0, r1, scratch.slab)
            scratch.rows = (r0, r1)
        kd, kh, kw = self.kdhw
        mat = scratch.mat[:self.k * (r1 - r0) * self.ow].reshape(
            -1, kd, kh, kw, r1 - r0, self.ow)
        np.copyto(mat, scratch.win[:, d].transpose(0, 3, 4, 5, 1, 2))
        return mat.reshape(self.k, -1)

    def _fill(self, r0, r1, slab):
        """Copy the input rows that output rows [r0, r1) read into the
        slab, zero its rows that fall in the padding, and return the
        (C, oD, r1-r0, oW, kd, kh, kw) window view of them. The slab's
        padded frames and columns are zero from `buffer` on."""
        x = self.x
        _, d, h, w = x.shape
        (pd, _), (ph, _), (pw, _) = self.pad
        top = r0 - ph  # the input row of the slab's first row
        n = r1 - r0 + self.kdhw[1] - 1
        a = min(max(top, 0), h)
        b = max(min(top + n, h), a)
        rows = slab[:, :, :n]
        rows[:, :, :a - top] = 0
        rows[:, :, b - top:] = 0
        rows[:, pd:pd + d, a - top:b - top, pw:pw + w] = x[:, :, a:b]
        return sliding_window_view(rows, self.kdhw, axis=(1, 2, 3))


class _BandScratch:
    """One worker's `_Im2col` scratch: the matrix buffer `mat`, the `slab`
    of padded input rows, and the band (`rows`) whose window view (`win`)
    the slab holds."""

    def __init__(self, mat, slab):
        self.mat, self.slab = mat, slab
        self.rows = self.win = None


def conv3d(x: np.ndarray, kernels: KernelSet, *, pad=(1, 1, 1)) -> np.ndarray:
    """Stride-1 cross-correlation of a (C,D,H,W) cube with a KernelSet,
    zero-padded by `pad`: per axis, a count for both sides or a (before,
    after) pair.

    Computed one band of output rows of one frame at a time via im2col +
    GEMM, to bound the scratch memory on large feature maps
    (`_Im2col.bands`: a frame at desk scale is one band). Each worker reuses
    one im2col scratch of its own, allocated here, and walks its units
    band-major, so that it copies each band's padded input rows once. Each
    GEMM writes its product straight into its rows of the output, a strided
    view, so no product buffer exists. A call whose frames are large enough
    runs on two workers (`_workers`): it cuts its frames into an even
    number of bands of at most half the one-worker size and hands the
    second half of its (band, frame) units to a second thread
    (`_on_two_workers`). A band's GEMM is a column slice of its frame's,
    and each output element's sum over K is the same in both, so the bytes
    depend neither on the banding nor on the worker count.
    """
    out_shape = conv3d_out_shape(x.shape, kernels, (1, 1, 1), pad)
    oc, od, oh, ow = out_shape
    w2 = kernels.weights.reshape(oc, -1)
    out = np.empty(out_shape, dtype=np.result_type(x, kernels.weights))
    im2col = _Im2col(x, kernels.kdhw, pad)
    workers = _workers(im2col.frame_bytes)
    bands = im2col.bands(oc, workers)
    units = [(d, r0, r1) for r0, r1 in bands for d in range(od)]
    rows = max(r1 - r0 for r0, r1 in bands)

    def run(part, cols):
        for d, r0, r1 in part:
            np.matmul(w2, im2col.band(d, r0, r1, cols),
                      out=out[:, d, r0:r1].reshape(oc, -1))

    if workers < 2 or len(units) < 2:
        run(units, im2col.buffer(rows))
    else:
        # both workers' scratch is allocated here, not in the second
        # thread: memory a thread frees stays in its own malloc arena
        half = (len(units) + 1) // 2
        _on_two_workers(run, (units[:half], im2col.buffer(rows)),
                        (units[half:], im2col.buffer(rows)))
    out += kernels.bias[:, None, None, None]
    return out


def conv3d_backward(grad_out: np.ndarray, x: np.ndarray, kernels: KernelSet,
                    *, pad=(1, 1, 1), input_grad=True):
    """Gradients of sum(grad_out * conv3d(x, k)) w.r.t. x, weights, bias,
    for a `pad` of one count per axis.

    The weight gradient sums one GEMM per output frame over the forward's
    im2col matrices, whole frames and never bands (a band would cut that
    GEMM's sum over columns in pieces), and the bias gradient sums
    `grad_out`; both take the kernel's dtype. The input gradient is one
    `conv3d` (Dumoulin & Visin, arXiv 1603.07285): `grad_out` convolved
    with the kernel flipped along depth, height and width and with its
    channel axes swapped, padded by k-1-p along each axis, or cropped by
    p+1-k where that is positive (a 1x1x1 kernel with pad 1). It takes x's
    dtype, and `conv3d`'s bands and two workers come with it.

    With `input_grad` false the gradient w.r.t. x is neither computed nor
    returned: the first element is None. The weight and bias gradients are
    the same bytes either way.
    """
    if any(np.ndim(p) for p in pad):
        raise ShapeError(f"conv3d_backward takes one pad count per axis, "
                         f"not a (before, after) pair: pad {pad}")
    out_shape = conv3d_out_shape(x.shape, kernels, (1, 1, 1), pad)
    if grad_out.shape != out_shape:
        raise ShapeError(f"grad shape {grad_out.shape} != conv output {out_shape}")
    oc, od, oh, ow = out_shape
    grad_w = np.zeros_like(kernels.weights)
    gw2 = grad_w.reshape(oc, -1)
    im2col = _Im2col(x, kernels.kdhw, pad)
    cols = im2col.buffer(oh)
    for d in range(od):
        gw2 += (grad_out[:, d].reshape(oc, oh * ow)
                @ im2col.band(d, 0, oh, cols).T)
    grad_b = grad_out.sum(axis=(1, 2, 3), dtype=kernels.bias.dtype)
    if not input_grad:
        return None, grad_w, grad_b
    ks = kernels.kdhw
    cut = [max(0, p + 1 - k) for k, p in zip(ks, pad)]
    g = grad_out[(slice(None),) + tuple(
        slice(c, n - c) for c, n in zip(cut, out_shape[1:]))]
    flipped = KernelSet(
        kernels.weights[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4),
        np.zeros(kernels.in_channels, dtype=kernels.weights.dtype))
    grad_x = conv3d(g, flipped,
                    pad=tuple(max(0, k - 1 - p) for k, p in zip(ks, pad)))
    return grad_x.astype(x.dtype, copy=False), grad_w, grad_b


# ---------------------------------------------------------------------------
# 3D max pooling


class PoolArgmax:
    """Where each output of `maxpool3d` came from: the winner's offset in
    its window, row-major over (kd, kh, kw); one byte per output for
    windows of up to 256 elements.
    """

    def __init__(self, offsets: np.ndarray, kernel, in_shape):
        self.offsets = offsets
        self.kernel = tuple(kernel)
        self.in_shape = tuple(in_shape)

    @property
    def shape(self):
        return self.offsets.shape


def _bits(a: np.ndarray) -> np.ndarray:
    """The same memory seen as unsigned integers of the same width."""
    return a.view(np.dtype(f"u{a.itemsize}"))


def _pool_windows(x: np.ndarray, kernel) -> list:
    """One (C, oD, oH, oW) strided view per window offset, row-major over
    (kd, kh, kw). `x` must be a whole number of windows along each axis."""
    c, d, h, w = x.shape
    kd, kh, kw = kernel
    sc, sd, sh, sw = x.strides
    win = as_strided(x, (c, d // kd, h // kh, w // kw, kd, kh, kw),
                     (sc, sd * kd, sh * kh, sw * kw, sd, sh, sw),
                     writeable=x.flags.writeable)
    return [win[..., a, b, cc]
            for a in range(kd) for b in range(kh) for cc in range(kw)]


def maxpool3d(x: np.ndarray, kernel):
    """Max pool a (C,D,H,W) cube with stride equal to the kernel. Returns
    (output, PoolArgmax).

    Trailing windows that do not fit are pooled over the available elements:
    where the kernel does not divide the input, it is copied once into a
    cube padded with -inf. Each output is the first maximum of its window
    in row-major (d, h, w) order, bytes included (of a -0.0 and +0.0 the
    first wins), and as in `np.argmax` a NaN beats any number and the first
    NaN wins. Every channel is pooled on the calling thread, one window
    offset at a time, with one set of scratch the size of the output.
    """
    kd, kh, kw = kernel
    c, d, h, w = x.shape
    if kd > d or kh > h or kw > w:
        raise ShapeError(f"pool kernel {kernel} larger than input {x.shape}")
    od, oh, ow = -(-d // kd), -(-h // kh), -(-w // kw)
    xp = x
    if (od * kd, oh * kh, ow * kw) != (d, h, w):
        xp = np.full((c, od * kd, oh * kh, ow * kw), -np.inf, dtype=x.dtype)
        xp[:, :d, :h, :w] = x
    views = _pool_windows(xp, kernel)
    out = np.empty((c, od, oh, ow), dtype=x.dtype)
    offsets = np.empty(out.shape, dtype=np.min_scalar_type(kd * kh * kw - 1))
    better = np.empty(out.shape, dtype=bool)
    bits = _bits(out)
    flips = np.empty_like(bits)
    step = np.empty_like(offsets)
    np.copyto(out, views[0])
    offsets[...] = 0
    for k, view in enumerate(views[1:], 1):
        np.greater(view, out, out=better)  # strict: a tie keeps the first
        # out = where(better, view, out), bit for bit, without a masked copy
        np.bitwise_xor(bits, _bits(view), out=flips)
        np.multiply(flips, better, out=flips)
        bits ^= flips
        # offsets only grow, so the latest winner's k is the largest
        np.multiply(better, offsets.dtype.type(k), out=step)
        np.maximum(offsets, step, out=offsets)
    if np.isnan(xp.sum()):  # a NaN anywhere makes the sum NaN
        # the first NaN of a window wins: assign the last-offset ones first
        for k in range(len(views) - 1, -1, -1):
            np.isnan(views[k], out=better)
            np.copyto(out, views[k], where=better)
            np.copyto(offsets, k, where=better)
    return out, PoolArgmax(offsets, kernel, x.shape)


def maxpool3d_backward(grad_out: np.ndarray, amap: PoolArgmax) -> np.ndarray:
    """Route each output gradient to its window's winner.

    The windows do not overlap, so each input receives at most one
    gradient, added to zero: a -0.0 gradient arrives as +0.0.
    """
    if grad_out.shape != amap.shape:
        raise ShapeError(
            f"grad shape {grad_out.shape} != pooled shape {amap.shape}"
        )
    c, d, h, w = amap.in_shape
    kd, kh, kw = amap.kernel
    _, od, oh, ow = amap.shape
    # every element is written below: the windows tile the padded cube
    grad_in = np.empty((c, od * kd, oh * kh, ow * kw), dtype=grad_out.dtype)
    gbits = _bits(grad_out + grad_out.dtype.type(0))
    hit = np.empty(amap.shape, dtype=bool)
    for k, view in enumerate(_pool_windows(grad_in, amap.kernel)):
        np.equal(amap.offsets, k, out=hit)
        np.multiply(gbits, hit, out=_bits(view))  # zero bits are +0.0
    if grad_in.shape != amap.in_shape:
        grad_in = np.ascontiguousarray(grad_in[:, :d, :h, :w])
    return grad_in


# ---------------------------------------------------------------------------
# Fully connected, nonlinearity, losses


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray
                    ) -> np.ndarray:
    if x.shape != (weights.shape[1],):
        raise ShapeError(f"input length {x.shape} != weight rows {weights.shape}")
    return weights @ x + bias


def fully_connected_backward(grad_out, x, weights):
    return weights.T @ grad_out, np.outer(grad_out, x), grad_out.copy()


def relu(x: np.ndarray, out=None) -> np.ndarray:
    """max(x, 0); `out=x` rectifies in place."""
    return np.maximum(x, 0, out=out)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`grad_out` where x > 0, else 0. `x` may be the ReLU's input or its
    output: one is positive exactly where the other is (NaN and -0.0
    are neither)."""
    return np.where(x > 0, grad_out, 0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """In the dtype of `logits`; the normaliser is summed in float64."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / float(e.sum(dtype=np.float64))


def softmax_xent(logits: np.ndarray, label: int):
    """Cross-entropy of softmax(logits) against a class index.

    Returns (loss, grad wrt logits); the grad sums to zero.
    """
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range for {logits.shape[0]} logits")
    p = softmax(logits)
    loss = -np.log(max(p[label], np.finfo(np.float64).tiny))
    grad = p.copy()
    grad[label] -= 1.0
    return float(loss), grad


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """One plain SGD update, params <- params - lr * grads. Pure."""
    if params.shape != grads.shape:
        raise ShapeError(f"param shape {params.shape} != grad shape "
                         f"{grads.shape}")
    return params - lr * grads


def finite_diff_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn at x."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = grad.ravel()
    xf = x.astype(np.float64).ravel().copy()
    shape = x.shape
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn(xf.reshape(shape))
        xf[i] = orig - eps
        lo = fn(xf.reshape(shape))
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# BLAS thread control


# numpy's and scipy's wheels each bundle their own scipy-openblas build,
# whose exported names carry a ``scipy_`` prefix and, for the 64-bit integer
# build, a ``64_`` suffix; a system OpenBLAS exports the bare names.
_OPENBLAS_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                            "scipy_openblas_{}_num_threads",
                            "openblas_{}_num_threads64_",
                            "openblas_{}_num_threads")


@functools.lru_cache(maxsize=None)
def _blas_thread_control():
    """(get, set) thread-count functions of numpy's OpenBLAS, which runs
    every tubenet GEMM. They are looked up through a handle to numpy's
    `_multiarray_umath`, the extension that calls the GEMMs: a lookup
    through a library's handle searches that library and the libraries it
    links, so it finds numpy's OpenBLAS and no other, such as scipy's own.

    None, after one warning naming numpy's BLAS, if that BLAS is not one
    whose thread count this module can control.
    """
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for pattern in _OPENBLAS_THREAD_SYMBOLS:
        get = getattr(lib, pattern.format("get"), None)
        set_ = getattr(lib, pattern.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {}).get("name", "unknown")
    warnings.warn(f"BLAS {blas!r} offers no thread control tubenet "
                  f"recognises; output bytes may depend on the core "
                  f"count", RuntimeWarning)
    return None


def blas_thread_count():
    """Threads numpy's BLAS uses per GEMM, or None if it cannot be
    controlled."""
    control = _blas_thread_control()
    return control[0]() if control else None


@contextlib.contextmanager
def blas_threads(n: int):
    """Hold numpy's OpenBLAS at `n` threads inside the block and put the
    previous count back on exit. Usable as a decorator."""
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)
