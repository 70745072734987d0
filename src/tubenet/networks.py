"""Trainable layers with hand-written backward passes, plus the reference
architecture tables of both pipelines and forwards that reproduce them,
running every conv, its ReLU and its pools in one stage (`_conv_stage`).

A layer is what holds parameters. Every one is a `_Trainable`: weights
`w`, bias `b` and their gradients `gw`/`gb`, which `backward` accumulates
until `zero_grads`. The base writes the update (`sgd_update`: clip, then
step) and the checkpoint keys (`state`/`load_state`: "w" and "b") once for
`Conv3D`, `FC` and the two upsamplers, which are convolutions themselves.
Its `forward(x)` returns `(y, cache)` and its `backward(gy, cache)` takes
that cache back: layers keep no per-call state, so a caller can hold the
caches of several forwards at once. ReLU and max-pooling hold nothing, so
the models call `tensor.relu` and `tensor.maxpool3d` (and their backwards)
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from . import toi
from .tensor import KernelSet
from .upsample import (UpscaleFactors, channel_to_spacedepth_backward,
                       subpixel_upsample3d, unpool3d, unpool3d_backward)


GRAD_CLIP = 5.0


def clip_grads(*grads):
    """Jointly rescale a layer's gradients to a global norm of at most
    `GRAD_CLIP`."""
    total = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                              for g in grads)))
    if total <= GRAD_CLIP or total == 0.0:
        return grads
    scale = GRAD_CLIP / total
    return tuple(g * np.asarray(scale, dtype=g.dtype) for g in grads)


class _Trainable:
    """Parameters `w` and `b`, the gradients `gw`/`gb` accumulated into
    them, and the one update and checkpoint contract of every layer."""

    def __init__(self, w, b):
        self.w, self.b = w, b
        self.gw = np.zeros_like(w)
        self.gb = np.zeros_like(b)

    def trainables(self):
        return [self]

    def zero_grads(self):
        self.gw[...] = 0
        self.gb[...] = 0

    def sgd_update(self, lr):
        gw, gb = clip_grads(self.gw, self.gb)
        self.w = tz.sgd_step(self.w, gw, lr)
        self.b = tz.sgd_step(self.b, gb, lr)

    def state(self):
        return {"w": self.w, "b": self.b}

    def load_state(self, st):
        self.w = st["w"].astype(self.w.dtype)
        self.b = st["b"].astype(self.b.dtype)


class Conv3D(_Trainable):
    def __init__(self, in_c, out_c, rng, kdhw=(3, 3, 3)):
        ks = tz.make_kernels(out_c, in_c, kdhw, rng)
        super().__init__(ks.weights, ks.bias)
        self.pad = tuple(k // 2 for k in kdhw)

    @property
    def kernels(self):
        return KernelSet(self.w, self.b)

    def forward(self, x):
        return tz.conv3d(x, self.kernels, pad=self.pad), x

    def backward(self, gy, x, input_grad=True):
        """Accumulate the parameter gradients; return the input's, or None
        when `input_grad` is false."""
        gx, gw, gb = tz.conv3d_backward(gy, x, self.kernels, pad=self.pad,
                                        input_grad=input_grad)
        self.gw += gw
        self.gb += gb
        return gx


class FC(_Trainable):
    def __init__(self, in_n, out_n, rng):
        super().__init__(tz.glorot_uniform((out_n, in_n), rng, in_n, out_n),
                         np.zeros(out_n, dtype=np.float32))

    def forward(self, x):
        return tz.fully_connected(x, self.w, self.b), x

    def backward(self, gy, x):
        gx, gw, gb = tz.fully_connected_backward(gy, x, self.w)
        self.gw += gw
        self.gb += gb
        return gx


class SubpixelUp(Conv3D):
    """Channel-expanding conv in LR space followed by the sub-pixel
    permutation (`upsample.subpixel_upsample3d`)."""

    def __init__(self, in_c, out_c, p: UpscaleFactors, rng):
        super().__init__(in_c, out_c * p.volume, rng)
        self.p = p

    def forward(self, x):
        return subpixel_upsample3d(x, self.kernels, self.p), x

    def backward(self, gy, x):
        return super().backward(channel_to_spacedepth_backward(gy, self.p), x)


class UnpoolUp(Conv3D):
    """Alternative upsampling: corner-placement un-pool into HR, then conv."""

    def __init__(self, in_c, out_c, p: UpscaleFactors, rng):
        super().__init__(in_c, out_c, rng)
        self.p = p

    def forward(self, x):
        return super().forward(unpool3d(x, self.p))

    def backward(self, gy, cache):
        return unpool3d_backward(super().backward(gy, cache), self.p)


# ---------------------------------------------------------------------------
# Reference architecture tables


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # conv | pool | upsample | concat | toi-pool | fc | flatten-proj
    kernel: tuple | None
    out_shape: tuple  # (C, D, H, W) or (n,) for vectors


# conv1..conv5b with their max-pools, shared by both tables: a conv row
# gives its output channels, a pool row its kernel
_ENCODER_ROWS = (("conv1", 64), ("max-pool1", (1, 2, 2)),
                 ("conv2", 128), ("max-pool2", (2, 2, 2)),
                 ("conv3a", 256), ("conv3b", 256), ("max-pool3", (2, 2, 2)),
                 ("conv4a", 512), ("conv4b", 512), ("max-pool4", (2, 2, 2)),
                 ("conv5a", 512), ("conv5b", 512))

# the bottom-up decoder, deepest first: each upsample (output channels,
# factors) is concatenated with an encoder skip before its conv
_DECODER_ROWS = (("upsample4", 64, (2, 2, 2), "conv4b", "conv4c", 448),
                 ("upsample3", 64, (2, 2, 2), "conv3b", "conv3c", 448),
                 ("upsample2", 64, (2, 2, 2), "conv2", "conv2c", 128),
                 ("upsample1", 48, (1, 2, 2), "conv1", "conv1c", 64))


def _encoder_specs(in_shape):
    """The conv and pool rows both reference tables open with, computed
    with standard conv/pool arithmetic."""
    rows = []
    shape = in_shape
    for name, arg in _ENCODER_ROWS:
        if name.startswith("conv"):
            shape = (arg,) + shape[1:]
            rows.append(LayerSpec(name, "conv", (3, 3, 3), shape))
        else:
            shape = (shape[0],) + tuple(-(-s // k)
                                        for s, k in zip(shape[1:], arg))
            rows.append(LayerSpec(name, "pool", arg, shape))
    return rows


def tcnn_table_specs(in_shape=(3, 8, 300, 400)):
    """Layer-by-layer output shapes of the top-down pipeline reference table
    for the given input."""
    return _encoder_specs(in_shape) + [
        LayerSpec("toi-pool2", "toi-pool", None, (128, 8, 8, 8)),
        LayerSpec("toi-pool5", "toi-pool", None, (512, 1, 4, 4)),
        LayerSpec("1x1 conv", "flatten-proj", None, (8192,)),
        LayerSpec("fc6", "fc", None, (4096,)),
        LayerSpec("fc7", "fc", None, (4096,))]


def stcnn_table_specs(in_shape=(3, 8, 240, 320)):
    """Layer-by-layer output shapes of the bottom-up pipeline reference table.

    Each upsampleN output is concatenated channel-wise with the encoder cube
    of matching D x H x W before the following convNc layer; conv6/conv7 run
    per frame on the final concatenation (concat1)."""
    rows = _encoder_specs(in_shape)
    byname = {r.name: r for r in rows}
    shape = rows[-1].out_shape
    for up_name, up_c, p, skip, conv_name, conv_c in _DECODER_ROWS:
        shape = (up_c, shape[1] * p[0], shape[2] * p[1], shape[3] * p[2])
        rows.append(LayerSpec(up_name, "upsample", (3, 3, 3), shape))
        # concat happens implicitly before the next conv
        concat = (up_c + byname[skip].out_shape[0],) + shape[1:]
        shape = (conv_c,) + shape[1:]
        rows.append(LayerSpec(conv_name, "conv", (3, 3, 3), shape))
    rows.append(LayerSpec("conv6", "conv", (1, 1), (4096,) + concat[1:]))
    rows.append(LayerSpec("conv7", "conv", (1, 1), (2,) + concat[1:]))
    rows.append(LayerSpec("toi-pool", "toi-pool", None, (concat[0], 8, 8, 8)))
    rows.append(LayerSpec("fc6", "fc", None, (4096,)))
    rows.append(LayerSpec("fc7", "fc", None, (4096,)))
    return rows


def _weak_kernels(out_c, in_c, rng):
    """3x3x3 Glorot kernels scaled by 0.05 in place: weak enough to keep a
    random reference forward's activations bounded."""
    k = tz.make_kernels(out_c, in_c, (3, 3, 3), rng)
    np.multiply(k.weights, 0.05, out=k.weights)
    return k


# rows of an fc weight a reference forward draws and applies at a time:
# 224 MiB of the bottom-up fc6's 896 MiB
_FC_ROWS = 1024


def _fc_forward(x, out_n, rng):
    """`x` through an fc layer of fresh Glorot weights and a zero bias,
    drawn and applied `_FC_ROWS` rows at a time in the generator's order:
    the bytes and the generator state of `tz.fully_connected` against the
    whole weight. `out_n` is a multiple of `_FC_ROWS`."""
    bias = np.zeros(_FC_ROWS, dtype=np.float32)
    return np.concatenate([tz.fully_connected(
        x, tz.glorot_uniform((_FC_ROWS, x.size), rng, x.size, out_n), bias)
        for _ in range(out_n // _FC_ROWS)])


# output frames per `_conv_stage` group before a pool, rounded up to whole
# pool windows and ToI bins: at 1, a group is the smallest such range, one
# frame for conv1 (pool1's depth kernel is 1) and two for conv2, conv3b
# and conv4b. A 300x400 conv1 frame is then six bands, three per worker
_FUSED_FRAMES = 1


def _into(out, part, t0, depth):
    """`part` written into `out` from frame `t0` on. For a None `out`, a
    `part` all `depth` frames deep is returned uncopied; any other makes
    an `out` `depth` frames deep, in `part`'s dtype."""
    if out is None and part.shape[1] == depth:
        return part
    if out is None:
        out = np.empty_like(part, shape=(len(part), depth) + part.shape[2:])
    out[:, t0:t0 + part.shape[1]] = part
    return out


def _conv_stage(x, kernels, pool=None, toi_shape=None, keep=False):
    """conv3d (3x3x3, pad 1) and ReLU of `x` on groups of output frames,
    each group ToI-pooled over a full-frame tube to (C,) + a (D, H, W)
    `toi_shape` and max-pooled by a `pool` kernel, where given. Returns the
    conv output's shape, the whole rectified output if `keep` (else None),
    and the pooled and ToI-pooled outputs (None without their pools). With
    a pool, a group is `_FUSED_FRAMES` frames rounded up to whole pool
    windows and whole ToI bins, which must be of equal depth; without one,
    all frames. The bytes are those of the layers run one after the other:
    each output frame is its own GEMMs, and a frame's ToI pool reads its
    bin's frames alone."""
    d = x.shape[1]
    step = d if pool is None else pool[0]
    if toi_shape is not None:
        bins = toi_shape[0]
        if d % bins:
            raise tz.ShapeError(f"{d} frames do not split into {bins} "
                                "ToI bins of equal depth")
        step = math.lcm(step, d // bins)
    group = -(-_FUSED_FRAMES // step) * step
    whole = pooled = tois = None
    for g0 in range(0, d, group):
        g1 = min(g0 + group, d)
        # the input frames the group's outputs read, zeros past either end
        lo, hi = max(g0 - 1, 0), min(g1 + 1, d)
        y = tz.conv3d(x[:, lo:hi], kernels,
                      pad=((lo - g0 + 1, g1 + 1 - hi), 1, 1))
        tz.relu(y, out=y)
        if toi_shape is not None:  # the group's bins, at its first bin
            part = ((g1 - g0) * bins // d,) + toi_shape[1:]
            tois = _into(tois, toi.toi_pool_forward(
                y, toi.full_frame_tube(*y.shape[1:]), part)[0],
                g0 * bins // d, bins)
        if pool is not None:
            pooled = _into(pooled, tz.maxpool3d(y, pool)[0], g0 // pool[0],
                           -(-d // pool[0]))
        if keep:
            whole = _into(whole, y, g0, d)
        shape = (y.shape[0], g0 + y.shape[1]) + y.shape[2:]
        del y  # before the next group's conv allocates its own
    return shape, whole, pooled, tois


def _run_encoder(in_shape, rng, keep, toi_rows):
    """Run the encoder rows on a random input with random weights. Returns
    each row's output shape and the outputs of the conv rows named in
    `keep`. `toi_rows` maps a conv row to a ToI row's name and (D, H, W):
    the conv's output ToI-pooled over a full-frame tube is returned under
    that name too. Each conv runs in `_conv_stage` with its ToI pool and
    the pool row that follows it, if any."""
    x = rng.standard_normal(in_shape).astype(np.float32)
    shapes, kept = [], {}
    specs = _encoder_specs(in_shape) + [None]
    for spec, after in zip(specs, specs[1:]):
        if spec.kind == "pool":
            continue
        pool = after if after is not None and after.kind == "pool" else None
        toi_name, toi_shape = toi_rows.get(spec.name, (None, None))
        # a conv that no pool follows is the next row's input, whole
        shape, whole, pooled, tois = _conv_stage(
            x, _weak_kernels(spec.out_shape[0], x.shape[0], rng),
            None if pool is None else pool.kernel, toi_shape,
            keep=pool is None or spec.name in keep)
        shapes.append((spec.name, shape))
        if spec.name in keep:
            kept[spec.name] = whole
        if toi_name:
            kept[toi_name] = tois
        x = whole if pool is None else pooled
        if pool is not None:
            shapes.append((pool.name, x.shape))
    return shapes, kept


# the ToI rows of the top-down table and the conv row each pools
_TOI_ROWS = (("toi-pool2", "conv2"), ("toi-pool5", "conv5b"))


def _check_multiples(in_shape, *ks):
    """Raise ShapeError unless the input's D, H, W are multiples of `ks`."""
    for axis, n, k in zip(("depth", "height", "width"), in_shape[1:], ks):
        if n % k:
            raise tz.ShapeError(f"input {axis} {n} is not a multiple of {k}")


@tz.blas_threads(1)
def run_tcnn_table_forward(in_shape=(3, 8, 300, 400), seed=0):
    """Execute the full top-down reference forward with random weights;
    returns the table rows and [(name, actual shape)] for every row. The
    depth must be a multiple of 8, toi-pool2's bins over conv2. No conv
    output is kept: conv2 and conv5b are ToI-pooled in their stages. BLAS
    is held at one thread, as in the harness stages, so the bytes do not
    depend on the core count."""
    from .proposals import PairedFeatureProjector

    _check_multiples(in_shape, 8)
    rng = np.random.default_rng(seed)
    rows = tcnn_table_specs(in_shape)
    table = {r.name: r.out_shape for r in rows}
    shapes, acts = _run_encoder(in_shape, rng, (), {
        conv: (name, table[name][1:]) for name, conv in _TOI_ROWS})
    pooled2, pooled5 = (acts.pop(name) for name, _ in _TOI_ROWS)
    shapes += [("toi-pool2", pooled2.shape), ("toi-pool5", pooled5.shape)]

    # per-tube 1x1 channel projections sized so the halves total 8192
    proj = PairedFeatureProjector(pooled2.shape[0], pooled5.shape[0],
                                  proj2=8, proj5=32, rng=rng)
    vec, _ = proj.forward(pooled2, pooled5)
    shapes.append(("1x1 conv", vec.shape))
    v = tz.relu(_fc_forward(vec, 4096, rng))
    shapes.append(("fc6", v.shape))
    v = _fc_forward(v, 4096, rng)
    shapes.append(("fc7", v.shape))
    return rows, shapes


# columns of one frame the bottom-up head maps at a time: a 4096-channel
# conv6 block of 32 MiB instead of a whole frame's
_HEAD_COLS = 2048


@tz.blas_threads(1)
def run_stcnn_table_forward(in_shape=(3, 8, 240, 320), seed=0):
    """Execute the full bottom-up reference forward with random weights;
    returns the table rows and [(name, actual shape)] for every row. The
    depth must be a multiple of 8 and the height and width of 16, the
    encoder pools' strides, so that each upsample meets its skip's shape.
    A kept skip is assembled group by group as its pool runs. BLAS is
    held at one thread, as in `run_tcnn_table_forward`."""
    _check_multiples(in_shape, 8, 16, 16)
    rng = np.random.default_rng(seed)
    shapes, acts = _run_encoder(in_shape, rng, ("conv5b",) + tuple(
        row[3] for row in _DECODER_ROWS), {})
    cur = acts.pop("conv5b")
    for up_name, up_c, p, skip, conv_name, conv_c in _DECODER_ROWS:
        p = UpscaleFactors(*p)
        cur = subpixel_upsample3d(
            cur, _weak_kernels(up_c * p.volume, cur.shape[0], rng), p)
        shapes.append((up_name, cur.shape))
        concat1 = np.concatenate([cur, acts.pop(skip)], axis=0)
        del cur  # the upsample's output, before the conv allocates its own
        # indexed: a name bound to conv2c's output would outlive upsample1
        cur = _conv_stage(concat1, _weak_kernels(conv_c, concat1.shape[0],
                                                 rng), keep=True)[1]
        shapes.append((conv_name, cur.shape))
        if conv_name != "conv1c":  # only the last concatenation is read
            del concat1
    del cur  # conv1c's output: nothing reads it once its shape is recorded

    # segmentation head: per-frame 1x1 maps, streamed in blocks of one
    # frame's columns so that conv6 never exists as a whole
    c1 = concat1.shape[0]
    w6 = tz.glorot_uniform((4096, c1), rng, c1, 4096)
    w7 = tz.glorot_uniform((2, 4096), rng, 4096, 2)
    seg = np.empty((2,) + concat1.shape[1:], dtype=concat1.dtype)
    for t in range(concat1.shape[1]):
        frame = concat1[:, t].reshape(c1, -1)
        seg_t = seg[:, t].reshape(2, -1)
        for lo in range(0, frame.shape[1], _HEAD_COLS):
            h6 = w6 @ frame[:, lo:lo + _HEAD_COLS]
            tz.relu(h6, out=h6)
            seg_t[:, lo:lo + _HEAD_COLS] = w7 @ h6
    shapes.append(("conv6", (4096,) + concat1.shape[1:]))
    shapes.append(("conv7", seg.shape))

    pooled, _ = toi.toi_pool_forward(
        concat1, toi.full_frame_tube(*concat1.shape[1:]), (8, 8, 8))
    shapes.append(("toi-pool", pooled.shape))
    # concat1 and all that keeps it alive, before fc6's blocks are drawn
    del concat1, seg, frame, seg_t, h6
    v = tz.relu(_fc_forward(pooled.ravel(), 4096, rng))
    shapes.append(("fc6", v.shape))
    v = _fc_forward(v, 4096, rng)
    shapes.append(("fc7", v.shape))
    return stcnn_table_specs(in_shape), shapes
