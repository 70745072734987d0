"""Layer objects with hand-written backward passes, plus the reference
architecture tables of both pipelines and a forward shape-fidelity runner.

Every layer's `forward(x)` returns `(y, cache)` and its `backward(gy,
cache)` takes that cache back: layers keep no per-call state, so a caller
can hold the caches of several forwards at once. Parameter gradients
accumulate on the layer until `zero_grads`/`sgd_update`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import KernelSet
from .upsample import (UpscaleFactors, channel_to_spacedepth,
                       channel_to_spacedepth_backward, unpool3d,
                       unpool3d_backward)


GRAD_CLIP = 5.0


def clip_grads(*grads, max_norm=GRAD_CLIP):
    """Jointly rescale a layer's gradients to a maximum global norm."""
    total = float(np.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                              for g in grads)))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return tuple(g * np.asarray(scale, dtype=g.dtype) for g in grads)


class Conv3D:
    def __init__(self, in_c, out_c, kdhw=(3, 3, 3), pad=None, rng=None,
                 dtype=np.float32):
        if pad is None:
            pad = tuple(k // 2 for k in kdhw)
        self.pad = pad
        self.kernels = tz.make_kernels(out_c, in_c, kdhw, rng, dtype)
        self.gw = np.zeros_like(self.kernels.weights)
        self.gb = np.zeros_like(self.kernels.bias)

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

    def params(self):
        return {"w": self.kernels, "gw": self.gw, "gb": self.gb}

    def zero_grads(self):
        self.gw[...] = 0
        self.gb[...] = 0

    def sgd_update(self, lr):
        gw, gb = clip_grads(self.gw, self.gb)
        self.kernels = KernelSet(
            tz.sgd_step(self.kernels.weights, gw, lr),
            tz.sgd_step(self.kernels.bias, gb, lr),
        )

    def state(self):
        return {"w": self.kernels.weights, "b": self.kernels.bias}

    def load_state(self, st):
        self.kernels = KernelSet(st["w"].astype(self.kernels.weights.dtype),
                                 st["b"].astype(self.kernels.bias.dtype))


class Pool3D:
    def __init__(self, kernel):
        self.kernel = kernel

    def forward(self, x):
        return tz.maxpool3d(x, self.kernel)

    def backward(self, gy, amap):
        return tz.maxpool3d_backward(gy, amap)


class ReLU:
    def forward(self, x):
        return tz.relu(x), x

    def backward(self, gy, x):
        return tz.relu_backward(gy, x)


class FC:
    def __init__(self, in_n, out_n, rng, dtype=np.float32):
        self.w = tz.glorot_uniform((out_n, in_n), rng, in_n, out_n, dtype)
        self.b = np.zeros(out_n, dtype=dtype)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x):
        return tz.fully_connected(x, self.w, self.b), x

    def backward(self, gy, x):
        gx, gw, gb = tz.fully_connected_backward(gy, x, self.w)
        self.gw += gw
        self.gb += gb
        return gx

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


class SubpixelUp:
    """Channel-expanding conv in LR space followed by the sub-pixel permutation."""

    def __init__(self, in_c, out_c, p: UpscaleFactors, rng, kdhw=(3, 3, 3),
                 dtype=np.float32):
        self.p = p
        self.conv = Conv3D(in_c, out_c * p.volume, kdhw, rng=rng, dtype=dtype)

    def forward(self, x):
        y, cache = self.conv.forward(x)
        return channel_to_spacedepth(y, self.p), cache

    def backward(self, gy, cache):
        return self.conv.backward(channel_to_spacedepth_backward(gy, self.p),
                                  cache)

    def zero_grads(self):
        self.conv.zero_grads()

    def sgd_update(self, lr):
        self.conv.sgd_update(lr)

    def state(self):
        return self.conv.state()

    def load_state(self, st):
        self.conv.load_state(st)


class UnpoolUp:
    """Alternative upsampling: corner-placement un-pool into HR, then conv."""

    def __init__(self, in_c, out_c, p: UpscaleFactors, rng, kdhw=(3, 3, 3),
                 dtype=np.float32):
        self.p = p
        self.conv = Conv3D(in_c, out_c, kdhw, rng=rng, dtype=dtype)

    def forward(self, x):
        return self.conv.forward(unpool3d(x, self.p))

    def backward(self, gy, cache):
        return unpool3d_backward(self.conv.backward(gy, cache), self.p)

    def zero_grads(self):
        self.conv.zero_grads()

    def sgd_update(self, lr):
        self.conv.sgd_update(lr)

    def state(self):
        return self.conv.state()

    def load_state(self, st):
        self.conv.load_state(st)


# ---------------------------------------------------------------------------
# Reference architecture tables


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # conv | pool | upsample | concat | toi-pool | fc | flatten-proj
    kernel: tuple | None
    out_shape: tuple  # (C, D, H, W) or (n,) for vectors
    inputs: tuple = ()


def tcnn_table_specs(in_shape=(3, 8, 300, 400)):
    """Layer-by-layer output shapes of the top-down pipeline reference table
    for the given input, computed with standard conv/pool arithmetic."""
    rows = []
    shape = in_shape

    def conv(name, out_c):
        nonlocal shape
        shape = (out_c,) + shape[1:]
        rows.append(LayerSpec(name, "conv", (3, 3, 3), shape))

    def pool(name, k):
        nonlocal shape
        shape = (shape[0],) + tuple(-(-s // kk) for s, kk in zip(shape[1:], k))
        rows.append(LayerSpec(name, "pool", k, shape))

    conv("conv1", 64)
    pool("max-pool1", (1, 2, 2))
    conv("conv2", 128)
    pool("max-pool2", (2, 2, 2))
    conv("conv3a", 256)
    conv("conv3b", 256)
    pool("max-pool3", (2, 2, 2))
    conv("conv4a", 512)
    conv("conv4b", 512)
    pool("max-pool4", (2, 2, 2))
    conv("conv5a", 512)
    conv("conv5b", 512)
    rows.append(LayerSpec("toi-pool2", "toi-pool", None, (128, 8, 8, 8),
                          ("conv2",)))
    rows.append(LayerSpec("toi-pool5", "toi-pool", None, (512, 1, 4, 4),
                          ("conv5b",)))
    rows.append(LayerSpec("1x1 conv", "flatten-proj", None, (8192,),
                          ("toi-pool2", "toi-pool5")))
    rows.append(LayerSpec("fc6", "fc", None, (4096,)))
    rows.append(LayerSpec("fc7", "fc", None, (4096,)))
    return rows


def stcnn_table_specs(in_shape=(3, 8, 240, 320)):
    """Layer-by-layer output shapes of the bottom-up pipeline reference table.

    Each upsampleN output is concatenated channel-wise with the encoder cube
    of matching D x H x W before the following convNc layer; conv6/conv7 run
    per frame on the final concatenation (concat1)."""
    rows = []
    shape = in_shape
    skips = {}

    def conv(name, out_c, record_skip=None):
        nonlocal shape
        shape = (out_c,) + shape[1:]
        rows.append(LayerSpec(name, "conv", (3, 3, 3), shape))
        if record_skip:
            skips[record_skip] = shape

    def pool(name, k):
        nonlocal shape
        shape = (shape[0],) + tuple(-(-s // kk) for s, kk in zip(shape[1:], k))
        rows.append(LayerSpec(name, "pool", k, shape))

    conv("conv1", 64, record_skip="s1")
    pool("max-pool1", (1, 2, 2))
    conv("conv2", 128, record_skip="s2")
    pool("max-pool2", (2, 2, 2))
    conv("conv3a", 256)
    conv("conv3b", 256, record_skip="s3")
    pool("max-pool3", (2, 2, 2))
    conv("conv4a", 512)
    conv("conv4b", 512, record_skip="s4")
    pool("max-pool4", (2, 2, 2))
    conv("conv5a", 512)
    conv("conv5b", 512)

    def up(name, out_c, p, skip):
        nonlocal shape
        shape = (out_c, shape[1] * p[0], shape[2] * p[1], shape[3] * p[2])
        rows.append(LayerSpec(name, "upsample", (3, 3, 3), shape))
        # concat happens implicitly before the next conv
        shape = (out_c + skips[skip][0],) + shape[1:]

    up("upsample4", 64, (2, 2, 2), "s4")
    conv("conv4c", 448)
    up("upsample3", 64, (2, 2, 2), "s3")
    conv("conv3c", 448)
    up("upsample2", 64, (2, 2, 2), "s2")
    conv("conv2c", 128)
    up("upsample1", 48, (1, 2, 2), "s1")
    concat1 = shape
    conv("conv1c", 64)
    rows.append(LayerSpec("conv6", "conv", (1, 1), (4096,) + concat1[1:],
                          ("concat1",)))
    rows.append(LayerSpec("conv7", "conv", (1, 1), (2,) + concat1[1:]))
    rows.append(LayerSpec("toi-pool", "toi-pool", None,
                          (concat1[0], 8, 8, 8), ("concat1",)))
    rows.append(LayerSpec("fc6", "fc", None, (4096,)))
    rows.append(LayerSpec("fc7", "fc", None, (4096,)))
    return rows


def _run_encoder(rows, x, rng, acts):
    for spec in rows:
        if spec.kind == "conv":
            k = tz.make_kernels(spec.out_shape[0], x.shape[0], spec.kernel, rng)
            k = KernelSet(k.weights * 0.05, k.bias)  # keep activations bounded
            x = tz.relu(tz.conv3d(x, k))
        elif spec.kind == "pool":
            x, _ = tz.maxpool3d(x, spec.kernel)
        else:
            raise ValueError(spec.kind)
        acts[spec.name] = x
    return x


def run_tcnn_table_forward(in_shape=(3, 8, 300, 400), seed=0):
    """Execute the full top-down reference forward with random weights;
    returns [(name, actual shape)] for every table row."""
    from . import toi
    from .proposals import PairedFeatureProjector

    rng = np.random.default_rng(seed)
    rows = tcnn_table_specs(in_shape)
    acts = {}
    x = rng.standard_normal(in_shape).astype(np.float32)
    _run_encoder([r for r in rows if r.kind in ("conv", "pool")], x, rng, acts)
    shapes = [(r.name, acts[r.name].shape)
              for r in rows if r.kind in ("conv", "pool")]

    conv2 = acts["conv2"]
    conv5 = acts["conv5b"]
    tube2 = toi.full_frame_tube(conv2.shape[1], *conv2.shape[2:])
    pooled2, _ = toi.toi_pool_forward(conv2, tube2, (8, 8, 8))
    shapes.append(("toi-pool2", pooled2.shape))
    tube5 = toi.full_frame_tube(conv5.shape[1], *conv5.shape[2:])
    pooled5, _ = toi.toi_pool_forward(conv5, tube5, (1, 4, 4))
    shapes.append(("toi-pool5", pooled5.shape))

    # per-tube 1x1 channel projections sized so the halves total 8192
    proj = PairedFeatureProjector(conv2.shape[0], conv5.shape[0],
                                  proj2=8, proj5=32, rng=rng)
    vec, _ = proj.forward(pooled2, pooled5)
    shapes.append(("1x1 conv", vec.shape))
    del acts
    fc6 = FC(vec.shape[0], 4096, rng)
    v = tz.relu(fc6.forward(vec.astype(np.float32))[0])
    shapes.append(("fc6", v.shape))
    fc7 = FC(4096, 4096, rng)
    v, _ = fc7.forward(v)
    shapes.append(("fc7", v.shape))
    return rows, shapes


def run_stcnn_table_forward(in_shape=(3, 8, 240, 320), seed=0):
    """Execute the full bottom-up reference forward with random weights."""
    from . import toi

    rng = np.random.default_rng(seed)
    rows = stcnn_table_specs(in_shape)
    byname = {r.name: r for r in rows}
    acts = {}
    x = rng.standard_normal(in_shape).astype(np.float32)
    enc_rows = [r for r in rows if r.name.startswith(("conv", "max-pool"))
                and r.name not in ("conv4c", "conv3c", "conv2c", "conv1c",
                                   "conv6", "conv7")]
    _run_encoder(enc_rows, x, rng, acts)
    shapes = [(r.name, acts[r.name].shape) for r in enc_rows]

    cur = acts["conv5b"]
    for up_name, conv_name, skip in (("upsample4", "conv4c", "conv4b"),
                                     ("upsample3", "conv3c", "conv3b"),
                                     ("upsample2", "conv2c", "conv2"),
                                     ("upsample1", "conv1c", "conv1")):
        spec = byname[up_name]
        p = UpscaleFactors(*(o // i for o, i in
                             zip(spec.out_shape[1:], cur.shape[1:])))
        k = tz.make_kernels(spec.out_shape[0] * p.volume, cur.shape[0],
                            (3, 3, 3), rng)
        k = KernelSet(k.weights * 0.05, k.bias)
        from .upsample import subpixel_upsample3d
        cur = subpixel_upsample3d(cur, k, p)
        shapes.append((up_name, cur.shape))
        cur = np.concatenate([cur, acts[skip]], axis=0)
        if conv_name == "conv1c":
            concat1 = cur
        kc = tz.make_kernels(byname[conv_name].out_shape[0], cur.shape[0],
                             (3, 3, 3), rng)
        kc = KernelSet(kc.weights * 0.05, kc.bias)
        out = tz.relu(tz.conv3d(cur, kc))
        shapes.append((conv_name, out.shape))
        if conv_name != "conv1c":
            cur = out
    del acts

    # segmentation head: per-frame 1x1 maps, streamed one frame at a time
    c1 = concat1.shape[0]
    w6 = tz.glorot_uniform((4096, c1), rng, c1, 4096)
    w7 = tz.glorot_uniform((2, 4096), rng, 4096, 2)
    seg_frames = []
    for t in range(concat1.shape[1]):
        frame = concat1[:, t].reshape(c1, -1)
        h6 = tz.relu(w6 @ frame)
        seg_frames.append((w7 @ h6).reshape(2, *concat1.shape[2:]))
        del h6
    conv6_shape = (4096, concat1.shape[1]) + concat1.shape[2:]
    shapes.append(("conv6", conv6_shape))
    seg = np.stack(seg_frames, axis=1)
    shapes.append(("conv7", seg.shape))

    tube = toi.full_frame_tube(concat1.shape[1], *concat1.shape[2:])
    pooled, _ = toi.toi_pool_forward(concat1, tube, (8, 8, 8))
    shapes.append(("toi-pool", pooled.shape))
    vec = pooled.ravel().astype(np.float32)
    fc6 = FC(vec.shape[0], 4096, rng)
    v = tz.relu(fc6.forward(vec)[0])
    shapes.append(("fc6", v.shape))
    del fc6
    fc7 = FC(4096, 4096, rng)
    v, _ = fc7.forward(v)
    shapes.append(("fc7", v.shape))
    return rows, shapes
