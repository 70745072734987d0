"""Desk-scale trainable models for both pipelines.

These reuse the reference architectures' structure at reduced channel
counts so the end-to-end paths (proposal generation, linking, recognition,
segmentation) train in minutes on a single core. Every backward pass is
hand-written; there is no autograd tape.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as tz
from . import toi
from .networks import FC, Conv3D, SubpixelUp, UnpoolUp, clip_grads
from .proposals import (POSITIVE, PairedFeatureProjector, RegressionTarget,
                        assign_actionness_labels, decode_regression,
                        encode_regression, smooth_l1)
from .segmentation import SegMask, channel_softmax, segmentation_loss
from .tensor import ShapeError, softmax_xent
from .toi import Box, Tube, pixel_box_to_cells
from .upsample import UpscaleFactors

ENC_CHANNELS = (8, 16, 24, 32, 32)
ENC_POOLS = ((1, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2))
STAGES = ("conv1", "conv2", "conv3", "conv4", "conv5")
# frames per clip: the encoder's temporal pools take them to one conv5 frame
CLIP = math.prod(k[0] for k in ENC_POOLS)
# the segmenter's frame height and width must be multiples of these, the
# encoder's spatial pool strides, for its decoder to restore each skip's size
FRAME_STRIDE = tuple(math.prod(k[i] for k in ENC_POOLS) for i in (1, 2))


def _flatten_state(state, prefix=""):
    out = {}
    for key, val in state.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten_state(val, name + "."))
        else:
            out[name] = val
    return out


class _ModelBase:
    """Trainable parts held in the attributes that `LAYERS` names. A part
    is a `networks` layer or another `_ModelBase` (the encoder); the
    nested state takes the same names, and the checkpoint's keys join them
    with dots (`flat_state`, `load_flat_state`)."""

    LAYERS = ()

    def _parts(self):
        return [(name, getattr(self, name)) for name in self.LAYERS]

    def trainables(self):
        return [layer for _, part in self._parts()
                for layer in part.trainables()]

    def state(self):
        return {name: part.state() for name, part in self._parts()}

    def load_state(self, st):
        for name, part in self._parts():
            part.load_state(st[name])

    def zero_grads(self):
        for layer in self.trainables():
            layer.zero_grads()

    def sgd_update(self, lr):
        for layer in self.trainables():
            layer.sgd_update(lr)

    def flat_state(self):
        return _flatten_state(self.state())

    def load_flat_state(self, flat):
        """`load_state` of the nested dict that `flat_state` flattened. A
        parameter of this model that `flat` lacks, or holds in another
        shape, raises a ValueError naming its dotted name."""
        for name, want in sorted(self.flat_state().items()):
            if name not in flat:
                raise ValueError(f"no parameter {name}")
            if np.shape(flat[name]) != np.shape(want):
                raise ValueError(f"parameter {name} has shape "
                                 f"{np.shape(flat[name])}, the model's is "
                                 f"{np.shape(want)}")
        nested = {}
        for name, arr in flat.items():
            *parents, leaf = name.split(".")
            node = nested
            for p in parents:
                node = node.setdefault(p, {})
            node[leaf] = arr
        self.load_state(nested)


class Encoder(_ModelBase):
    """conv1..conv5 3D feature extractor with taps for skip connections.

    Each stage is its conv, a ReLU and, after conv1..conv4, a max-pool of
    kernel `ENC_POOLS[i]`, as in the reference tables. Only the convs are
    layers; the ReLU and the pool are tensor calls. Activation names
    conv1..conv5 refer to the post-ReLU outputs.
    """

    def __init__(self, rng):
        cs = (3,) + ENC_CHANNELS
        self.convs = [Conv3D(cs[i], cs[i + 1], rng) for i in range(5)]

    def forward(self, x, keep_cache=True):
        """The activations conv1..conv5 and this call's cache (None when
        `keep_cache` is false, as inference needs none).

        The cache holds one tuple per stage: the conv's cache (its input),
        the ReLU's output (the stage's activation, rectified in place in
        the conv's output) and the pool's `PoolArgmax` (None after conv5).
        `backward` takes it back, so the caches of several clips can be
        held at once.
        """
        acts, cache = {}, []
        h = x
        for i in range(5):
            z, conv_cache = self.convs[i].forward(h)
            h = act = acts[f"conv{i + 1}"] = tz.relu(z, out=z)
            amap = None
            if i < 4:
                h, amap = tz.maxpool3d(act, ENC_POOLS[i])
            if keep_cache:
                cache.append((conv_cache, act, amap))
        return acts, cache if keep_cache else None

    def backward(self, taps, cache):
        """Accumulate the conv gradients of the activations named in `taps`
        (a dict from "conv1".."conv5" to their gradients), backpropagated
        through the forward that returned `cache`.

        Only the deepest tap's stage and those below it run: above it every
        gradient is zero, and so is every weight gradient it would add. No
        gradient of the input frames is computed; no caller reads one.
        """
        top = max((STAGES.index(name) for name in taps), default=-1)
        g = None
        for i in range(top, -1, -1):
            conv_cache, relu_out, amap = cache[i]
            t = taps.get(STAGES[i])
            if i == top:
                g = t
            else:
                g = tz.maxpool3d_backward(g, amap)
                if t is not None:
                    g = g + t
            g = self.convs[i].backward(tz.relu_backward(g, relu_out),
                                       conv_cache, input_grad=i > 0)

    def _parts(self):
        return list(zip(STAGES, self.convs))


def _head_forward(fc1, fc2, x):
    """fc1, ReLU (in place in fc1's output), fc2. Returns the output and
    the cache `_head_backward` takes."""
    z, fc1_cache = fc1.forward(x)
    y, fc2_cache = fc2.forward(tz.relu(z, out=z))
    return y, (fc1_cache, fc2_cache)


def _head_backward(fc1, fc2, g, cache):
    # fc2's cache is its input, the ReLU's output
    fc1_cache, fc2_cache = cache
    g = tz.relu_backward(fc2.backward(g, fc2_cache), fc2_cache)
    return fc1.backward(g, fc1_cache)


class _Recognizer(_ModelBase):
    """A model of `frame_hw` frames whose recognition head classifies a
    tube: ToI-pooled from a feature cube to `POOL`, then `rec_fc1`, ReLU
    and `rec_fc2`, whose outputs are the background and each class."""

    POOL = (CLIP, 4, 4)

    def _encode(self, frames, **kwargs):
        """`encoder.forward` of a clip, which every forward of the model
        runs first; its frames must have the model's size."""
        if frames.shape[2:] != self.frame_hw:
            raise ShapeError(f"clip frames are {frames.shape[2:]}, the "
                             f"model's {self.frame_hw}")
        return self.encoder.forward(frames, **kwargs)

    def _init_recognizer(self, in_c, hidden, num_classes, rng):
        self.rec_fc1 = FC(in_c * math.prod(self.POOL), hidden, rng)
        self.rec_fc2 = FC(hidden, num_classes + 1, rng)

    def recognition_forward(self, cube, pixel_boxes):
        """The logits of the tube with one pixel box per frame of `cube`,
        and the cache `recognition_backward` takes."""
        cells = [pixel_box_to_cells(b, cube.shape[2:], self.frame_hw)
                 for b in pixel_boxes]
        pooled, pmap = toi.toi_pool_forward(cube, Tube(tuple(cells)),
                                            self.POOL)
        logits, head_cache = _head_forward(self.rec_fc1, self.rec_fc2,
                                           pooled.ravel())
        return logits, (pmap, pooled.shape, head_cache)

    def recognition_backward(self, glogits, cache):
        """Accumulate the head's gradients; return the cube's."""
        pmap, pooled_shape, head_cache = cache
        g = _head_backward(self.rec_fc1, self.rec_fc2, glogits, head_cache)
        return toi.toi_pool_backward(g.reshape(pooled_shape), pmap)


def candidate_boxes(anchors, frame_hw):
    """Anchor templates placed at every cell center of the conv5 grid of
    `frame_hw` frames, in pixel space."""
    fh, fw = gh, gw = frame_hw
    for _, kh, kw in ENC_POOLS:  # each pool rounds up
        gh, gw = -(-gh // kh), -(-gw // kw)
    boxes = []
    # anchor-major ordering so boxes[i] matches actionness logits.ravel()
    for a in anchors:
        for u in range(gh):
            for v in range(gw):
                cy = (u + 0.5) * fh / gh
                cx = (v + 0.5) * fw / gw
                x1 = max(0.0, cx - (a.width - 1) / 2)
                y1 = max(0.0, cy - (a.height - 1) / 2)
                x2 = min(fw - 1.0, cx + (a.width - 1) / 2)
                y2 = min(fh - 1.0, cy + (a.height - 1) / 2)
                boxes.append(Box(x1, y1, max(x1, x2), max(y1, y2)))
    return boxes


def _clip_box(box, height, width):
    x1 = min(max(box.x1, 0.0), width - 1.0)
    y1 = min(max(box.y1, 0.0), height - 1.0)
    x2 = min(max(box.x2, x1), width - 1.0)
    y2 = min(max(box.y2, y1), height - 1.0)
    return Box(x1, y1, x2, y2)


class TCNN(_Recognizer):
    """Top-down pipeline: actionness over anchors on the collapsed conv5
    cube, temporal skip pooling into conv2, paired-feature regression, and
    a recognition head over ToI-pooled conv2 tubes. Conv2 tubes pool to
    `POOL`, conv5 tubes to `POOL5`."""

    POOL5 = (1, 2, 2)
    # regression targets are raw-pixel offsets (tens of pixels); a fixed
    # output scale lets the head reach them with O(1) weights
    REG_SCALE = 16.0
    LAYERS = ("encoder", "act_head", "reg_fc1", "reg_fc2", "rec_fc1",
              "rec_fc2")

    def __init__(self, num_classes, anchors, frame_hw, seed=0):
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.anchors = list(anchors)
        self.frame_hw = tuple(frame_hw)
        self._candidates = candidate_boxes(self.anchors, self.frame_hw)
        self.encoder = Encoder(rng)
        c2, c5 = ENC_CHANNELS[1], ENC_CHANNELS[4]
        self.act_head = Conv3D(c5, len(self.anchors), rng, (1, 1, 1))
        self.projector = PairedFeatureProjector(c2, c5, proj2=8, proj5=16,
                                                rng=rng)
        vec_len = self.projector.output_length((c2,) + self.POOL,
                                               (c5,) + self.POOL5)
        self.reg_fc1 = FC(vec_len, 128, rng)
        self.reg_fc2 = FC(128, CLIP * 4, rng)
        self._init_recognizer(c2, 128, num_classes, rng)

    # the projector is not in LAYERS: `tpn_step` updates it, with its own
    # clip, while it backpropagates each regression candidate
    def state(self):
        return {**super().state(), "proj_w2": self.projector.w2,
                "proj_w5": self.projector.w5}

    def load_state(self, st):
        super().load_state(st)
        self.projector.w2 = st["proj_w2"].copy()
        self.projector.w5 = st["proj_w5"].copy()

    # ------------------------------------------------------------------
    def encode_clip(self, frames, cache=None):
        """Encoder activations and actionness logits of one clip. A dict
        passed as `cache` receives the encoder's and the head's caches;
        without one, none is kept."""
        keep = cache is not None
        acts, enc_cache = self._encode(frames, keep_cache=keep)
        logits, head_cache = self.act_head.forward(acts["conv5"])
        if keep:
            cache["encoder"], cache["act_head"] = enc_cache, head_cache
        return acts, logits

    def clip_candidates(self):
        """The candidate boxes, in the order of the actionness logits."""
        return self._candidates

    def _tube_features(self, conv2, conv5, box_pixel):
        """Pair the skip-pooled conv2 tube with the conv5 box features."""
        cell5 = pixel_box_to_cells(box_pixel, conv5.shape[2:], self.frame_hw)
        cell2 = pixel_box_to_cells(box_pixel, conv2.shape[2:], self.frame_hw)
        tube2 = Tube(tuple(cell2 for _ in range(conv2.shape[1])))
        tube5 = Tube(tuple(cell5 for _ in range(conv5.shape[1])))
        pooled2, map2 = toi.toi_pool_forward(conv2, tube2, self.POOL)
        pooled5, map5 = toi.toi_pool_forward(conv5, tube5, self.POOL5)
        vec, cache = self.projector.forward(pooled2, pooled5)
        return vec, (cache, map2, map5)

    def _regress(self, vec):
        """Per-frame box deltas (CLIP, 4) and the cache `_regress_backward`
        takes."""
        out, cache = _head_forward(self.reg_fc1, self.reg_fc2, vec)
        return out.reshape(CLIP, 4) * self.REG_SCALE, cache

    def _regress_backward(self, gdeltas, cache):
        return _head_backward(self.reg_fc1, self.reg_fc2,
                              (gdeltas * self.REG_SCALE).reshape(-1), cache)

    def decode_boxes(self, acts, indices):
        """For each candidate in `indices` (into `clip_candidates()`), the
        per-frame boxes the regression head moves it to from the clip's
        activations `acts`: the inverse of `encode_regression`, clipped to
        the frame."""
        tubes = []
        for cand in (self._candidates[i] for i in indices):
            vec, _ = self._tube_features(acts["conv2"], acts["conv5"], cand)
            deltas, _ = self._regress(vec)
            tubes.append([_clip_box(decode_regression(
                cand, RegressionTarget(*d)), *self.frame_hw) for d in deltas])
        return tubes

    def tpn_step(self, frames, gt_boxes, rng, lr, reg_candidates=4):
        """One alternated-TPN update on a clip: balanced actionness BCE plus
        smooth-L1 per-frame regression on a few positive candidates."""
        self.zero_grads()
        clip_cache = {}
        acts, logits = self.encode_clip(frames, clip_cache)
        cands = self.clip_candidates()
        labeled = assign_actionness_labels(cands, gt_boxes)
        pos_idx = [i for i, lb in enumerate(labeled) if lb.label == POSITIVE]
        neg_idx = [i for i, lb in enumerate(labeled) if lb.label != POSITIVE]
        n = min(len(pos_idx), len(neg_idx), 8)
        pos_pick = list(rng.choice(len(pos_idx), size=n, replace=False)) \
            if len(pos_idx) > n else range(len(pos_idx))
        neg_pick = list(rng.choice(len(neg_idx), size=n, replace=False))
        sampled = [(pos_idx[i], 1.0) for i in pos_pick] \
            + [(neg_idx[i], 0.0) for i in neg_pick]

        flat = logits.ravel()
        glogits = np.zeros_like(flat)
        bce = 0.0
        for i, y in sampled:
            z = float(flat[i])
            p = 1.0 / (1.0 + np.exp(-z))
            bce += -(y * np.log(max(p, 1e-12))
                     + (1 - y) * np.log(max(1 - p, 1e-12)))
            glogits[i] = (p - y) / len(sampled)
        bce /= max(len(sampled), 1)
        g5 = self.act_head.backward(glogits.reshape(logits.shape),
                                    clip_cache["act_head"])

        g2 = np.zeros_like(acts["conv2"])
        reg_loss = 0.0
        picks = pos_idx[:reg_candidates]
        for i in picks:
            vec, (cache, map2, map5) = self._tube_features(
                acts["conv2"], acts["conv5"], cands[i])
            deltas, reg_cache = self._regress(vec)
            targets = [encode_regression(
                cands[i], gt_boxes[min(f, len(gt_boxes) - 1)])
                for f in range(CLIP)]
            loss, gdiff = smooth_l1(deltas - np.array(
                [[t.d_cx, t.d_cy, t.d_w, t.d_h] for t in targets],
                dtype=deltas.dtype))
            reg_loss += loss / CLIP
            gvec = self._regress_backward(gdiff / CLIP, reg_cache)
            gp2, gp5, gw2, gw5 = self.projector.backward(gvec, cache)
            gw2, gw5 = clip_grads(gw2, gw5)
            self.projector.w2 = tz.sgd_step(self.projector.w2, gw2, lr)
            self.projector.w5 = tz.sgd_step(self.projector.w5, gw5, lr)
            g2 += toi.toi_pool_backward(gp2, map2)
            g5 += toi.toi_pool_backward(gp5, map5)
        self.encoder.backward({"conv5": g5, "conv2": g2},
                              clip_cache["encoder"])
        self.sgd_update(lr)
        return float(bce), float(reg_loss / max(len(picks), 1))

    # ------------------------------------------------------------------
    def recognition_forward(self, conv2_cubes, pixel_boxes):
        """Pool a tube spanning the concatenated clips' conv2 cubes and
        classify it.

        The tube has one box per frame of the video. Frames past the last
        box, the zero padding of a short last clip, are left out of the
        pool.
        """
        depths = [c.shape[1] for c in conv2_cubes]
        cube = np.concatenate(conv2_cubes, axis=1)[:, :len(pixel_boxes)]
        logits, cache = super().recognition_forward(cube, pixel_boxes)
        return logits, (cache, depths)

    def recognition_backward(self, glogits, cache):
        """Per-clip gradients of the conv2 cubes; padded frames get zero."""
        cache, depths = cache
        gcube = super().recognition_backward(glogits, cache)
        tail = sum(depths) - gcube.shape[1]
        if tail:
            gcube = np.pad(gcube, ((0, 0), (0, tail), (0, 0), (0, 0)))
        return np.split(gcube, np.cumsum(depths)[:-1], axis=1)

    def recognition_step(self, clips, gt_boxes, label, rng, lr):
        """Joint update over a whole-video tube (label is 1..N, or 0 for a
        background tube). Each clip's encoder runs forward once; its cache
        is handed back for that clip's backward."""
        self.zero_grads()
        passes = [self._encode(fr) for fr in clips]
        logits, cache = self.recognition_forward(
            [acts["conv2"] for acts, _ in passes], gt_boxes)
        loss, glog = softmax_xent(logits, label)
        gsplit = self.recognition_backward(glog, cache)
        for (_, enc_cache), g2 in zip(passes, gsplit):
            self.encoder.backward({"conv2": g2}, enc_cache)
        self.sgd_update(lr)
        return float(loss) + 0.0  # a saturated softmax gives -0.0


UPSAMPLERS = {"subpixel": SubpixelUp, "unpool": UnpoolUp}


class STCNN(_Recognizer):
    """Bottom-up pipeline: encoder-decoder with skip concatenations, a
    per-frame two-class segmentation head, and a recognition head on the
    final concatenation cube (concat1)."""

    # the decoder, deepest stage first. Each stage upsamples by its factors
    # to UP_C channels, concatenates the encoder's skip, and runs its conv
    # (kernel given) to 16 channels and a ReLU. The last concatenation is
    # concat1, which conv7 reads through conv6 to give the logits.
    DECODER = (("up4", (2, 2, 2), "conv4", "conv4c", (3, 3, 3)),
               ("up3", (2, 2, 2), "conv3", "conv3c", (3, 3, 3)),
               ("up2", (2, 2, 2), "conv2", "conv2c", (3, 3, 3)),
               ("up1", (1, 2, 2), "conv1", "conv6", (1, 1, 1)))
    UP_C = 8
    LAYERS = ("encoder", *[n for up, _, _, conv, _ in DECODER
                           for n in (up, conv)], "conv7", "rec_fc1", "rec_fc2")

    def __init__(self, num_classes, frame_hw, seed=0, upsampler="subpixel"):
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.frame_hw = tuple(frame_hw)
        if any(n % s for n, s in zip(self.frame_hw, FRAME_STRIDE)):
            raise ShapeError(f"frame size {self.frame_hw}: height and width "
                             f"must be multiples of {FRAME_STRIDE}, the "
                             f"encoder's spatial pool strides")
        if upsampler not in UPSAMPLERS:
            raise ValueError(f"upsampler {upsampler!r} is not one of "
                             f"{', '.join(UPSAMPLERS)}")
        self.upsampler = upsampler
        self.encoder = Encoder(rng)
        in_c = ENC_CHANNELS[-1]
        for up, p, skip, conv, kdhw in self.DECODER:
            concat_c = self.UP_C + ENC_CHANNELS[STAGES.index(skip)]
            setattr(self, up, UPSAMPLERS[upsampler](
                in_c, self.UP_C, UpscaleFactors(*p), rng))
            setattr(self, conv, Conv3D(concat_c, 16, rng, kdhw))
            in_c = 16
        self.conv7 = Conv3D(16, 2, rng, (1, 1, 1))
        self._init_recognizer(concat_c, 64, num_classes, rng)  # concat1's

    # ------------------------------------------------------------------
    def forward(self, frames, cache=None):
        """Encoder activations, concat1 and the segmentation logits of one
        clip. A dict passed as `cache` receives what `backward` takes: the
        encoder's cache under "encoder", one tuple per decoder stage under
        "decoder" (the upsampler's cache, the conv's, and the ReLU's
        output, rectified in place in the conv's) and conv7's under
        "conv7"; without one, none is kept."""
        keep = cache is not None
        acts, enc_cache = self._encode(frames, keep_cache=keep)
        h, stages = acts["conv5"], []
        for up, _, skip, conv, _ in self.DECODER:
            y, up_cache = getattr(self, up).forward(h)
            concat = np.concatenate([y, acts[skip]], axis=0)
            del y  # before the conv allocates its output
            if not keep:
                del up_cache  # un-pooling's is a whole upsampled cube
            z, conv_cache = getattr(self, conv).forward(concat)
            h = tz.relu(z, out=z)
            if keep:
                stages.append((up_cache, conv_cache, h))
            del conv_cache  # concat: the next stage's conv must not hold it
        logits, conv7_cache = self.conv7.forward(h)
        if keep:
            cache.update(encoder=enc_cache, decoder=stages, conv7=conv7_cache)
        return acts, concat, logits

    def backward(self, cache, g_seg_logits, g_concat1_extra):
        """Accumulate the gradients of the forward that filled `cache`,
        from those of the logits and an extra one of concat1, walking the
        decoder stages' caches from the last back to the first."""
        g = self.conv7.backward(g_seg_logits, cache["conv7"])
        extra, taps = g_concat1_extra, {}
        for (up, _, skip, conv, _), (up_cache, conv_cache, relu_out) in zip(
                reversed(self.DECODER), reversed(cache["decoder"])):
            g = getattr(self, conv).backward(tz.relu_backward(g, relu_out),
                                             conv_cache)
            if extra is not None:  # concat1's: the first concatenation back
                g, extra = g + extra, None
            taps[skip] = np.ascontiguousarray(g[self.UP_C:])
            g = getattr(self, up).backward(np.ascontiguousarray(g[:self.UP_C]),
                                           up_cache)
        taps["conv5"] = g
        self.encoder.backward(taps, cache["encoder"])

    def train_step(self, frames, gt_masks, gt_boxes, label, lr):
        """Joint segmentation + recognition update on one clip."""
        self.zero_grads()
        cache = {}
        acts, concat1, seg_logits = self.forward(frames, cache)
        seg_loss, g_seg = segmentation_loss(seg_logits, gt_masks)
        # rebalance the gradient so the sparse foreground class is not
        # swamped by background pixels (the reported loss stays unweighted)
        fg = np.stack([m.bits for m in gt_masks])
        rho = float(fg.mean())
        if 0.0 < rho < 1.0:
            dt = g_seg.dtype.type
            g_seg = g_seg * np.where(fg, dt(0.5 / rho), dt(0.5 / (1.0 - rho)))
        logits, rec_cache = self.recognition_forward(concat1, gt_boxes)
        rec_loss, glog = softmax_xent(logits, label)
        self.backward(cache, g_seg, self.recognition_backward(glog, rec_cache))
        self.sgd_update(lr)
        return float(seg_loss), float(rec_loss)

    def segment_clip(self, frames, threshold=0.5):
        """The binary mask of each frame of a clip, foreground where its
        softmax probability reaches `threshold`, and the clip's concat1."""
        _, concat1, seg_logits = self.forward(frames)
        p_fg = channel_softmax(seg_logits)[1]
        masks = [SegMask(p_fg[t] >= threshold) for t in range(p_fg.shape[0])]
        return masks, concat1
