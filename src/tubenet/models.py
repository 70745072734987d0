"""Desk-scale trainable models for both pipelines.

These reuse the reference architectures' structure at reduced channel
counts so the end-to-end paths (proposal generation, linking, recognition,
segmentation) train in minutes on a single core. Every backward pass is
hand-written; there is no autograd tape.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from . import toi
from .networks import (FC, Conv3D, Pool3D, ReLU, SubpixelUp, UnpoolUp,
                       clip_grads)
from .proposals import PairedFeatureProjector, encode_regression, smooth_l1
from .segmentation import segmentation_loss
from .tensor import softmax_xent
from .toi import Box, Tube, pixel_box_to_cells
from .upsample import UpscaleFactors

ENC_CHANNELS = (8, 16, 24, 32, 32)
ENC_POOLS = ((1, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2))
STAGES = ("conv1", "conv2", "conv3", "conv4", "conv5")


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
    nested state, the checkpoint's keys, takes the same names."""

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


class Encoder(_ModelBase):
    """conv1..conv5 3D feature extractor with taps for skip connections.

    Activation names conv1..conv5 refer to the post-ReLU outputs; pooling
    follows conv1..conv4 as in the reference tables.
    """

    def __init__(self, rng, in_c=3, channels=ENC_CHANNELS, dtype=np.float32):
        self.channels = channels
        cs = (in_c,) + tuple(channels)
        self.convs = [Conv3D(cs[i], cs[i + 1], rng=rng, dtype=dtype)
                      for i in range(5)]
        self.relus = [ReLU() for _ in range(5)]
        self.pools = [Pool3D(k) for k in ENC_POOLS]

    def forward(self, x, keep_cache=True):
        """The activations conv1..conv5 and this call's cache (None when
        `keep_cache` is false, as inference needs none).

        The cache holds, for each of the five stages, the caches of its
        conv, its ReLU and its pool (None after conv5): the conv's input,
        the ReLU's output (the stage's activation) and the pool's argmax
        map. `backward` takes it back, so the caches of several clips can
        be held at once.
        """
        acts, cache = {}, []
        h = x
        for i in range(5):
            z, conv_cache = self.convs[i].forward(h)
            h, relu_cache = self.relus[i].forward(z)
            acts[f"conv{i + 1}"] = h
            pool_cache = None
            if i < 4:
                h, pool_cache = self.pools[i].forward(h)
            if keep_cache:
                cache.append((conv_cache, relu_cache, pool_cache))
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
            conv_cache, relu_cache, pool_cache = cache[i]
            t = taps.get(STAGES[i])
            if i == 4:
                g = t
            elif i == top:
                # as if a zero gradient came from above: -0.0 arrives as +0.0
                g = t + 0
            else:
                g = self.pools[i].backward(g, pool_cache)
                if t is not None:
                    g = g + t
            g = self.convs[i].backward(self.relus[i].backward(g, relu_cache),
                                       conv_cache, input_grad=i > 0)

    def _parts(self):
        return list(zip(STAGES, self.convs))


def _head_forward(fc1, fc2, x):
    """fc1, ReLU, fc2. Returns the output and the cache `_head_backward`
    takes."""
    z, fc1_cache = fc1.forward(x)
    y, fc2_cache = fc2.forward(tz.relu(z))
    return y, (fc1_cache, fc2_cache)


def _head_backward(fc1, fc2, g, cache):
    # fc2's cache is its input, the ReLU's output
    fc1_cache, fc2_cache = cache
    g = tz.relu_backward(fc2.backward(g, fc2_cache), fc2_cache)
    return fc1.backward(g, fc1_cache)


def candidate_boxes(anchors, grid_hw, frame_hw):
    """Anchor templates placed at every conv5 cell center, in pixel space."""
    gh, gw = grid_hw
    fh, fw = frame_hw
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


class TCNN(_ModelBase):
    """Top-down pipeline: actionness over anchors on the collapsed conv5
    cube, temporal skip pooling into conv2, paired-feature regression, and
    a recognition head over ToI-pooled tubes."""

    POOL2 = (8, 4, 4)
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
        self.frame_hw = frame_hw
        self.encoder = Encoder(rng)
        c2, c5 = ENC_CHANNELS[1], ENC_CHANNELS[4]
        self.act_head = Conv3D(c5, len(self.anchors), (1, 1, 1), rng=rng)
        self.projector = PairedFeatureProjector(c2, c5, proj2=8, proj5=16,
                                                rng=rng)
        vec_len = self.projector.output_length((c2,) + self.POOL2,
                                               (c5,) + self.POOL5)
        self.reg_fc1 = FC(vec_len, 128, rng)
        self.reg_fc2 = FC(128, 8 * 4, rng)
        self.rec_fc1 = FC(c2 * int(np.prod(self.POOL2)), 128, rng)
        self.rec_fc2 = FC(128, num_classes + 1, rng)
        self._grid_hw = None

    # the projector is not in LAYERS: `tpn_step` updates it, with its own
    # clip, while it backpropagates each regression candidate
    def state(self):
        return {**super().state(), "proj_w2": self.projector.w2,
                "proj_w5": self.projector.w5}

    def load_state(self, st):
        super().load_state(st)
        self.projector.w2 = st["proj_w2"].astype(np.float64)
        self.projector.w5 = st["proj_w5"].astype(np.float64)

    # ------------------------------------------------------------------
    def encode_clip(self, frames, cache=None):
        """Encoder activations and actionness logits of one clip. A dict
        passed as `cache` receives the encoder's and the head's caches;
        without one, none is kept."""
        keep = cache is not None
        acts, enc_cache = self.encoder.forward(frames, keep_cache=keep)
        logits, head_cache = self.act_head.forward(acts["conv5"])
        if keep:
            cache["encoder"], cache["act_head"] = enc_cache, head_cache
        if self._grid_hw is None:
            self._grid_hw = acts["conv5"].shape[2:]
        return acts, logits

    def clip_candidates(self):
        return candidate_boxes(self.anchors, self._grid_hw, self.frame_hw)

    def _tube_features(self, conv2, conv5, box_pixel):
        """Pair the skip-pooled conv2 tube with the conv5 box features."""
        cell5 = pixel_box_to_cells(box_pixel, conv5.shape[2:], self.frame_hw)
        cell2 = pixel_box_to_cells(box_pixel, conv2.shape[2:], self.frame_hw)
        tube2 = Tube(tuple(cell2 for _ in range(conv2.shape[1])))
        tube5 = Tube(tuple(cell5 for _ in range(conv5.shape[1])))
        pooled2, map2 = toi.toi_pool_forward(conv2, tube2, self.POOL2)
        pooled5, map5 = toi.toi_pool_forward(conv5, tube5, self.POOL5)
        vec, cache = self.projector.forward(pooled2.astype(np.float64),
                                            pooled5.astype(np.float64))
        return vec, (cache, map2, map5)

    def _regress(self, vec):
        """Per-frame box deltas (8, 4) and the cache `_regress_backward`
        takes."""
        out, cache = _head_forward(self.reg_fc1, self.reg_fc2,
                                   vec.astype(np.float32))
        return out.reshape(8, 4) * self.REG_SCALE, cache

    def _regress_backward(self, gdeltas, cache):
        return _head_backward(
            self.reg_fc1, self.reg_fc2,
            (gdeltas * self.REG_SCALE).reshape(-1).astype(np.float32), cache)

    def tpn_step(self, frames, gt_boxes, rng, lr, reg_candidates=4):
        """One alternated-TPN update on a clip: balanced actionness BCE plus
        smooth-L1 per-frame regression on a few positive candidates."""
        from .proposals import POSITIVE, assign_actionness_labels

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
            diffs = np.empty((8, 4))
            for f in range(8):
                t = encode_regression(cands[i], gt_boxes[min(f, len(gt_boxes) - 1)])
                diffs[f] = deltas[f] - np.array(
                    [t.d_cx, t.d_cy, t.d_w, t.d_h])
            loss, gdiff = smooth_l1(diffs)
            reg_loss += loss / 8.0
            gvec = self._regress_backward(gdiff / 8.0, reg_cache)
            gp2, gp5, gw2, gw5 = self.projector.backward(
                gvec.astype(np.float64), cache)
            gw2, gw5 = clip_grads(gw2, gw5)
            self.projector.w2 = tz.sgd_step(self.projector.w2, gw2, lr)
            self.projector.w5 = tz.sgd_step(self.projector.w5, gw5, lr)
            g2 += toi.toi_pool_backward(gp2.astype(np.float32), map2)
            g5 += toi.toi_pool_backward(gp5.astype(np.float32), map5)
        self.encoder.backward({"conv5": g5, "conv2": g2},
                              clip_cache["encoder"])
        self.sgd_update(lr)
        return float(bce), float(reg_loss / max(len(picks), 1))

    # ------------------------------------------------------------------
    def recognition_forward(self, conv2_cubes, pixel_boxes):
        """Pool a tube spanning the concatenated clips and classify it.

        The tube has one box per frame of the video. Frames past the last
        box, the zero padding of a short last clip, are left out of the
        pool.
        """
        depths = [c.shape[1] for c in conv2_cubes]
        cube = np.concatenate(conv2_cubes, axis=1)[:, :len(pixel_boxes)]
        cells = [pixel_box_to_cells(b, cube.shape[2:], self.frame_hw)
                 for b in pixel_boxes]
        pooled, pmap = toi.toi_pool_forward(cube, Tube(tuple(cells)),
                                            self.POOL2)
        logits, head_cache = _head_forward(
            self.rec_fc1, self.rec_fc2, pooled.ravel().astype(np.float32))
        return logits, (pmap, pooled.shape, depths, head_cache)

    def recognition_backward(self, glogits, cache):
        """Per-clip gradients of the conv2 cubes; padded frames get zero."""
        pmap, pooled_shape, depths, head_cache = cache
        g = _head_backward(self.rec_fc1, self.rec_fc2,
                           glogits.astype(np.float32), head_cache)
        gcube = toi.toi_pool_backward(g.reshape(pooled_shape), pmap)
        tail = sum(depths) - gcube.shape[1]
        if tail:
            gcube = np.pad(gcube, ((0, 0), (0, tail), (0, 0), (0, 0)))
        return np.split(gcube, np.cumsum(depths)[:-1], axis=1)

    def recognition_step(self, clips, gt_boxes, label, rng, lr):
        """Joint update over a whole-video tube (label is 1..N, or 0 for a
        background tube). Each clip's encoder runs forward once; its cache
        is handed back for that clip's backward."""
        self.zero_grads()
        passes = [self.encoder.forward(fr) for fr in clips]
        logits, cache = self.recognition_forward(
            [acts["conv2"] for acts, _ in passes], gt_boxes)
        loss, glog = softmax_xent(logits, label)
        gsplit = self.recognition_backward(glog, cache)
        for (_, enc_cache), g2 in zip(passes, gsplit):
            self.encoder.backward({"conv2": g2}, enc_cache)
        self.sgd_update(lr)
        return float(loss) + 0.0  # a saturated softmax gives -0.0


UPSAMPLERS = {"subpixel": SubpixelUp, "unpool": UnpoolUp}


class STCNN(_ModelBase):
    """Bottom-up pipeline: encoder-decoder with skip concatenations, a
    per-frame two-class segmentation head, and a recognition head on the
    final concatenation cube."""

    POOL = (8, 4, 4)
    LAYERS = ("encoder", "up4", "conv4c", "up3", "conv3c", "up2", "conv2c",
              "up1", "conv6", "conv7", "rec_fc1", "rec_fc2")

    def __init__(self, num_classes, frame_hw, seed=0, upsampler="subpixel"):
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.frame_hw = frame_hw
        if upsampler not in UPSAMPLERS:
            raise ValueError(f"upsampler {upsampler!r} is not one of "
                             f"{', '.join(UPSAMPLERS)}")
        self.upsampler = upsampler
        self.encoder = Encoder(rng)
        c1, c2, c3, c4, c5 = ENC_CHANNELS
        up = UPSAMPLERS[upsampler]
        self.up4 = up(c5, 8, UpscaleFactors(2, 2, 2), rng)
        self.conv4c = Conv3D(8 + c4, 16, rng=rng)
        self.relu4c = ReLU()
        self.up3 = up(16, 8, UpscaleFactors(2, 2, 2), rng)
        self.conv3c = Conv3D(8 + c3, 16, rng=rng)
        self.relu3c = ReLU()
        self.up2 = up(16, 8, UpscaleFactors(2, 2, 2), rng)
        self.conv2c = Conv3D(8 + c2, 16, rng=rng)
        self.relu2c = ReLU()
        self.up1 = up(16, 8, UpscaleFactors(1, 2, 2), rng)
        self.concat1_c = 8 + c1
        self.conv6 = Conv3D(self.concat1_c, 16, (1, 1, 1), rng=rng)
        self.relu6 = ReLU()
        self.conv7 = Conv3D(16, 2, (1, 1, 1), rng=rng)
        d, h, w = self.POOL
        self.rec_fc1 = FC(self.concat1_c * d * h * w, 64, rng)
        self.rec_fc2 = FC(64, num_classes + 1, rng)

    # ------------------------------------------------------------------
    def forward(self, frames, cache=None):
        """Encoder activations, the final concatenation cube (concat1) and
        the segmentation logits of one clip. A dict passed as `cache`
        receives what `backward` takes: the encoder's cache and each
        decoder layer's, by name; without one, none is kept."""
        keep = cache is not None
        acts, enc_cache = self.encoder.forward(frames, keep_cache=keep)
        if keep:
            cache["encoder"] = enc_cache

        def run(name, x):
            y, layer_cache = getattr(self, name).forward(x)
            if keep:
                cache[name] = layer_cache
            return y

        h = run("up4", acts["conv5"])
        h = run("relu4c", run("conv4c",
                              np.concatenate([h, acts["conv4"]], axis=0)))
        h = run("up3", h)
        h = run("relu3c", run("conv3c",
                              np.concatenate([h, acts["conv3"]], axis=0)))
        h = run("up2", h)
        h = run("relu2c", run("conv2c",
                              np.concatenate([h, acts["conv2"]], axis=0)))
        h = run("up1", h)
        concat1 = np.concatenate([h, acts["conv1"]], axis=0)
        seg_logits = run("conv7", run("relu6", run("conv6", concat1)))
        return acts, concat1, seg_logits

    def backward(self, cache, g_seg_logits, g_concat1_extra=None):
        def back(name, g):
            return getattr(self, name).backward(g, cache[name])

        g = back("conv6", back("relu6", back("conv7", g_seg_logits)))
        if g_concat1_extra is not None:
            g = g + g_concat1_extra
        g_up1, g_skip1 = g[:8], g[8:]
        g = back("up1", np.ascontiguousarray(g_up1))
        g = back("conv2c", back("relu2c", g))
        g_up2, g_skip2 = g[:8], g[8:]
        g = back("up2", np.ascontiguousarray(g_up2))
        g = back("conv3c", back("relu3c", g))
        g_up3, g_skip3 = g[:8], g[8:]
        g = back("up3", np.ascontiguousarray(g_up3))
        g = back("conv4c", back("relu4c", g))
        g_up4, g_skip4 = g[:8], g[8:]
        g5 = back("up4", np.ascontiguousarray(g_up4))
        self.encoder.backward({
            "conv5": g5,
            "conv4": np.ascontiguousarray(g_skip4),
            "conv3": np.ascontiguousarray(g_skip3),
            "conv2": np.ascontiguousarray(g_skip2),
            "conv1": np.ascontiguousarray(g_skip1),
        }, cache["encoder"])

    def recognition_forward(self, concat1, pixel_boxes):
        cells = [pixel_box_to_cells(b, concat1.shape[2:], self.frame_hw)
                 for b in pixel_boxes]
        pooled, pmap = toi.toi_pool_forward(concat1, Tube(tuple(cells)),
                                            self.POOL)
        logits, head_cache = _head_forward(
            self.rec_fc1, self.rec_fc2, pooled.ravel().astype(np.float32))
        return logits, (pmap, pooled.shape, head_cache)

    def recognition_backward(self, glogits, cache):
        pmap, pooled_shape, head_cache = cache
        g = _head_backward(self.rec_fc1, self.rec_fc2,
                           glogits.astype(np.float32), head_cache)
        return toi.toi_pool_backward(g.reshape(pooled_shape), pmap)

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
            w = np.where(fg, 0.5 / rho, 0.5 / (1.0 - rho))
            g_seg = g_seg * w[None].astype(g_seg.dtype)
        rec_loss = 0.0
        g_extra = None
        if label is not None and gt_boxes is not None:
            logits, rec_cache = self.recognition_forward(concat1, gt_boxes)
            rec_loss, glog = softmax_xent(logits, label)
            g_extra = self.recognition_backward(glog, rec_cache)
        self.backward(cache, g_seg, g_extra)
        self.sgd_update(lr)
        return float(seg_loss), float(rec_loss)

    def segment_clip(self, frames, threshold=0.5):
        """Per-pixel foreground probabilities and binary masks for a clip."""
        from .segmentation import SegMask

        _, concat1, seg_logits = self.forward(frames)
        z = seg_logits - seg_logits.max(axis=0, keepdims=True)
        e = np.exp(z)
        p_fg = (e / e.sum(axis=0, keepdims=True))[1]
        masks = [SegMask(p_fg[t] >= threshold) for t in range(p_fg.shape[0])]
        return masks, p_fg, concat1
