"""Forward counts and gradients of the desk-scale models' training steps."""

import numpy as np
import pytest

from tubenet import tensor
from tubenet.models import TCNN, Encoder, _ModelBase
from tubenet.proposals import POSITIVE, Anchor, assign_actionness_labels
from tubenet.tensor import softmax_xent
from tubenet.toi import Box


def _tcnn():
    return TCNN(2, [Anchor(20.0, 16.0), Anchor(12.0, 24.0)], (48, 64),
                seed=7)


def test_load_flat_state_nests_dotted_names():
    loaded = []

    class Probe(_ModelBase):
        def load_state(self, st):
            loaded.append(st)

    Probe().load_flat_state({"a.b.c": 1, "a.b.d": 2, "e": 3})
    assert loaded == [{"a": {"b": {"c": 1, "d": 2}}, "e": 3}]


def _grads(model):
    return [(layer.gw.tobytes(), layer.gb.tobytes())
            for layer in model.trainables()]


def _recognition_grads_recomputing(model, clips, boxes, label):
    """The gradients of a recognition step that runs each clip's encoder
    forward again right before that clip's backward."""
    model.zero_grads()
    acts = [model.encoder.forward(c)[0] for c in clips]
    logits, cache = model.recognition_forward([a["conv2"] for a in acts],
                                              boxes)
    _, glog = softmax_xent(logits, label)
    for frames, g2 in zip(clips, model.recognition_backward(glog, cache)):
        _, enc_cache = model.encoder.forward(frames)
        model.encoder.backward({"conv2": g2}, enc_cache)
    return _grads(model)


def test_recognition_step_one_encoder_forward_per_clip(monkeypatch):
    rng = np.random.default_rng(0)
    clips = [rng.random((3, 8, 48, 64)).astype(np.float32) for _ in range(2)]
    boxes = [Box(10.0 + f, 8.0, 40.0, 30.0 + f / 2) for f in range(16)]

    calls = []
    forward = Encoder.forward

    def counting(self, x):
        calls.append(x.shape)
        return forward(self, x)

    model = _tcnn()
    monkeypatch.setattr(Encoder, "forward", counting)
    model.recognition_step(clips, boxes, 1, rng, 0.0)
    monkeypatch.setattr(Encoder, "forward", forward)
    assert len(calls) == 2

    want = _recognition_grads_recomputing(_tcnn(), clips, boxes, 1)
    assert _grads(model) == want
    assert any(conv.gw.any() for conv in model.encoder.convs)


def _encoder_backward_full_depth(encoder, taps, cache):
    """The encoder backward that runs every stage: from a zero gradient
    above conv5 when conv5 has no tap, and through conv1's input gradient.
    """
    g = taps.get("conv5")
    if g is None:
        g = np.zeros_like(cache[4][1])
    for i in (4, 3, 2, 1, 0):
        conv_cache, relu_out, amap = cache[i]
        if i < 4:
            g = tensor.maxpool3d_backward(g, amap)
            t = taps.get(f"conv{i + 1}")
            if t is not None:
                g = g + t
        g = encoder.convs[i].backward(
            tensor.relu_backward(g, relu_out), conv_cache)


@pytest.mark.parametrize("names", [
    ("conv2",), ("conv5", "conv2"),
    ("conv1", "conv2", "conv3", "conv4", "conv5")])
def test_encoder_backward_matches_full_depth_bytes(names):
    rng = np.random.default_rng(1)
    frames = rng.random((3, 8, 48, 64)).astype(np.float32)
    acts, cache = Encoder(np.random.default_rng(2)).forward(frames)
    taps = {}
    for name in names:
        t = rng.standard_normal(acts[name].shape).astype(np.float32)
        t[rng.random(t.shape) < 0.3] = -0.0  # signed zeros, as ReLUs give
        taps[name] = t
    # both start from zeroed gradients, as every training step does
    encoder = Encoder(np.random.default_rng(2))
    assert encoder.backward(taps, cache) is None
    oracle = Encoder(np.random.default_rng(2))
    _encoder_backward_full_depth(oracle, taps, cache)
    assert _grads(encoder) == _grads(oracle)
    assert encoder.convs[0].gw.any()


def test_recognition_step_backpropagates_only_below_conv2(monkeypatch):
    rng = np.random.default_rng(0)
    clips = [rng.random((3, 8, 48, 64)).astype(np.float32) for _ in range(2)]
    boxes = [Box(10.0 + f, 8.0, 40.0, 30.0 + f / 2) for f in range(16)]
    calls = []
    backward = tensor.conv3d_backward

    def counting(grad_out, x, kernels, **kwargs):
        calls.append(kwargs.get("input_grad", True))
        return backward(grad_out, x, kernels, **kwargs)

    monkeypatch.setattr(tensor, "conv3d_backward", counting)
    _tcnn().recognition_step(clips, boxes, 1, rng, 0.0)
    # per clip: conv2 with its input gradient, then conv1 without
    assert calls == [True, False] * 2


def _clip(seed, shape=(3, 8, 48, 64)):
    return np.random.default_rng(seed).standard_normal(shape) \
        .astype(np.float32)


def test_inference_forwards_keep_no_caches(monkeypatch):
    from tubenet.models import STCNN

    tcnn, stcnn = _tcnn(), STCNN(2, (48, 64), seed=7)
    frames = _clip(3)
    cached = {}
    acts_c, logits_c = tcnn.encode_clip(frames, cached)
    seg_cache = {}
    _, concat_c, seg_c = stcnn.forward(frames, seg_cache)
    assert set(cached) == {"encoder", "act_head"}
    assert set(seg_cache) == {"encoder", "decoder", "conv7"}
    # one (upsampler, conv, ReLU output) tuple per decoder stage
    assert [len(stage) for stage in seg_cache["decoder"]] == [3] * 4
    # the last ReLU's output is conv7's input, held once
    assert seg_cache["decoder"][-1][2] is seg_cache["conv7"]

    kept = []
    forward = Encoder.forward
    monkeypatch.setattr(Encoder, "forward", lambda self, x, keep_cache=True:
                        kept.append(keep_cache) or forward(self, x,
                                                           keep_cache))
    acts, logits = tcnn.encode_clip(frames)
    _, concat1, seg = stcnn.forward(frames)
    assert kept == [False, False]
    assert logits.tobytes() == logits_c.tobytes()
    assert all(acts[k].tobytes() == acts_c[k].tobytes() for k in acts)
    assert concat1.tobytes() == concat_c.tobytes()
    assert seg.tobytes() == seg_c.tobytes()
    assert Encoder(np.random.default_rng(0)).forward(
        frames, keep_cache=False)[1] is None


def test_desk_scale_models_stay_on_one_worker(monkeypatch):
    # the default 80x112 frames: no conv or pool reaches the size gate, so
    # training and inference keep the serial path
    from tubenet.models import STCNN

    monkeypatch.setattr(tensor, "_on_two_workers",
                        lambda *a: pytest.fail("split a desk-scale call"))
    frames = _clip(4, (3, 8, 80, 112))
    with tensor.blas_threads(1):
        TCNN(2, [Anchor(20.0, 16.0)], (80, 112), seed=1).encode_clip(frames)
        STCNN(2, (80, 112), seed=1).forward(frames)


# ----------------------------------------------------------------------
# the candidate grid, fixed by the frame size

def test_candidates_come_from_the_frame_size_before_any_forward():
    model = _tcnn()  # 48x64 frames: a 3x4 conv5 grid
    cands = model.clip_candidates()
    assert len(cands) == 2 * 3 * 4
    # the first anchor, 20x16, centered on the first cell: (8, 8)
    assert cands[0] == Box(0.0, 0.5, 17.5, 15.5)
    _, logits = model.encode_clip(_clip(5))
    assert logits.shape == (2, 1, 3, 4)
    assert model.clip_candidates() == cands
    assert len(TCNN(2, [Anchor(20.0, 16.0)], (80, 112)).clip_candidates()) \
        == 5 * 7


def test_a_clip_of_another_frame_size_is_rejected_naming_both():
    model = _tcnn()
    frames = _clip(6, (3, 8, 80, 112))
    match = r"\(80, 112\).*\(48, 64\)"
    with pytest.raises(tensor.ShapeError, match=match):
        model.encode_clip(frames)
    boxes = [Box(10.0, 8.0, 40.0, 30.0)] * 8
    with pytest.raises(tensor.ShapeError, match=match):
        model.tpn_step(frames, boxes, np.random.default_rng(0), 0.1)


# ----------------------------------------------------------------------
# finite differences through whole training steps

def _float64(model):
    """The model with float64 parameters and gradients: in float32 the
    rounding of the loss swamps the difference along the deepest layers,
    whose slopes are near 1e-5."""
    for layer in model.trainables():
        layer.w, layer.b = (layer.w.astype(np.float64),
                            layer.b.astype(np.float64))
        layer.gw, layer.gb = np.zeros_like(layer.w), np.zeros_like(layer.b)
    return model


def _layer_errors(model, loss_at, seed, eps):
    """For each trainable layer, by its checkpoint name: the gradient the
    model holds, along a random unit direction of that layer's parameters,
    against a central difference of `loss_at()`.

    The error is relative to the layer's typical slope |g| / sqrt(n). A
    layer with no gradient must leave the loss unchanged: its error is the
    difference itself.
    """
    names = {id(v): k.rsplit(".", 1)[0]
             for k, v in model.flat_state().items()}
    grads = [(names[id(layer.w)], layer, layer.gw.copy(), layer.gb.copy())
             for layer in model.trainables()]
    rng = np.random.default_rng(seed)
    errors = {}
    for name, layer, gw, gb in grads:
        w0, b0 = layer.w, layer.b
        dw, db = rng.standard_normal(w0.shape), rng.standard_normal(b0.shape)
        norm = np.sqrt((dw ** 2).sum() + (db ** 2).sum())
        losses = []
        for sign in (1.0, -1.0):
            layer.w = w0 + sign * eps * dw / norm
            layer.b = b0 + sign * eps * db / norm
            losses.append(loss_at())
        layer.w, layer.b = w0, b0
        predicted = 2 * eps * ((gw * dw).sum() + (gb * db).sum()) / norm
        measured = losses[0] - losses[1]
        g_norm = np.sqrt((gw ** 2).sum() + (gb ** 2).sum())
        typical = g_norm / np.sqrt(gw.size + gb.size)
        errors[name] = (abs(measured - predicted) / (2 * eps * typical)
                        if g_norm else abs(measured))
    return errors


def _balanced_ce(logits, masks):
    """The class-balanced per-pixel cross-entropy whose gradient
    `STCNN.train_step` accumulates."""
    z = logits - logits.max(axis=0, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    fg = np.stack([m.bits for m in masks])
    rho = fg.mean()
    weights = np.where(fg, 0.5 / rho, 0.5 / (1.0 - rho))
    return float((weights * -np.where(fg, logp[1], logp[0])).mean())


HW = (16, 16)


def _frames(seed):
    return _clip(seed, (3, 8) + HW).astype(np.float64)


def _masks_and_boxes():
    """Eight frames of a box that moves by a pixel or two, and its masks."""
    from tubenet.segmentation import SegMask

    boxes = [Box(2.0 + f % 3, 3.0, 11.0, 10.0 + f % 2) for f in range(8)]
    masks = []
    for b in boxes:
        bits = np.zeros(HW, dtype=bool)
        bits[int(b.y1):int(b.y2) + 1, int(b.x1):int(b.x2) + 1] = True
        masks.append(SegMask(bits))
    return masks, boxes


@pytest.mark.parametrize("upsampler", ["subpixel", "unpool"])
def test_stcnn_train_step_gradients_match_central_differences(upsampler):
    from tubenet.models import STCNN

    model = _float64(STCNN(2, HW, seed=3, upsampler=upsampler))
    frames = _frames(7)
    masks, boxes = _masks_and_boxes()

    def loss_at():
        _, concat1, seg_logits = model.forward(frames)
        logits, _ = model.recognition_forward(concat1, boxes)
        return _balanced_ce(seg_logits, masks) + softmax_xent(logits, 1)[0]

    with tensor.blas_threads(1):
        model.train_step(frames, masks, boxes, 1, 0.0)
        errors = _layer_errors(model, loss_at, seed=11, eps=1e-5)
    assert len(errors) == len(model.trainables()) == 16
    assert max(errors.values()) < 0.02, errors


def test_tcnn_training_steps_gradients_match_central_differences():
    model = _float64(TCNN(2, [Anchor(9.0, 10.0), Anchor(6.0, 12.0)], HW,
                          seed=3))
    clips = [_frames(8), _frames(9)]
    _, boxes = _masks_and_boxes()

    def rec_loss():
        conv2 = [model.encoder.forward(c, keep_cache=False)[0]["conv2"]
                 for c in clips]
        logits, _ = model.recognition_forward(conv2, boxes + boxes)
        return softmax_xent(logits, 1)[0]

    # the loss behind tpn_step's gradient: it accumulates the summed
    # regression loss of its picks and returns their mean
    labels = assign_actionness_labels(model.clip_candidates(), boxes)
    picks = min(4, sum(lb.label == POSITIVE for lb in labels))

    def tpn_loss():
        bce, reg = model.tpn_step(clips[0], boxes, np.random.default_rng(5),
                                  0.0)
        return bce + reg * picks

    with tensor.blas_threads(1):
        model.recognition_step(clips, boxes + boxes, 1,
                               np.random.default_rng(0), 0.0)
        rec = _layer_errors(model, rec_loss, seed=12, eps=1e-5)
        model.tpn_step(clips[0], boxes, np.random.default_rng(5), 0.0)
        # the regression head rounds its input to float32: a larger step
        # keeps that rounding below the difference
        tpn = _layer_errors(model, tpn_loss, seed=13, eps=1e-4)
    assert picks >= 1
    assert max(rec.values()) < 0.02, rec
    assert max(tpn.values()) < 0.02, tpn


# ----------------------------------------------------------------------
# one frame size, one dtype

@pytest.mark.parametrize("entry", [
    "TCNN.encode_clip", "TCNN.tpn_step", "TCNN.recognition_step",
    "STCNN.forward", "STCNN.train_step", "STCNN.segment_clip"])
def test_every_entry_rejects_a_clip_of_another_frame_size(entry):
    from tubenet.models import STCNN
    from tubenet.segmentation import SegMask

    frames = _clip(6, (3, 8, 80, 112))
    boxes = [Box(10.0, 8.0, 40.0, 30.0)] * 8
    masks = [SegMask(np.zeros((80, 112), dtype=bool))] * 8
    rng = np.random.default_rng(0)
    tcnn, stcnn = _tcnn(), STCNN(2, (48, 64), seed=7)
    calls = {
        "TCNN.encode_clip": lambda: tcnn.encode_clip(frames),
        "TCNN.tpn_step": lambda: tcnn.tpn_step(frames, boxes, rng, 0.1),
        "TCNN.recognition_step": lambda: tcnn.recognition_step(
            [frames], boxes, 1, rng, 0.1),
        "STCNN.forward": lambda: stcnn.forward(frames),
        "STCNN.train_step": lambda: stcnn.train_step(frames, masks, boxes,
                                                     1, 0.1),
        "STCNN.segment_clip": lambda: stcnn.segment_clip(frames),
    }
    with pytest.raises(tensor.ShapeError, match=r"\(80, 112\).*\(48, 64\)"):
        calls[entry]()


def _float_dtypes(obj):
    """The dtypes of the float arrays in `obj` and the tuples, lists and
    dicts it nests."""
    if isinstance(obj, np.ndarray):
        return {obj.dtype} if obj.dtype.kind == "f" else set()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return set().union(set(), *map(_float_dtypes, obj))
    return set()


def test_float32_models_keep_float32_through_every_training_step(
        monkeypatch):
    from tubenet import models, networks, toi
    from tubenet.models import STCNN
    from tubenet.proposals import PairedFeatureProjector
    from tubenet.segmentation import SegMask

    seen = {}

    def spy(owner, name):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.setdefault(name, set()).update(
                _float_dtypes(args), _float_dtypes(kwargs),
                _float_dtypes(out))
            return out
        monkeypatch.setattr(owner, name, wrapped)

    for name in ("conv3d", "conv3d_backward", "maxpool3d_backward",
                 "relu_backward", "fully_connected_backward", "sgd_step"):
        spy(tensor, name)
    spy(toi, "toi_pool_backward")
    spy(PairedFeatureProjector, "backward")
    for name in ("channel_to_spacedepth_backward", "unpool3d_backward"):
        spy(networks, name)
    for name in ("segmentation_loss", "softmax_xent", "smooth_l1"):
        spy(models, name)

    rng = np.random.default_rng(0)
    clips = [_clip(1), _clip(2)]
    # each box is the first anchor's size: a positive candidate
    boxes = [Box(10.0 + f, 8.0, 29.0 + f, 23.0) for f in range(16)]
    masks = []
    for b in boxes[:8]:
        bits = np.zeros((48, 64), dtype=bool)
        bits[int(b.y1):int(b.y2) + 1, int(b.x1):int(b.x2) + 1] = True
        masks.append(SegMask(bits))
    tcnn = _tcnn()
    tcnn.tpn_step(clips[0], boxes[:8], rng, 0.01)
    tcnn.recognition_step(clips, boxes, 1, rng, 0.01)
    models_ = [tcnn]
    for upsampler in ("subpixel", "unpool"):
        stcnn = STCNN(2, (48, 64), seed=7, upsampler=upsampler)
        stcnn.train_step(clips[0], masks, boxes[:8], 1, 0.01)
        models_.append(stcnn)

    assert set(seen) == {
        "conv3d", "conv3d_backward", "maxpool3d_backward", "relu_backward",
        "fully_connected_backward", "sgd_step", "toi_pool_backward",
        "backward", "channel_to_spacedepth_backward", "unpool3d_backward",
        "segmentation_loss", "softmax_xent", "smooth_l1"}
    assert all(dtypes == {np.dtype(np.float32)} for dtypes in seen.values()), \
        seen
    for model in models_:
        assert _float_dtypes(model.flat_state()) == {np.dtype(np.float32)}
        assert _float_dtypes([(layer.gw, layer.gb)
                              for layer in model.trainables()]) \
            == {np.dtype(np.float32)}
    assert {tcnn.projector.w2.dtype, tcnn.projector.w5.dtype} \
        == {np.dtype(np.float32)}
