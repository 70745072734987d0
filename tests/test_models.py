"""Forward counts and gradients of the desk-scale models' training steps."""

import numpy as np
import pytest

from tubenet import tensor
from tubenet.models import TCNN, Encoder
from tubenet.proposals import Anchor
from tubenet.tensor import softmax_xent
from tubenet.toi import Box


def _tcnn():
    return TCNN(2, [Anchor(20.0, 16.0), Anchor(12.0, 24.0)], (48, 64),
                seed=7)


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
        conv_cache, relu_cache, pool_cache = cache[i]
        if i < 4:
            g = encoder.pools[i].backward(g, pool_cache)
            t = taps.get(f"conv{i + 1}")
            if t is not None:
                g = g + t
        g = encoder.convs[i].backward(
            encoder.relus[i].backward(g, relu_cache), conv_cache)


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
    assert {"encoder", "up1", "conv6", "relu6", "conv7"} <= set(seg_cache)

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
