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
