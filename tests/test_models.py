"""Forward counts and gradients of the desk-scale models' training steps."""

import numpy as np

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
