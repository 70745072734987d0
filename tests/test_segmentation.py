import struct

import numpy as np
import pytest

from tubenet.segmentation import (SegMask, channel_softmax, load_mask,
                                  mask_to_box, save_mask, segmentation_loss)
from tubenet.tensor import finite_diff_grad


# ---------------------------------------------------------------------------
# mask format


def test_mask_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    bits = rng.random((13, 17)) > 0.5
    p = tmp_path / "m.sm"
    save_mask(p, bits)
    assert np.array_equal(load_mask(p), bits)


def test_mask_header_layout(tmp_path):
    bits = np.zeros((5, 9), dtype=bool)
    bits[0, 0] = True
    p = tmp_path / "m.sm"
    save_mask(p, bits)
    raw = p.read_bytes()
    assert raw[:2] == b"SM"
    assert struct.unpack("<2I", raw[2:10]) == (5, 9)
    assert len(raw) == 10 + (5 * 9 + 7) // 8
    assert raw[10] & 0x80  # first bit set, row-major MSB-first packing


def test_mask_bad_magic(tmp_path):
    p = tmp_path / "m.sm"
    p.write_bytes(b"XY" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_mask(p)


def test_mask_truncated_header_rejected(tmp_path):
    p = tmp_path / "m.sm"
    p.write_bytes(b"SM" + struct.pack("<I", 5))
    with pytest.raises(ValueError, match="truncated header, 6 of 10 bytes"):
        load_mask(p)


def test_mask_truncated_payload_rejected(tmp_path):
    # half of an all-foreground 80x112 mask
    p = tmp_path / "m.sm"
    save_mask(p, np.ones((80, 112), dtype=bool))
    p.write_bytes(p.read_bytes()[:10 + 80 * 112 // 16])
    with pytest.raises(ValueError, match="truncated payload, 560 of 1120 "
                                         "bytes") as err:
        load_mask(p)
    assert str(p) in str(err.value)
    # one bit short: 13*17 = 221 bits need 28 bytes
    save_mask(p, np.ones((13, 17), dtype=bool))
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(ValueError, match="27 of 28 bytes"):
        load_mask(p)


# ---------------------------------------------------------------------------
# mask_to_box


def test_mask_to_box_full_frame():
    bits = np.ones((240, 320), dtype=bool)
    assert mask_to_box(SegMask(bits)).astuple() == (0, 0, 319, 239)


def test_mask_to_box_single_pixel():
    bits = np.zeros((50, 60), dtype=bool)
    bits[10, 20] = True
    assert mask_to_box(SegMask(bits)).astuple() == (20, 10, 20, 10)


def test_mask_to_box_encloses_disjoint_blobs():
    bits = np.zeros((30, 30), dtype=bool)
    bits[2, 3] = True
    bits[20, 25] = True
    assert mask_to_box(SegMask(bits)).astuple() == (3, 2, 25, 20)


def test_mask_to_box_empty():
    assert mask_to_box(SegMask(np.zeros((4, 4), dtype=bool))) is None


# ---------------------------------------------------------------------------
# segmentation loss


def test_loss_perfect_prediction_vanishes():
    bits = np.zeros((4, 4), dtype=bool)
    bits[:2] = True
    masks = [SegMask(bits)]
    logits = np.zeros((2, 1, 4, 4))
    logits[1, 0] = np.where(bits, 60.0, -60.0)
    loss, _ = segmentation_loss(logits, masks)
    assert loss < 1e-12


def test_loss_uniform_is_log2():
    masks = [SegMask(np.zeros((4, 4), dtype=bool))]
    loss, grad = segmentation_loss(np.zeros((2, 1, 4, 4)), masks)
    assert loss == pytest.approx(np.log(2), rel=1e-12)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((2, 1, 4, 4))
    masks = [SegMask(rng.random((4, 4)) > 0.5)]
    _, grad = segmentation_loss(logits, masks)
    fg = finite_diff_grad(lambda v: segmentation_loss(v, masks)[0], logits)
    denom = max(np.abs(fg).max(), 1e-12)
    assert np.abs(grad - fg).max() / denom < 1e-5


def test_loss_and_segment_clip_share_one_channel_softmax():
    from tubenet.models import STCNN

    rng = np.random.default_rng(2)
    model = STCNN(2, (48, 64), seed=3)
    frames = rng.standard_normal((3, 8, 48, 64)).astype(np.float32)
    _, _, logits = model.forward(frames)
    p = channel_softmax(logits)
    assert p.dtype == logits.dtype and np.allclose(p.sum(axis=0), 1.0)
    masks, _ = model.segment_clip(frames, 0.5)
    assert np.array_equal(np.stack([m.bits for m in masks]), p[1] >= 0.5)
    gt = [SegMask(b) for b in rng.random((8, 48, 64)) > 0.5]
    labels = np.stack([m.bits for m in gt])
    _, grad = segmentation_loss(logits, gt)
    want = p - np.stack([~labels, labels])
    want /= labels.size
    assert grad.tobytes() == want.tobytes()
