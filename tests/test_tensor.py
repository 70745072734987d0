import contextlib
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tubenet import tensor
from tubenet.tensor import (ArgmaxMap, KernelSet, ShapeError,
                            blas_thread_count,
                            blas_threads, conv3d, conv3d_backward,
                            conv3d_out_shape, finite_diff_grad,
                            fully_connected, fully_connected_backward,
                            glorot_uniform, load_tensor, make_kernels,
                            maxpool3d, maxpool3d_backward, save_tensor,
                            sgd_step,
                            softmax_xent)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


# ---------------------------------------------------------------------------
# file format


def test_tensor_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2, 5, 7)).astype(np.float32)
    p = tmp_path / "x.t4"
    save_tensor(p, x)
    y = load_tensor(p)
    assert y.dtype == np.float32
    assert np.array_equal(
        x.view(np.uint32), y.view(np.uint32))  # bit exact


def test_tensor_header_layout(tmp_path):
    x = np.zeros((1, 2, 3, 4), dtype=np.float32)
    p = tmp_path / "x.t4"
    save_tensor(p, x)
    raw = p.read_bytes()
    assert raw[:2] == b"T4"
    _, d0, d1, d2, d3 = struct.unpack("<H4I", raw[2:20])
    assert (d0, d1, d2, d3) == (1, 2, 3, 4)
    assert len(raw) == 20 + 4 * x.size
    payload = np.frombuffer(raw[20:], dtype="<f4")
    assert np.array_equal(payload.reshape(x.shape), x)


def test_tensor_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.t4"
    p.write_bytes(b"XX" + b"\x00" * 30)
    with pytest.raises(ValueError):
        load_tensor(p)


def test_tensor_truncated_header_rejected(tmp_path):
    p = tmp_path / "short.t4"
    p.write_bytes(b"T4" + struct.pack("<H2I", 1, 3, 4))
    with pytest.raises(ValueError, match="short.t4: truncated header"):
        load_tensor(p)


def test_tensor_wrong_rank_rejected(tmp_path):
    with pytest.raises(ShapeError):
        save_tensor(tmp_path / "x.t4", np.zeros((2, 2, 2), dtype=np.float32))


# ---------------------------------------------------------------------------
# conv3d


def test_conv_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 4, 5, 6)).astype(np.float32)
    w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1, 1] = 1.0
    y = conv3d(x, KernelSet(w, np.zeros(1, dtype=np.float32)))
    assert np.allclose(y, x, atol=1e-6)


def test_conv_all_ones_sums_to_27():
    x = np.ones((1, 3, 3, 3), dtype=np.float32)
    k = KernelSet(np.ones((1, 1, 3, 3, 3), dtype=np.float32),
                  np.zeros(1, dtype=np.float32))
    y = conv3d(x, k, pad=(0, 0, 0))
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == 27.0


def test_conv_shape_64x8x300x400_to_128():
    k = KernelSet(np.zeros((128, 64, 3, 3, 3), dtype=np.float32),
                  np.zeros(128, dtype=np.float32))
    assert conv3d_out_shape((64, 8, 300, 400), k) == (128, 8, 300, 400)


def test_conv_linearity():
    rng = np.random.default_rng(2)
    k = make_kernels(3, 2, (3, 3, 3), rng)
    k = KernelSet(k.weights, np.zeros_like(k.bias))
    x = rng.standard_normal((2, 3, 4, 4)).astype(np.float64)
    y = rng.standard_normal((2, 3, 4, 4)).astype(np.float64)
    lhs = conv3d(2.5 * x - 1.25 * y, k)
    rhs = 2.5 * conv3d(x, k) - 1.25 * conv3d(y, k)
    assert rel_err(lhs, rhs) < 1e-10


def test_conv_grads_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 4, 4))
    k = make_kernels(2, 2, (3, 3, 3), rng)
    k = KernelSet(k.weights.astype(np.float64), k.bias.astype(np.float64))
    gy = rng.standard_normal(conv3d_out_shape(x.shape, k))
    gx, gw, gb = conv3d_backward(gy, x, k)

    fx = finite_diff_grad(lambda v: float((conv3d(v, k) * gy).sum()), x)
    assert rel_err(gx, fx) < 1e-5

    def loss_w(w):
        return float((conv3d(x, KernelSet(w, k.bias)) * gy).sum())

    fw = finite_diff_grad(loss_w, k.weights)
    assert rel_err(gw, fw) < 1e-5

    def loss_b(b):
        return float((conv3d(x, KernelSet(k.weights, b)) * gy).sum())

    fb = finite_diff_grad(loss_b, k.bias)
    assert rel_err(gb, fb) < 1e-5


def _conv3d_oracle(x, kernels, stride=(1, 1, 1), pad=(1, 1, 1)):
    """Reference convolution: a fresh contiguous im2col copy per output
    frame, one GEMM each."""
    out_shape = conv3d_out_shape(x.shape, kernels, stride, pad)
    oc, od, oh, ow = out_shape
    kd, kh, kw = kernels.kdhw
    sd, sh, sw = stride
    xp = np.pad(x, ((0, 0), (pad[0], pad[0]), (pad[1], pad[1]),
                    (pad[2], pad[2])))
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (kd, kh, kw), axis=(1, 2, 3))[:, :, ::sh, ::sw]
    w2 = kernels.weights.reshape(oc, -1)
    out = np.empty(out_shape, dtype=np.result_type(x, kernels.weights))
    for d in range(od):
        col = np.ascontiguousarray(
            win[:, d * sd].transpose(0, 3, 4, 5, 1, 2)
        ).reshape(w2.shape[1], oh * ow)
        out[:, d] = (w2 @ col).reshape(oc, oh, ow)
    out += kernels.bias[:, None, None, None]
    return out


def _conv3d_backward_oracle(grad_out, x, kernels, stride=(1, 1, 1),
                            pad=(1, 1, 1)):
    """Reference backward: always computes the input gradient, scattering
    each frame's column gradient into a float64 buffer."""
    out_shape = conv3d_out_shape(x.shape, kernels, stride, pad)
    oc, od, oh, ow = out_shape
    kd, kh, kw = kernels.kdhw
    sd, sh, sw = stride
    pd_, ph_, pw_ = pad
    xp = np.pad(x, ((0, 0), (pd_, pd_), (ph_, ph_), (pw_, pw_)))
    win = np.lib.stride_tricks.sliding_window_view(
        xp, (kd, kh, kw), axis=(1, 2, 3))[:, :, ::sh, ::sw]
    w2 = kernels.weights.reshape(oc, -1)
    grad_w = np.zeros_like(w2, dtype=np.float64)
    gxp = np.zeros(xp.shape, dtype=np.float64)
    for d in range(od):
        col = np.ascontiguousarray(
            win[:, d * sd].transpose(0, 3, 4, 5, 1, 2)
        ).reshape(w2.shape[1], oh * ow)
        g = grad_out[:, d].reshape(oc, oh * ow)
        grad_w += g @ col.T
        gcol = (w2.T @ g).reshape(x.shape[0], kd, kh, kw, oh, ow)
        for a in range(kd):
            for b in range(kh):
                for c in range(kw):
                    gxp[:, d * sd + a, b:b + sh * oh:sh, c:c + sw * ow:sw] += \
                        gcol[:, a, b, c]
    grad_x = gxp[:, pd_:pd_ + x.shape[1], ph_:ph_ + x.shape[2],
                 pw_:pw_ + x.shape[3]]
    grad_b = grad_out.sum(axis=(1, 2, 3), dtype=np.float64)
    dt = x.dtype
    return (grad_x.astype(dt, copy=False),
            grad_w.reshape(kernels.weights.shape).astype(dt, copy=False),
            grad_b.astype(dt, copy=False))


def _float64_backward(grad_out, x, kernels, pad):
    """`_conv3d_backward_oracle` with every operand in float64."""
    return _conv3d_backward_oracle(
        grad_out.astype(np.float64), x.astype(np.float64),
        KernelSet(kernels.weights.astype(np.float64),
                  kernels.bias.astype(np.float64)), pad=pad)


def _grad_x_by_conv3d(grad_out, kernels, pad):
    """The input gradient as the forward computes it: `conv3d` of
    `grad_out` with the kernel flipped along (d, h, w) and its channel
    axes swapped. A kernel of k along an axis padded by p is undone by
    padding k-1-p, or by cropping p+1-k from each side where k-1-p < 0."""
    w = kernels.weights
    flipped = KernelSet(np.flip(w, axis=(2, 3, 4)).swapaxes(0, 1),
                        np.zeros(w.shape[1], w.dtype))
    for axis, (k, p) in enumerate(zip(w.shape[2:], pad), 1):
        if p > k - 1:
            n = grad_out.shape[axis]
            grad_out = np.take(grad_out, range(p - k + 1, n - p + k - 1),
                               axis=axis)
    return conv3d(grad_out, flipped,
                  pad=tuple(max(k - 1 - p, 0) for k, p in zip(w.shape[2:],
                                                              pad)))


def _check_conv_backward(gy, x, k, pad):
    """`conv3d_backward` against its two contracts.

    grad_x is the bytes of `_grad_x_by_conv3d` in x's dtype, with one
    worker and with two (the size gate at zero, where BLAS offers thread
    control). Each gradient is within float rounding of the float64
    reference: a sum of n rounded products is off by at most
    (n + 1) * eps times the sum of the terms' magnitudes, plus a smallest
    normal number per term for underflow. grad_w and grad_b take the
    kernel's dtype.
    """
    want = _float64_backward(gy, x, k, pad)
    mags = _float64_backward(np.abs(gy), np.abs(x),
                             KernelSet(np.abs(k.weights), k.bias), pad)
    gx_ref = _grad_x_by_conv3d(gy, k, pad).astype(x.dtype, copy=False)
    with blas_threads(1):
        got = conv3d_backward(gy, x, k, pad=pad)
    runs = [got]
    if blas_thread_count() is not None:
        with _split_everything():
            runs.append(conv3d_backward(gy, x, k, pad=pad))
    for gx, gw, gb in runs:
        assert gx.dtype == x.dtype and gx.tobytes() == gx_ref.tobytes()
        assert gw.tobytes() == got[1].tobytes()
        assert gb.tobytes() == got[2].tobytes()
    oc, _, kd, kh, kw = k.weights.shape
    terms = (oc * kd * kh * kw,) + (int(np.prod(gy.shape[1:])),) * 2
    dtypes = (x.dtype, k.weights.dtype, k.bias.dtype)
    for a, ref, mag, n, dt in zip(got, want, mags, terms, dtypes):
        assert a.dtype == dt and a.shape == ref.shape
        fi = np.finfo(dt)
        bound = (n + 1) * (float(fi.eps) * mag + float(fi.tiny))
        assert (np.abs(a - ref) <= bound).all()
    return got


# signed zeros (a ReLU's output and gradient are full of them) mixed with
# arbitrary finite values
_CONV_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0]),
                         st.floats(-4.0, 4.0, width=32))


@st.composite
def _conv_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    k = draw(st.sampled_from([1, 3]))
    p = draw(st.sampled_from([0, 1]))
    ic, oc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # every extent fits the kernel: at least one output per axis
    shape = (ic,) + tuple(draw(st.integers(max(1, k - 2 * p), 5))
                          for _ in range(3))
    x = draw(hnp.arrays(dtype, shape, elements=_CONV_VALUES))
    w = draw(hnp.arrays(dtype, (oc, ic, k, k, k), elements=_CONV_VALUES))
    b = draw(hnp.arrays(dtype, (oc,), elements=_CONV_VALUES))
    return x, KernelSet(w, b), (p, p, p)


@settings(max_examples=200, deadline=None)
@given(_conv_cases(), st.data())
def test_conv_matches_oracle_bytes(case, data):
    x, k, pad = case
    y, y_ref = conv3d(x, k, pad=pad), _conv3d_oracle(x, k, pad=pad)
    assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
    assert y.tobytes() == y_ref.tobytes()
    gy = data.draw(hnp.arrays(x.dtype, y.shape, elements=_CONV_VALUES))
    got = _check_conv_backward(gy, x, k, pad)
    gx, gw, gb = conv3d_backward(gy, x, k, pad=pad, input_grad=False)
    assert gx is None
    assert gw.tobytes() == got[1].tobytes()
    assert gb.tobytes() == got[2].tobytes()


@pytest.mark.parametrize("out_c", [16, 2])
def test_pointwise_conv_head_shapes_match_oracle_bytes(out_c):
    # conv6 (16 -> 16) and conv7 (16 -> 2) of the segmenter on one clip
    rng = np.random.default_rng(out_c)
    x = np.maximum(rng.standard_normal((16, 8, 80, 112)), 0) \
        .astype(np.float32)
    k = make_kernels(out_c, 16, (1, 1, 1), rng)
    k = KernelSet(k.weights, rng.standard_normal(out_c).astype(np.float32))
    pad = (0, 0, 0)
    y = conv3d(x, k, pad=pad)
    assert y.tobytes() == _conv3d_oracle(x, k, pad=pad).tobytes()
    gy = rng.standard_normal(y.shape).astype(np.float32)
    _check_conv_backward(gy, x, k, pad)


def test_pointwise_conv_one_output_channel_matches_oracle_bytes():
    # x filled with one float32 value, zero weights, gradient all ones:
    # a copy-free frame view once summed grad_w in another order
    x = np.full((2, 2, 2, 3), 1.4653614, dtype=np.float32)
    k = KernelSet(np.zeros((1, 2, 1, 1, 1), np.float32),
                  np.zeros(1, np.float32))
    pad = (0, 0, 0)
    gy = np.ones(conv3d(x, k, pad=pad).shape, np.float32)
    _, gw, _ = conv3d_backward(gy, x, k, pad=pad)
    want = _conv3d_backward_oracle(gy, x, k, pad=pad)[1]
    assert gw.tobytes() == want.tobytes()


@pytest.mark.parametrize("pad", [((1, 0), 1, 1), (1, 1, (0, 2))])
def test_conv_backward_rejects_a_pad_pair_naming_the_pad(pad):
    # the forward takes a (before, after) pair; the backward takes one
    # count per axis and names the pad it cannot use
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    k = make_kernels(3, 2, (3, 3, 3), rng)
    gy = np.ones(conv3d(x, k, pad=pad).shape, np.float32)
    with pytest.raises(ShapeError, match=re.escape(f"pad {pad}")):
        conv3d_backward(gy, x, k, pad=pad)


@pytest.mark.parametrize("shape", [(16, 8, 1, 1), (16, 8, 2, 3)])
def test_pointwise_conv_one_output_channel_many_frames(shape):
    # one output channel over several frames: the forward of 1x1 frames
    # and the weight gradient of 2x3 frames are where a strided frame
    # view changes the summation order
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape).astype(np.float32)
    k = KernelSet(rng.standard_normal((1, shape[0], 1, 1, 1))
                  .astype(np.float32), np.zeros(1, np.float32))
    pad = (0, 0, 0)
    y = conv3d(x, k, pad=pad)
    assert y.tobytes() == _conv3d_oracle(x, k, pad=pad).tobytes()
    gy = rng.standard_normal(y.shape).astype(np.float32)
    _check_conv_backward(gy, x, k, pad)


def test_pointwise_backward_mixed_dtypes_match_oracle_bytes():
    # float64 kernels on a float32 input: grad_x is float32, and a float64
    # term too small for float32 rounds to a signed zero (a -0.0 term is
    # added to conv3d's zero bias and arrives as +0.0); grad_w and grad_b
    # stay float64
    x = np.array([1.0, -2.0, 0.0, -0.0], np.float32).reshape(1, 2, 1, 2)
    k = KernelSet(np.full((1, 1, 1, 1, 1), 1e-30), np.zeros(1))
    pad = (0, 0, 0)
    gy = np.array([-1e-30, 1e-30, -0.0, 3.0]).reshape(1, 2, 1, 2)
    gx, gw, gb = _check_conv_backward(gy, x, k, pad)
    assert gx.ravel().tolist() == [0.0, 0.0, 0.0, np.float32(3e-30)]
    assert np.signbit(gx).ravel().tolist() == [True, False, False, False]
    assert gw.dtype == gb.dtype == np.float64


def test_conv_backward_accumulates_in_the_kernel_dtype():
    # a 1.0 then eight 1e-8 terms, one per frame: each 1e-8 is under half
    # an ulp of 1.0 in float32, so a float32 sum loses them all, while a
    # float64 sum rounded once to float32 gives 1.0000001
    gy = np.array([1.0] + [1e-8] * 8, np.float32).reshape(1, 9, 1, 1)
    x = np.ones((1, 9, 1, 1), np.float32)
    k = KernelSet(np.ones((1, 1, 1, 1, 1), np.float32),
                  np.zeros(1, np.float32))
    _, gw, gb = conv3d_backward(gy, x, k, pad=(0, 0, 0))
    assert gw.dtype == gb.dtype == np.float32
    assert gw.ravel().tolist() == gb.tolist() == [1.0]


# ---------------------------------------------------------------------------
# maxpool3d


def test_pool_shapes_match_architecture_rows():
    # same kernel/stride rules as the 1x2x2 and 2x2x2 pooling rows
    x = np.arange(2 * 8 * 6 * 8, dtype=np.float64).reshape(2, 8, 6, 8)
    y, _ = maxpool3d(x, (1, 2, 2))
    assert y.shape == (2, 8, 3, 4)
    y, _ = maxpool3d(x, (2, 2, 2))
    assert y.shape == (2, 4, 3, 4)


def test_pool_ceil_division_on_partial_windows():
    x = np.arange(1 * 5 * 5 * 5, dtype=np.float64).reshape(1, 5, 5, 5)
    y, amap = maxpool3d(x, (2, 2, 2))
    assert y.shape == (1, 3, 3, 3)
    assert y[0, -1, -1, -1] == x.max()


def test_pool_constant_input_lowest_flat_index_tie():
    x = np.zeros((1, 2, 4, 4))
    y, amap = maxpool3d(x, (2, 2, 2))
    assert np.all(y == 0)
    # each window's winner is its first element
    assert not amap.offsets.any()


def test_pool_output_is_window_max_and_argmax_consistent():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 6, 6))
    y, amap = maxpool3d(x, (2, 2, 2))
    windows = _pool_window_matrix(x, (2, 2, 2))
    assert np.array_equal(windows.max(axis=-1), y)
    winners = np.take_along_axis(windows, amap.offsets[..., None].astype(int),
                                 axis=-1)
    assert np.array_equal(winners[..., 0], y)


def test_pool_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 4, 4))
    y, amap = maxpool3d(x, (2, 2, 2))
    gy = rng.standard_normal(y.shape)
    gx = maxpool3d_backward(gy, amap)
    fx = finite_diff_grad(lambda v: float((maxpool3d(v, (2, 2, 2))[0]
                                           * gy).sum()), x)
    assert rel_err(gx, fx) < 1e-5


def _pool_window_matrix(x, kernel):
    """Each pooling window of `x`, padded with -inf, copied into a
    trailing axis in row-major (kd, kh, kw) order: (C, oD, oH, oW, k)."""
    kd, kh, kw = kernel
    c, d, h, w = x.shape
    od, oh, ow = -(-d // kd), -(-h // kh), -(-w // kw)
    xp = np.pad(x, ((0, 0), (0, od * kd - d), (0, oh * kh - h),
                    (0, ow * kw - w)), constant_values=-np.inf)
    r = xp.reshape(c, od, kd, oh, kh, ow, kw).transpose(0, 1, 3, 5, 2, 4, 6)
    return np.ascontiguousarray(r).reshape(c, od, oh, ow, kd * kh * kw)


def _maxpool3d_oracle(x, kernel):
    """Reference max pool: numpy's argmax over each window (first max; a
    NaN beats any number). Returns the output, each window's argmax and an
    `ArgmaxMap` of every winner's flat index, built from a meshgrid."""
    kd, kh, kw = kernel
    c, d, h, w = x.shape
    r = _pool_window_matrix(x, kernel)
    _, od, oh, ow, _ = r.shape
    win_arg = r.argmax(axis=-1)
    out = np.take_along_axis(r, win_arg[..., None], axis=-1)[..., 0]
    a, rem = np.divmod(win_arg, kh * kw)
    b, cc = np.divmod(rem, kw)
    ci, di, hi, wi = np.meshgrid(np.arange(c), np.arange(od), np.arange(oh),
                                 np.arange(ow), indexing="ij")
    flat = ((ci * d + di * kd + a) * h + hi * kh + b) * w + wi * kw + cc
    return out.astype(x.dtype, copy=False), win_arg, ArgmaxMap(flat, x.shape)


def _maxpool3d_backward_oracle(grad_out, amap):
    grad_in = np.zeros(int(np.prod(amap.in_shape)), dtype=grad_out.dtype)
    np.add.at(grad_in, amap.indices.ravel(), grad_out.ravel())
    return grad_in.reshape(amap.in_shape)


# values that tie (ReLU zeros, -0.0 beside +0.0), never win (-inf) or
# always win (NaN), mixed with arbitrary finite ones
_POOL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, -np.inf, np.nan]),
    st.floats(-4.0, 4.0, width=32))


@st.composite
def _pool_cases(draw):
    kernel = draw(st.sampled_from([(1, 2, 2), (2, 2, 2), (2, 3, 2)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    # extents of one to three windows, often with a partial trailing one
    shape = (draw(st.integers(1, 3)),) + tuple(
        draw(st.integers(k, 3 * k)) for k in kernel)
    x = draw(hnp.arrays(dtype, shape, elements=_POOL_VALUES))
    if draw(st.booleans()):  # a ReLU output: many tied zeros
        x = np.maximum(x, 0)
    if draw(st.booleans()):  # one whole window of -inf
        c, i, j, k = (draw(st.integers(0, s // kk - 1)) if kk else 0
                      for s, kk in zip(shape, (1,) + kernel))
        kd, kh, kw = kernel
        x[c, i * kd:(i + 1) * kd, j * kh:(j + 1) * kh,
          k * kw:(k + 1) * kw] = -np.inf
    return x, kernel


@settings(max_examples=200, deadline=None)
@given(_pool_cases(), st.data())
def test_pool_matches_oracle_bytes(case, data):
    x, kernel = case
    y, amap = maxpool3d(x, kernel)
    y_ref, arg_ref, amap_ref = _maxpool3d_oracle(x, kernel)
    assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
    assert y.tobytes() == y_ref.tobytes()
    assert np.array_equal(amap.offsets, arg_ref)
    grads = data.draw(hnp.arrays(x.dtype, y.shape, elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.nan]),
        st.floats(-4.0, 4.0, width=32))))
    gx = maxpool3d_backward(grads, amap)
    gx_ref = _maxpool3d_backward_oracle(grads, amap_ref)
    assert gx.dtype == gx_ref.dtype and gx.shape == gx_ref.shape
    assert gx.tobytes() == gx_ref.tobytes()


def test_pool_signed_zero_nan_and_all_minus_inf_windows():
    x = np.array([[-0.0, 0.0, 1.0, np.nan, -np.inf, -np.inf],
                  [0.0, -0.0, 2.0, np.nan, -np.inf, -np.inf]],
                 dtype=np.float32).reshape(1, 1, 2, 6)
    y, amap = maxpool3d(x, (1, 2, 2))
    # the first of tied zeros keeps its sign; the first NaN wins; an all
    # -inf window picks its first element
    assert np.signbit(y[0, 0, 0, 0])
    assert np.isnan(y[0, 0, 0, 1]) and y[0, 0, 0, 2] == -np.inf
    assert amap.offsets.ravel().tolist() == [0, 1, 0]
    gx = maxpool3d_backward(np.full(y.shape, -0.0, np.float32), amap)
    assert not np.signbit(gx).any()
    # one NaN in a middle channel of seven: every channel has the oracle's
    # bytes and offsets
    x = np.random.default_rng(7).standard_normal((7, 2, 6, 8)).astype(
        np.float32)
    x[3, 1, 2, 5] = np.nan
    y, amap = maxpool3d(x, (1, 2, 2))
    y_ref, arg_ref, _ = _maxpool3d_oracle(x, (1, 2, 2))
    assert y.tobytes() == y_ref.tobytes()
    assert np.array_equal(amap.offsets, arg_ref)


# ---------------------------------------------------------------------------
# two workers

needs_blas_control = pytest.mark.skipif(
    blas_thread_count() is None,
    reason="the loaded BLAS exposes no thread control")


@contextlib.contextmanager
def _split_everything(min_bytes=0):
    """Calls with BLAS at one thread on two usable CPUs, where every conv3d
    with two or more (band, frame) units, its frames' im2col matrices of at
    least `min_bytes`, splits; yields the list of splits made."""
    splits = []
    real = tensor._on_two_workers

    def counted(*args):
        splits.append(args[1:])
        return real(*args)

    with mock.patch.object(tensor, "_SPLIT_MIN_BYTES", min_bytes), \
            mock.patch.object(tensor, "_usable_cpus", lambda: 2), \
            mock.patch.object(tensor, "_on_two_workers", counted), \
            blas_threads(1):
        yield splits


@needs_blas_control
@settings(max_examples=150, deadline=None)
@given(_conv_cases(), _pool_cases())
def test_two_workers_give_the_serial_bytes(conv_case, pool_case):
    x, k, pad = conv_case
    with blas_threads(1):
        y1 = conv3d(x, k, pad=pad)
    with _split_everything() as splits:
        y2 = conv3d(x, k, pad=pad)
    assert len(splits) == (y2.shape[1] >= 2)
    assert y1.tobytes() == y2.tobytes()
    assert y2.tobytes() == _conv3d_oracle(x, k, pad=pad).tobytes()

    x, kernel = pool_case
    with blas_threads(1):
        p1, a1 = maxpool3d(x, kernel)
    with _split_everything() as splits:
        p2, a2 = maxpool3d(x, kernel)
    assert not splits  # a pool never splits
    assert p1.tobytes() == p2.tobytes()
    assert a1.offsets.tobytes() == a2.offsets.tobytes()
    assert p2.tobytes() == _maxpool3d_oracle(x, kernel)[0].tobytes()


@needs_blas_control
@pytest.mark.parametrize("shape,out_c,kdhw,pad", [
    ((3, 5, 4, 6), 4, (3, 3, 3), (1, 1, 1)),   # odd frame count
    ((2, 1, 4, 6), 3, (3, 3, 3), (1, 1, 1)),   # one frame: no split
    ((4, 3, 2, 3), 1, (1, 1, 1), (0, 0, 0)),   # 1x1x1, one output channel
    ((4, 4, 2, 3), 5, (1, 1, 1), (0, 0, 0)),   # 1x1x1 frame views
])
def test_two_worker_conv_cases_match_oracle_bytes(shape, out_c, kdhw, pad):
    rng = np.random.default_rng(len(shape) + out_c)
    x = rng.standard_normal(shape).astype(np.float32)
    k = make_kernels(out_c, shape[0], kdhw, rng)
    k = KernelSet(k.weights, rng.standard_normal(out_c).astype(np.float32))
    with _split_everything() as splits:
        y = conv3d(x, k, pad=pad)
    assert len(splits) == (y.shape[1] >= 2)
    assert y.tobytes() == _conv3d_oracle(x, k, pad=pad).tobytes()


def _bands(x, k, pad=(1, 1, 1), workers=1):
    return tensor._Im2col(x, k.kdhw, pad).bands(k.out_channels, workers)


def _band_mnk(out_c, in_c, kdhw, rows, ow):
    """M*N*K of the GEMM of a band of `rows` output rows."""
    return out_c * rows * ow * in_c * int(np.prod(kdhw))


@needs_blas_control
def test_full_scale_conv1_frame_pair_on_two_workers():
    # conv1 of the top-down table on two 300x400 frames: each frame's
    # im2col matrix is 38.9 MB, above the size gate as it stands, and is
    # cut into three bands of 100 rows on one worker, six of 50 on two
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 2, 300, 400)).astype(np.float32)
    k = make_kernels(64, 3, (3, 3, 3), rng)
    assert _bands(x, k) == [(0, 100), (100, 200), (200, 300)]
    assert _bands(x, k, workers=2) == [(r, r + 50) for r in range(0, 300, 50)]
    with _split_everything(2**62) as splits:
        serial = conv3d(x, k)
    assert not splits
    with _split_everything(tensor._SPLIT_MIN_BYTES) as splits:
        split = conv3d(x, k)
    assert len(splits) == 1
    assert split.tobytes() == serial.tobytes()
    assert split.tobytes() == _conv3d_oracle(x, k).tobytes()


@needs_blas_control
def test_full_scale_conv2_in_bands_matches_oracle_with_bounded_scratch():
    # a 64->128 conv on 150x200 frames: each frame's im2col matrix is
    # 207 MB, cut into 26 bands of at most 8 MiB, 13 per worker; the
    # scratch the call allocates (both workers' bands and padded input
    # rows, and the output) stays under 128 MB
    rng = np.random.default_rng(12)
    x = rng.standard_normal((64, 2, 150, 200)).astype(np.float32)
    k = make_kernels(128, 64, (3, 3, 3), rng)
    bands = _bands(x, k, workers=2)
    assert len(bands) == 26 and bands[0] == (0, 5) and bands[-1][1] == 150
    rows = {r1 - r0 for r0, r1 in bands}
    assert max(rows) * 200 * 64 * 27 * 4 <= tensor._SPLIT_MIN_BYTES // 2
    assert _band_mnk(128, 64, k.kdhw, min(rows), 200) > tensor._GEMM_MIN_MNK
    with _split_everything(tensor._SPLIT_MIN_BYTES) as splits:
        tracemalloc.start()
        try:
            y = conv3d(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(splits) == 1
    assert peak < 128 * 2**20
    assert y.tobytes() == _conv3d_oracle(x, k).tobytes()


@needs_blas_control
def test_banded_conv_holds_no_padded_copy_of_its_input():
    # 16->16 channels on 64x64 frames, the size gate at 1 MiB: each
    # frame's 7 MB im2col matrix is cut into 12 bands of at most 6 rows
    # (half the gate would take 4, the GEMM-size floor allows 12 bands),
    # and each of the two workers holds one band's matrix, padded input
    # rows and product; a padded copy of the whole input would not fit in
    # the slack
    rng = np.random.default_rng(13)
    src = rng.standard_normal((16, 4, 64, 64)).astype(np.float32)
    k = make_kernels(16, 16, (3, 3, 3), rng)
    with _split_everything(2**20) as splits:
        rows = max(r1 - r0 for r0, r1 in _bands(src, k, workers=2))
        assert rows == 6
        tracemalloc.start()
        try:
            x = src.copy()
            y = conv3d(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(splits) == 1
    matrix = 16 * 27 * rows * 64 * 4
    padded_rows = 16 * (4 + 2) * (rows + 2) * (64 + 2) * 4
    product = 16 * rows * 64 * 4
    slack = 2**17
    assert peak < x.nbytes + y.nbytes + 2 * (matrix + padded_rows
                                             + product) + slack
    assert 2 * padded_rows + slack < 16 * 6 * 66 * 66 * 4  # whole, padded
    assert y.tobytes() == _conv3d_oracle(src, k).tobytes()


@needs_blas_control
def test_banded_conv_gemms_write_into_the_output():
    # 2->128 channels on 64x64 frames, the size gate at 128 KiB: 12
    # bands of at most 6 rows per frame (the GEMM-size floor), shared by
    # two workers. Each band's product (128 x 384) is twice its im2col
    # matrix (54 x 384), so a product buffer per worker would not fit in
    # the slack
    rng = np.random.default_rng(15)
    src = rng.standard_normal((2, 4, 64, 64)).astype(np.float32)
    k = make_kernels(128, 2, (3, 3, 3), rng)
    with _split_everything(2**17) as splits:
        rows = max(r1 - r0 for r0, r1 in _bands(src, k, workers=2))
        assert rows == 6
        tracemalloc.start()
        try:
            x = src.copy()
            y = conv3d(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(splits) == 1
    matrix = 2 * 27 * rows * 64 * 4
    padded_rows = 2 * (4 + 2) * (rows + 2) * (64 + 2) * 4
    product = 128 * rows * 64 * 4
    slack = 2**17
    assert peak < x.nbytes + y.nbytes + 2 * (matrix + padded_rows) + slack
    assert 2 * product > slack
    assert y.tobytes() == _conv3d_oracle(src, k).tobytes()


@needs_blas_control
@pytest.mark.parametrize("shape,out_c,kdhw,pad", [
    ((8, 1, 40, 48), 32, (3, 3, 3), (1, 1, 1)),   # one frame, in bands
    ((8, 3, 40, 48), 1, (3, 3, 3), (1, 1, 1)),    # one output channel
    ((64, 3, 48, 40), 64, (1, 1, 1), (0, 0, 0)),  # 1x1x1, in bands
])
def test_gemms_through_the_strided_output_view_match_oracle_bytes(
        shape, out_c, kdhw, pad):
    # each GEMM writes its rows of one output frame in place, through a
    # view whose row stride is the output's channel stride
    rng = np.random.default_rng(out_c)
    x = rng.standard_normal(shape).astype(np.float32)
    k = make_kernels(out_c, shape[0], kdhw, rng)
    k = KernelSet(k.weights, rng.standard_normal(out_c).astype(np.float32))
    with _split_everything(2**14):
        assert (len(_bands(x, k, pad)) > 1) == (out_c > 1)
        y = conv3d(x, k, pad=pad)
    assert y.tobytes() == _conv3d_oracle(x, k, pad=pad).tobytes()


@pytest.mark.parametrize("pad", [((1, 0), 1, 1), ((0, 2), 1, 1),
                                 ((0, 0), (1, 0), (0, 1)), (1, (2, 0), 1)])
def test_conv_pad_pairs_pad_each_side_on_its_own(pad):
    # a (before, after) pair zero-pads the two sides of an axis apart
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 5, 6, 7)).astype(np.float32)
    k = make_kernels(4, 3, (3, 3, 3), rng)
    pairs = [(p, p) if np.ndim(p) == 0 else p for p in pad]
    xp = np.pad(x, [(0, 0)] + pairs)
    got = conv3d(x, k, pad=pad)
    assert got.shape == conv3d_out_shape(x.shape, k, pad=pad)
    assert got.tobytes() == _conv3d_oracle(xp, k, pad=(0, 0, 0)).tobytes()


@pytest.mark.parametrize("shape,out_c,want", [
    ((3, 1, 80, 112), 64, 1),        # desk conv1: one band
    ((64, 1, 40, 56), 128, 1),       # desk conv2: one band
    ((512, 1, 19, 25), 512, 2),      # full-scale conv5a/b
    ((3, 1, 300, 400), 64, 3),       # full-scale conv1
    ((64, 1, 150, 200), 128, 13),    # full-scale conv2
    ((256, 1, 75, 100), 256, 13),    # full-scale conv3b
    ((256, 1, 38, 50), 512, 4),      # full-scale conv4a
    ((512, 1, 38, 50), 512, 7),      # full-scale conv4b
])
def test_bands_cover_each_frame_within_the_size_bounds(shape, out_c, want):
    x = np.empty(shape, np.float32)
    k = KernelSet(np.empty((out_c, shape[0], 3, 3, 3), np.float32),
                  np.empty(out_c, np.float32))
    bands = _bands(x, k)
    assert len(bands) == want
    ends = [r0 for r0, _ in bands] + [shape[2]]
    assert bands == list(zip(ends[:-1], ends[1:])) and ends[0] == 0
    if want > 1:
        row_bytes = shape[0] * 27 * shape[3] * 4
        assert all(_band_mnk(out_c, shape[0], (3, 3, 3), r1 - r0, shape[3])
                   > tensor._GEMM_MIN_MNK
                   and (r1 - r0) * row_bytes <= tensor._SPLIT_MIN_BYTES
                   for r0, r1 in bands)


@pytest.mark.parametrize("shape,out_c,want", [
    ((512, 1, 19, 25), 512, 4),      # full-scale conv5a/b
    ((3, 1, 300, 400), 64, 6),       # full-scale conv1
    ((64, 1, 150, 200), 128, 26),    # full-scale conv2
    ((256, 1, 75, 100), 256, 26),    # full-scale conv3b
    ((256, 1, 38, 50), 512, 8),      # full-scale conv4a
    ((512, 1, 38, 50), 512, 14),     # full-scale conv4b
])
def test_bands_on_two_workers_are_even_and_within_half_the_budget(
        shape, out_c, want):
    # every full-scale conv frame splits: its bands are at most half the
    # one-worker size, and as many go to each worker
    x = np.empty(shape, np.float32)
    k = KernelSet(np.empty((out_c, shape[0], 3, 3, 3), np.float32),
                  np.empty(out_c, np.float32))
    bands = _bands(x, k, workers=2)
    assert len(bands) == want and want % 2 == 0
    ends = [r0 for r0, _ in bands] + [shape[2]]
    assert bands == list(zip(ends[:-1], ends[1:])) and ends[0] == 0
    row_bytes = shape[0] * 27 * shape[3] * 4
    assert all(_band_mnk(out_c, shape[0], (3, 3, 3), r1 - r0, shape[3])
               > tensor._GEMM_MIN_MNK
               and (r1 - r0) * row_bytes <= tensor._SPLIT_MIN_BYTES // 2
               for r0, r1 in bands)


def _traced_peak(fn, *args):
    """The traced memory peak of `fn(*args)`, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@needs_blas_control
def test_a_split_call_holds_no_more_scratch_than_one_worker():
    # one scratch budget per call, the size gate at 1 MiB: on one worker
    # the conv cuts each frame's 7 MB im2col matrix into 8 bands of 8 rows,
    # on two into 16 bands of 4 rows. Beyond one worker's peak, a split
    # holds only the input rows that a second band's padded rows repeat
    # (kh - 1 of them). The pool does not split: it holds the same on two
    # usable CPUs as on one
    rng = np.random.default_rng(16)
    x = rng.standard_normal((16, 4, 64, 64)).astype(np.float32)
    k = make_kernels(64, 16, (3, 3, 3), rng)
    src = rng.standard_normal((16, 3, 129, 128)).astype(np.float32)
    with _split_everything(2**20) as splits:
        assert len(_bands(x, k, workers=2)) == 2 * len(_bands(x, k)) == 16
        conv_two = _traced_peak(conv3d, x, k)
        pool_two = _traced_peak(maxpool3d, src, (2, 2, 2))
        assert len(splits) == 1
        with mock.patch.object(tensor, "_usable_cpus", lambda: 1):
            conv_one = _traced_peak(conv3d, x, k)
            pool_one = _traced_peak(maxpool3d, src, (2, 2, 2))
    assert len(splits) == 1
    halo = 16 * (4 + 2) * 2 * (64 + 2) * 4
    slack = 2**16
    assert conv_two < conv_one + halo + slack
    assert pool_two < pool_one + slack


@pytest.mark.parametrize("shape,out_c,kdhw,pad", [
    # one output channel: numpy runs a band's product as a GEMV, and the
    # GEMV of a 2500-column slice of this 5000-column frame sums in
    # another order than the whole frame's
    ((8, 2, 100, 50), 1, (3, 3, 3), (1, 1, 1)),
    # one output column per row: a one-row band would be a GEMV too
    ((2**17 + 1, 1, 4, 1), 16, (1, 1, 1), (0, 0, 0)),
    # bands of M*N*K under 1e6 would take OpenBLAS's small-matrix kernel
    ((64, 2, 48, 64), 8, (3, 3, 3), (1, 1, 1)),
    ((64, 2, 24, 32), 4, (3, 3, 3), (1, 1, 1)),
    ((8, 2, 40, 56), 16, (3, 3, 3), (1, 1, 1)),
])
def test_narrowest_bands_give_the_whole_frames_bytes(shape, out_c, kdhw,
                                                     pad):
    # the size gate at one byte: every frame cuts as narrow as it may
    rng = np.random.default_rng(out_c)
    x = rng.standard_normal(shape).astype(np.float32)
    k = make_kernels(out_c, shape[0], kdhw, rng)
    with mock.patch.object(tensor, "_SPLIT_MIN_BYTES", 1), blas_threads(1):
        y = conv3d(x, k, pad=pad)
        want = _conv3d_oracle(x, k, pad=pad)
    assert y.tobytes() == want.tobytes()


@needs_blas_control
def test_pool_pads_its_input_once():
    # odd depth and height under a 2x2x2 kernel, the size gate at zero:
    # the pool starts no second worker, copies its input once into a cube
    # padded with -inf and holds one set of scratch the size of its
    # output; ReLU zeros tie and a NaN wins
    rng = np.random.default_rng(15)
    src = np.maximum(rng.standard_normal((7, 3, 129, 128)), -0.5).astype(
        np.float32)
    src[3, 1, 2, 5] = np.nan
    src[5, 2, 128] = 0.0
    with _split_everything(0) as splits:
        tracemalloc.start()
        try:
            x = src.copy()
            y, amap = maxpool3d(x, (2, 2, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert not splits
    y_ref, arg_ref, _ = _maxpool3d_oracle(src, (2, 2, 2))
    assert y.tobytes() == y_ref.tobytes()
    assert np.array_equal(amap.offsets, arg_ref)
    padded = 7 * 4 * 130 * 128 * 4
    scratch = 7 * 2 * 65 * 64 * (1 + 4 + 1)  # better, flips, step
    slack = 2**17
    assert peak < (x.nbytes + padded + y.nbytes + amap.offsets.nbytes
                   + scratch + slack)
    assert slack < padded  # a second padded copy would not fit


@needs_blas_control
@settings(max_examples=50, deadline=None)
@given(_pool_cases())
def test_pool_starts_no_thread_at_any_size(case):
    # the size gate at zero: every pool is pooled whole on this thread
    x, kernel = case
    with _split_everything(0) as splits, mock.patch.object(
            threading.Thread, "start",
            lambda self: pytest.fail("started a thread")):
        y, amap = maxpool3d(x, kernel)
    assert not splits
    y_ref, arg_ref, _ = _maxpool3d_oracle(x, kernel)
    assert y.tobytes() == y_ref.tobytes()
    assert np.array_equal(amap.offsets, arg_ref)


@needs_blas_control
@pytest.mark.parametrize("reason", ["blas", "affinity"])
def test_no_helper_without_a_free_core(monkeypatch, reason):
    x = np.random.default_rng(3).standard_normal((2, 4, 5, 6))
    k = make_kernels(3, 2, (3, 3, 3), np.random.default_rng(4))
    monkeypatch.setattr(tensor, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: pytest.fail("started a thread"))
    threads = 1
    if reason == "blas":
        threads = 2
    elif hasattr(tensor.os, "sched_getaffinity"):
        monkeypatch.setattr(tensor.os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(tensor.os, "cpu_count", lambda: 1)
    with blas_threads(threads):
        assert conv3d(x, k).tobytes() == _conv3d_oracle(x, k).tobytes()
        maxpool3d(x, (2, 2, 2))


def _split_conv_in_child(x, k, want):
    with _split_everything() as splits:
        same = conv3d(x, k).tobytes() == want
    sys.exit(0 if same and splits else 3)


@needs_blas_control
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the platform cannot fork")
def test_forked_child_splits_a_conv_with_the_parents_bytes():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 4, 5, 6)).astype(np.float32)
    k = make_kernels(3, 2, (3, 3, 3), rng)
    with _split_everything() as splits:
        want = conv3d(x, k).tobytes()
    assert splits
    child = multiprocessing.get_context("fork").Process(
        target=_split_conv_in_child, args=(x, k, want))
    child.start()
    child.join(120)
    if child.is_alive():
        child.kill()
        pytest.fail("conv3d hung in the forked child")
    assert child.exitcode == 0


@needs_blas_control
def test_a_split_leaves_no_thread_behind():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 5, 6)).astype(np.float32)
    k = make_kernels(3, 2, (3, 3, 3), rng)
    before = threading.active_count()
    with _split_everything() as splits:
        conv3d(x, k)
        maxpool3d(x, (2, 2, 2))
    assert len(splits) == 1  # the conv's: a pool never splits
    assert threading.active_count() == before


def _halves(log, mine_error=None, their_error=None):
    """A split's work: each half sleeps (the other thread's the longer),
    logs that it has ended, then raises its error if it has one."""
    def work(name, error, delay):
        time.sleep(delay)
        log.append(name)
        if error is not None:
            raise error
    return work, ("mine", mine_error, 0.0), ("theirs", their_error, 0.05)


def test_an_error_of_the_other_half_reaches_the_caller_after_both_end():
    log = []
    with pytest.raises(ValueError, match="theirs"):
        tensor._on_two_workers(*_halves(log, their_error=ValueError("theirs")))
    assert sorted(log) == ["mine", "theirs"]


def test_the_callers_error_waits_for_the_other_half():
    log = []
    with pytest.raises(ValueError, match="mine"):
        tensor._on_two_workers(*_halves(log, mine_error=ValueError("mine")))
    assert log == ["mine", "theirs"]


def test_the_callers_error_wins_when_both_halves_raise():
    log = []
    with pytest.raises(KeyError, match="mine"):
        tensor._on_two_workers(*_halves(log, KeyError("mine"),
                                        ValueError("theirs")))
    assert log == ["mine", "theirs"]


# ---------------------------------------------------------------------------
# weight draws


def _glorot_one_shot(shape, rng, fan_in, fan_out, dtype):
    """The whole draw in one piece, float64 scale and all."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    r = rng.random(size=shape, dtype=dtype)
    return (r * (2 * limit) - limit).astype(dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("chunks,extra", [
    (0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 12345)])
def test_glorot_chunks_give_the_one_shot_bytes_and_stream(dtype, chunks,
                                                          extra):
    n = chunks * tensor._DRAW_CHUNK + extra
    for shape in ((n,), (1, n, 1)):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = glorot_uniform(shape, rng, 7, 9, dtype)
        want = _glorot_one_shot(shape, ref, 7, 9, dtype)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(3, dtype).tobytes() == ref.random(3, dtype).tobytes()


def test_glorot_fc6_draw_holds_no_float64_copy():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        w = glorot_uniform((4096, 8192), rng, 8192, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - w.nbytes < 2 * 2**20


# ---------------------------------------------------------------------------
# fully connected / softmax / sgd


def test_fc_identity_and_bias():
    x = np.arange(5.0)
    assert np.allclose(fully_connected(x, np.eye(5), np.zeros(5)), x)
    b = np.full(3, 7.0)
    assert np.allclose(fully_connected(x, np.zeros((3, 5)), b), b)


def test_fc_projects_8192_to_4096():
    w = np.zeros((4096, 8192))
    y = fully_connected(np.zeros(8192), w, np.zeros(4096))
    assert y.shape == (4096,)


def test_fc_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(7)
    w = rng.standard_normal((4, 7))
    gy = rng.standard_normal(4)
    gx, gw, gb = fully_connected_backward(gy, x, w)
    fx = finite_diff_grad(
        lambda v: float((fully_connected(v, w, np.zeros(4)) * gy).sum()), x)
    assert rel_err(gx, fx) < 1e-6
    fw = finite_diff_grad(
        lambda v: float((fully_connected(x, v, np.zeros(4)) * gy).sum()), w)
    assert rel_err(gw, fw) < 1e-6
    assert np.allclose(gb, gy)


def test_softmax_xent_uniform_is_log_n():
    loss, grad = softmax_xent(np.zeros(5), 2)
    assert loss == pytest.approx(np.log(5), rel=1e-12)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_softmax_xent_confident_limit():
    logits = np.zeros(4)
    logits[1] = 50.0
    loss, _ = softmax_xent(logits, 1)
    assert loss < 1e-12


def test_softmax_xent_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = rng.standard_normal(4)
    _, grad = softmax_xent(logits, 3)
    fg = finite_diff_grad(lambda v: softmax_xent(v, 3)[0], logits)
    assert rel_err(grad, fg) < 1e-5


def test_sgd_step_examples():
    assert sgd_step(np.array([1.0]), np.array([2.0]), 0.0)[0] == 1.0
    assert sgd_step(np.array([1.0]), np.array([2.0]), 0.1)[0] == \
        pytest.approx(0.8)


def test_sgd_quadratic_bowl_monotone():
    # f(p) = p^2, gradient 2p, lr below 1/curvature
    p = np.array([3.0])
    prev = float(p[0] ** 2)
    for _ in range(20):
        p = sgd_step(p, 2 * p, 0.2)
        cur = float(p[0] ** 2)
        assert cur < prev
        prev = cur


def test_finite_diff_exact_on_linear():
    a = np.arange(6.0)
    g = finite_diff_grad(lambda v: float(a @ v), np.zeros(6))
    assert rel_err(g, a) < 1e-9


# ---------------------------------------------------------------------------
# BLAS thread control


@pytest.mark.skipif(blas_thread_count() is None,
                    reason="the loaded BLAS exposes no thread control")
def test_blas_threads_pins_inside_and_restores_on_exit():
    before = blas_thread_count()
    with blas_threads(2):
        assert blas_thread_count() == 2
        with blas_threads(1):
            assert blas_thread_count() == 1
        assert blas_thread_count() == 2
    assert blas_thread_count() == before
    with pytest.raises(RuntimeError):
        with blas_threads(1):
            assert blas_thread_count() == 1
            raise RuntimeError("leaves the scope early")
    assert blas_thread_count() == before


def test_blas_threads_without_thread_control_warns_once_and_runs(monkeypatch):
    monkeypatch.setattr(tensor, "_loaded_libraries", lambda: [])
    tensor._blas_thread_control.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="no thread control"):
            with blas_threads(1):
                pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with blas_threads(1):
                assert blas_thread_count() is None
    finally:
        tensor._blas_thread_control.cache_clear()


_PINS_NUMPYS_BLAS = """
import ctypes, os
import numpy
from tubenet import tensor

def openblas():
    return [p for p in tensor._loaded_libraries()
            if "openblas" in os.path.basename(p).lower()]

def counts(paths):
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for pattern in tensor._OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                out.append(get())
                break
    return out

numpys = openblas()
if SCIPY_FIRST:
    import scipy.ndimage
before = tensor.blas_thread_count()  # fills the cached control
import scipy.ndimage
assert len(openblas()) > len(numpys), "scipy loaded no OpenBLAS of its own"
with tensor.blas_threads(2):
    assert tensor.blas_thread_count() == 2 and counts(numpys) == [2]
    with tensor.blas_threads(1):
        assert tensor.blas_thread_count() == 1 and counts(numpys) == [1]
assert tensor.blas_thread_count() == before and counts(numpys) == [before]
print("ok")
"""


@pytest.mark.skipif(blas_thread_count() is None,
                    reason="the loaded BLAS exposes no thread control")
@pytest.mark.parametrize("scipy_first", [False, True])
def test_blas_threads_pins_numpys_openblas_beside_scipys(scipy_first):
    # a fresh process, so that scipy's OpenBLAS loads after the first thread
    # query (or, with scipy_first, before it); this one has scipy loaded
    src = str(Path(tensor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"SCIPY_FIRST = {scipy_first}\n" + _PINS_NUMPYS_BLAS
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]
