import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tubenet.networks import UnpoolUp
from tubenet.tensor import KernelSet, finite_diff_grad, make_kernels
from tubenet.upsample import (UpscaleFactors, channel_to_spacedepth,
                              channel_to_spacedepth_backward,
                              subpixel_upsample3d, unpool3d,
                              unpool3d_backward)


def reference_gather(expanded, p):
    """Independent elementwise evaluation of the index formulas."""
    ce, d, h, w = expanded.shape
    v = p.volume
    c_out = ce // v
    table = p.offset_table()
    out = np.empty((c_out, p.p_d * d, p.p_h * h, p.p_w * w),
                   dtype=expanded.dtype)
    for c in range(c_out):
        for i in range(p.p_d * d):
            for j in range(p.p_h * h):
                for k in range(p.p_w * w):
                    cp = c * v + table[i % p.p_d, j % p.p_h, k % p.p_w]
                    out[c, i, j, k] = expanded[cp, i // p.p_d,
                                               j // p.p_h, k // p.p_w]
    return out


def _offset_grid_oracle(p, out_shape):
    """Per HR element: its channel offset and its LR coordinates."""
    _, od, oh, ow = out_shape
    i = np.arange(od)[:, None, None]
    j = np.arange(oh)[None, :, None]
    k = np.arange(ow)[None, None, :]
    off = p.offset_table()[i % p.p_d, j % p.p_h, k % p.p_w]
    return off, i // p.p_d, j // p.p_h, k // p.p_w


def _channel_to_spacedepth_oracle(expanded, p):
    """Gather every HR element through full-size index grids."""
    ce, d, h, w = expanded.shape
    c_out = ce // p.volume
    out_shape = (c_out, p.p_d * d, p.p_h * h, p.p_w * w)
    off, i2, j2, k2 = _offset_grid_oracle(p, out_shape)
    cprime = np.arange(c_out)[:, None, None, None] * p.volume + off[None]
    return expanded[cprime,
                    np.broadcast_to(i2[None], out_shape),
                    np.broadcast_to(j2[None], out_shape),
                    np.broadcast_to(k2[None], out_shape)]


def _channel_to_spacedepth_backward_oracle(grad_hr, p):
    """Scatter every HR element back through the same index grids."""
    c, dh, hh, wh = grad_hr.shape
    out = np.empty((c * p.volume, dh // p.p_d, hh // p.p_h, wh // p.p_w),
                   dtype=grad_hr.dtype)
    off, i2, j2, k2 = _offset_grid_oracle(p, grad_hr.shape)
    cprime = np.arange(c)[:, None, None, None] * p.volume + off[None]
    out[cprime,
        np.broadcast_to(i2[None], grad_hr.shape),
        np.broadcast_to(j2[None], grad_hr.shape),
        np.broadcast_to(k2[None], grad_hr.shape)] = grad_hr
    return out


_SHUFFLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan]),
                            st.floats(-4.0, 4.0, width=32))

_BIJECTIVE_FACTORS = [(pd, ph, pw) for pd, ph, pw
                      in itertools.product((1, 2, 3), repeat=3) if pd <= pw]


@pytest.mark.parametrize("factors", _BIJECTIVE_FACTORS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_subpixel_shuffle_matches_index_grid_oracle_bytes(factors, data):
    p = UpscaleFactors(*factors)
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    c, d, h, w = (data.draw(st.integers(1, 3)) for _ in range(4))
    x = data.draw(hnp.arrays(dtype, (c * p.volume, d, h, w),
                             elements=_SHUFFLE_VALUES))
    hr, hr_ref = channel_to_spacedepth(x, p), \
        _channel_to_spacedepth_oracle(x, p)
    assert hr.dtype == hr_ref.dtype and hr.shape == hr_ref.shape
    assert hr.flags.c_contiguous
    assert hr.tobytes() == hr_ref.tobytes()
    g = data.draw(hnp.arrays(dtype, hr.shape, elements=_SHUFFLE_VALUES))
    gx, gx_ref = channel_to_spacedepth_backward(g, p), \
        _channel_to_spacedepth_backward_oracle(g, p)
    assert gx.dtype == gx_ref.dtype and gx.shape == gx_ref.shape
    assert gx.flags.c_contiguous
    assert gx.tobytes() == gx_ref.tobytes()


def test_shuffle_returns_new_arrays_for_identity_factors():
    x = np.arange(6.0).reshape(3, 1, 1, 2)
    p = UpscaleFactors(1, 1, 1)
    assert not np.shares_memory(channel_to_spacedepth(x, p), x)
    assert not np.shares_memory(channel_to_spacedepth_backward(x, p), x)


def test_offset_table_is_compact_rank_formula():
    # for p_d <= p_w, ranking the raw offsets a + p_w*b + p_w*p_h*c
    # gives a + p_d*b + p_d*p_h*c
    for pd, ph, pw in _BIJECTIVE_FACTORS:
        p = UpscaleFactors(pd, ph, pw)
        a, b, c = np.meshgrid(np.arange(pd), np.arange(ph), np.arange(pw),
                              indexing="ij")
        assert np.array_equal(p.offset_table(), a + pd * b + pd * ph * c)


def test_index_formula_zero_and_hand_case():
    p = UpscaleFactors(2, 2, 2)
    x = np.arange(8, dtype=np.float64).reshape(8, 1, 1, 1)
    hr = channel_to_spacedepth(x, p)
    assert hr[0, 0, 0, 0] == 0.0          # zero indices map to channel 0
    assert hr[0, 1, 1, 1] == 7.0          # offset 1 + 2*1 + 4*1 = 7


def test_raw_formula_holds_verbatim_for_equal_depth_width():
    for pd, ph in ((1, 1), (1, 2), (2, 1), (2, 2)):
        p = UpscaleFactors(pd, ph, pd)
        assert np.array_equal(p.offset_table(), p.raw_offsets())


def test_fixture_8x4x4x4_matches_independent_gather():
    rng = np.random.default_rng(0)
    p = UpscaleFactors(2, 2, 2)
    x = rng.standard_normal((8, 4, 4, 4))
    hr = channel_to_spacedepth(x, p)
    assert hr.shape == (1, 8, 8, 8)
    assert np.array_equal(hr, reference_gather(x, p))


def test_exhaustive_bijectivity_depth_le_width():
    for pd, ph, pw in itertools.product((1, 2), repeat=3):
        if pd > pw:
            continue
        p = UpscaleFactors(pd, ph, pw)
        for c_out in (1, 2):
            for d, h, w in ((1, 1, 1), (2, 2, 2), (4, 2, 2), (4, 4, 4)):
                ce = c_out * p.volume
                if (ce, d, h, w) > (8, 4, 4, 4):
                    continue
                x = np.arange(ce * d * h * w, dtype=np.float64) \
                    .reshape(ce, d, h, w)
                hr = channel_to_spacedepth(x, p)
                # bijection: every expanded element appears exactly once
                assert np.array_equal(np.sort(hr.ravel()), x.ravel())
                assert np.array_equal(channel_to_spacedepth_backward(hr, p), x)


def test_colliding_factors_rejected():
    with pytest.raises(ValueError):
        UpscaleFactors(2, 2, 1)


def test_identity_factors():
    x = np.random.default_rng(1).standard_normal((3, 2, 2, 2))
    p = UpscaleFactors(1, 1, 1)
    assert np.array_equal(channel_to_spacedepth(x, p), x)


def test_backward_is_exact_adjoint():
    rng = np.random.default_rng(2)
    p = UpscaleFactors(2, 2, 2)
    x = rng.standard_normal((8, 2, 2, 2))
    gy = rng.standard_normal((1, 4, 4, 4))
    gx = channel_to_spacedepth_backward(gy, p)
    # linear permutation: <gy, f(x)> == <gx, x> up to summation order
    assert np.vdot(gy, channel_to_spacedepth(x, p)) == pytest.approx(
        np.vdot(gx, x), rel=1e-12)
    fx = finite_diff_grad(
        lambda v: float((channel_to_spacedepth(v, p) * gy).sum()), x)
    assert np.allclose(gx, fx, atol=1e-8)


def test_subpixel_shape_upsample4_row():
    rng = np.random.default_rng(3)
    p = UpscaleFactors(2, 2, 2)
    x = rng.standard_normal((512, 1, 15, 20)).astype(np.float32)
    k = make_kernels(64 * p.volume, 512, (3, 3, 3), rng)
    y = subpixel_upsample3d(x, k, p)
    assert y.shape == (64, 2, 30, 40)


def test_subpixel_constant_preserving_kernels():
    # channel-copy kernels on a constant input give a constant HR cube
    p = UpscaleFactors(2, 2, 2)
    w = np.zeros((8, 1, 3, 3, 3), dtype=np.float64)
    w[:, 0, 1, 1, 1] = 1.0
    x = np.full((1, 2, 3, 3), 4.0)
    y = subpixel_upsample3d(x, KernelSet(w, np.zeros(8)), p)
    assert y.shape == (1, 4, 6, 6)
    assert np.all(y == 4.0)


def test_subpixel_channel_count_must_divide():
    rng = np.random.default_rng(4)
    p = UpscaleFactors(2, 2, 2)
    k = make_kernels(6, 2, (3, 3, 3), rng)
    with pytest.raises(Exception):
        subpixel_upsample3d(np.zeros((2, 2, 2, 2)), k, p)


def _corner_placement_oracle(lr_shape, p):
    """Flat HR index of each LR element's block corner, from a meshgrid."""
    c, d, h, w = lr_shape
    hr = (c, d * p.p_d, h * p.p_h, w * p.p_w)
    ci, di, hi, wi = np.meshgrid(np.arange(c), np.arange(d), np.arange(h),
                                 np.arange(w), indexing="ij")
    flat = ((ci * hr[1] + di * p.p_d) * hr[2] + hi * p.p_h) * hr[3] + wi * p.p_w
    return flat, hr


def _unpool3d_oracle(lr, p):
    flat, hr_shape = _corner_placement_oracle(lr.shape, p)
    hr = np.zeros(int(np.prod(hr_shape)), dtype=lr.dtype)
    hr[flat.ravel()] = lr.ravel()
    return hr.reshape(hr_shape)


def _unpool3d_backward_oracle(grad_hr, p):
    c, dh, hh, wh = grad_hr.shape
    flat, _ = _corner_placement_oracle(
        (c, dh // p.p_d, hh // p.p_h, wh // p.p_w), p)
    return grad_hr.ravel()[flat.ravel()].reshape(flat.shape)


_SIGNED_VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-4.0, 4.0, width=32))


@st.composite
def _unpool_cases(draw):
    pw = draw(st.integers(1, 3))
    p = UpscaleFactors(draw(st.integers(1, pw)), draw(st.integers(1, 3)), pw)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(4))
    lr = draw(hnp.arrays(dtype, shape, elements=_SIGNED_VALUES))
    hr_shape = (shape[0], shape[1] * p.p_d, shape[2] * p.p_h,
                shape[3] * p.p_w)
    grad = draw(hnp.arrays(dtype, hr_shape, elements=_SIGNED_VALUES))
    return lr, grad, p


@settings(max_examples=200, deadline=None)
@given(_unpool_cases())
def test_unpool_matches_scatter_oracle_bytes(case):
    lr, grad, p = case
    hr, hr_ref = unpool3d(lr, p), _unpool3d_oracle(lr, p)
    assert hr.dtype == hr_ref.dtype and hr.shape == hr_ref.shape
    assert hr.tobytes() == hr_ref.tobytes()
    g, g_ref = unpool3d_backward(grad, p), _unpool3d_backward_oracle(grad, p)
    assert g.dtype == g_ref.dtype and g.shape == g_ref.shape
    assert g.flags.c_contiguous
    assert g.tobytes() == g_ref.tobytes()


def test_unpool_scatter_conserves_mass():
    rng = np.random.default_rng(5)
    p = UpscaleFactors(2, 2, 2)
    x = rng.standard_normal((1, 4, 4, 4))
    hr = unpool3d(x, p)
    assert hr.shape == (1, 8, 8, 8)
    assert hr.sum() == pytest.approx(x.sum())
    # values land on block corners, zeros elsewhere
    assert np.array_equal(hr[:, ::2, ::2, ::2], x)
    assert hr[0, 1, 0, 0] == 0.0


def test_unpool_conv_reference_zero_kernels():
    # the un-pool + convolution path of the upsampler ablation
    up = UnpoolUp(1, 1, UpscaleFactors(2, 2, 2), np.random.default_rng(7))
    up.load_state({"w": np.zeros((1, 1, 3, 3, 3)), "b": np.zeros(1)})
    y, _ = up.forward(np.ones((1, 2, 2, 2)))
    assert y.shape == (1, 4, 4, 4)
    assert np.all(y == 0.0)


def test_unpool_backward_is_adjoint():
    rng = np.random.default_rng(6)
    p = UpscaleFactors(2, 2, 2)
    x = rng.standard_normal((2, 2, 2, 2))
    gy = rng.standard_normal((2, 4, 4, 4))
    gx = unpool3d_backward(gy, p)
    assert np.vdot(gy, unpool3d(x, p)) == pytest.approx(np.vdot(gx, x))
