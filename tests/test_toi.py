import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tubenet.tensor import ArgmaxMap, finite_diff_grad
from tubenet.toi import (Box, Tube, _cell_box, bin_edges, full_frame_tube,
                         pixel_box_to_cells, toi_pool_backward,
                         toi_pool_forward)


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def test_bin_edges_exact_division():
    assert bin_edges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_bin_edges_floor_rule():
    assert bin_edges(7, 4) == [(0, 1), (1, 3), (3, 5), (5, 7)]


def test_bin_edges_extent_smaller_than_bins():
    # duplicated boundaries clamp to non-empty bins
    edges = bin_edges(3, 4)
    assert edges == [(0, 1), (0, 1), (1, 2), (2, 3)]
    for start, end in edges:
        assert 0 <= start < end <= 3


@given(st.integers(1, 40), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_bin_edges_cover_and_nonempty(extent, bins):
    edges = bin_edges(extent, bins)
    assert len(edges) == bins
    assert edges[0][0] == 0 and edges[-1][1] == extent
    for start, end in edges:
        assert 0 <= start < end <= extent
    if extent >= bins:  # contiguous partition in the regular case
        for (_, e0), (s1, _) in zip(edges, edges[1:]):
            assert e0 == s1


def test_constant_cube_pools_to_constant():
    x = np.full((3, 8, 10, 12), 2.5)
    tube = full_frame_tube(8, 10, 12)
    out, _ = toi_pool_forward(x, tube, (4, 3, 3))
    assert out.shape == (3, 4, 3, 3)
    assert np.all(out == 2.5)


def test_full_frame_box_pools_conv5_row():
    x = np.random.default_rng(0).standard_normal((512, 1, 19, 25)) \
        .astype(np.float32)
    out, _ = toi_pool_forward(x, full_frame_tube(1, 19, 25), (1, 4, 4))
    assert out.shape == (512, 1, 4, 4)


def test_variable_boxes_pool_to_fixed_grid():
    # four different-size frames pooled spatially to 4x4, temporally to 1
    x = np.random.default_rng(1).standard_normal((2, 4, 20, 20))
    tube = Tube((Box(0, 0, 19, 19), Box(2, 3, 10, 12),
                 Box(5, 5, 8, 8), Box(0, 0, 3, 3)))
    out, amap = toi_pool_forward(x, tube, (1, 4, 4))
    assert out.shape == (2, 1, 4, 4)
    assert np.array_equal(
        x.ravel()[amap.indices.ravel()].reshape(out.shape), out)


def test_backward_single_cell():
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    out, amap = toi_pool_forward(x, Tube((Box(0, 0, 1, 1),)), (1, 1, 1))
    assert out[0, 0, 0, 0] == 3.0
    gx = toi_pool_backward(np.ones_like(out), amap)
    expected = np.zeros_like(x)
    expected[0, 0, 1, 1] = 1.0
    assert np.array_equal(gx, expected)


def test_backward_sums_gradients_on_shared_winner():
    # extent 3 into 4 bins duplicates the first bin: one input element wins
    # two outputs, so its gradient is the sum of both upstream grads
    x = np.zeros((1, 1, 3, 1))
    x[0, 0, 0, 0] = 5.0
    out, amap = toi_pool_forward(x, Tube((Box(0, 0, 0, 2),)), (1, 4, 1))
    assert out[0, 0, 0, 0] == 5.0 and out[0, 0, 1, 0] == 5.0
    gy = np.zeros_like(out)
    gy[0, 0, 0, 0] = 2.0
    gy[0, 0, 1, 0] = 3.0
    gx = toi_pool_backward(gy, amap)
    assert gx[0, 0, 0, 0] == 5.0


def test_toi_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 4, 6, 6))
    tube = Tube((Box(0, 0, 5, 5), Box(1, 1, 4, 4),
                 Box(0, 2, 3, 5), Box(2, 0, 5, 3)))
    out, amap = toi_pool_forward(x, tube, (2, 2, 2))
    gy = rng.standard_normal(out.shape)
    gx = toi_pool_backward(gy, amap)
    fx = finite_diff_grad(
        lambda v: float((toi_pool_forward(v, tube, (2, 2, 2))[0] * gy).sum()),
        x)
    assert rel_err(gx, fx) < 1e-5


def test_depth_mismatch_rejected():
    x = np.zeros((1, 4, 4, 4))
    with pytest.raises(Exception):
        toi_pool_forward(x, full_frame_tube(3, 4, 4), (1, 2, 2))


def test_box_invariants():
    with pytest.raises(ValueError):
        Box(3, 0, 2, 1)
    b = Box(1, 2, 4, 6)
    assert b.width == 4 and b.height == 5
    assert b.center == (2.5, 4.0)


def test_pixel_box_to_cells_outward_rounding():
    # 80x112 pixels onto a 5x7 grid: full frame maps to the full grid
    b = pixel_box_to_cells(Box(0, 0, 111, 79), (5, 7), (80, 112))
    assert (b.x1, b.y1, b.x2, b.y2) == (0, 0, 6, 4)


def _toi_pool_forward_oracle(features, tube, out_shape):
    """Reference ToI pool: every frame's every spatial bin takes its own
    argmax, then each temporal bin takes the argmax over its frames."""
    c, d, h, w = features.shape
    D, H, W = out_shape
    spat = np.empty((c, d, H, W), dtype=features.dtype)
    spat_idx = np.empty((c, d, H, W), dtype=np.int64)
    cidx = np.arange(c)
    for t, box in enumerate(tube):
        x1, y1, x2, y2 = _cell_box(box, h, w)
        ybins = bin_edges(y2 - y1 + 1, H)
        xbins = bin_edges(x2 - x1 + 1, W)
        frame = features[:, t]
        for bi, (ys, ye) in enumerate(ybins):
            for bj, (xs, xe) in enumerate(xbins):
                win = frame[:, y1 + ys:y1 + ye, x1 + xs:x1 + xe]
                flat = win.reshape(c, -1)
                arg = flat.argmax(axis=1)
                spat[:, t, bi, bj] = flat[cidx, arg]
                wy, wx = np.divmod(arg, xe - xs)
                spat_idx[:, t, bi, bj] = (
                    (cidx * d + t) * h + y1 + ys + wy
                ) * w + x1 + xs + wx
    out = np.empty((c, D, H, W), dtype=features.dtype)
    idx = np.empty((c, D, H, W), dtype=np.int64)
    for bd, (ts, te) in enumerate(bin_edges(d, D)):
        seg = spat[:, ts:te]
        arg = seg.argmax(axis=1)
        out[:, bd] = np.take_along_axis(seg, arg[:, None], axis=1)[:, 0]
        idx[:, bd] = np.take_along_axis(
            spat_idx[:, ts:te], arg[:, None], axis=1)[:, 0]
    return out, ArgmaxMap(idx, features.shape)


# values that tie (ReLU zeros, -0.0 beside +0.0), never win (-inf) or
# always win (NaN), mixed with arbitrary finite ones
_TOI_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, -np.inf, np.nan]),
    st.floats(-4.0, 4.0, width=32))


@st.composite
def _box(draw, h, w, one_cell=False):
    x1, y1 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    if one_cell:
        return Box(x1, y1, x1, y1)
    return Box(x1, y1, draw(st.integers(x1, w - 1)),
               draw(st.integers(y1, h - 1)))


@st.composite
def _toi_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.one_of(st.integers(1, 8), st.just(20)))
    shape = (draw(st.integers(1, 3)), d, draw(st.integers(1, 7)),
             draw(st.integers(1, 7)))
    x = draw(hnp.arrays(dtype, shape, elements=_TOI_VALUES))
    if draw(st.booleans()):  # a ReLU output: many tied zeros
        x = np.maximum(x, 0)
    if draw(st.booleans()):  # one frame all -inf
        x[:, draw(st.integers(0, d - 1))] = -np.inf
    h, w = shape[2:]
    one_cell = draw(st.booleans())
    layout = draw(st.sampled_from(["one box", "runs", "moving"]))
    if layout == "one box":
        boxes = [draw(_box(h, w, one_cell))] * d
    elif layout == "moving":  # a new box every frame
        boxes = [draw(_box(h, w, one_cell)) for _ in range(d)]
    else:  # runs of equal boxes
        boxes = []
        while len(boxes) < d:
            boxes += [draw(_box(h, w, one_cell))] * draw(st.integers(1, d))
        boxes = boxes[:d]
    # bin counts up to 5 exceed many box extents, duplicating bins
    out_shape = (draw(st.integers(1, d)), draw(st.integers(1, 5)),
                 draw(st.integers(1, 5)))
    return x, Tube(boxes), out_shape


@settings(max_examples=300, deadline=None)
@given(_toi_cases())
def test_toi_pool_matches_per_frame_oracle_bytes(case):
    x, tube, out_shape = case
    y, amap = toi_pool_forward(x, tube, out_shape)
    y_ref, amap_ref = _toi_pool_forward_oracle(x, tube, out_shape)
    assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
    assert y.tobytes() == y_ref.tobytes()
    assert amap.indices.dtype == amap_ref.indices.dtype
    assert np.array_equal(amap.indices, amap_ref.indices)
    assert amap.in_shape == amap_ref.in_shape


def test_toi_pool_run_tie_nan_and_minus_inf_order():
    # two frames share one box and each output bin is a column of it: of
    # tied zeros the first frame's first wins, keeping its sign; the first
    # NaN in frame order wins; an all -inf bin takes its first cell
    x = np.array([[[-0.0, 1.0, -np.inf], [0.0, np.nan, -np.inf]],
                  [[0.0, np.nan, -np.inf], [-0.0, 2.0, -np.inf]]],
                 dtype=np.float32).reshape(1, 2, 2, 3)
    tube = Tube((Box(0, 0, 2, 1),) * 2)
    y, amap = toi_pool_forward(x, tube, (1, 1, 3))
    assert np.signbit(y[0, 0, 0, 0]) and np.isnan(y[0, 0, 0, 1])
    assert y[0, 0, 0, 2] == -np.inf
    assert amap.indices.ravel().tolist() == [0, 4, 2]


@pytest.mark.parametrize("layout", ["full frame", "moving"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_depth_groups_pooled_one_bin_per_frame_give_the_whole_cubes_bytes(
        layout, data):
    # the top-down reference forward ToI-pools each group of frames of
    # conv2's output as it is made: with one temporal bin per frame, each
    # frame pools on its own, so the groups' results side by side are the
    # whole cube's, values and winners alike
    d = data.draw(st.integers(1, 8))
    shape = (data.draw(st.integers(1, 3)), d, data.draw(st.integers(1, 7)),
             data.draw(st.integers(1, 7)))
    x = data.draw(hnp.arrays(np.float32, shape, elements=_TOI_VALUES))
    if data.draw(st.booleans()):  # a ReLU output: many tied zeros
        x = np.maximum(x, 0)
    h, w = shape[2:]
    tube = (full_frame_tube(d, h, w) if layout == "full frame" else
            Tube([data.draw(_box(h, w)) for _ in range(d)]))
    bins = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    cuts = sorted(set(data.draw(
        st.lists(st.integers(1, d - 1)) if d > 1 else st.just([]))))
    whole, amap = toi_pool_forward(x, tube, (d,) + bins)
    values, winners = [], []
    for g0, g1 in zip([0] + cuts, cuts + [d]):
        y, gmap = toi_pool_forward(x[:, g0:g1], Tube(tube.boxes[g0:g1]),
                                   (g1 - g0,) + bins)
        c, t, i, j = np.unravel_index(gmap.indices, gmap.in_shape)
        values.append(y)
        winners.append(np.ravel_multi_index((c, t + g0, i, j), x.shape))
    assert np.concatenate(values, axis=1).tobytes() == whole.tobytes()
    assert np.array_equal(np.concatenate(winners, axis=1), amap.indices)
