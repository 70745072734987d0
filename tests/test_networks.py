"""The trainable-layer contract: the checkpoint keys of both models, which
layer owns each key's gradients, state round trips, the upsampler layers,
and the names the benchmark's tracer wraps. The reference forwards, which
build no trainable layer: the inputs they reject, their conv stage against
whole-cube layers, what they hold, and the bytes of their fc helper."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tubenet import networks, tensor, toi, upsample
from tubenet.models import STCNN, TCNN, Encoder
from tubenet.networks import SubpixelUp, UnpoolUp
from tubenet.proposals import Anchor
from tubenet.tensor import finite_diff_grad
from tubenet.upsample import UpscaleFactors, subpixel_upsample3d

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    """A module of the benchmark program, imported from its file; no
    bytecode cache is written beside it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _layer(name, w_shape):
    return {f"{name}.w": w_shape, f"{name}.b": w_shape[:1]}


def _conv(name, out_c, in_c, k=3):
    return _layer(name, (out_c, in_c, k, k, k))


_ENCODER = {**_conv("encoder.conv1", 8, 3), **_conv("encoder.conv2", 16, 8),
            **_conv("encoder.conv3", 24, 16),
            **_conv("encoder.conv4", 32, 24),
            **_conv("encoder.conv5", 32, 32)}

# the sorted flat_state() names and shapes of the models built below
TCNN_STATE = {**_ENCODER, **_conv("act_head", 2, 32, k=1),
              "proj_w2": (8, 16), "proj_w5": (16, 32),
              **_layer("reg_fc1", (128, 1536)), **_layer("reg_fc2", (32, 128)),
              **_layer("rec_fc1", (128, 2048)), **_layer("rec_fc2", (4, 128))}
_STCNN = {**_ENCODER, **_conv("conv4c", 16, 40), **_conv("conv3c", 16, 32),
          **_conv("conv2c", 16, 24), **_conv("conv6", 16, 16, k=1),
          **_conv("conv7", 2, 16, k=1), **_layer("rec_fc1", (64, 2048)),
          **_layer("rec_fc2", (4, 64))}
STCNN_STATE = {
    "subpixel": {**_STCNN, **_conv("up4", 64, 32), **_conv("up3", 64, 16),
                 **_conv("up2", 64, 16), **_conv("up1", 32, 16)},
    "unpool": {**_STCNN, **_conv("up4", 8, 32), **_conv("up3", 8, 16),
               **_conv("up2", 8, 16), **_conv("up1", 8, 16)}}

MODELS = ["tcnn", "stcnn-subpixel", "stcnn-unpool"]


def _model(kind, seed=7):
    if kind == "tcnn":
        return TCNN(3, [Anchor(20.0, 16.0), Anchor(12.0, 24.0)], (48, 64),
                    seed=seed)
    return STCNN(3, (48, 64), seed=seed, upsampler=kind.split("-")[1])


def _want_state(kind):
    return TCNN_STATE if kind == "tcnn" else STCNN_STATE[kind.split("-")[1]]


@pytest.mark.parametrize("kind", MODELS)
def test_checkpoint_names_and_shapes(kind):
    got = {k: v.shape for k, v in _model(kind).flat_state().items()}
    assert sorted(got.items()) == sorted(_want_state(kind).items())


@pytest.mark.parametrize("kind", MODELS)
def test_every_parameter_has_one_trainable_owner(kind):
    model = _model(kind)
    layers = model.trainables()
    owner = {id(p): (layer, g) for layer in layers
             for p, g in ((layer.w, layer.gw), (layer.b, layer.gb))}
    flat = model.flat_state()
    trained = {k: v for k, v in flat.items() if not k.startswith("proj_")}
    assert len(layers) == len(set(map(id, layers))) == len(trained) // 2
    for key, param in trained.items():
        _, grad = owner[id(param)]
        assert grad.shape == param.shape and grad.dtype == param.dtype
    # the projector is stepped inside tpn_step, not by sgd_update
    assert all(id(flat[k]) not in owner for k in flat if k not in trained)
    # the benchmark's gradient check reads each key's gradient by name
    grads = _bench_module("workloads")._grad_state(model)
    assert sorted(grads) == sorted(trained)
    for key, grad in grads.items():
        assert grad is owner[id(trained[key])][1]


@pytest.mark.parametrize("kind", MODELS)
def test_every_layer_object_a_model_holds_has_parameters(kind):
    # a layer is what holds parameters: ReLU and pooling are tensor calls
    model = _model(kind)
    trainables = model.trainables()
    loose = []
    for owner, prefix in ((model, ""), (model.encoder, "encoder.")):
        for name, value in vars(owner).items():
            for obj in value if isinstance(value, list) else [value]:
                if (hasattr(obj, "forward") and obj is not model.encoder
                        and not any(obj is t for t in trainables)):
                    loose.append(prefix + name)
    # the projector is stepped inside tpn_step, outside LAYERS
    assert loose == (["projector"] if kind == "tcnn" else [])


@pytest.mark.parametrize("kind", MODELS)
def test_state_round_trip_keeps_every_byte(kind):
    src, dst = _model(kind, seed=7), _model(kind, seed=8)
    dst.load_state(src.state())
    want, got = src.flat_state(), dst.flat_state()
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes()
        assert not np.shares_memory(got[key], want[key])


def test_sgd_update_steps_only_layers_with_gradients():
    model = _model("stcnn-subpixel")
    before = {k: v.copy() for k, v in model.flat_state().items()}
    model.zero_grads()
    model.conv7.gw[...] = 1.0
    model.sgd_update(0.1)
    after = model.flat_state()
    changed = sorted(k for k in after
                     if after[k].tobytes() != before[k].tobytes())
    assert changed == ["conv7.w"]


def test_subpixel_layer_is_the_subpixel_upsample():
    rng = np.random.default_rng(3)
    p = UpscaleFactors(1, 2, 2)
    up = SubpixelUp(3, 2, p, rng)
    x = rng.standard_normal((3, 2, 3, 4)).astype(np.float32)
    y, _ = up.forward(x)
    assert y.shape == (2, 2, 6, 8)
    assert y.tobytes() == subpixel_upsample3d(x, up.kernels, p).tobytes()


@pytest.mark.parametrize("layer_cls", [SubpixelUp, UnpoolUp])
def test_upsampler_gradients_match_finite_differences(layer_cls):
    rng = np.random.default_rng(4)
    up = layer_cls(2, 2, UpscaleFactors(1, 2, 2), rng)
    # float64 parameters and gradients, for exact enough differences
    up.w, up.b = up.w.astype(np.float64), up.b.astype(np.float64)
    up.gw, up.gb = np.zeros_like(up.w), np.zeros_like(up.b)
    x = rng.standard_normal((2, 2, 2, 3))
    y, cache = up.forward(x)
    gy = rng.standard_normal(y.shape)
    up.zero_grads()
    gx = up.backward(gy, cache)

    def loss_at_x(v):
        return float(np.vdot(gy, up.forward(v)[0]))

    w0, b0 = up.w.copy(), up.b.copy()

    def loss_at(w, b):
        up.load_state({"w": w, "b": b})
        return float(np.vdot(gy, up.forward(x)[0]))

    for got, want in (
            (gx, finite_diff_grad(loss_at_x, x)),
            (up.gw, finite_diff_grad(lambda w: loss_at(w, b0), w0)),
            (up.gb, finite_diff_grad(lambda b: loss_at(w0, b), b0))):
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def test_every_traced_name_resolves():
    # the benchmark's --trace 1 wraps these by name
    tracer = _bench_module("tracer")
    for qualname in tracer.traced_names():
        _, _, fn = tracer._resolve(qualname)
        assert callable(fn), qualname


def test_relu_caches_its_output_and_masks_the_same_gradient():
    x = np.array([-1.0, -0.0, 0.0, 2.0, np.nan, -np.inf, 1e-40],
                 np.float32)
    y = tensor.relu(x)
    # in place, as the models rectify a conv's or fc's output: same bytes
    z = x.copy()
    assert tensor.relu(z, out=z) is z
    assert z.tobytes() == y.tobytes()
    gy = np.arange(1, 8, dtype=np.float32)
    # positive exactly where the input is: NaN and -0.0 are neither
    assert np.array_equal(y > 0, x > 0)
    got = tensor.relu_backward(gy, y)
    assert got.tobytes() == np.where(x > 0, gy, 0).tobytes()
    # the encoder caches each ReLU's output, the activation it returns
    frames = np.random.default_rng(4).standard_normal((3, 8, 16, 16))
    acts, cache = Encoder(np.random.default_rng(5)).forward(
        frames.astype(np.float32))
    assert all(relu_out is acts[f"conv{i + 1}"]
               for i, (_, relu_out, _) in enumerate(cache))


def test_reference_forwards_build_no_trainable_layer(monkeypatch):
    def refuse(self, w, b):
        raise AssertionError("a forward-only run built a trainable layer")

    monkeypatch.setattr(networks._Trainable, "__init__", refuse)
    # small frames whose tables still close: 48x64 pools to 3x4 by conv5
    for run in (networks.run_tcnn_table_forward,
                networks.run_stcnn_table_forward):
        rows, shapes = run((3, 8, 48, 64), 0)
        assert dict(shapes) == {r.name: r.out_shape for r in rows}


def test_bottom_up_forward_frees_concat1_and_conv1c_before_fc6(monkeypatch):
    # once toi-pool has read concat1, neither it nor conv1c's output (read
    # by nothing but its shape) is live when fc6's first row block is drawn
    shape = (3, 8, 48, 64)
    c1 = dict((r.name, r.out_shape)
              for r in networks.stcnn_table_specs(shape))["toi-pool"][0]
    pooled_n = c1 * 8 * 8 * 8
    draw, live = tensor.glorot_uniform, []

    def traced(w_shape, *args):
        if w_shape == (networks._FC_ROWS, pooled_n) and not live:
            live.append(tracemalloc.get_traced_memory()[0])
        return draw(w_shape, *args)

    monkeypatch.setattr(tensor, "glorot_uniform", traced)
    tracemalloc.start()
    try:
        networks.run_stcnn_table_forward(shape, 0)
    finally:
        tracemalloc.stop()
    concat1 = c1 * 8 * 48 * 64 * 4
    conv1c = 64 * 8 * 48 * 64 * 4
    assert live and live[0] < concat1 + conv1c


def _conv_outputs(monkeypatch, gate, threads):
    """The bytes of each conv row's `conv3d` outputs, and the band count of
    each of its calls, in the top-down reference forward on 48x64 frames,
    with the size gate at `gate` bytes; keyed by table row. A conv that a
    pool follows makes one call per group of frames."""
    rows = iter([r.name for r in networks.tcnn_table_specs((3, 8, 48, 64))
                 if r.kind == "conv"])
    row_of, calls, outputs, bands = {}, [], {}, {}
    weak, conv3d = networks._weak_kernels, tensor.conv3d
    band_rows = tensor._Im2col.bands

    def named(*args):
        kernels = weak(*args)
        row_of[id(kernels)] = next(rows)
        return kernels

    def recorded(x, kernels, **kwargs):
        calls.append(row_of[id(kernels)])
        y = conv3d(x, kernels, **kwargs)
        outputs[calls[-1]] = outputs.get(calls[-1], b"") + y.tobytes()
        return y

    def counted(self, m, workers):
        cut = band_rows(self, m, workers)
        bands.setdefault(calls[-1], []).append(len(cut))
        return cut

    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_SPLIT_MIN_BYTES", gate)
        patch.setattr(networks, "_weak_kernels", named)
        patch.setattr(tensor, "conv3d", recorded)
        patch.setattr(tensor._Im2col, "bands", counted)
        with tensor.blas_threads(threads):
            networks.run_tcnn_table_forward((3, 8, 48, 64), 3)
    return outputs, bands


@pytest.mark.parametrize("threads", [1, "default"])
def test_reference_forward_bytes_do_not_depend_on_the_banding(monkeypatch,
                                                              threads):
    # the gate at one byte cuts every conv frame into as many bands as the
    # GEMM-size floor allows (conv2, in four two-frame groups, into 24
    # one-row bands of 32 columns); at 2**62 every frame is one band
    n = 1 if threads == 1 else tensor.blas_thread_count()
    narrow, narrow_bands = _conv_outputs(monkeypatch, 1, n)
    whole, whole_bands = _conv_outputs(monkeypatch, 2**62, n)
    assert list(narrow) == list(whole) == [
        "conv1", "conv2", "conv3a", "conv3b", "conv4a", "conv4b", "conv5a",
        "conv5b"]
    assert all(set(c) == {1} for c in whole_bands.values())
    assert narrow_bands["conv2"] == [24] * 4
    assert narrow == whole


class _Stop(Exception):
    """Ends a forward once the convs a test reads have run."""


@pytest.mark.skipif(tensor.blas_thread_count() is None,
                    reason="the loaded BLAS exposes no thread control")
def test_bottom_up_conv_bytes_do_not_depend_on_the_callers_blas_threads(
        monkeypatch):
    # the forward holds BLAS at one thread itself, so every conv, the
    # upsamplers' included, gives the same bytes whether its caller holds
    # BLAS at one thread or at two; conv1c (112 -> 64 channels) once
    # differed. The forward stops after conv1c, before the fc draws
    conv3d = tensor.conv3d

    def outputs(threads):
        outs = []

        def recorded(x, kernels, **kwargs):
            y = conv3d(x, kernels, **kwargs)
            outs.append(y.tobytes())
            if kernels.weights.shape[:2] == (64, 112):
                raise _Stop
            return y

        with monkeypatch.context() as patch:
            patch.setattr(tensor, "conv3d", recorded)
            patch.setattr(upsample, "conv3d", recorded)
            with tensor.blas_threads(threads), pytest.raises(_Stop):
                networks.run_stcnn_table_forward((3, 8, 48, 64), 4)
        return outs

    one, two = outputs(1), outputs(2)
    assert one == two
    # conv1 and conv2 in groups, conv3a, conv3b in groups, conv4a, conv4b
    # in groups, conv5a, conv5b, then four upsamplers and their convs
    assert len(one) == 8 + 4 + 1 + 2 + 1 + 1 + 1 + 1 + 8


def test_top_down_forward_frees_conv2_before_conv3a(monkeypatch):
    # conv2 runs fused with its ReLU, toi-pool2 and pool2, so none of its
    # output is live when conv3a starts: besides conv3a's weights, only
    # its input, toi-pool2's output and small arrays are: 1.4 MB against
    # conv2's 3.1 MB output, and 4.3 MB while conv2 was kept whole
    shape = (3, 8, 48, 64)
    conv2 = dict((r.name, r.out_shape)
                 for r in networks.tcnn_table_specs(shape))["conv2"]
    conv3d, live = tensor.conv3d, []

    def traced(x, kernels, **kwargs):
        if kernels.weights.shape[:2] == (256, conv2[0]) and not live:
            live.append(tracemalloc.get_traced_memory()[0]
                        - kernels.weights.nbytes)
        return conv3d(x, kernels, **kwargs)

    monkeypatch.setattr(tensor, "conv3d", traced)
    tracemalloc.start()
    try:
        networks.run_tcnn_table_forward(shape, 0)
    finally:
        tracemalloc.stop()
    assert live and live[0] < int(np.prod(conv2)) * 4


def _oracle_encoder(in_shape, rng, toi_rows):
    """Each encoder row's output and each ToI row's, by name, from the
    layers applied one after the other to whole cubes: conv3d, ReLU,
    `toi_pool_forward` over a full-frame tube where `toi_rows` names the
    conv (as `_run_encoder` reads it), and maxpool3d. The weights are
    drawn as the reference forwards draw them."""
    x = rng.standard_normal(in_shape).astype(np.float32)
    outs = {}
    for spec in networks._encoder_specs(in_shape):
        if spec.kind == "pool":
            x = tensor.maxpool3d(x, spec.kernel)[0]
        else:
            x = tensor.relu(tensor.conv3d(x, networks._weak_kernels(
                spec.out_shape[0], x.shape[0], rng)))
            if spec.name in toi_rows:
                name, toi_shape = toi_rows[spec.name]
                outs[name] = toi.toi_pool_forward(
                    x, toi.full_frame_tube(*x.shape[1:]), toi_shape)[0]
        outs[spec.name] = x
    return outs


def _top_down_toi_rows(shape):
    rows = dict((r.name, r.out_shape)
                for r in networks.tcnn_table_specs(shape))
    return {conv: (name, rows[name][1:]) for name, conv in networks._TOI_ROWS}


def _check_encoder(shape, seed, keep, toi_rows):
    """`_run_encoder`'s shapes, kept outputs, ToI outputs and generator
    state against the oracle's."""
    want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _oracle_encoder(shape, want_rng, toi_rows)
    shapes, got = networks._run_encoder(shape, rng, keep, toi_rows)
    assert shapes == [(r.name, want[r.name].shape)
                      for r in networks._encoder_specs(shape)]
    assert sorted(got) == sorted([*keep, *(n for n, _ in toi_rows.values())])
    for name in got:
        assert got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes(), name
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("depth", [8, 24])
def test_fused_toi_pool_keeps_the_bytes_of_the_whole_cube(depth):
    # no conv is kept: conv2 is ToI-pooled group by group (at depth 24, in
    # groups of six frames: a multiple of pool2's depth 2 and of the three
    # frames of each of the 8 bins), conv5b, which no pool follows, whole
    shape = (3, depth, 48, 64)
    _check_encoder(shape, 6, (), _top_down_toi_rows(shape))


def test_conv_stage_needs_toi_bins_of_equal_depth():
    x = np.zeros((2, 12, 4, 4), np.float32)
    kernels = tensor.make_kernels(2, 2, (3, 3, 3), np.random.default_rng(0))
    with pytest.raises(tensor.ShapeError, match="12 frames .* 8 ToI bins"):
        networks._conv_stage(x, kernels, (2, 2, 2), (8, 2, 2))


_POOLED = ("conv1", "conv2", "conv3b", "conv4b")  # convs a pool follows


@pytest.mark.parametrize("threads, gate", [
    (1, None), ("default", None),
    # conv1's 48x64 frames cut into six bands, three per worker: half the
    # gate would take eight, the GEMM-size floor allows six
    (1, 2**18)])
def test_fused_encoder_rows_keep_the_bytes(monkeypatch, threads, gate):
    # every conv runs with its ReLU and the pool that follows it in groups
    # of frames, kept or not: each kept output, and through them each
    # pooled one, has the oracle's bytes
    shape = (3, 8, 48, 64)
    convs = [r.name for r in networks._encoder_specs(shape)
             if r.kind == "conv"]
    conv1_calls = []  # (frames, bands, splits) of each conv1 call
    if gate is not None:
        conv3d, band_rows = tensor.conv3d, tensor._Im2col.bands
        split, bands, splits = tensor._on_two_workers, [], []

        def logged(x, kernels, **kwargs):
            before = len(splits)
            y = conv3d(x, kernels, **kwargs)
            if x.shape[0] == 3:
                conv1_calls.append((y.shape[1], bands[-1],
                                    len(splits) - before))
            return y

        def counted(self, m, workers):
            cut = band_rows(self, m, workers)
            bands.append(len(cut))
            return cut

        monkeypatch.setattr(tensor, "_SPLIT_MIN_BYTES", gate)
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(tensor, "_on_two_workers",
                            lambda *a: splits.append(a) or split(*a))
        monkeypatch.setattr(tensor, "conv3d", logged)
        monkeypatch.setattr(tensor._Im2col, "bands", counted)
    n = 1 if threads == 1 else tensor.blas_thread_count()
    with tensor.blas_threads(n):
        for keep in (convs, [r for r in convs if r not in _POOLED]):
            _check_encoder(shape, 5, keep, {})
    if gate is not None:
        # per run, the oracle's whole cube, then eight one-frame groups
        assert conv1_calls == ([(8, 6, 1)] + [(1, 6, 1)] * 8) * 2


@pytest.mark.parametrize("frames", [2, 4, 8])
def test_conv_stage_groups_of_any_depth_keep_the_bytes(frames):
    # a pool `frames` deep makes groups of `frames` frames; ToI bins of
    # three frames make them lcm(frames, 3) deep: 6, 12 and all 24
    rng = np.random.default_rng(frames)
    x = rng.standard_normal((3, 24, 6, 8)).astype(np.float32)
    kernels = tensor.make_kernels(4, 3, (3, 3, 3), rng)
    y = tensor.relu(tensor.conv3d(x, kernels))
    pool = (frames, 2, 2)
    for toi_shape in ((24 // frames, 2, 2), (8, 2, 2)):
        want = (y, tensor.maxpool3d(y, pool)[0], toi.toi_pool_forward(
            y, toi.full_frame_tube(*y.shape[1:]), toi_shape)[0])
        shape, *got = networks._conv_stage(x, kernels, pool, toi_shape,
                                           keep=True)
        assert shape == y.shape
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_conv_stage_groups_keep_the_bytes_at_depth_24():
    # at depth 24 a group is one frame for conv1 and six for conv2 (pool2's
    # depth 2 and a ToI bin's 3 frames), and conv3b's 12 frames and
    # conv4b's 6 run in groups of two
    shape = (3, 24, 24, 32)
    convs = [r.name for r in networks._encoder_specs(shape)
             if r.kind == "conv"]
    for keep in (convs, ()):
        _check_encoder(shape, 7, keep, _top_down_toi_rows(shape))


@pytest.mark.parametrize("run, shape, message", [
    pytest.param(networks.run_tcnn_table_forward, (3, 12, 48, 64),
                 "input depth 12 is not a multiple of 8", id="top-down-d12"),
    pytest.param(networks.run_tcnn_table_forward, (3, 20, 48, 64),
                 "input depth 20 is not a multiple of 8", id="top-down-d20"),
    pytest.param(networks.run_stcnn_table_forward, (3, 12, 48, 64),
                 "input depth 12 is not a multiple of 8", id="bottom-up-d12"),
    pytest.param(networks.run_stcnn_table_forward, (3, 8, 40, 64),
                 "input height 40 is not a multiple of 16",
                 id="bottom-up-h40"),
    pytest.param(networks.run_stcnn_table_forward, (3, 8, 48, 72),
                 "input width 72 is not a multiple of 16",
                 id="bottom-up-w72")])
def test_reference_forwards_reject_a_shape_before_drawing_a_weight(
        monkeypatch, run, shape, message):
    def refuse(*args):
        raise AssertionError("a weight was drawn")

    monkeypatch.setattr(networks, "_weak_kernels", refuse)
    with pytest.raises(tensor.ShapeError, match=message):
        run(shape, 0)


def test_bottom_up_decoder_holds_no_conv_output_while_concat1_is_built(
        monkeypatch):
    # while concat1 is built, upsample1's output, the conv1 skip and
    # concat1 itself are the only cubes live: no name still holds conv2c's
    # output (3.1 MB here). The forward's own peak is fc6's row block.
    shape = (3, 8, 48, 64)
    rows = dict((r.name, r.out_shape)
                for r in networks.stcnn_table_specs(shape))
    concat1 = (rows["upsample1"][0] + rows["conv1"][0],) + rows["conv1"][1:]
    concatenate, peaks = np.concatenate, []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        out = concatenate(*args, **kwargs)
        if out.shape == concat1:
            peaks.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(np, "concatenate", traced)
    tracemalloc.start()
    try:
        networks.run_stcnn_table_forward(shape, 0)
    finally:
        tracemalloc.stop()
    cubes = sum(int(np.prod(s)) * 4
                for s in (rows["upsample1"], rows["conv1"], concat1))
    assert len(peaks) == 1 and peaks[0] < cubes + 2**20


@pytest.mark.parametrize("threads", [1, "default"])
def test_fc_forward_keeps_the_bytes_of_the_whole_weight(threads):
    # at 8192 -> 4096 OpenBLAS splits the GEMV between threads
    in_n, out_n = 8192, 4096
    assert out_n > networks._FC_ROWS  # more than one row block
    x = np.random.default_rng(3).standard_normal(in_n).astype(np.float32)
    whole_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    n = 1 if threads == 1 else tensor.blas_thread_count()
    with tensor.blas_threads(n):
        want = tensor.fully_connected(
            x, tensor.glorot_uniform((out_n, in_n), whole_rng, in_n, out_n),
            np.zeros(out_n, dtype=np.float32))
        got = networks._fc_forward(x, out_n, rng)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == whole_rng.bit_generator.state
