"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -v -s`` or in captured output on failure) and asserts the stated
bar. The end-to-end tests train the desk-scale models from scratch, so the
module takes tens of minutes; everything is seeded and deterministic.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tubenet import tensor as tz
from tubenet.cli import main as cli_main
from tubenet.harness import RunConfig, run_eval, run_segment, train_stcnn
from tubenet.linking import (TubeProposal, brute_force_link, link_top_k)
from tubenet.metrics import (Detection, contour_f, frame_map, iou_box,
                             iou_mask, roc_auc, temporal_stability, tube_iou,
                             video_map)
from tubenet.networks import (run_stcnn_table_forward, run_tcnn_table_forward,
                              stcnn_table_specs, tcnn_table_specs)
from tubenet.segmentation import SegMask, segmentation_loss
from tubenet.toi import Box, Tube, toi_pool_backward, toi_pool_forward
from tubenet.upsample import (UpscaleFactors, channel_to_spacedepth,
                              channel_to_spacedepth_backward)


def _report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n} failed: {detail}"


def _rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    return np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(numeric), 1e-12)


# ----------------------------------------------------------------------
# 1. gradient oracles

def _spread_values(rng, shape):
    """Random values with pairwise gaps far above the finite-diff epsilon,
    so argmax selections cannot flip under perturbation."""
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * 1e-2).reshape(shape)


def test_criterion_1_gradient_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    instances = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)

        # 3-D convolution: input, weight, and bias gradients
        x = rng.standard_normal((2, 3, 4, 5))
        k = tz.make_kernels(3, 2, (3, 3, 3), rng)
        gy = rng.standard_normal(tz.conv3d_out_shape(x.shape, k))
        gx, gw, gb = tz.conv3d_backward(gy, x, k)
        worst = max(worst, _rel_err(gx, tz.finite_diff_grad(
            lambda v: float((tz.conv3d(v, k) * gy).sum()), x)))
        worst = max(worst, _rel_err(gw, tz.finite_diff_grad(
            lambda w: float((tz.conv3d(
                x, tz.KernelSet(w, k.bias)) * gy).sum()), k.weights)))
        worst = max(worst, _rel_err(gb, tz.finite_diff_grad(
            lambda b: float((tz.conv3d(
                x, tz.KernelSet(k.weights, b)) * gy).sum()), k.bias)))
        instances += 1

        # max pooling
        x = _spread_values(rng, (2, 4, 6, 6))
        _, amap = tz.maxpool3d(x, (2, 2, 2))
        gy = rng.standard_normal((2, 2, 3, 3))
        gx = tz.maxpool3d_backward(gy, amap)
        worst = max(worst, _rel_err(gx, tz.finite_diff_grad(
            lambda v: float((tz.maxpool3d(v, (2, 2, 2))[0] * gy).sum()), x)))
        instances += 1

        # tube-of-interest pooling over a variable-size tube
        x = _spread_values(rng, (2, 4, 8, 9))
        tube = Tube((Box(0, 0, 8, 7), Box(1, 2, 6, 6),
                     Box(0, 1, 5, 5), Box(2, 0, 8, 4)))
        _, amap = toi_pool_forward(x, tube, (2, 3, 3))
        gy = rng.standard_normal((2, 2, 3, 3))
        gx = toi_pool_backward(gy, amap)
        worst = max(worst, _rel_err(gx, tz.finite_diff_grad(
            lambda v: float(
                (toi_pool_forward(v, tube, (2, 3, 3))[0] * gy).sum()), x)))
        instances += 1

        # per-pixel two-class segmentation loss
        logits = rng.standard_normal((2, 3, 5, 6))
        masks = [SegMask(rng.random((5, 6)) > 0.5) for _ in range(3)]
        _, grad = segmentation_loss(logits, masks)
        worst = max(worst, _rel_err(grad, tz.finite_diff_grad(
            lambda v: segmentation_loss(v, masks)[0], logits)))
        instances += 1

        # channel-to-space/depth permutation (linear: backward is adjoint)
        p = UpscaleFactors(2, 2, 2)
        x = rng.standard_normal((8, 2, 3, 3))
        gy = rng.standard_normal((1, 4, 6, 6))
        gx = channel_to_spacedepth_backward(gy, p)
        worst = max(worst, _rel_err(gx, tz.finite_diff_grad(
            lambda v: float((channel_to_spacedepth(v, p) * gy).sum()), x)))
        instances += 1

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and instances >= 20 and elapsed < 60.0
    _report(1, ok, f"({instances} instances, worst rel err {worst:.2e}, "
                   f"{elapsed:.1f}s)")


# ----------------------------------------------------------------------
# 2. shape fidelity of the full-scale reference forwards

def test_criterion_2_shape_fidelity():
    bad = []
    times = {}
    for label, runner, specs in (
            ("top-down", run_tcnn_table_forward, tcnn_table_specs),
            ("bottom-up", run_stcnn_table_forward, stcnn_table_specs)):
        t0 = time.perf_counter()
        rows, shapes = runner()
        times[label] = time.perf_counter() - t0
        got = dict(shapes)
        for r in specs():
            if r.name not in got:
                bad.append((label, r.name, r.out_shape, "missing"))
            elif tuple(got[r.name]) != tuple(r.out_shape):
                bad.append((label, r.name, r.out_shape, got[r.name]))
    ok = not bad and all(t < 300.0 for t in times.values())
    _report(2, ok, f"(top-down {times.get('top-down', 0):.0f}s, "
                   f"bottom-up {times.get('bottom-up', 0):.0f}s, "
                   f"mismatches {bad})")


# ----------------------------------------------------------------------
# 3. sub-pixel channel permutation is a bijection

def _gather_oracle(expanded, p):
    """Independent elementwise reconstruction of the HR cube."""
    ce, d, h, w = expanded.shape
    c_out = ce // p.volume
    table = p.offset_table()
    hr = np.empty((c_out, p.p_d * d, p.p_h * h, p.p_w * w), expanded.dtype)
    for c in range(c_out):
        for i in range(p.p_d * d):
            for j in range(p.p_h * h):
                for k in range(p.p_w * w):
                    off = table[i % p.p_d, j % p.p_h, k % p.p_w]
                    hr[c, i, j, k] = expanded[c * p.volume + off,
                                              i // p.p_d, j // p.p_h,
                                              k // p.p_w]
    return hr


def test_criterion_3_subpixel_bijectivity():
    checked = 0
    for pd, ph, pw in itertools.product((1, 2), repeat=3):
        if pd > pw:
            continue
        p = UpscaleFactors(pd, ph, pw)
        for c in range(1, 9):
            for d, h, w in itertools.product((1, 2, 3, 4), repeat=3):
                x = np.arange(c * p.volume * d * h * w).reshape(
                    (c * p.volume, d, h, w))
                hr = channel_to_spacedepth(x, p)
                # bijection: the HR cube is a permutation of the input
                assert sorted(hr.ravel()) == list(range(x.size))
                # and the backward map inverts it exactly
                assert np.array_equal(channel_to_spacedepth_backward(hr, p), x)
                checked += 1

    # reference figure case: 8x4x4x4 expanded cube -> 1x8x8x8
    p = UpscaleFactors(2, 2, 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 4, 4, 4))
    hr = channel_to_spacedepth(x, p)
    ok = hr.shape == (1, 8, 8, 8) and np.array_equal(hr, _gather_oracle(x, p))
    _report(3, ok, f"({checked} exhaustive shape/factor cases + gather check)")


# ----------------------------------------------------------------------
# 4. linking equals brute force

def test_criterion_4_linking_matches_brute_force():
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        per_clip = []
        for ci in range(m):
            n = int(rng.integers(1, 5))
            props = []
            for _ in range(n):
                x1, y1 = rng.uniform(0, 20, 2)
                bw, bh = rng.uniform(2, 15, 2)
                boxes = tuple(Box(x1, y1, x1 + bw, y1 + bh)
                              for _ in range(8))
                props.append(TubeProposal(ci, Tube(boxes),
                                          float(rng.random())))
            per_clip.append(props)
        k = int(rng.integers(1, 11))
        fast = link_top_k(per_clip, k)
        slow = brute_force_link(per_clip, k)
        if len(fast) != len(slow):
            mismatches += 1
            continue
        for a, b in zip(fast, slow):
            if a.proposals != b.proposals or \
                    abs(a.score - b.score) > 1e-9:
                mismatches += 1
                break

    # three clips with two proposals each enumerate exactly 2^3 sequences
    per_clip = [[TubeProposal(ci, Tube(tuple(Box(0, 0, 4, 4)
                                             for _ in range(8))), 0.5),
                 TubeProposal(ci, Tube(tuple(Box(5, 5, 9, 9)
                                             for _ in range(8))), 0.4)]
                for ci in range(3)]
    eight = link_top_k(per_clip, 100)
    ok = mismatches == 0 and len(eight) == 8
    _report(4, ok, f"(200 random instances, {mismatches} mismatches, "
                   f"enumeration size {len(eight)})")


# ----------------------------------------------------------------------
# 5. metric oracles

def _oracle_ap(dets, gts, match_iou, alpha):
    """Greedy confidence-ordered matching, AP as area under the
    precision envelope at each recall step."""
    dets = sorted(dets, key=lambda d: -d.confidence)
    taken = [False] * len(gts)
    tp = []
    for d in dets:
        best, best_iou = None, alpha
        for gi, g in enumerate(gts):
            if taken[gi]:
                continue
            v = match_iou(d, g)
            if v >= best_iou:
                best, best_iou = gi, v
        if best is not None:
            taken[best] = True
            tp.append(1)
        else:
            tp.append(0)
    if not gts:
        return 0.0
    ap, hits = 0.0, 0
    for i, t in enumerate(tp):
        if t:
            hits += 1
            ap += hits / (i + 1)
    return ap / len(gts)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(30):
        n_det = int(rng.integers(1, 11))
        gts = []
        for f in range(3):
            x1, y1 = rng.uniform(0, 20, 2)
            gts.append({"video": 0, "frame": f, "cls": 1,
                        "box": Box(x1, y1, x1 + rng.uniform(4, 12),
                                   y1 + rng.uniform(4, 12))})
        dets = []
        for _ in range(n_det):
            g = gts[int(rng.integers(0, 3))]
            jit = rng.uniform(-3, 3, 2)
            b = g["box"]
            dets.append(Detection(
                video=0, cls=1, confidence=float(rng.random()),
                frame=g["frame"],
                box=Box(max(0.0, b.x1 + jit[0]), max(0.0, b.y1 + jit[1]),
                        b.x2 + jit[0] + 1, b.y2 + jit[1] + 1)))
        got, _ = frame_map(dets, gts, alpha=0.5)
        want = _oracle_ap(
            dets, gts,
            lambda d, g: iou_box(d.box, g["box"])
            if d.frame == g["frame"] else 0.0, 0.5)
        worst = max(worst, abs(got - want))

        tube_gt = [{"video": 0, "cls": 1,
                    "tube": {f: g["box"] for f, g in enumerate(gts)}}]
        tube_det = [Detection(video=0, cls=1, confidence=0.9,
                              tube={f: d.box for f, d in enumerate(dets[:3])})]
        got_v, _ = video_map(tube_det, tube_gt, alpha=0.3)
        want_v = _oracle_ap(
            tube_det, tube_gt,
            lambda d, g: tube_iou(d.tube, g["tube"]), 0.3)
        worst = max(worst, abs(got_v - want_v))

    # ROC hand oracle: perfect detector covers every frame
    gts = [{"video": 0, "frame": f, "cls": 1, "box": Box(2, 2, 10, 10)}
           for f in range(4)]
    dets = [Detection(video=0, cls=1, confidence=0.9, frame=f,
                      box=Box(2, 2, 10, 10)) for f in range(4)]
    _, auc = roc_auc(dets, gts, alpha=0.5)
    worst = max(worst, abs(auc - 1.0))

    # J/F/T identities
    bits = np.zeros((24, 32), dtype=bool)
    bits[4:16, 6:20] = True
    m = SegMask(bits)
    ident = (iou_mask(m, m) == 1.0 and contour_f(m, m) == 1.0
             and temporal_stability([m, m, m]) == 0.0)
    ok = worst <= 1e-12 and ident
    _report(5, ok, f"(worst oracle gap {worst:.2e}, identities {ident})")


# ----------------------------------------------------------------------
# 6/8. desk-scale end-to-end via the CLI, twice for determinism

def _run_pipeline(ws, sets):
    args = []
    for kv in sets:
        args += ["--set", kv]
    for verb in ("gen", "train-tcnn", "train-stcnn", "detect",
                 "segment", "eval"):
        cli_main([verb, "--set", f"data_dir={ws / 'data'}",
                  "--set", f"out_dir={ws / 'out'}"] + args)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    ws = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    _run_pipeline(ws, [])
    elapsed = time.perf_counter() - t0
    cfg = RunConfig.load(overrides={"data_dir": str(ws / "data"),
                                    "out_dir": str(ws / "out")})
    report = run_eval(cfg)
    return ws, elapsed, report


def test_criterion_6_desk_scale_quality(desk_run):
    _, elapsed, report = desk_run
    fmap = report["frame_map"]
    jmean = report["J_mean"]
    ok = fmap >= 0.80 and jmean >= 0.70 and elapsed < 1800.0
    _report(6, ok, f"(frame-mAP {fmap:.3f}, J {jmean:.3f}, "
                   f"{elapsed / 60:.1f} min)")


# ----------------------------------------------------------------------
# 7. un-pool ablation direction

def test_criterion_7_unpool_ablation(tmp_path):
    # reduced desk scale: same resolution and pipeline, fewer videos/epochs
    base = {"num_videos": 20, "num_frames": 16, "epochs_seg": 3}
    cli_main(["gen", "--set", f"data_dir={tmp_path / 'data'}"]
             + sum((["--set", f"{k}={v}"] for k, v in base.items()), []))
    means = {}
    for upsampler in ("subpixel", "unpool"):
        js = []
        for seed in range(3):
            out = tmp_path / f"{upsampler}_{seed}"
            cfg = RunConfig.load(overrides={
                **{k: str(v) for k, v in base.items()},
                "data_dir": str(tmp_path / "data"), "out_dir": str(out),
                "seed": str(seed), "upsampler": upsampler})
            train_stcnn(cfg, quiet=True)
            run_segment(cfg)
            report = run_eval(cfg)
            js.append(report["J_mean"])
        means[upsampler] = float(np.mean(js))
    ok = means["unpool"] <= means["subpixel"] + 0.02
    _report(7, ok, f"(sub-pixel J {means['subpixel']:.3f}, "
                   f"un-pool J {means['unpool']:.3f})")


# ----------------------------------------------------------------------
# 8. byte-identical reruns

def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_criterion_8_determinism(tmp_path):
    sets = ["--set", "num_videos=6", "--set", "num_frames=8",
            "--set", "epochs_tpn=1", "--set", "epochs_rec=1",
            "--set", "epochs_refine=1", "--set", "epochs_seg=1"]
    for ws in (tmp_path / "a", tmp_path / "b"):
        ws.mkdir()
        for verb in ("gen", "train-tcnn", "train-stcnn", "detect",
                     "segment", "eval"):
            cli_main([verb, "--set", f"data_dir={ws / 'data'}",
                      "--set", f"out_dir={ws / 'out'}"] + sets)
    a = _tree_bytes(tmp_path / "a")
    b = _tree_bytes(tmp_path / "b")
    same_names = sorted(a) == sorted(b)
    diff = [str(k) for k in a if a[k] != b.get(k)]
    ok = same_names and not diff
    _report(8, ok, f"({len(a)} files compared, differing: {diff[:5]})")


def test_criterion_8_bytes_independent_of_blas_threads(tmp_path):
    # criterion 8's tiny pipeline, once per BLAS thread count, each in a
    # fresh process because OpenBLAS reads the variable when it loads
    sets = ["--set", "num_videos=6", "--set", "num_frames=8",
            "--set", "epochs_tpn=1", "--set", "epochs_rec=1",
            "--set", "epochs_refine=1", "--set", "epochs_seg=1"]
    src = str(Path(tz.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        ws = tmp_path / f"threads_{threads}"
        ws.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        for verb in ("gen", "train-tcnn", "train-stcnn", "detect",
                     "segment", "eval"):
            subprocess.run(
                [sys.executable, "-m", "tubenet.cli", verb,
                 "--set", f"data_dir={ws / 'data'}",
                 "--set", f"out_dir={ws / 'out'}"] + sets,
                env=env, check=True)
    a = _tree_bytes(tmp_path / "threads_1")
    b = _tree_bytes(tmp_path / "threads_2")
    same_names = sorted(a) == sorted(b)
    diff = [str(k) for k in a if a[k] != b.get(k)]
    ok = same_names and not diff
    _report("8 (BLAS threads 1 vs 2)", ok,
            f"({len(a)} files compared, differing: {diff[:5]})")
