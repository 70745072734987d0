"""Run configuration, checkpointing, clip slicing, evaluation, and CLI
plumbing."""

import csv
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubenet
from tubenet.cli import main
from tubenet.harness import (RunConfig, _clips_of, _new_model, _split_videos,
                             eval_detections, load_model_state, load_stcnn,
                             run_eval, run_gen, run_segment, save_model,
                             train_stcnn, train_tcnn)
from tubenet.models import STCNN, TCNN
from tubenet.proposals import Anchor
from tubenet.synth import NUM_CLASSES, load_annotations
from tubenet.tensor import ShapeError


# ----------------------------------------------------------------------
# configuration

def test_config_defaults():
    cfg = RunConfig.load()
    assert cfg.seed == 0
    assert cfg.num_videos == 80
    assert cfg.upsampler == "subpixel"


def test_explicit_overrides_beat_env(monkeypatch, capsys):
    # the command line is the only source: no variable of the caller's
    # environment, spelt right or wrong, and no config file reaches a run
    for name, value in (("TUBENET_SEED", "9"), ("TUBENET_SEEDS", "3"),
                        ("TUBENET_NUM_FRAMES", "4")):
        monkeypatch.setenv(name, value)
    assert RunConfig.load() == RunConfig()
    assert RunConfig.load(overrides={"seed": "11"}) == RunConfig(seed=11)
    with pytest.raises(SystemExit) as err:
        main(["gen", "--config", "f"])
    assert err.value.code == 2
    assert "unrecognized arguments: --config f" in capsys.readouterr().err


def test_unknown_key_rejected():
    with pytest.raises(KeyError):
        RunConfig.load(overrides={"bogus": "1"})
    with pytest.raises(KeyError, match="unknown config key: link_k"):
        RunConfig.load(overrides={"link_k": "10"})


def test_config_type_coercion():
    cfg = RunConfig.load(overrides={"lr": "0.25", "num_videos": "5",
                                    "upsampler": "unpool"})
    assert isinstance(cfg.lr, float) and cfg.lr == 0.25
    assert isinstance(cfg.num_videos, int) and cfg.num_videos == 5
    assert cfg.upsampler == "unpool"


@pytest.mark.parametrize("key, value", [
    ("upsampler", "subpixl"), ("epochs_tpn", "-3"), ("epochs_rec", "-1"),
    ("epochs_refine", "-1"), ("epochs_seg", "-1"), ("mask_threshold", "nan"),
    ("mask_threshold", "inf"), ("mask_threshold", "-0.5"),
    ("mask_threshold", "1.5"), ("num_frames", "4"), ("alpha", "1.5"),
    ("alpha", "0"), ("epochs_tpn", "abc"), ("lr", "fast"),
    ("anchors_k", "0"), ("avg_top_k", "0"), ("height", "8"),
    ("height", "24"), ("width", "20"), ("num_videos", "0"), ("lr", "-1"),
    ("lr", "0"), ("lr_rec", "inf"), ("lr_seg", "nan"), ("seed", "-1"),
    ("height", "40"), ("width", "100")])
def test_config_rejects_bad_value_naming_the_field(key, value):
    with pytest.raises(ValueError, match=f"^config {key}="):
        RunConfig.load(overrides={key: value})


def test_config_accepts_boundary_values():
    cfg = RunConfig.load(overrides={
        "mask_threshold": "0", "num_frames": "8",
        "epochs_tpn": "0", "epochs_rec": "0", "epochs_refine": "0",
        "epochs_seg": "0", "upsampler": "unpool",
        "anchors_k": "1", "avg_top_k": "1", "height": "32", "width": "32",
        "num_videos": "1", "seed": "0"})
    assert (cfg.mask_threshold, cfg.num_frames) == (0.0, 8)
    assert (cfg.anchors_k, cfg.avg_top_k) == (1, 1)
    assert (cfg.height, cfg.width, cfg.num_videos, cfg.seed) == (32, 32, 1, 0)
    assert RunConfig.load(overrides={"mask_threshold": "1"}).mask_threshold \
        == 1.0


def test_stcnn_rejects_unknown_upsampler():
    with pytest.raises(ValueError, match="upsampler 'subpixl'"):
        STCNN(2, (48, 64), upsampler="subpixl")


def test_stcnn_rejects_a_frame_size_its_decoder_cannot_restore():
    for hw in [(30, 30), (40, 56), (80, 100)]:
        with pytest.raises(ShapeError, match=rf"^frame size \({hw[0]}, "
                                             rf"{hw[1]}\): .* multiples of"):
            STCNN(2, hw)


# ----------------------------------------------------------------------
# clip slicing

def test_clips_of_exact_multiple():
    frames = np.arange(3 * 16 * 4 * 4, dtype=np.float32).reshape(3, 16, 4, 4)
    clips = _clips_of(frames)
    assert len(clips) == 2
    assert np.array_equal(clips[0], frames[:, :8])
    assert np.array_equal(clips[1], frames[:, 8:])


def test_clips_of_pads_tail_with_zeros():
    frames = np.ones((3, 11, 4, 4), dtype=np.float32)
    clips = _clips_of(frames)
    assert len(clips) == 2
    assert clips[1].shape == (3, 8, 4, 4)
    assert np.array_equal(clips[1][:, :3], frames[:, 8:])
    assert not clips[1][:, 3:].any()
    # the pad takes the channel count of the frames
    assert _clips_of(np.ones((2, 11, 4, 4)))[1].shape == (2, 8, 4, 4)


# ----------------------------------------------------------------------
# checkpoints

def _tiny_tcnn():
    return TCNN(2, [Anchor(20.0, 16.0), Anchor(12.0, 24.0)],
                (80, 112), seed=5)


def test_model_checkpoint_roundtrip(tmp_path):
    model = _tiny_tcnn()
    save_model(model, tmp_path / "m")
    assert (tmp_path / "m" / "manifest.txt").exists()
    flat = load_model_state(tmp_path / "m")
    want = model.flat_state()
    assert set(flat) == set(want)
    for name in want:
        assert flat[name].shape == np.asarray(want[name]).shape
        np.testing.assert_array_equal(
            flat[name], np.asarray(want[name], dtype=np.float32))


def test_checkpoint_restores_behaviour(tmp_path):
    model = _tiny_tcnn()
    rng = np.random.default_rng(0)
    clip = rng.random((3, 8, 80, 112)).astype(np.float32)
    _, logits = model.encode_clip(clip)
    save_model(model, tmp_path / "m")
    fresh = _tiny_tcnn()
    # perturb, then restore from disk
    for arr in fresh.flat_state().values():
        np.asarray(arr)[...] += 1.0
    fresh.load_flat_state(load_model_state(tmp_path / "m"))
    _, logits2 = fresh.encode_clip(clip)
    np.testing.assert_allclose(logits2, logits, rtol=1e-6)


def test_stcnn_checkpoint_roundtrip(tmp_path):
    model = STCNN(2, (80, 112), seed=3)
    save_model(model, tmp_path / "s")
    flat = load_model_state(tmp_path / "s")
    want = model.flat_state()
    assert set(flat) == set(want)
    for name in want:
        np.testing.assert_array_equal(
            flat[name], np.asarray(want[name], dtype=np.float32))


# ----------------------------------------------------------------------
# CLI

def test_cli_requires_verb(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_malformed_set():
    with pytest.raises(SystemExit):
        main(["gen", "--set", "notakeyvalue"])


def test_cli_gen_writes_dataset(tmp_path, capsys):
    rc = main(["gen", "--set", f"data_dir={tmp_path / 'd'}",
               "--set", "num_videos=2", "--set", "num_frames=8",
               "--set", "height=48", "--set", "width=64"])
    assert rc == 0
    assert (tmp_path / "d" / "annotations.csv").exists()
    assert (tmp_path / "d" / "videos" / "001" / "frame_0007.t4").exists()
    assert "wrote dataset" in capsys.readouterr().out


@pytest.mark.parametrize("item, message", [
    ("bogus=1", "unknown config key: bogus"),
    ("seed=-1", "config seed=-1: must be >= 0"),
    ("num_frames=x", "config num_frames='x': not a valid int")],
    ids=["unknown", "invalid", "unparsed"])
def test_cli_bad_set_ends_in_one_line_naming_the_key(tmp_path, item,
                                                     message):
    with pytest.raises(SystemExit) as err:
        main(["gen", "--set", f"data_dir={tmp_path / 'd'}", "--set", item])
    assert err.value.code == message
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("fault", ["shape", "short", "missing",
                                   "model shape"])
def test_bad_checkpoint_names_manifest_line_and_parameter(tmp_path, fault):
    cfg = RunConfig(data_dir=str(tmp_path / "data"),
                    out_dir=str(tmp_path / "out"), num_videos=2,
                    num_frames=8, height=48, width=64)
    run_gen(cfg)
    ckpt = tmp_path / "out" / "stcnn_model"
    save_model(_new_model("stcnn", cfg, load_annotations(cfg.data_dir)), ckpt)
    manifest = ckpt / "manifest.txt"
    lines = manifest.read_text().splitlines()
    # a bias two dots deep: its shape is (channels,)
    i = next(i for i, line in enumerate(lines)
             if line.startswith("encoder.") and line.split()[0].endswith(".b"))
    name, shape, fname = lines[i].split()
    (channels,) = map(int, shape.split(","))
    if fault == "shape":
        lines[i] = f"{name} 9,9 {fname}"
    elif fault == "short":
        lines[i] = f"{name} {shape}"
    elif fault == "missing":
        del lines[i]
    else:  # fits the file, not the model
        lines[i] = f"{name} 2,{channels // 2} {fname}"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_stcnn(cfg)
    msg = str(err.value)
    assert msg.startswith(f"{manifest}:")
    assert name in msg
    if fault in ("shape", "short"):
        assert msg.startswith(f"{manifest}:{i + 1}: ")


def test_commands_but_eval_run_without_scipy(tmp_path):
    # a fresh process: this one has scipy loaded by the metric tests
    src = str(Path(tubenet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["gen", "--set", f"data_dir={tmp_path / 'data'}",
            "--set", "num_videos=2", "--set", "num_frames=8",
            "--set", "height=48", "--set", "width=64"]
    code = ("import sys, tubenet, tubenet.cli\n"
            f"tubenet.cli.main({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert (tmp_path / "data" / "videos" / "000").exists()


# ----------------------------------------------------------------------
# videos whose length is not a multiple of the 8-frame clip

def test_train_tcnn_and_detect_on_20_frame_videos(tmp_path):
    sets = {"data_dir": tmp_path / "data", "out_dir": tmp_path / "out",
            "num_videos": 4, "num_frames": 20, "height": 48, "width": 64,
            "epochs_tpn": 1, "epochs_rec": 1, "epochs_refine": 1}
    args = sum((["--set", f"{k}={v}"] for k, v in sets.items()), [])
    for verb in ("gen", "train-tcnn", "detect"):
        assert main([verb] + args) == 0
    with open(tmp_path / "out" / "tcnn_loss.csv") as fh:
        phases = [line.split(",")[1] for line in list(fh)[1:]]
    assert "rec" in phases
    with open(tmp_path / "out" / "detections" / "detections.csv") as fh:
        rows = [line.split(",") for line in list(fh)[1:]]
    by_tube = {}
    for video, rank, *_, frame, _x1, _y1, _x2, _y2 in rows:
        by_tube.setdefault((video, rank), []).append(int(frame))
    assert by_tube
    assert all(frames == list(range(20)) for frames in by_tube.values())


def test_run_segment_one_stcnn_forward_per_clip(tmp_path, monkeypatch):
    cfg = RunConfig(data_dir=str(tmp_path / "data"),
                    out_dir=str(tmp_path / "out"), num_videos=3,
                    num_frames=16, height=48, width=64)
    run_gen(cfg)
    ann = load_annotations(cfg.data_dir)
    save_model(_new_model("stcnn", cfg, ann), tmp_path / "out" / "stcnn_model")
    test_vids = _split_videos(ann, "test")
    calls = []
    forward = STCNN.forward

    def counting(self, frames):
        calls.append(frames.shape)
        return forward(self, frames)

    monkeypatch.setattr(STCNN, "forward", counting)
    rows = run_segment(cfg)
    assert len(rows) == len(test_vids) == 1
    assert len(calls) == 2  # two 8-frame clips, one forward each
    masks = sorted((tmp_path / "out" / "segmentations"
                    / f"{test_vids[0]:03d}").glob("*.sm"))
    assert len(masks) == 16


# ----------------------------------------------------------------------
# evaluation

def _ground_truth_as_predictions(tmp_path):
    """A dataset whose test videos have their ground-truth masks written
    as the predicted segmentations."""
    cfg = RunConfig(data_dir=str(tmp_path / "data"),
                    out_dir=str(tmp_path / "out"), num_videos=5,
                    num_frames=8, height=48, width=64)
    run_gen(cfg)
    vids = _split_videos(load_annotations(cfg.data_dir), "test")
    for vid in vids:
        shutil.copytree(tmp_path / "data" / "masks" / f"{vid:03d}",
                        tmp_path / "out" / "segmentations" / f"{vid:03d}")
    return cfg, vids


def test_eval_of_ground_truth_masks(tmp_path):
    cfg, _ = _ground_truth_as_predictions(tmp_path)
    report = run_eval(cfg)
    assert report["J_mean"] == report["F_mean"] == 1.0
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # no detections: no per-class AP, and zero mAP, true-label mAP,
    # video-mAP and AUC
    assert rows[:5] == [["class", "ap"], ["mAP", "0.000000"],
                        ["mAP_true_label", "0.000000"],
                        ["video_mAP", "0.000000"], ["AUC", "0.000000"]]
    assert [r[0] for r in rows[5:]] == ["J_mean", "J_recall", "J_decay",
                                        "F_mean", "F_recall", "F_decay",
                                        "T_mean", "label_accuracy"]
    assert rows[5][1] == f"{1.0:.6f}"
    assert rows[11][1] == f"{report['T_mean']:.6f}"
    # no labels.csv: no video's label is right
    assert rows[12][1] == f"{0.0:.6f}"


def test_eval_of_a_dataset_without_test_videos_names_its_annotations(
        tmp_path):
    # two videos pass the config checks, but both fall in the train split
    cfg = RunConfig(data_dir=str(tmp_path / "data"),
                    out_dir=str(tmp_path / "out"), num_videos=2,
                    num_frames=8, height=48, width=64)
    run_gen(cfg)
    (tmp_path / "out" / "segmentations").mkdir(parents=True)
    with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / 'data' / 'annotations.csv'}: no test video")):
        run_eval(cfg)


@pytest.mark.parametrize("drop", [1, 8])
def test_eval_rejects_a_short_mask_set_naming_the_directory(tmp_path, drop):
    cfg, vids = _ground_truth_as_predictions(tmp_path)
    vdir = tmp_path / "out" / "segmentations" / f"{vids[-1]:03d}"
    for path in sorted(vdir.glob("*.sm"))[-drop:]:
        path.unlink()
    with pytest.raises(ValueError, match=re.escape(
            f"{vdir}: {8 - drop} predicted masks for 8 ground-truth frames")):
        run_eval(cfg)


def _corrupt_csv(path, corruption, column):
    """Drop `column` from every line of the CSV at `path`, write `abc` as
    its value on line 2, or drop line 2's last field; returns the error
    message a reader must give."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    header = lines[0]
    i = header.index(column)
    if corruption == "column":
        for fields in lines:
            del fields[i]
        want = f"{path}:1: no column {column!r}"
    elif corruption == "value":
        lines[1][i] = "abc"
        kind = "an integer" if column in ("frame", "label") else "a number"
        want = f"{path}:2: {column} 'abc' is not {kind}"
    else:
        del lines[1][-1]
        want = (f"{path}:2: {len(header) - 1} fields, but the header has "
                f"{len(header)}")
    path.write_text("\n".join(",".join(fields) for fields in lines) + "\n")
    return want


@pytest.mark.parametrize("corruption", ["column", "value", "count"])
@pytest.mark.parametrize("csv_file, column", [
    ("data/annotations.csv", "y2"),
    ("out/detections/detections.csv", "frame"),
    ("out/segmentations/labels.csv", "label")])
def test_eval_names_the_line_and_field_of_a_bad_csv(tmp_path, csv_file,
                                                    column, corruption):
    # every file eval reads is whole (the ground truth as the detections
    # and the masks, the true labels), then one of them is corrupted
    cfg, vids = _ground_truth_as_predictions(tmp_path)
    ann = load_annotations(cfg.data_dir)
    lines = ["video,rank,label,confidence,frame,x1,y1,x2,y2"]
    for vid in vids:
        for f, b in enumerate(ann[vid]["boxes"]):
            lines.append(",".join(map(str, (vid, 0, ann[vid]["label"], 0.5,
                                            f) + b.astuple())))
    (tmp_path / "out" / "detections").mkdir()
    (tmp_path / "out" / "detections" / "detections.csv").write_text(
        "\n".join(lines) + "\n")
    (tmp_path / "out" / "segmentations" / "labels.csv").write_text(
        "video,label,confidence\n" + "".join(
            f"{vid},{ann[vid]['label']},0.5\n" for vid in vids))
    want = _corrupt_csv(tmp_path / csv_file, corruption, column)
    with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
        run_eval(cfg)


def test_eval_scores_each_rank_as_its_own_tube(tmp_path):
    # two kept sequences per video with the same label and confidence: the
    # first on the ground truth, the second far from it
    cfg, vids = _ground_truth_as_predictions(tmp_path)
    ann = load_annotations(cfg.data_dir)
    lines = ["video,rank,label,confidence,frame,x1,y1,x2,y2"]
    for vid in vids:
        label = ann[vid]["label"]
        for rank in (0, 1):
            for f, b in enumerate(ann[vid]["boxes"]):
                box = b.astuple() if rank == 0 else (60.0, 44.0, 63.0, 47.0)
                lines.append(",".join(map(str, (vid, rank, label, 0.5, f)
                                          + tuple(box))))
    (tmp_path / "out" / "detections").mkdir()
    (tmp_path / "out" / "detections" / "detections.csv").write_text(
        "\n".join(lines) + "\n")
    report = eval_detections(cfg)
    # each ground-truth tube is matched by rank 0; merged into one tube,
    # rank 1's boxes would overwrite it and match nothing
    assert report["video_map"] == 1.0


def test_eval_splits_a_wrong_label_from_its_boxes(tmp_path):
    # every test video's ground-truth boxes, each under another class
    cfg, vids = _ground_truth_as_predictions(tmp_path)
    ann = load_annotations(cfg.data_dir)
    lines = ["video,rank,label,confidence,frame,x1,y1,x2,y2"]
    for vid in vids:
        wrong = ann[vid]["label"] % NUM_CLASSES + 1
        for f, b in enumerate(ann[vid]["boxes"]):
            lines.append(",".join(map(str, (vid, 0, wrong, 0.5, f)
                                      + b.astuple())))
    (tmp_path / "out" / "detections").mkdir()
    (tmp_path / "out" / "detections" / "detections.csv").write_text(
        "\n".join(lines) + "\n")
    report = eval_detections(cfg)
    assert report["frame_map"] == 0.0
    assert report["frame_map_true_label"] == 1.0


@pytest.mark.parametrize("train", [train_tcnn, train_stcnn])
def test_training_rejects_a_video_short_of_its_rows(tmp_path, train):
    cfg = RunConfig(data_dir=str(tmp_path / "data"),
                    out_dir=str(tmp_path / "out"), num_videos=4,
                    num_frames=16, height=48, width=64, epochs_tpn=1,
                    epochs_rec=1, epochs_refine=1, epochs_seg=1)
    run_gen(cfg)
    # every video lacks its last frame file, so the first load fails
    for path in (tmp_path / "data" / "videos").glob("*/frame_0015.t4"):
        path.unlink()
    with pytest.raises(ValueError, match=re.escape(
            "15 .t4 files for frames 0..15: missing ['frame_0015.t4']")):
        train(cfg, quiet=True)
