"""Synthetic dataset generator: determinism, geometry, on-disk layout."""

import re

import numpy as np
import pytest

from tubenet.segmentation import load_mask
from tubenet.synth import (NUM_CLASSES, SyntheticSpec, gen_dataset,
                           load_annotations, load_video_frames,
                           load_video_masks, render_video)

SMALL = SyntheticSpec(num_videos=8, num_frames=12, height=48, width=64,
                      min_actor=10, max_actor=16, seed=7)


def test_render_video_shapes():
    frames, masks, boxes, cls = render_video(SMALL, 0)
    assert frames.shape == (12, 3, 48, 64)
    assert frames.dtype == np.float32
    assert len(masks) == len(boxes) == 12
    assert cls == 1


def test_class_cycles_with_index():
    classes = [render_video(SMALL, i)[3] for i in range(8)]
    assert classes == [1, 2, 3, 4, 1, 2, 3, 4]
    assert max(classes) == NUM_CLASSES


def test_render_is_deterministic():
    a = render_video(SMALL, 3)[0]
    b = render_video(SMALL, 3)[0]
    assert np.array_equal(a, b)


def test_different_indices_differ():
    a = render_video(SMALL, 0)[0]
    b = render_video(SMALL, 4)[0]  # same class, different rng stream
    assert not np.array_equal(a, b)


def test_mask_matches_box_exactly():
    _, masks, boxes, _ = render_video(SMALL, 2)
    for m, b in zip(masks, boxes):
        ys, xs = np.nonzero(m.bits)
        assert (xs.min(), ys.min(), xs.max(), ys.max()) == \
            (b.x1, b.y1, b.x2, b.y2)
        # the actor region is solid
        assert m.bits[int(b.y1):int(b.y2) + 1,
                      int(b.x1):int(b.x2) + 1].all()


def test_actor_brighter_than_background():
    frames, masks, _, _ = render_video(SMALL, 1)
    inside = frames[0][:, masks[0].bits].mean()
    outside = frames[0][:, ~masks[0].bits].mean()
    assert inside > outside + 0.2


def test_horizontal_sweep_monotone_x():
    _, _, boxes, cls = render_video(SMALL, 0)
    assert cls == 1
    xs = [b.x1 for b in boxes]
    assert xs == sorted(xs) and xs[-1] > xs[0]
    assert len({b.y1 for b in boxes}) == 1


def test_vertical_sweep_monotone_y():
    _, _, boxes, cls = render_video(SMALL, 1)
    assert cls == 2
    ys = [b.y1 for b in boxes]
    assert ys == sorted(ys) and ys[-1] > ys[0]
    assert len({b.x1 for b in boxes}) == 1


def test_diagonal_sweep_moves_both_axes():
    _, _, boxes, cls = render_video(SMALL, 2)
    assert cls == 3
    assert boxes[-1].x1 > boxes[0].x1
    assert boxes[-1].y1 > boxes[0].y1


def test_oscillation_revisits_center():
    spec = SyntheticSpec(num_videos=4, num_frames=17, height=48, width=64,
                         min_actor=10, max_actor=12, seed=1)
    _, _, boxes, cls = render_video(spec, 3)
    assert cls == 4
    xs = [b.x1 for b in boxes]
    # period-8 motion: one full cycle returns to the starting column
    assert xs[8] == xs[0] and xs[16] == xs[0]
    assert max(xs) > min(xs)


def test_gen_dataset_layout(tmp_path):
    rows = gen_dataset(SMALL, tmp_path)
    assert len(rows) == SMALL.num_videos * SMALL.num_frames
    assert (tmp_path / "annotations.csv").exists()
    assert (tmp_path / "videos" / "000" / "frame_0000.t4").exists()
    assert (tmp_path / "masks" / "007" / "frame_0011.sm").exists()


def test_gen_dataset_byte_identical(tmp_path):
    gen_dataset(SMALL, tmp_path / "a")
    gen_dataset(SMALL, tmp_path / "b")
    a_files = sorted((tmp_path / "a").rglob("*"))
    b_files = sorted((tmp_path / "b").rglob("*"))
    assert [p.name for p in a_files if p.is_file()] == \
        [p.name for p in b_files if p.is_file()]
    for pa, pb in zip(a_files, b_files):
        if pa.is_file():
            assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_train_test_split_fraction(tmp_path):
    gen_dataset(SMALL, tmp_path)
    ann = load_annotations(tmp_path)
    splits = [e["split"] for _, e in sorted(ann.items())]
    n_train = int(round(SMALL.num_videos * SMALL.train_fraction))
    assert splits == ["train"] * n_train + ["test"] * (8 - n_train)


def test_annotations_roundtrip(tmp_path):
    gen_dataset(SMALL, tmp_path)
    ann = load_annotations(tmp_path)
    for idx in range(SMALL.num_videos):
        _, _, boxes, cls = render_video(SMALL, idx)
        assert ann[idx]["label"] == cls
        assert len(ann[idx]["boxes"]) == SMALL.num_frames
        for want, got in zip(boxes, ann[idx]["boxes"]):
            assert (got.x1, got.y1, got.x2, got.y2) == \
                (want.x1, want.y1, want.x2, want.y2)


def test_load_video_frames_roundtrip(tmp_path):
    gen_dataset(SMALL, tmp_path)
    frames = load_video_frames(tmp_path, 5)
    want, _, _, _ = render_video(SMALL, 5)
    assert frames.shape == (3, 12, 48, 64)
    assert np.array_equal(frames, want.transpose(1, 0, 2, 3))


def test_load_video_masks_roundtrip(tmp_path):
    gen_dataset(SMALL, tmp_path)
    masks = load_video_masks(tmp_path, 6)[:5]
    _, want, _, _ = render_video(SMALL, 6)
    assert len(masks) == 5
    for got, w in zip(masks, want):
        assert np.array_equal(got.bits, w.bits)


def test_mask_files_decode(tmp_path):
    gen_dataset(SMALL, tmp_path)
    bits = load_mask(tmp_path / "masks" / "000" / "frame_0000.sm")
    assert bits.shape == (48, 64)
    assert bits.any() and not bits.all()


@pytest.mark.parametrize("edit, error", [
    ("delete", "video 0 has no row for frame 5"),
    ("repeat", "video 0 has two rows for frame 5")])
def test_annotations_hold_each_frame_once(tmp_path, edit, error):
    gen_dataset(SMALL, tmp_path)
    path = tmp_path / "annotations.csv"
    lines = path.read_text().splitlines()
    # the header, then video 0's frames 0..11
    assert lines[6].startswith("0,5,")
    lines[6:7] = [] if edit == "delete" else [lines[6]] * 2
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
        load_annotations(tmp_path)


@pytest.mark.parametrize("loader, kind, suffix", [
    (load_video_frames, "videos", "t4"), (load_video_masks, "masks", "sm")])
def test_video_directory_without_frames_is_named(tmp_path, loader, kind,
                                                 suffix):
    gen_dataset(SMALL, tmp_path)
    vdir = tmp_path / kind / "003"
    for path in vdir.iterdir():
        path.unlink()
    with pytest.raises(ValueError, match=re.escape(
            f"{vdir}: no frame_*.{suffix} files")):
        loader(tmp_path, 3)


@pytest.mark.parametrize("corruption", ["last deleted", "renamed", "extra"])
@pytest.mark.parametrize("loader, kind, suffix", [
    (load_video_frames, "videos", "t4"), (load_video_masks, "masks", "sm")])
def test_frame_files_that_disagree_with_the_rows_are_named(
        tmp_path, loader, kind, suffix, corruption):
    gen_dataset(SMALL, tmp_path)
    vdir = tmp_path / kind / "003"
    frame = vdir / f"frame_0005.{suffix}"
    if corruption == "last deleted":
        (vdir / f"frame_0011.{suffix}").unlink()
        count, problem = 11, f"missing ['frame_0011.{suffix}'], unexpected []"
    elif corruption == "renamed":
        frame.rename(vdir / f"frame_5.{suffix}")
        count, problem = 12, (f"missing ['frame_0005.{suffix}'], "
                              f"unexpected ['frame_5.{suffix}']")
    else:
        (vdir / f"frame_0012.{suffix}").write_bytes(frame.read_bytes())
        count, problem = 13, f"missing [], unexpected ['frame_0012.{suffix}']"
    rows = len(load_annotations(tmp_path)[3]["boxes"])
    with pytest.raises(ValueError, match=f"^{re.escape(vdir.as_posix())}: "
                       f"{count} .{suffix} files for frames 0..11: "
                       f"{re.escape(problem)}$"):
        loader(tmp_path, 3, rows)
