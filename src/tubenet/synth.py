"""Synthetic moving-actor video generation.

Each video shows a single bright, textured rectangle (the actor) moving
over a dim noisy background. The motion pattern determines the class:

    1. horizontal sweep       2. vertical sweep
    3. diagonal sweep         4. horizontal oscillation

Frames are written as single-tensor ``.t4`` files, per-frame ground-truth
masks as ``.sm`` files, and per-frame boxes plus class labels in
``annotations.csv``. Generation is fully deterministic per seed: each
video derives its RNG from (seed, index), so regeneration is
byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

import numpy as np

from .segmentation import SegMask, save_mask
from .tensor import save_tensor
from .toi import Box

NUM_CLASSES = 4
# the name of the per-frame annotations file under a dataset's root, and
# its columns with the type of each
ANNOTATIONS = "annotations.csv"
ANNOTATION_FIELDS = {"video": int, "frame": int, "split": str, "label": int,
                     "x1": float, "y1": float, "x2": float, "y2": float}


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a generated dataset."""

    num_videos: int = 80
    num_frames: int = 24
    height: int = 80
    width: int = 112
    min_actor: int = 18
    max_actor: int = 30
    train_fraction: float = 0.8
    seed: int = 0


def _actor_texture(rng, h, w):
    base = 0.75 + 0.2 * rng.random((3, 1, 1))
    stripes = 0.15 * np.sin(
        np.arange(w)[None, None, :] * (2 * np.pi / max(4, w // 3))
        + rng.random() * np.pi)
    tex = np.clip(base + stripes + 0.05 * rng.standard_normal((3, h, w)),
                  0.35, 1.0)
    return tex.astype(np.float32)


def _trajectory(cls, num_frames, height, width, ah, aw, rng):
    """Top-left corner of the actor at each frame."""
    max_y, max_x = height - ah, width - aw
    y0 = rng.integers(0, max_y + 1)
    x0 = rng.integers(0, max_x + 1)
    xs, ys = [], []
    if cls == 1:       # horizontal sweep
        step = max_x / (num_frames - 1)
        for t in range(num_frames):
            xs.append(round(t * step))
            ys.append(y0)
    elif cls == 2:     # vertical sweep
        step = max_y / (num_frames - 1)
        for t in range(num_frames):
            xs.append(x0)
            ys.append(round(t * step))
    elif cls == 3:     # diagonal sweep
        for t in range(num_frames):
            xs.append(round(t * max_x / (num_frames - 1)))
            ys.append(round(t * max_y / (num_frames - 1)))
    else:              # horizontal oscillation, period <= 8 frames
        amp = min(max_x // 2, 14)
        cx = max_x // 2
        for t in range(num_frames):
            xs.append(round(cx + amp * np.sin(2 * np.pi * t / 8.0)))
            ys.append(y0)
    xs = [int(np.clip(x, 0, max_x)) for x in xs]
    ys = [int(np.clip(y, 0, max_y)) for y in ys]
    return xs, ys


def render_video(spec, index):
    """Frames (F,3,H,W) float32, masks, boxes, and the class label."""
    rng = np.random.default_rng((spec.seed, index))
    cls = 1 + index % NUM_CLASSES
    ah = int(rng.integers(spec.min_actor, spec.max_actor + 1))
    aw = int(rng.integers(spec.min_actor, spec.max_actor + 1))
    tex = _actor_texture(rng, ah, aw)
    xs, ys = _trajectory(cls, spec.num_frames, spec.height, spec.width,
                         ah, aw, rng)
    bg = (0.1 + 0.08 * rng.random(
        (spec.num_frames, 3, spec.height, spec.width))).astype(np.float32)
    frames, masks, boxes = [], [], []
    for t in range(spec.num_frames):
        frame = bg[t].copy()
        x, y = xs[t], ys[t]
        frame[:, y:y + ah, x:x + aw] = tex
        mask = np.zeros((spec.height, spec.width), dtype=bool)
        mask[y:y + ah, x:x + aw] = True
        frames.append(frame)
        masks.append(SegMask(mask))
        boxes.append(Box(x, y, x + aw - 1, y + ah - 1))
    return np.stack(frames), masks, boxes, cls


def gen_dataset(spec, root):
    """Write the dataset layout under ``root`` and return the manifest rows.

    Layout: videos/NNN/frame_KKKK.t4, masks/NNN/frame_KKKK.sm, and
    annotations.csv with one row per frame.
    """
    root = Path(root)
    rows = []
    n_train = int(round(spec.num_videos * spec.train_fraction))
    for idx in range(spec.num_videos):
        frames, masks, boxes, cls = render_video(spec, idx)
        vdir = root / "videos" / f"{idx:03d}"
        mdir = root / "masks" / f"{idx:03d}"
        vdir.mkdir(parents=True, exist_ok=True)
        mdir.mkdir(parents=True, exist_ok=True)
        split = "train" if idx < n_train else "test"
        for t in range(spec.num_frames):
            save_tensor(vdir / f"frame_{t:04d}.t4",
                        frames[t][:, None, :, :])
            save_mask(mdir / f"frame_{t:04d}.sm", masks[t].bits)
            b = boxes[t]
            rows.append({
                "video": idx, "frame": t, "split": split, "label": cls,
                "x1": int(b.x1), "y1": int(b.y1),
                "x2": int(b.x2), "y2": int(b.y2),
            })
    with open(root / ANNOTATIONS, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(ANNOTATION_FIELDS))
        writer.writeheader()
        writer.writerows(rows)
    return rows


def read_csv(path, fields):
    """Each row of the CSV file at `path` after its header, as
    {column: value} over the columns of `fields`, each value converted by
    its type there (int, float or str); blank lines are skipped. A header
    without one of those columns, a row with another number of fields than
    the header, or a value its type rejects raises
    ValueError("<path>:<line>: ...") naming the column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for name in fields:
            if name not in header:
                raise ValueError(f"{path}:1: no column {name!r} in the "
                                 f"header {','.join(header)!r}")
        columns = [(name, header.index(name), kind)
                   for name, kind in fields.items()]
        for values in reader:
            if not values:
                continue
            if len(values) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: {len(values)} "
                                 f"fields, but the header has {len(header)}")
            row = {}
            for name, i, kind in columns:
                try:
                    row[name] = kind(values[i])
                except ValueError:
                    raise ValueError(
                        f"{path}:{reader.line_num}: {name} {values[i]!r} is "
                        f"not {'an integer' if kind is int else 'a number'}"
                    ) from None
            yield row


def load_annotations(root):
    """Parse annotations.csv back into {video: (split, label, boxes)}.
    Each video's rows hold its frames 0..F-1, one row each."""
    path = Path(root) / ANNOTATIONS
    videos = {}
    for row in read_csv(path, ANNOTATION_FIELDS):
        vid, frame = row["video"], row["frame"]
        entry = videos.setdefault(
            vid, {"split": row["split"], "label": row["label"], "boxes": {}})
        if frame in entry["boxes"]:
            raise ValueError(f"{path}: video {vid} has two rows for "
                             f"frame {frame}")
        entry["boxes"][frame] = Box(row["x1"], row["y1"], row["x2"], row["y2"])
    for vid, entry in videos.items():
        boxes = entry["boxes"]
        missing = next((f for f in range(len(boxes)) if f not in boxes), None)
        if missing is not None:
            raise ValueError(f"{path}: video {vid} has no row for frame "
                             f"{missing}")
        entry["boxes"] = [boxes[f] for f in range(len(boxes))]
    return videos


def _frame_files(vdir, suffix, num_frames):
    """The files frame_0000.<suffix> .. of a video directory, one per frame
    0..F-1, in order, where F is `num_frames` (the video's annotation
    rows), or the number of files if None. A directory with no such files,
    a missing frame, or a file of another name is an error that names
    the directory."""
    names = sorted(p.name for p in vdir.glob(f"*.{suffix}"))
    if not names:
        raise ValueError(f"{vdir}: no frame_*.{suffix} files")
    count = len(names) if num_frames is None else num_frames
    want = [f"frame_{t:04d}.{suffix}" for t in range(count)]
    if names != want:
        missing = sorted(set(want) - set(names))
        extra = sorted(set(names) - set(want))
        raise ValueError(
            f"{vdir}: {len(names)} .{suffix} files for frames 0..{count - 1}"
            f": missing {missing[:3]}, unexpected {extra[:3]}")
    return [vdir / name for name in names]


def load_video_frames(root, video, num_frames=None):
    """Stack frame tensors into (3, F, H, W); see `_frame_files` for F."""
    from .tensor import load_tensor

    vdir = Path(root) / "videos" / f"{video:03d}"
    frames = [load_tensor(p)[:, 0]
              for p in _frame_files(vdir, "t4", num_frames)]
    return np.stack(frames, axis=1)


def load_video_masks(root, video, num_frames=None):
    """The F masks of a video; see `_frame_files` for F."""
    from .segmentation import SegMask, load_mask

    mdir = Path(root) / "masks" / f"{video:03d}"
    return [SegMask(load_mask(p))
            for p in _frame_files(mdir, "sm", num_frames)]
