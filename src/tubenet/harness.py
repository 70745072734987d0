"""End-to-end runs: configuration, training loops, inference and
evaluation over the on-disk dataset layout.

Model checkpoints are a directory of ``.t4`` weight blobs plus a plain-text
``manifest.txt`` recording each parameter's name, true shape, and file.

Every function that runs a model holds the BLAS at one thread while it
works (see `tensor.blas_threads`), so output bytes do not depend on the
core count.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from . import metrics as mx
from .linking import TubeProposal, link_top_k, save_sequences
from .models import CLIP, FRAME_STRIDE, STCNN, TCNN, UPSAMPLERS
from .proposals import kmeans_anchors
from .segmentation import SegMask, load_mask, mask_to_box, save_mask
from .synth import (ANNOTATIONS, SyntheticSpec, gen_dataset,
                    load_annotations, load_video_frames, load_video_masks,
                    read_csv)
from .tensor import blas_threads, load_tensor, save_tensor, softmax
from .toi import Box, Tube

# the columns of detections/detections.csv and segmentations/labels.csv,
# with the type of each
DETECTION_FIELDS = {"video": int, "rank": int, "label": int,
                    "confidence": float, "frame": int, "x1": float,
                    "y1": float, "x2": float, "y2": float}
LABEL_FIELDS = {"video": int, "label": int, "confidence": float}


@dataclasses.dataclass
class RunConfig:
    """Flat run configuration.

    A run's configuration is the defaults with its ``--set key=value``
    overrides applied; nothing else (no file, no environment variable)
    changes it.
    """

    seed: int = 0
    data_dir: str = "data"
    out_dir: str = "out"
    num_videos: int = 80
    num_frames: int = 24
    height: int = 80
    width: int = 112
    epochs_tpn: int = 8
    epochs_rec: int = 2
    epochs_refine: int = 8
    avg_top_k: int = 8
    lr: float = 0.02
    lr_rec: float = 0.01
    epochs_seg: int = 10
    lr_seg: float = 0.03
    anchors_k: int = 12
    mask_threshold: float = 0.5
    upsampler: str = "subpixel"
    alpha: float = 0.5

    @classmethod
    def load(cls, overrides=None):
        """The defaults with `overrides` ({key: value}) applied and
        validated; a KeyError or ValueError names a bad key or value."""
        fields = {f.name for f in dataclasses.fields(cls)}
        cfg = cls()
        for key, val in (overrides or {}).items():
            if key not in fields:
                raise KeyError(f"unknown config key: {key}")
            kind = type(getattr(cfg, key))
            if not isinstance(val, kind):
                try:
                    val = kind(val)
                except ValueError:
                    raise ValueError(f"config {key}={val!r}: not a valid "
                                     f"{kind.__name__}") from None
            setattr(cfg, key, val)
        cfg.validate()
        return cfg

    def validate(self):
        """Raise ValueError, naming the field, for a value no run can use."""
        def bad(name, rule):
            raise ValueError(f"config {name}={getattr(self, name)!r}: {rule}")

        if self.upsampler not in UPSAMPLERS:
            bad("upsampler", f"must be one of {', '.join(UPSAMPLERS)}")
        if not 0.0 <= self.mask_threshold <= 1.0:  # NaN fails this too
            bad("mask_threshold", "must lie in [0, 1]")
        for f in dataclasses.fields(self):
            if f.name.startswith("epochs_") and getattr(self, f.name) < 0:
                bad(f.name, "must be >= 0")
        if self.num_frames < CLIP:
            bad("num_frames", f"must be >= {CLIP}, the frames of one clip")
        for name, stride in zip(("height", "width"), FRAME_STRIDE):
            if getattr(self, name) < SyntheticSpec.max_actor:
                bad(name, f"must be >= {SyntheticSpec.max_actor}, the "
                          f"largest actor")
            if getattr(self, name) % stride:
                bad(name, f"must be a multiple of {stride}, the encoder's "
                          f"spatial pool stride")
        if self.num_videos < 1:
            bad("num_videos", "must be >= 1")
        if self.seed < 0:
            bad("seed", "must be >= 0")
        for name in ("lr", "lr_rec", "lr_seg"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                bad(name, "must be finite and > 0")
        for name in ("anchors_k", "avg_top_k"):
            if getattr(self, name) < 1:
                bad(name, "must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            bad("alpha", "must lie in (0, 1)")


# ----------------------------------------------------------------------
# checkpoints

def save_model(model, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (name, arr) in enumerate(sorted(model.flat_state().items())):
        arr = np.asarray(arr, dtype=np.float32)
        shape = arr.shape
        fname = f"param_{i:04d}.t4"
        save_tensor(out_dir / fname, arr.reshape(arr.size, 1, 1, 1))
        lines.append(f"{name} {','.join(map(str, shape))} {fname}")
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_model_state(out_dir):
    """The checkpoint's parameters by dotted name. A manifest line that
    does not parse, or whose shape does not fit its file, stops the load
    with the manifest's path, the line number and the parameter."""
    out_dir = Path(out_dir)
    manifest = out_dir / "manifest.txt"
    flat = {}
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"{manifest}:{lineno}: expected 'name shape "
                             f"file', got {line!r}")
        name, shape_s, fname = fields
        try:
            shape = tuple(int(s) for s in shape_s.split(","))
        except ValueError:
            raise ValueError(f"{manifest}:{lineno}: {name}: shape "
                             f"{shape_s!r} is not comma-separated "
                             f"integers") from None
        values = load_tensor(out_dir / fname)
        if values.size != math.prod(shape):
            raise ValueError(f"{manifest}:{lineno}: {name}: shape {shape_s} "
                             f"does not fit the {values.size} values of "
                             f"{fname}")
        flat[name] = values.reshape(shape)
    return flat


# ----------------------------------------------------------------------
# data access

def _clips_of(frames):
    """Non-overlapping clips of CLIP frames; the tail is zero-padded."""
    C, F, H, W = frames.shape
    clips = []
    for start in range(0, F, CLIP):
        clip = frames[:, start:start + CLIP]
        if clip.shape[1] < CLIP:
            pad = np.zeros((C, CLIP - clip.shape[1], H, W), dtype=frames.dtype)
            clip = np.concatenate([clip, pad], axis=1)
        clips.append(clip)
    return clips


def _random_clip(rng, frames, *per_frame):
    """A clip of CLIP frames at a random start, and the same frames of each
    per-frame list in `per_frame`."""
    start = int(rng.integers(0, frames.shape[1] - CLIP + 1))
    return (frames[:, start:start + CLIP],
            *(x[start:start + CLIP] for x in per_frame))


def _split_videos(ann, split):
    return sorted(v for v, e in ann.items() if e["split"] == split)


def _test_videos(cfg, ann):
    """The test split, which detect, segment and eval need at least one
    video of."""
    vids = _split_videos(ann, "test")
    if not vids:
        raise ValueError(f"{Path(cfg.data_dir) / ANNOTATIONS}: no test video")
    return vids


# ----------------------------------------------------------------------
# training

def run_gen(cfg):
    spec = SyntheticSpec(num_videos=cfg.num_videos,
                         num_frames=cfg.num_frames,
                         height=cfg.height, width=cfg.width, seed=cfg.seed)
    gen_dataset(spec, cfg.data_dir)
    return spec


def _write_csv(path, fields, rows):
    """A header of the field names, then one line per row: floats by
    `repr`, so that each reads back as the same value, and the rest (ints,
    strings such as a loss already rounded to six places) by `str`."""
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _new_model(name, cfg, ann):
    """The initial "tcnn" or "stcnn" of a run, which `train_*` trains and
    `load_*` fills from the checkpoint. The class count is the largest
    label; the detector's anchors are k-means clusters of the training
    boxes' sizes."""
    num_classes = max(e["label"] for e in ann.values())
    frame_hw = (cfg.height, cfg.width)
    if name == "stcnn":
        return STCNN(num_classes, frame_hw, seed=cfg.seed,
                     upsampler=cfg.upsampler)
    gt_sizes = [(b.width, b.height)
                for v in _split_videos(ann, "train") for b in ann[v]["boxes"]]
    k = min(cfg.anchors_k, len(set(gt_sizes)))
    anchors = kmeans_anchors(gt_sizes, k=k, seed=cfg.seed)
    return TCNN(num_classes, anchors, frame_hw, seed=cfg.seed)


def _load_model(name, cfg):
    ann = load_annotations(cfg.data_dir)
    model = _new_model(name, cfg, ann)
    ckpt = Path(cfg.out_dir) / f"{name}_model"
    flat = load_model_state(ckpt)
    try:
        model.load_flat_state(flat)
    except ValueError as err:
        raise ValueError(f"{ckpt / 'manifest.txt'}: {err}") from None
    return model, ann


@blas_threads(1)
def train_tcnn(cfg, quiet=False):
    """Alternating four-phase training: proposal phases refresh the shared
    encoder for the recognition phases and vice versa."""
    ann = load_annotations(cfg.data_dir)
    train_vids = _split_videos(ann, "train")
    model = _new_model("tcnn", cfg, ann)
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    step = 0
    phases = [("tpn", cfg.epochs_tpn), ("rec", cfg.epochs_rec),
              ("tpn", max(1, cfg.epochs_tpn // 2)),
              ("rec", max(1, cfg.epochs_rec // 2)),
              ("refine", cfg.epochs_refine),
              # refinement moves the shared encoder, so re-fit the
              # recognition head on the final features
              ("rec", max(1, cfg.epochs_rec // 2))]
    for phase, epochs in phases:
        for _ in range(epochs):
            order = rng.permutation(len(train_vids))
            for vi in order:
                vid = train_vids[vi]
                boxes = ann[vid]["boxes"]
                frames = load_video_frames(cfg.data_dir, vid, len(boxes))
                if phase in ("tpn", "refine"):
                    clip, gt = _random_clip(rng, frames, boxes)
                    # the final phase regresses from more candidates per
                    # clip, matching the top-k averaging used at inference
                    nc = 8 if phase == "refine" else 4
                    bce, reg = model.tpn_step(clip, gt, rng, cfg.lr,
                                              reg_candidates=nc)
                    losses.append((step, phase, bce + reg))
                else:
                    clips = _clips_of(frames)
                    loss = model.recognition_step(
                        clips, boxes, ann[vid]["label"], rng, cfg.lr_rec)
                    losses.append((step, phase, loss))
                step += 1
        if not quiet:
            print(f"phase {phase} done, last loss {losses[-1][2]:.4f}")
    out = Path(cfg.out_dir)
    save_model(model, out / "tcnn_model")
    _write_csv(out / "tcnn_loss.csv", ["step", "phase", "loss"],
               [(s, p, f"{v:.6f}") for s, p, v in losses])
    return model


def load_tcnn(cfg):
    return _load_model("tcnn", cfg)


@blas_threads(1)
def train_stcnn(cfg, quiet=False):
    ann = load_annotations(cfg.data_dir)
    train_vids = _split_videos(ann, "train")
    model = _new_model("stcnn", cfg, ann)
    rng = np.random.default_rng(cfg.seed + 2)
    losses = []
    step = 0
    for epoch in range(cfg.epochs_seg):
        order = rng.permutation(len(train_vids))
        for vi in order:
            vid = train_vids[vi]
            boxes = ann[vid]["boxes"]
            frames = load_video_frames(cfg.data_dir, vid, len(boxes))
            masks = load_video_masks(cfg.data_dir, vid, len(boxes))
            clip, clip_masks, clip_boxes = _random_clip(rng, frames, masks,
                                                        boxes)
            seg, rec = model.train_step(clip, clip_masks, clip_boxes,
                                        ann[vid]["label"], cfg.lr_seg)
            losses.append((step, seg, rec))
            step += 1
        if not quiet:
            print(f"epoch {epoch} seg {losses[-1][1]:.4f} "
                  f"rec {losses[-1][2]:.4f}")
    out = Path(cfg.out_dir)
    save_model(model, out / "stcnn_model")
    _write_csv(out / "stcnn_loss.csv", ["step", "seg", "rec"],
               [(s, f"{seg:.6f}", f"{rec:.6f}") for s, seg, rec in losses])
    return model


def load_stcnn(cfg):
    return _load_model("stcnn", cfg)


# ----------------------------------------------------------------------
# inference

def detect_video(model, frames, cfg):
    """One blended proposal per clip, linked across clips into one
    sequence, labelled by the recognizer.

    Returns (sequence, class label, confidence, per-frame boxes).
    """
    clips = _clips_of(frames)
    per_clip = []
    conv2_cubes = []
    for ci, clip in enumerate(clips):
        acts, logits = model.encode_clip(clip)
        conv2_cubes.append(acts["conv2"])
        scores = 1.0 / (1.0 + np.exp(-logits.ravel()))
        order = np.argsort(-scores, kind="stable")
        # decode the strongest candidates independently, then blend their
        # per-frame boxes weighted by actionness: the average localizes
        # better than any single candidate
        top = order[:cfg.avg_top_k]
        coords = np.zeros((CLIP, 4))
        wsum = 0.0
        for i, tube in zip(top, model.decode_boxes(acts, top)):
            for f, b in enumerate(tube):
                coords[f] += scores[i] * np.array(b.astuple())
            wsum += scores[i]
        coords /= max(wsum, 1e-12)
        boxes = tuple(Box(*map(float, row)) for row in coords)
        per_clip.append([TubeProposal(ci, Tube(boxes),
                                      float(scores[top[0]]))])
    # one proposal per clip makes exactly one complete sequence
    [seq] = link_top_k(per_clip, 1)
    boxes = [b for p in seq.proposals for b in p.tube.boxes]
    boxes = boxes[:frames.shape[1]]
    logits, _ = model.recognition_forward(conv2_cubes, boxes)
    probs = softmax(logits)
    label = int(np.argmax(probs[1:]) + 1)
    return seq, label, float(probs[label]), boxes


@blas_threads(1)
def run_detect(cfg):
    model, ann = load_tcnn(cfg)
    out = Path(cfg.out_dir) / "detections"
    out.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for vid in _test_videos(cfg, ann):
        frames = load_video_frames(cfg.data_dir, vid,
                                   len(ann[vid]["boxes"]))
        seq, label, conf, boxes = detect_video(model, frames, cfg)
        save_sequences(out / f"video_{vid:03d}.txt", [seq])
        for f, b in enumerate(boxes):
            all_rows.append((vid, 0, label, conf, f,
                             b.x1, b.y1, b.x2, b.y2))
    _write_csv(out / "detections.csv", DETECTION_FIELDS, all_rows)
    return all_rows


@blas_threads(1)
def run_segment(cfg):
    model, ann = load_stcnn(cfg)
    out = Path(cfg.out_dir) / "segmentations"
    rows = []
    for vid in _test_videos(cfg, ann):
        num_frames = len(ann[vid]["boxes"])
        frames = load_video_frames(cfg.data_dir, vid, num_frames)
        vdir = out / f"{vid:03d}"
        vdir.mkdir(parents=True, exist_ok=True)
        # classify the tube implied by the predicted masks, one clip at a
        # time, from the concat1 each clip's segmentation already computed
        clips = _clips_of(frames)
        logits_sum = None
        for ci, clip in enumerate(clips):
            masks, concat1 = model.segment_clip(clip, cfg.mask_threshold)
            boxes = []
            for t, m in enumerate(masks[:num_frames - ci * CLIP],
                                  ci * CLIP):
                save_mask(vdir / f"frame_{t:04d}.sm", m.bits)
                b = mask_to_box(m)
                boxes.append(b if b is not None
                             else Box(0, 0, cfg.width - 1, cfg.height - 1))
            boxes += [boxes[-1]] * (CLIP - len(boxes))
            logits, _ = model.recognition_forward(concat1, boxes)
            del concat1  # before the next clip's forward
            logits_sum = logits if logits_sum is None else logits_sum + logits
        probs = softmax(logits_sum / max(1, len(clips)))
        label = int(np.argmax(probs[1:]) + 1)
        rows.append((vid, label, float(probs[label])))
    _write_csv(out / "labels.csv", LABEL_FIELDS, rows)
    return rows


# ----------------------------------------------------------------------
# evaluation

def eval_detections(cfg):
    """Frame-mAP / video-mAP of the written detections against the
    annotations, and the frame-mAP of the same boxes with each video's
    true label."""
    ann = load_annotations(cfg.data_dir)
    vids = _test_videos(cfg, ann)
    det_rows, ranks = [], []
    path = Path(cfg.out_dir) / "detections" / "detections.csv"
    for row in read_csv(path, DETECTION_FIELDS):
        det_rows.append(mx.Detection(
            video=row["video"], cls=row["label"],
            confidence=row["confidence"], frame=row["frame"],
            box=Box(row["x1"], row["y1"], row["x2"], row["y2"])))
        ranks.append(row["rank"])
    frame_gts = [{"video": vid, "frame": f, "cls": ann[vid]["label"],
                  "box": b}
                 for vid in vids
                 for f, b in enumerate(ann[vid]["boxes"])]
    fmap, per_class = mx.frame_map(det_rows, frame_gts, alpha=cfg.alpha)
    # the same boxes, each relabelled to its video's class: the frame-mAP
    # that only localization costs
    fmap_true, _ = mx.frame_map(
        [dataclasses.replace(d, cls=ann[d.video]["label"]) for d in det_rows],
        frame_gts, alpha=cfg.alpha)
    roc_points, auc = mx.roc_auc(det_rows, frame_gts, alpha=cfg.alpha)

    # each kept sequence, a rank of its video, is one tube
    tubes = {}
    for rank, d in zip(ranks, det_rows):
        tubes.setdefault((d.video, rank), (d, {}))[1][d.frame] = d.box
    video_dets = [mx.Detection(video=d.video, cls=d.cls,
                               confidence=d.confidence, tube=frames)
                  for d, frames in tubes.values()]
    video_gts = [{"video": vid, "cls": ann[vid]["label"],
                  "tube": dict(enumerate(ann[vid]["boxes"]))}
                 for vid in vids]
    vmap, vper = mx.video_map(video_dets, video_gts, alpha=cfg.alpha)
    return {"frame_map": fmap, "frame_ap": per_class,
            "frame_map_true_label": fmap_true,
            "video_map": vmap, "video_ap": vper,
            "roc_points": roc_points, "auc": auc}


def eval_segmentations(cfg):
    """Region (J), contour (F), and stability (T) statistics of the
    written masks."""
    ann = load_annotations(cfg.data_dir)
    vids = _test_videos(cfg, ann)
    j_scores, f_scores, t_scores = {}, {}, []
    correct = 0
    label_rows = {}
    labels_path = Path(cfg.out_dir) / "segmentations" / "labels.csv"
    if labels_path.exists():
        for row in read_csv(labels_path, LABEL_FIELDS):
            label_rows[row["video"]] = row["label"]
    for vid in vids:
        gt = load_video_masks(cfg.data_dir, vid, len(ann[vid]["boxes"]))
        vdir = Path(cfg.out_dir) / "segmentations" / f"{vid:03d}"
        pred = [SegMask(load_mask(p)) for p in sorted(vdir.glob("*.sm"))]
        if len(pred) != len(gt):
            raise ValueError(f"{vdir}: {len(pred)} predicted masks for "
                             f"{len(gt)} ground-truth frames")
        # each predicted contour serves both F and T
        contours = [mx.mask_contour(p) for p in pred]
        j_scores[vid] = [mx.iou_mask(p, g) for p, g in zip(pred, gt)]
        f_scores[vid] = [mx.contour_f(c, g) for c, g in zip(contours, gt)]
        t_scores.append(mx.temporal_stability(contours))
        if label_rows.get(vid) == ann[vid]["label"]:
            correct += 1
    j_mean, j_recall, j_decay = mx.mean_recall_decay(j_scores)
    f_mean, f_recall, f_decay = mx.mean_recall_decay(f_scores)
    return {
        "J_mean": j_mean, "J_recall": j_recall, "J_decay": j_decay,
        "F_mean": f_mean, "F_recall": f_recall, "F_decay": f_decay,
        "T_mean": float(np.mean(t_scores)) if t_scores else 0.0,
        "label_accuracy": correct / max(1, len(vids)),
    }


def run_eval(cfg):
    report = {}
    out = Path(cfg.out_dir)
    if (out / "detections" / "detections.csv").exists():
        report.update(eval_detections(cfg))
        mx.write_curve_svg(out / "roc.svg", report["roc_points"],
                           "ROC", "FP per frame", "TPR")
    if (out / "segmentations").exists():
        report.update(eval_segmentations(cfg))
    mx.write_report_csv(out / "report.csv", report)
    return report

