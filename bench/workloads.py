"""The benchmark's workloads: what each sets up, the stage calls of one
round, how much work a round does, and the correctness checks on its
outputs.

A workload's `setup(dir, seed)` writes its inputs under `dir` from the seed
alone; `stages()` lists the (name, call) pairs of one round, each call one
operation; `check(seed, link_calls)` inspects the last round's outputs (and
the `link_top_k` calls captured in the first round) and returns (name,
passed, detail) triples; `makeup()` describes the inputs; `rates()` names
each stage's figure: (name, unit, work per round), or seconds per call
where the work is None.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from tubenet import harness, linking, networks, proposals, synth, tensor
from tubenet.harness import RunConfig
from tubenet.models import STCNN, TCNN

CLIP = 8  # frames per clip, fixed by the encoder's temporal pooling


def _unflatten(flat):
    """`flat_state()` names back to the nested dict `load_state` takes (the
    harness keeps its own copy private)."""
    nested = {}
    for name, arr in flat.items():
        *parents, leaf = name.split(".")
        node = nested
        for p in parents:
            node = node.setdefault(p, {})
        node[leaf] = arr
    return nested


def _grad_state(model):
    """The gradients each trainable layer has accumulated, keyed like
    `model.flat_state()`; the projector keeps none."""
    grads = {}
    for key in model.state():
        if key == "encoder":
            layers = {f"encoder.conv{i + 1}": c
                      for i, c in enumerate(model.encoder.convs)}
        elif key.startswith("proj_"):
            continue
        else:
            layers = {key: getattr(model, key)}
        for name, layer in layers.items():
            layer = getattr(layer, "conv", layer)
            grads[f"{name}.w"] = layer.gw
            grads[f"{name}.b"] = layer.gb
    return grads


def directional_check(model, loss_at, seed, eps=3e-3, tol=0.05):
    """Compare the accumulated gradient along a random unit direction of
    the trainable parameters with a central difference of `loss_at`.

    `loss_at()` runs one step at lr=0 on the model's current parameters and
    returns the loss whose gradient the step accumulates. The prediction
    uses the parameter change actually stored (after float32 rounding).
    The error is taken relative to the root-mean-square slope of a random
    unit direction, |g| / sqrt(n): along one direction the slope can be
    near zero by chance, and the float32 forward's rounding and ReLU/max
    kinks near the point would then swamp it.
    """
    base = {k: v.copy() for k, v in model.flat_state().items()}
    loss_at()
    grads = {k: g.astype(np.float64) for k, g in _grad_state(model).items()}
    size = sum(g.size for g in grads.values())
    typical = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values())
                        / size)
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(base[k].shape) for k in grads}
    norm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
    losses, stored = [], []
    for sign in (1.0, -1.0):
        state = dict(base)
        for k, d in direction.items():
            state[k] = (base[k].astype(np.float64)
                        + sign * eps * d / norm).astype(base[k].dtype)
        stored.append(state)
        model.load_state(_unflatten(state))
        losses.append(loss_at())
    model.load_state(_unflatten(base))
    predicted = sum(float((grads[k] * (stored[0][k].astype(np.float64)
                                       - stored[1][k])).sum()) for k in grads)
    measured = losses[0] - losses[1]
    error = abs(measured - predicted) / (2 * eps * typical)
    return error <= tol, (f"difference {measured:.6e}, gradient "
                          f"{predicted:.6e}, error {error:.2e} of the "
                          f"typical slope {typical:.3e}")


def _balanced_ce(logits, masks):
    """Per-pixel 2-class cross-entropy: (plain mean, and the class-balanced
    mean whose gradient `STCNN.train_step` accumulates)."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=0, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    fg = np.stack([m.bits for m in masks])
    ce = -np.where(fg, logp[1], logp[0])
    rho = float(fg.mean())
    weights = np.where(fg, 0.5 / rho, 0.5 / (1.0 - rho)) \
        if 0.0 < rho < 1.0 else np.ones(fg.shape)
    return float(ce.mean()), float((weights * ce).mean())


# ----------------------------------------------------------------------

class Train:
    """Both training loops on a small 16-frame set, from seeded weights."""

    spec = dict(num_videos=5, num_frames=16, epochs_tpn=1, epochs_rec=1,
                epochs_refine=1, epochs_seg=2)

    def setup(self, root, seed):
        self.cfg = RunConfig(**self.spec, seed=seed,
                             data_dir=str(root / "data"),
                             out_dir=str(root / "out"))
        harness.run_gen(self.cfg)
        ann = synth.load_annotations(self.cfg.data_dir)
        self.train_vids = sorted(v for v, e in ann.items()
                                 if e["split"] == "train")
        self.ann = ann
        self.models = {}

    def _counts(self):
        cfg, n = self.cfg, len(self.train_vids)
        tpn_steps = (cfg.epochs_tpn + max(1, cfg.epochs_tpn // 2)
                     + cfg.epochs_refine) * n
        rec_steps = (cfg.epochs_rec + 2 * max(1, cfg.epochs_rec // 2)) * n
        return tpn_steps, rec_steps, cfg.epochs_seg * n

    def rates(self):
        tpn_steps, rec_steps, seg_steps = self._counts()
        clips = -(-self.cfg.num_frames // CLIP)
        return {"train_tcnn": ("tcnn_train_clips_per_s", "clips/s",
                               tpn_steps + rec_steps * clips),
                "train_stcnn": ("stcnn_train_clips_per_s", "clips/s",
                                seg_steps)}

    def stages(self):
        def tcnn():
            self.models["tcnn"] = harness.train_tcnn(self.cfg, quiet=True)

        def stcnn():
            self.models["stcnn"] = harness.train_stcnn(self.cfg, quiet=True)
        return [("train_tcnn", tcnn), ("train_stcnn", stcnn)]

    def makeup(self):
        tpn_steps, rec_steps, seg_steps = self._counts()
        return {"videos": self.cfg.num_videos,
                "train_videos": len(self.train_vids),
                "frames_per_video": self.cfg.num_frames,
                "clips_per_video": -(-self.cfg.num_frames // CLIP),
                "frame_hw": [self.cfg.height, self.cfg.width],
                "tpn_and_refine_steps": tpn_steps,
                "recognition_steps": rec_steps,
                "stcnn_steps": seg_steps}

    def check(self, seed, link_calls):
        out = Path(self.cfg.out_dir)
        results = []
        tpn_steps, rec_steps, seg_steps = self._counts()
        for name, expect, cols in (("tcnn_loss.csv", tpn_steps + rec_steps,
                                    [2]),
                                   ("stcnn_loss.csv", seg_steps, [1, 2])):
            with open(out / name) as fh:
                rows = list(csv.reader(fh))[1:]
            finite = all(math.isfinite(float(r[c])) for r in rows for c in cols)
            results.append((f"{name} steps and finite losses",
                            len(rows) == expect and finite,
                            f"{len(rows)} rows (config implies {expect}), "
                            f"all finite: {finite}"))
        for key, ckpt in (("tcnn", "tcnn_model"), ("stcnn", "stcnn_model")):
            saved = harness.load_model_state(out / ckpt)
            trained = self.models[key].flat_state()
            same = saved.keys() == trained.keys() and all(
                saved[k].shape == np.shape(trained[k])
                and saved[k].tobytes()
                == np.asarray(trained[k], np.float32).tobytes()
                for k in saved)
            results.append((f"{ckpt} equals the trained float32 state", same,
                            f"{len(saved)} parameters"))
        vid = self.train_vids[0]
        frames = synth.load_video_frames(self.cfg.data_dir, vid)[:, :CLIP]
        masks = synth.load_video_masks(self.cfg.data_dir, vid)[:CLIP]
        boxes = self.ann[vid]["boxes"][:CLIP]
        label = self.ann[vid]["label"]
        with tensor.blas_threads(1):
            results.append(("TCNN.tpn_step gradient vs central difference",
                            *self._check_tpn(frames, boxes, seed)))
            results.append(("STCNN.train_step gradient vs central difference",
                            *self._check_stcnn(frames, masks, boxes, label,
                                               seed)))
        return results

    def _check_tpn(self, frames, boxes, seed):
        model = self.models["tcnn"]
        nc = 4

        def loss_at():
            bce, reg = model.tpn_step(frames, boxes,
                                      np.random.default_rng(seed), 0.0,
                                      reg_candidates=nc)
            # the step accumulates the gradient of the summed regression
            # loss over its picks and returns their mean
            labels = proposals.assign_actionness_labels(
                model.clip_candidates(), boxes)
            picks = min(nc, sum(lb.label == proposals.POSITIVE
                                for lb in labels))
            return bce + reg * picks
        return directional_check(model, loss_at, seed)

    def _check_stcnn(self, frames, masks, boxes, label, seed):
        model = self.models["stcnn"]
        mismatch = []

        def loss_at():
            seg, rec = model.train_step(frames, masks, boxes, label, 0.0)
            _, _, logits = model.forward(frames)
            plain, balanced = _balanced_ce(logits, masks)
            if abs(plain - seg) > 1e-5 * max(1.0, abs(plain)):
                mismatch.append((seg, plain))
            return balanced + rec
        ok, detail = directional_check(model, loss_at, seed)
        if mismatch:
            detail += f"; returned seg loss != plain CE: {mismatch[0]}"
        return ok and not mismatch, detail


class Infer:
    """Detection, segmentation and evaluation of 40-frame test videos at
    the models' initial weights."""

    spec = dict(num_videos=5, num_frames=40)
    train_fraction = 0.4  # 2 train videos (for the anchors), 3 test videos
    # The weights are the same in every run, so the work of a round varies
    # only with the videos: at initial weights the segmenter's foreground
    # share follows its seeded biases (0.6% to 99% over seeds 1-5), and
    # run_eval's contour measures cost up to 3x more on the larger masks.
    model_seed = 0

    def setup(self, root, seed):
        cfg = self.cfg = RunConfig(**self.spec, seed=seed,
                                   data_dir=str(root / "data"),
                                   out_dir=str(root / "out"))
        synth.gen_dataset(synth.SyntheticSpec(
            num_videos=cfg.num_videos, num_frames=cfg.num_frames,
            height=cfg.height, width=cfg.width,
            train_fraction=self.train_fraction, seed=seed), cfg.data_dir)
        ann = self.ann = synth.load_annotations(cfg.data_dir)
        self.test_vids = sorted(v for v, e in ann.items()
                                if e["split"] == "test")
        train_vids = sorted(v for v, e in ann.items() if e["split"] == "train")
        # the anchors and class count load_tcnn derives from the dataset
        sizes = [(b.width, b.height) for v in train_vids
                 for b in ann[v]["boxes"]]
        anchors = proposals.kmeans_anchors(
            sizes, k=min(cfg.anchors_k, len(set(sizes))), seed=cfg.seed)
        num_classes = max(e["label"] for e in ann.values())
        hw = (cfg.height, cfg.width)
        harness.save_model(TCNN(num_classes, anchors, hw,
                                seed=self.model_seed),
                           Path(cfg.out_dir) / "tcnn_model")
        harness.save_model(STCNN(num_classes, hw, seed=self.model_seed,
                                 upsampler=cfg.upsampler),
                           Path(cfg.out_dir) / "stcnn_model")
        self.num_classes = num_classes
        self.segment_clips = len(self.test_vids) * -(-cfg.num_frames // CLIP)
        self.report = None

    def rates(self):
        frames = len(self.test_vids) * self.cfg.num_frames
        return {"run_detect": ("detect_frames_per_s", "frames/s", frames),
                "run_segment": ("segment_frames_per_s", "frames/s", frames),
                "run_eval": ("eval_frames_per_s", "frames/s", frames)}

    def stages(self):
        def evaluate():
            self.report = harness.run_eval(self.cfg)
        return [("run_detect", lambda: harness.run_detect(self.cfg)),
                ("run_segment", lambda: harness.run_segment(self.cfg)),
                ("run_eval", evaluate)]

    def makeup(self):
        cfg = self.cfg
        fg = [self._decode(p).mean() for v in self.test_vids
              for p in sorted(self._seg_dir(v).glob("*.sm"))]
        return {"videos": cfg.num_videos, "test_videos": len(self.test_vids),
                "frames_per_video": cfg.num_frames,
                "clips_per_video": -(-cfg.num_frames // CLIP),
                "frame_hw": [cfg.height, cfg.width],
                "predicted_foreground_share": float(np.mean(fg))}

    def _seg_dir(self, vid):
        return Path(self.cfg.out_dir) / "segmentations" / f"{vid:03d}"

    @staticmethod
    def _decode(path):
        raw = Path(path).read_bytes()
        if raw[:2] != b"SM":
            raise ValueError(f"{path}: not a mask file")
        h, w = np.frombuffer(raw[2:10], dtype="<u4")
        bits = np.unpackbits(np.frombuffer(raw[10:], np.uint8),
                             count=int(h) * int(w))
        return bits.reshape(int(h), int(w)).astype(bool)

    def _detections(self):
        with open(Path(self.cfg.out_dir) / "detections" / "detections.csv") \
                as fh:
            return [dict(video=int(r["video"]), rank=int(r["rank"]),
                         label=int(r["label"]), conf=float(r["confidence"]),
                         frame=int(r["frame"]),
                         box=tuple(float(r[k]) for k in ("x1", "y1", "x2",
                                                         "y2")))
                    for r in csv.DictReader(fh)]

    def check(self, seed, link_calls):
        dets = self._detections()
        return [("J from the written masks equals run_eval's",
                 *self._check_j()),
                ("frame-mAP from detections.csv equals run_eval's",
                 *self._check_frame_map(dets)),
                ("one in-frame box per frame, matching the sequence files",
                 *self._check_sequences(dets)),
                ("link_top_k equals brute_force_link",
                 *self._check_links(link_calls)),
                ("one frame-size mask per frame", *self._check_masks()),
                (f"labels in 1..{self.num_classes}",
                 *self._check_labels(dets))]

    def _check_j(self):
        scores = []
        for vid in self.test_vids:
            preds = sorted(self._seg_dir(vid).glob("*.sm"))
            gts = sorted((Path(self.cfg.data_dir) / "masks" / f"{vid:03d}")
                         .glob("*.sm"))
            for p, g in zip(preds, gts):
                a, b = self._decode(p), self._decode(g)
                union = (a | b).sum()
                scores.append(1.0 if union == 0 else (a & b).sum() / union)
        mine = float(np.mean(scores))
        theirs = self.report["J_mean"]
        return abs(mine - theirs) <= 1e-12, f"{mine:.6f} vs {theirs:.6f}"

    def _check_frame_map(self, dets):
        def iou(a, b):
            ix = min(a[2], b[2]) - max(a[0], b[0]) + 1
            iy = min(a[3], b[3]) - max(a[1], b[1]) + 1
            if ix <= 0 or iy <= 0:
                return 0.0
            inter = ix * iy
            area = (a[2] - a[0] + 1) * (a[3] - a[1] + 1) \
                + (b[2] - b[0] + 1) * (b[3] - b[1] + 1)
            return inter / (area - inter)

        gts = {(v, f): (self.ann[v]["label"], b.astuple())
               for v in self.test_vids
               for f, b in enumerate(self.ann[v]["boxes"])}
        aps = []
        for cls in sorted({lab for lab, _ in gts.values()}):
            npos = sum(lab == cls for lab, _ in gts.values())
            mine = sorted((d for d in dets if d["label"] == cls),
                          key=lambda d: -d["conf"])
            used, tp = set(), []
            for d in mine:
                key = (d["video"], d["frame"])
                hit = key in gts and key not in used and gts[key][0] == cls \
                    and iou(d["box"], gts[key][1]) >= self.cfg.alpha
                if hit:
                    used.add(key)
                tp.append(hit)
            ctp = np.cumsum(tp)
            precision = ctp / np.arange(1, len(tp) + 1)
            aps.append(float(np.sum(precision[np.asarray(tp, bool)]) / npos)
                       if tp else 0.0)
        mine = float(np.mean(aps))
        theirs = self.report["frame_map"]
        return abs(mine - theirs) <= 1e-9, f"{mine:.6f} vs {theirs:.6f}"

    def _check_sequences(self, dets):
        cfg, bad = self.cfg, []
        for vid in self.test_vids:
            seq_rows = {}
            rank = -1
            path = Path(cfg.out_dir) / "detections" / f"video_{vid:03d}.txt"
            for line in path.read_text().splitlines():
                if line.startswith("#"):
                    rank += 1
                    continue
                clip, f, *box, _ = line.split()
                frame = int(clip) * CLIP + int(f)
                if frame < cfg.num_frames:
                    seq_rows[(rank, frame)] = tuple(map(float, box))
            rows = {(d["rank"], d["frame"]): d["box"] for d in dets
                    if d["video"] == vid}
            frames_per_rank = {}
            for (r, f), box in rows.items():
                frames_per_rank.setdefault(r, []).append(f)
                x1, y1, x2, y2 = box
                if not (0 <= x1 <= x2 <= cfg.width - 1
                        and 0 <= y1 <= y2 <= cfg.height - 1):
                    bad.append((vid, r, f, "box outside the frame"))
            for r, fs in frames_per_rank.items():
                if sorted(fs) != list(range(cfg.num_frames)):
                    bad.append((vid, r, "frames", len(fs)))
            if rows != seq_rows or len(rows) != sum(
                    d["video"] == vid for d in dets):
                bad.append((vid, "detections.csv differs from sequences"))
        return not bad, f"{len(dets)} rows" + (f"; {bad[:3]}" if bad else "")

    @staticmethod
    def _check_links(link_calls):
        bad = 0
        for per_clip, k, got in link_calls:
            want = linking.brute_force_link(per_clip, k)
            if len(got) != len(want) or any(
                    a.proposals != b.proposals or abs(a.score - b.score) > 1e-12
                    for a, b in zip(got, want)):
                bad += 1
        return bool(link_calls) and not bad, \
            f"{len(link_calls)} videos, {bad} differ"

    def _check_masks(self):
        cfg, bad = self.cfg, 0
        for vid in self.test_vids:
            paths = sorted(self._seg_dir(vid).glob("*.sm"))
            names = [p.name for p in paths]
            if names != [f"frame_{t:04d}.sm" for t in range(cfg.num_frames)]:
                bad += 1
            bad += sum(self._decode(p).shape != (cfg.height, cfg.width)
                       for p in paths)
        return not bad, f"{len(self.test_vids)} videos, {bad} faults"

    def _check_labels(self, dets):
        path = Path(self.cfg.out_dir) / "segmentations" / "labels.csv"
        with open(path) as fh:
            seg = [int(r["label"]) for r in csv.DictReader(fh)]
        labels = seg + [d["label"] for d in dets]
        ok = len(seg) == len(self.test_vids) and all(
            1 <= lab <= self.num_classes for lab in labels)
        return ok, f"{len(seg)} video labels, {len(dets)} detection rows"


class Fullscale:
    """The top-down reference forward at the paper's layer-table size."""

    in_shape = (3, 8, 300, 400)

    def setup(self, root, seed):
        self.seed = seed
        self.result = None

    def rates(self):
        return {"tcnn_table_forward": ("tcnn_reference_forward_s", "s", None)}

    def stages(self):
        def forward():
            # networks does not hold the BLAS itself; one thread, as the
            # harness stages run
            with tensor.blas_threads(1):
                self.result = networks.run_tcnn_table_forward(
                    self.in_shape, seed=self.seed)
        return [("tcnn_table_forward", forward)]

    def makeup(self):
        return {"input_shape": list(self.in_shape)}

    def check(self, seed, link_calls):
        _, shapes = self.result
        want = [(r.name, tuple(r.out_shape))
                for r in networks.tcnn_table_specs(self.in_shape)]
        got = [(n, tuple(s)) for n, s in shapes]
        return [("layer shapes equal tcnn_table_specs", got == want,
                 f"{len(got)} layers")]


WORKLOADS = {"train": Train, "infer": Infer, "fullscale": Fullscale}
