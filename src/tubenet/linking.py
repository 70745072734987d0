"""Linking per-clip tube proposals into video-length sequences.

A complete sequence picks one proposal per clip. Its score is the mean
actionness over clips plus the mean IoU between the last frame of each
proposal and the first frame of the next one. Top-K extraction is a k-best
Viterbi sweep over the clip chain; a brute-force enumerator serves as the
oracle, and greedy NMS prunes near-duplicate sequences.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .proposals import iou
from .toi import Tube


@dataclass(frozen=True)
class TubeProposal:
    clip_index: int
    tube: Tube
    actionness: float

    def __post_init__(self):
        if not 0.0 <= self.actionness <= 1.0:
            raise ValueError(f"actionness {self.actionness} outside [0,1]")


@dataclass(frozen=True)
class LinkedSequence:
    proposals: tuple
    score: float

    def __post_init__(self):
        object.__setattr__(self, "proposals", tuple(self.proposals))

    def __len__(self):
        return len(self.proposals)


def overlap(a: TubeProposal, b: TubeProposal) -> float:
    """IoU of a's last-frame box against b's first-frame box."""
    if b.clip_index != a.clip_index + 1:
        raise ValueError(
            f"clips {a.clip_index} and {b.clip_index} are not adjacent"
        )
    return iou(a.tube[-1], b.tube[0])


def score_sequence(seq) -> float:
    """Mean actionness plus mean adjacent overlap; the overlap term is 0
    for a single-clip sequence."""
    seq = list(seq)
    m = len(seq)
    if m == 0:
        raise ValueError("empty sequence")
    s = sum(p.actionness for p in seq) / m
    if m > 1:
        s += sum(overlap(seq[j], seq[j + 1]) for j in range(m - 1)) / (m - 1)
    return float(s)


def _prepare(per_clip):
    per_clip = [list(clip) for clip in per_clip]
    for i, clip in enumerate(per_clip):
        if not clip:
            raise ValueError(f"clip {i} has no proposals")
    return per_clip


def link_top_k(per_clip, k: int):
    """The k highest-scoring complete sequences, best first.

    K-best Viterbi over the clip chain; each state keeps its top-k partial
    paths. Ties break on lexicographic proposal indices.
    """
    per_clip = _prepare(per_clip)
    m = len(per_clip)
    total = int(np.prod([len(c) for c in per_clip]))
    k = min(k, total)
    a_w = 1.0 / m
    o_w = 1.0 / (m - 1) if m > 1 else 0.0

    # per proposal: list of (-partial_score, index_path) kept sorted
    paths = [[(-(a_w * p.actionness), (j,))] for j, p in enumerate(per_clip[0])]
    for i in range(1, m):
        nxt = []
        for j, p in enumerate(per_clip[i]):
            cands = []
            for jp, prev in enumerate(per_clip[i - 1]):
                edge = a_w * p.actionness + o_w * overlap(prev, p)
                for negs, path in paths[jp]:
                    cands.append((negs - edge, path + (j,)))
            nxt.append(heapq.nsmallest(k, cands))
        paths = nxt
    final = heapq.nsmallest(k, (entry for plist in paths for entry in plist))
    rescored = []
    for _, path in final:
        props = tuple(per_clip[i][j] for i, j in enumerate(path))
        rescored.append((-score_sequence(props), path, props))
    rescored.sort()
    return [LinkedSequence(props, -negs) for negs, _, props in rescored]


def brute_force_link(per_clip, k: int, limit: int = 10 ** 6):
    """Exhaustive enumeration oracle for link_top_k."""
    per_clip = _prepare(per_clip)
    total = int(np.prod([len(c) for c in per_clip]))
    if total > limit:
        raise ValueError(f"{total} sequences exceeds brute-force limit {limit}")
    import itertools
    scored = []
    for path in itertools.product(*[range(len(c)) for c in per_clip]):
        props = tuple(per_clip[i][j] for i, j in enumerate(path))
        scored.append((-score_sequence(props), path, props))
    scored.sort()
    return [LinkedSequence(props, -negs) for negs, _, props in scored[:k]]


def sequence_iou(a: LinkedSequence, b: LinkedSequence) -> float:
    """Mean per-frame box IoU over the common clip extent."""
    n = min(len(a), len(b))
    vals = []
    for pa, pb in zip(a.proposals[:n], b.proposals[:n]):
        vals.extend(iou(ba, bb) for ba, bb in zip(pa.tube, pb.tube))
    return float(np.mean(vals)) if vals else 0.0


def nms_sequences(seqs, iou_thresh: float):
    """Greedy NMS: keep the best-scoring sequence, drop any survivor whose
    sequence IoU with it exceeds the threshold, repeat. At threshold 1
    every sequence is kept."""
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh {iou_thresh} outside (0,1]")
    order = sorted(range(len(seqs)), key=lambda i: (-seqs[i].score, i))
    kept = []
    for i in order:
        if all(sequence_iou(seqs[i], seqs[j]) <= iou_thresh for j in kept):
            kept.append(i)
    return [seqs[i] for i in kept]


def save_sequences(path, seqs) -> None:
    """Line format: clip index, frame index, x1 y1 x2 y2, actionness."""
    with open(path, "w") as fh:
        for seq in seqs:
            fh.write(f"# sequence score {seq.score!r}\n")
            for p in seq.proposals:
                for f, box in enumerate(p.tube):
                    fh.write(
                        f"{p.clip_index} {f} "
                        f"{box.x1!r} {box.y1!r} {box.x2!r} {box.y2!r} "
                        f"{p.actionness!r}\n"
                    )
