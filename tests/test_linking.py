import numpy as np
import pytest

from tubenet.linking import (LinkedSequence, TubeProposal, brute_force_link,
                             link_top_k, nms_sequences,
                             overlap, save_sequences, score_sequence,
                             sequence_iou)
from tubenet.toi import Box, Tube


def prop(clip, box, actionness, depth=2):
    return TubeProposal(clip, Tube(tuple(box for _ in range(depth))),
                        actionness)


def random_instance(rng, m, max_n):
    per_clip = []
    for i in range(m):
        n = int(rng.integers(1, max_n + 1))
        clip = []
        for _ in range(n):
            x = float(rng.integers(0, 20))
            y = float(rng.integers(0, 20))
            w = float(rng.integers(3, 12))
            h = float(rng.integers(3, 12))
            clip.append(prop(i, Box(x, y, x + w, y + h),
                             float(rng.random())))
        per_clip.append(clip)
    return per_clip


def test_overlap_is_last_to_first_frame_iou():
    a = prop(0, Box(0, 0, 9, 9), 0.5)
    b = prop(1, Box(5, 0, 14, 9), 0.5)
    assert overlap(a, b) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        overlap(b, a)


def test_score_maximal_case():
    seq = [prop(i, Box(0, 0, 9, 9), 1.0) for i in range(3)]
    assert score_sequence(seq) == pytest.approx(2.0)


def test_score_two_clip_hand_case():
    a = prop(0, Box(0, 0, 9, 9), 0.8)
    b = prop(1, Box(5, 0, 14, 9), 0.6)
    # overlap 1/3: S = (0.8+0.6)/2 + 1/3
    assert score_sequence([a, b]) == pytest.approx(0.7 + 1 / 3)


def test_score_single_clip_drops_overlap_term():
    assert score_sequence([prop(0, Box(0, 0, 4, 4), 0.9)]) == \
        pytest.approx(0.9)


def test_three_clips_two_proposals_enumerates_eight():
    rng = np.random.default_rng(0)
    per_clip = random_instance(rng, 3, 2)
    while any(len(c) != 2 for c in per_clip):
        per_clip = random_instance(rng, 3, 2)
    seqs = link_top_k(per_clip, 8)
    assert len(seqs) == 8
    scores = [s.score for s in seqs]
    assert scores == sorted(scores, reverse=True)
    oracle = brute_force_link(per_clip, 8)
    assert [tuple(p.tube[0].astuple() for p in s.proposals) for s in seqs] \
        == [tuple(p.tube[0].astuple() for p in s.proposals) for s in oracle]


def test_k1_dominant_chain():
    strong = Box(0, 0, 9, 9)
    weak = Box(30, 30, 39, 39)
    per_clip = [[prop(i, strong, 0.9), prop(i, weak, 0.1)] for i in range(3)]
    best = link_top_k(per_clip, 1)
    assert len(best) == 1
    assert all(p.tube[0] == strong for p in best[0].proposals)


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        per_clip = random_instance(rng, m, 4)
        k = int(rng.integers(1, 9))
        fast = link_top_k(per_clip, k)
        slow = brute_force_link(per_clip, k)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.score == pytest.approx(b.score, abs=1e-12)
            assert a.proposals == b.proposals


def test_single_clip_sorted_by_actionness():
    per_clip = [[prop(0, Box(0, 0, 4, 4), 0.2),
                 prop(0, Box(1, 1, 5, 5), 0.8),
                 prop(0, Box(2, 2, 6, 6), 0.5)]]
    seqs = brute_force_link(per_clip, 3)
    assert [s.proposals[0].actionness for s in seqs] == [0.8, 0.5, 0.2]


def test_two_by_two_hand_case():
    a0 = prop(0, Box(0, 0, 9, 9), 1.0)
    a1 = prop(0, Box(20, 20, 29, 29), 0.0)
    b0 = prop(1, Box(0, 0, 9, 9), 1.0)
    b1 = prop(1, Box(20, 20, 29, 29), 0.0)
    seqs = brute_force_link([[a0, a1], [b0, b1]], 4)
    # hand scores: (a0,b0)=2, (a0,b1)=(a1,b0)=0.5, (a1,b1)=1
    assert [s.score for s in seqs] == pytest.approx([2.0, 1.0, 0.5, 0.5])
    assert seqs[0].proposals == (a0, b0)
    assert seqs[1].proposals == (a1, b1)


def test_nms_identical_and_disjoint():
    s1 = LinkedSequence((prop(0, Box(0, 0, 9, 9), 0.9),), 0.9)
    s2 = LinkedSequence((prop(0, Box(0, 0, 9, 9), 0.8),), 0.8)
    assert nms_sequences([s1, s2], 0.5) == [s1]
    s3 = LinkedSequence((prop(0, Box(50, 50, 59, 59), 0.8),), 0.8)
    assert nms_sequences([s1, s3], 0.5) == [s1, s3]


def test_nms_threshold_boundary():
    s1 = LinkedSequence((prop(0, Box(0, 0, 9, 9), 0.9),), 0.9)
    s2 = LinkedSequence((prop(0, Box(2, 0, 11, 9), 0.8),), 0.8)  # IoU 2/3
    s3 = LinkedSequence((prop(0, Box(8, 0, 17, 9), 0.7),), 0.7)  # IoU 1/9
    kept = nms_sequences([s1, s2, s3], 0.5)
    assert kept == [s1, s3]


def test_nms_threshold_one_keeps_every_sequence():
    s1 = LinkedSequence((prop(0, Box(0, 0, 9, 9), 0.9),), 0.9)
    s2 = LinkedSequence((prop(0, Box(0, 0, 9, 9), 0.8),), 0.8)  # IoU 1
    s3 = LinkedSequence((prop(0, Box(2, 0, 11, 9), 0.7),), 0.7)
    assert nms_sequences([s3, s1, s2], 1.0) == [s1, s2, s3]
    for bad in (0.0, 1.5):
        with pytest.raises(ValueError):
            nms_sequences([s1], bad)


def test_sequence_file_exact_text(tmp_path):
    # one line per frame of each proposal under its sequence's score, every
    # float written with repr so that it reads back to the same value
    seqs = [LinkedSequence((prop(0, Box(0.0, 0.0, 9.0, 9.0), 0.5),
                            prop(1, Box(1.5, 0.1 + 0.2, 10.0, 11.0), 0.25)),
                           1.125),
            LinkedSequence((prop(0, Box(3.0, 4.0, 5.0, 6.0), 0.75, 1),),
                           0.75)]
    p = tmp_path / "seqs.txt"
    save_sequences(p, seqs)
    assert p.read_text() == (
        "# sequence score 1.125\n"
        "0 0 0.0 0.0 9.0 9.0 0.5\n"
        "0 1 0.0 0.0 9.0 9.0 0.5\n"
        "1 0 1.5 0.30000000000000004 10.0 11.0 0.25\n"
        "1 1 1.5 0.30000000000000004 10.0 11.0 0.25\n"
        "# sequence score 0.75\n"
        "0 0 3.0 4.0 5.0 6.0 0.75\n")
