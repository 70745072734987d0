"""3D-CNN action detection toolkit.

Numerical core for two video action-detection pipelines: a top-down one
built on tube proposals (3D conv features, Tube-of-Interest pooling,
proposal linking) and a bottom-up one built on per-frame foreground
segmentation with 3D sub-pixel upsampling, plus the detection and
segmentation evaluation metrics and a synthetic desk-scale harness.
"""

from .tensor import (ArgmaxMap, KernelSet, ShapeError, conv3d,
                     conv3d_backward, finite_diff_grad, fully_connected,
                     maxpool3d, maxpool3d_backward, sgd_step, softmax_xent)
from .toi import Box, Tube, bin_edges, toi_pool_backward, toi_pool_forward
from .upsample import (UpscaleFactors, channel_to_spacedepth,
                       channel_to_spacedepth_backward, subpixel_upsample3d)
from .proposals import (Anchor, LabeledBox, RegressionTarget,
                        assign_actionness_labels, decode_regression,
                        encode_regression, kmeans_anchors)
from .linking import (LinkedSequence, TubeProposal, brute_force_link,
                      link_top_k, nms_sequences, overlap, score_sequence)
from .segmentation import SegMask, mask_to_box, segmentation_loss
from .metrics import (Detection, average_precision, contour_f,
                      frame_map, iou_box, iou_mask, mean_recall_decay,
                      roc_auc, temporal_stability, video_map)

__version__ = "0.1.0"
