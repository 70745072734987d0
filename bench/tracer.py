"""Span tracing of tubenet functions, installed from outside the package.

`Tracer` replaces each named function with a wrapper that records a span
(name, start, end, parent span) in memory. A function is replaced in every
tubenet module that holds it, because several modules import functions by
name (`harness` imports `load_video_frames`, `link_top_k` and `mask_to_box`
that way, `networks` imports `channel_to_spacedepth`): wrapping only the
defining module would miss those calls. Methods are replaced on their class.
`Patch` does the replacing and puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Module -> public functions (or Class.method) timed from outside. Names
# whose module is listed in INCLUSIVE also report inclusive time.
TRACED = {
    "tensor": ["conv3d", "conv3d_backward", "maxpool3d", "maxpool3d_backward",
               "fully_connected", "fully_connected_backward", "relu",
               "relu_backward", "sgd_step"],
    "networks": ["clip_grads"],
    "upsample": ["channel_to_spacedepth", "channel_to_spacedepth_backward",
                 "subpixel_upsample3d"],
    "toi": ["toi_pool_forward", "toi_pool_backward"],
    "proposals": ["PairedFeatureProjector.forward",
                  "PairedFeatureProjector.backward",
                  "assign_actionness_labels", "kmeans_anchors"],
    "models": ["Encoder.forward", "Encoder.backward", "TCNN.tpn_step",
               "TCNN.recognition_step", "TCNN.encode_clip",
               "STCNN.train_step", "STCNN.forward", "STCNN.segment_clip"],
    "linking": ["link_top_k", "nms_sequences"],
    "segmentation": ["segmentation_loss", "mask_to_box", "save_mask"],
    "metrics": ["frame_map", "video_map", "roc_auc", "iou_mask", "contour_f",
                "temporal_stability"],
    "synth": ["gen_dataset", "load_annotations", "load_video_frames",
              "load_video_masks"],
    "harness": ["train_tcnn", "train_stcnn", "run_detect", "detect_video",
                "run_segment", "run_eval", "save_model", "load_tcnn",
                "load_stcnn"],
}
INCLUSIVE = ("models", "harness")


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _resolve(qualname):
    """(owner, attribute, original) of ``module.func`` or
    ``module.Class.method`` inside the tubenet package."""
    mod, _, rest = qualname.partition(".")
    owner = importlib.import_module(f"tubenet.{mod}")
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class Patch:
    """Replace functions wherever tubenet holds them; `restore` undoes it."""

    def __init__(self):
        self._saved = []

    def replace(self, qualname, make_wrapper):
        owner, attr, original = _resolve(qualname)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "tubenet"
                                      or name.startswith("tubenet.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _conv_counts(out_shape, kernels, products):
    """(GFLOP, im2col MB) of a conv3d call from its shapes: the im2col
    matrix has one row per input channel and kernel tap and one column per
    output position; the forward multiplies it once, the backward twice
    (for the weights and for the input)."""
    oc, ic, kd, kh, kw = kernels.weights.shape
    rows = ic * kd * kh * kw
    cols = out_shape[1] * out_shape[2] * out_shape[3]
    flop = 2.0 * oc * rows * cols * products
    return flop / 1e9, rows * cols * kernels.weights.itemsize / 1e6


class Tracer:
    """In-memory spans of the wrapped tubenet functions, recorded between
    `install` and `uninstall`, plus the counts the per-layer metrics need."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._patch = Patch()

    def install(self):
        for qualname in traced_names():
            self._patch.replace(qualname, functools.partial(self._wrap,
                                                            qualname))

    def uninstall(self):
        self._patch.restore()

    def _wrap(self, name, fn):
        hook = {"tensor.conv3d": self._count_conv,
                "tensor.conv3d_backward": self._count_conv_backward,
                "models.TCNN.recognition_step": self._count_rec_clips,
                "linking.link_top_k": self._count_links}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _count_conv(self, args, kwargs):
        from tubenet.tensor import conv3d_out_shape

        x, kernels, *rest = args
        stride = kwargs.get("stride", rest[0] if rest else (1, 1, 1))
        pad = kwargs.get("pad", rest[1] if len(rest) > 1 else (1, 1, 1))
        self._add_conv(conv3d_out_shape(x.shape, kernels, stride, pad),
                       kernels, 1)

    def _count_conv_backward(self, args, kwargs):
        self._add_conv(args[0].shape, args[2], 2)

    def _add_conv(self, out_shape, kernels, products):
        gflop, mb = _conv_counts(out_shape, kernels, products)
        self.counts["conv_gflop"] += gflop
        self.counts["im2col_mb"] += mb

    def _count_rec_clips(self, args, kwargs):
        self.counts["rec_clips"] += len(args[1])

    def _count_links(self, args, kwargs):
        self.counts["link_clips"] += len(args[0])
        self.counts["link_proposals"] += sum(len(c) for c in args[0])

    # ------------------------------------------------------------------
    def summary(self):
        """Per name: calls, inclusive seconds and self seconds (inclusive
        minus the time spent in wrapped callees)."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        return calls, incl, self_s

    def nested_calls(self, name, ancestor):
        """Calls of `name` made (directly or not) inside `ancestor`."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
