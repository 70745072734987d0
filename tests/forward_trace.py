"""A reference forward run once under `tracemalloc`, recording the calls
that set its memory, for the memory tests and `tools/forward_peaks.sh`."""

import hashlib
import tracemalloc
from typing import NamedTuple

import numpy as np
# numpy imports numpy.random lazily; imported here, its modules are never
# charged to the first traced forward that draws a weight
import numpy.random  # noqa: F401

from tubenet import networks, tensor, toi, upsample

# the sub-pixel upsamplers call conv3d through the upsample module, and
# the bottom-up forward calls the upsampler through networks
TRACED = ((tensor, "conv3d"), (upsample, "conv3d"), (tensor, "maxpool3d"),
          (toi, "toi_pool_forward"), (networks, "_fc_forward"),
          (networks, "subpixel_upsample3d"), (np, "concatenate"))


class Call(NamedTuple):
    """A traced call, by shapes: a kept argument would outlive the call."""
    name: str
    label: str  # "call <n> <name> <args>", n counting the calls started
    args: tuple  # the shape of each array argument, or of a list's arrays
    kernel: tuple | None  # the weights' shape of a KernelSet argument
    out: tuple  # the output's shape; a tuple output's first array's
    live: int  # traced bytes live at entry
    peak: int  # the traced peak inside the call, nested calls' included
    digest: str | None  # sha1 of a C-contiguous output, hashed in place


class Record(NamedTuple):
    rows: list  # the forward's table rows
    shapes: list  # [(row name, actual shape)], as the forward returns them
    calls: list  # in the order the calls end
    gap: tuple  # the highest peak outside every call, the labels around it
    trainables: int  # networks._Trainable constructions


def trace_forward(kind, *args):
    """The Record of the `kind` ("tcnn" or "stcnn") reference forward run
    with `args` (in_shape, seed; none: its table size, seed 0). Every wrapped
    name is put back and tracing stops, even when the forward raises."""
    calls, open_peaks = [], []  # the peak so far of each call in progress
    gap, last, trainables = (0, None, None), "the forward's start", 0

    def fold():
        """The peak since the last fold, also each open call's; resets it."""
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        open_peaks[:] = [max(p, peak) for p in open_peaks]
        return peak

    def wrap(name, real):
        def traced(*args, **kwargs):
            nonlocal gap, last
            live = tracemalloc.get_traced_memory()[0]
            xs = args[0] if isinstance(args[0], list) else args
            shapes = tuple(x.shape for x in xs if isinstance(x, np.ndarray))
            shown = shapes[0] if len(shapes) == 1 else shapes
            label = f"call {len(calls) + len(open_peaks) + 1} {name} {shown}"
            peak = fold()
            if not open_peaks and peak > gap[0]:
                gap = (peak, last, label)
            open_peaks.append(0)
            try:
                out = real(*args, **kwargs)
            finally:
                fold()
                peak = open_peaks.pop()
                if not open_peaks:
                    last = label
            kernel = next((a.weights.shape for a in args
                           if isinstance(a, tensor.KernelSet)), None)
            first = out[0] if isinstance(out, tuple) else out
            digest = (hashlib.sha1(first).hexdigest()
                      if first.flags.c_contiguous else None)
            calls.append(Call(name, label, shapes, kernel, first.shape, live,
                              peak, digest))
            return out
        return traced

    init = networks._Trainable.__init__

    def counted(self, *args):
        nonlocal trainables
        trainables += 1
        init(self, *args)

    real = {(module, name): getattr(module, name) for module, name in TRACED}
    run = getattr(networks, f"run_{kind}_table_forward")
    try:
        for (module, name), fn in real.items():
            setattr(module, name, wrap(name, fn))
        networks._Trainable.__init__ = counted
        tracemalloc.start()
        rows, shapes = run(*args)
        end = fold()
    finally:
        tracemalloc.stop()
        networks._Trainable.__init__ = init
        for (module, name), fn in real.items():
            setattr(module, name, fn)
    if end > gap[0]:
        gap = (end, last, "the forward's end")
    return Record(rows, shapes, calls, gap, trainables)


def traced_peak(fn, *args):
    """`fn(*args)` and the call's traced peak, its result included."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
