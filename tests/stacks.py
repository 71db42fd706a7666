"""Call ``qdtune.process`` from tests that hold ScanGrids, and count what
the network is given.

``process`` takes an (N, n, m) stack of sensor values and the ScanMeta they
were measured with. These helpers build that stack from grids, count the
rows of each forward pass, and list the distinct stored windows runs read.
"""

import numpy as np

import qdtune as q
from qdtune import classifier as classifier_mod
from qdtune.grids import DEFAULT_RESOLUTION_MV, DEFAULT_SPAN_MV
from qdtune.scans import _locator


def process_scan(scan: q.ScanGrid) -> np.ndarray:
    """The (30, 30) processed image of one window: the N = 1 stack of its values."""
    return q.process(scan.values[None], scan.meta)[0]


def process_windows(windows: list[q.ScanGrid]) -> np.ndarray:
    """The (N, 30, 30) images of windows of one shape and one metadata."""
    return q.process(np.stack([window.values for window in windows]), windows[0].meta)


def count_forward_rows(patch) -> list[int]:
    """Wrap the network's forward pass through ``patch``, a pytest
    MonkeyPatch, so that each call appends its row count to the list returned."""
    rows = []
    forward = classifier_mod._forward

    def counted(model, x):
        rows.append(len(x))
        return forward(model, x)

    patch.setattr(classifier_mod, "_forward", counted)
    return rows


def stored_windows(source: q.PremeasuredScan, runs) -> set:
    """Each distinct (plan, s1, s2) the runs' measured steps read on a stored
    scan, with the default span and resolution."""
    locate = _locator(source, DEFAULT_SPAN_MV, DEFAULT_RESOLUTION_MV, q.Sandbox())
    return {locate(step.center) for run in runs for step in run.steps if not step.blocked}
