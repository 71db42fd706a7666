"""Call ``qdtune.process`` from tests that hold ScanGrids.

``process`` takes an (N, n, m) stack of sensor values and the ScanMeta they
were measured with. These helpers build that stack from grids.
"""

import numpy as np

import qdtune as q


def process_scan(scan: q.ScanGrid) -> np.ndarray:
    """The (30, 30) processed image of one window: the N = 1 stack of its values."""
    return q.process(scan.values[None], scan.meta)[0]


def process_windows(windows: list[q.ScanGrid]) -> np.ndarray:
    """The (N, 30, 30) images of windows of one shape and one metadata."""
    return q.process(np.stack([window.values for window in windows]), windows[0].meta)
