"""Faults the tests inject into scans."""

import qdtune as q


def inject_sensor_flip(scan: q.ScanGrid) -> q.ScanGrid:
    """Return the scan with the sensor sign inverted (axes unchanged)."""
    return scan.with_values(-scan.values)
