import json

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import qdtune as q
from qdtune.harness import NEIGHBORHOOD_SIDE, STUDY_SCAN

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def reference_params():
    return q.reference_device()


@pytest.fixture(scope="session")
def reference_scan(reference_params):
    """The offline study's stored scan, placed at ``STUDY_SCAN``.

    200x200 px at 2 mV/px, covering 125..525 x 150..550 mV; the
    double-dot region sits left of center and the merged-dot plateau
    fills the upper right.
    """
    scan, labels = q.render_scan(reference_params, *STUDY_SCAN, 2.0)
    return scan, labels


@pytest.fixture(scope="session")
def reference_source(reference_scan):
    scan, labels = reference_scan
    return q.PremeasuredScan(scan, labels)


@pytest.fixture(scope="session")
def oracle():
    return q.OracleClassifier()


@pytest.fixture(scope="session")
def small_dataset():
    """Twelve labeled windows from six random devices; enough to train on."""
    return q.generate_dataset(6, 2, seed=2)


def random_label_grid(rng, n1=None, n2=None):
    n1 = n1 or int(rng.integers(4, 40))
    n2 = n2 or int(rng.integers(4, 40))
    codes = rng.integers(0, 5, size=(n1, n2)).astype(np.int8)
    res = 2.0
    v1 = 100 + (np.arange(n1) + 0.5) * res
    v2 = 200 + (np.arange(n2) + 0.5) * res
    return q.LabelGrid(codes, v1, v2)


@pytest.fixture(scope="session")
def label_grid_factory():
    return random_label_grid


@pytest.fixture(scope="session")
def fresh_runs_in_reverse():
    """Fresh ``autotune`` runs from the 81 neighborhood starts of ``point``,
    made in reverse start order, as JSON text keyed by start.

    Make them before the experiment they are compared with: a run of that
    experiment that depends on what ran before it in the same process then
    differs from its fresh run.
    """

    def runs(source, classifier, point, make_policy) -> dict:
        offsets = (np.arange(NEIGHBORHOOD_SIDE) - NEIGHBORHOOD_SIDE // 2) * source.scan.meta.resolution
        starts = [(float(point[0] + d1), float(point[1] + d2)) for d1 in offsets for d2 in offsets]
        return {
            start: json.dumps(q.autotune(source, classifier, start, policy=make_policy()).to_json_dict())
            for start in reversed(starts)
        }

    return runs


ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance():
    """Record one PASS/FAIL line per acceptance criterion, then assert.

    The collected lines are echoed in the terminal summary so the
    criterion results stay visible even with output capture on.
    """

    def record(number: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        line = f"{status} criterion {number}: {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES, key=lambda s: int(s.split(":")[0].split()[-1])):
            terminalreporter.write_line(line)
