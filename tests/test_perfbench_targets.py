"""Every function the benchmark's tracer wraps still exists.

perfbench/spans.py wraps qdtune functions at the dotted names their callers
look them up by, and a traced benchmark run fails when one is missing. This
test makes a rename or a merge of such a function fail here first.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("dotted", [dotted for dotted, _ in spans.TARGETS])
def test_target_resolves(dotted):
    assert spans._resolve(dotted) is not None
