"""One pass of every benchmark workload at seed 0 must get every item right.

`perfbench/run.py` fails a run whose pass ratio drops, but only when the
benchmark is run; this runs the same set-up and pass in the test suite.
"""

import sys
from pathlib import Path

import pytest

from euciso import catalog

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_of_each_workload_is_right(name, monkeypatch):
    # other tests fill the catalog memo; a workload's inputs must start cold
    for entry in catalog.CATALOG.values():
        monkeypatch.setattr(entry, "_spec", None)
    w = workloads.WORKLOADS[name]
    state = w.setup(0)
    results = w.run(state, w.inputs(state))
    assert results and all(ok for ok, _ in results)
