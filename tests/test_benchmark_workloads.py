"""The benchmark's workloads call the package as it is: set-up, op and check on every input."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["Index", "Flow", "Search"])
def test_workload_ops_pass_their_checks(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checks and netgen
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = getattr(workloads, name)()
    items = workload.setup(np.random.default_rng(3), tmp_path)
    assert items
    if name == "Search":
        # the four CgSCR searches take ~0.2 s together; each BgSCR one 0.5-2.5 s
        items = [item for item in items if item[1] == "CgSCR"]
        assert len(items) == 4
    assert [workload.check(item, workload.op(item)) for item in items] == [None] * len(items)
