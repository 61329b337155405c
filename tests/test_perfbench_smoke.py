"""The benchmark's operations run on the package and pass their own checks.

Every operation of the cv-grid, select-tall and sparse-text workloads runs
once plainly and once under the benchmark's tracer, in a temporary
directory.  A cut of a name the benchmark reads fails here, before any
benchmark run does, and so does a change in how many solves, SVDs, balls
and BSS selections a pass makes.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 902

# Per-layer calls of one traced pass at SEED: solve_dual, thin_svd,
# meb_radius, bss_select.
PASS_CALLS = {
    "cv-grid": (70, 10, 0, 20),
    "select-tall": (12, 6, 12, 3),
    "sparse-text": (12, 5, 8, 3),
}


@pytest.mark.parametrize("workload", ["cv-grid", "select-tall", "sparse-text"])
def test_workload_ops_pass_their_checks(workload, tmp_path):
    ops = workloads.WORKLOADS[workload](SEED, tmp_path)
    tracer = Tracer()
    tracer.start_pass()
    for op in ops:
        plain = op.run()
        tracer.install()
        try:
            traced = op.run()
        finally:
            tracer.uninstall()
        for out in (plain, traced):
            assert op.check(out) == [], op.name
        assert op.digest(plain) == op.digest(traced), op.name
    metrics = tracer.layer_metrics()
    assert metrics["pipelines.self_s"] > 0.0
    calls = tuple(metrics[f"{name}.calls"] for name in (
        "svm.solve_dual", "linalg.thin_svd", "geometry.meb_radius", "bss.bss_select"))
    assert calls == PASS_CALLS[workload]
