"""Exact-count steadiness: with one fixed seed, two traced passes over the
shortened job lists report the same deterministic per-layer counts.

Timings on a shared machine swing by tens of percent; counts do not, so a
change in work done shows in them even when the times cannot resolve it.

    python3 -m pytest bench/test_counts.py
"""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# The counts each workload must exercise (nonzero) besides repeating.
NAMED = {
    "invariants": [("phi.phi_basis", "monomials")],
    "reduce": [("forms.mul", "term_pairs"), ("linalg.add_row", "calls")],
    "scaling": [("frames.a_hat", "calls")],
}


def counts(layers):
    """Every per-layer statistic except the self times."""
    return {(layer, key): value for layer, entry in layers.items()
            for key, value in entry.items() if key != "self_s"}


@pytest.fixture
def work():
    path = run.ROOT / ".bench_work" / "test-counts"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_counts_repeat_exactly(workload, work):
    first, second = (run.run_worker(workload, 7, index, work, True, 170, short=True)
                     for index in (0, 1))
    assert first["jobs"] and all(job["ok"] for job in first["jobs"] + second["jobs"])
    for layer, stat in NAMED[workload]:
        assert first["layers"][layer][stat] > 0
    assert counts(first["layers"]) == counts(second["layers"])
