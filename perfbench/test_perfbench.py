"""Checks on the benchmark itself: its inputs and counts are reproducible.

    python -m pytest perfbench -q

Runs every workload pass twice, so it takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

for _name in ("AISEMIRING_KERNELS", "AISEMIRING_CENSUS_CAP"):
    os.environ.pop(_name, None)

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

from aisemiring.algebra import profile_from_add  # noqa: E402

HERE = Path(__file__).resolve().parent

#: counts that must repeat exactly at one seed, per workload
NAMED_COUNTS = {
    "derive": ("derivation.explored", "derivation.found"),
    "census": tuple(f"kernels.{kind}.{name}"
                    for kind in ("census_tables", "canonical_classes")
                    for name in workloads.ORDER5_SHAPES),
    "scan": ("family.assignments", "satisfaction.oracle_assignments"),
}


@pytest.mark.parametrize("name", sorted(NAMED_COUNTS))
def test_same_seed_gives_identical_counts(name):
    cls = workloads.WORKLOADS[name]
    first = cls(7, NullTracer()).run_pass(NullTracer())
    second = cls(7, Tracer()).run_pass(Tracer())
    assert (first.failed, second.failed) == (0, 0), first.first_failure or second.first_failure
    assert set(NAMED_COUNTS[name]) <= set(first.counts)
    assert first.counts == second.counts


def test_seed_changes_derive_and_oracle_inputs_only():
    def derive_inputs(seed):
        cases = workloads.Derive(seed, NullTracer()).cases
        return repr([(sigma, claim, [S.name for S in models]) for sigma, claim, models in cases])

    assert derive_inputs(1) != derive_inputs(2)
    assert derive_inputs(1) == derive_inputs(1)
    # the renaming keeps the search order, so the search work is the same
    explored = [
        [workloads.search_derivation(sigma, claim, workloads.BOUNDS).explored
         for sigma, claim, _ in workloads.Derive(seed, NullTracer()).cases[:200]]
        for seed in (1, 2)
    ]
    assert explored[0] == explored[1]
    scan = [workloads.Scan(seed, NullTracer()) for seed in (1, 2)]
    assert scan[0].oracle != scan[1].oracle
    assert [S.name for S in scan[0].bulk] == [S.name for S in scan[1].bulk]
    census = [workloads.Census(seed, NullTracer()).order5 for seed in (1, 2)]
    assert census[0].keys() == census[1].keys()
    assert all(np.array_equal(census[0][name], census[1][name]) for name in census[0])


def test_order5_inputs_are_pairwise_nonisomorphic_semilattices():
    tables = workloads.order5_semilattices()
    k = 5
    i, j, l = np.indices((k, k, k))
    for add in tables.values():
        assert add.shape == (k, k)
        assert np.array_equal(add, add.T)
        assert np.array_equal(np.diag(add), np.arange(k))
        assert np.array_equal(add[add[i, j], l], add[i, add[j, l]])
    # (minimals, coatoms) is an isomorphism invariant, so distinct pairs
    # prove the three tables pairwise non-isomorphic
    shapes = {}
    for name, add in tables.items():
        profile = profile_from_add(add)
        shapes[name] = (len(profile.minimals), len(profile.coatoms))
    assert shapes == {"flat": (4, 4), "coatom3": (3, 1), "chain": (1, 1)}


def test_result_line_has_every_declared_per_layer_metric():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
