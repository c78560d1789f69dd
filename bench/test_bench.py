"""Checks of the benchmark itself: oracles and span accounting.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Re-deriving the pp-train oracle enumerates about 95,000 pivot triples and
takes around half a minute.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import pytest  # noqa: E402

import derive_oracles  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_oracles  # noqa: E402


@pytest.mark.parametrize("name", sorted(derive_oracles.DERIVATIONS))
def test_oracle_rederives(name):
    assert derive_oracles.DERIVATIONS[name]() == load_oracles()[name]


def test_every_workload_has_an_oracle():
    assert set(WORKLOADS) == set(load_oracles())


def test_self_time_excludes_nested_spans():
    clock = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(clock))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner())
    outer()
    assert tracer.spans["inner"].durations == [2.0]
    assert tracer.spans["outer"].durations == [10.0]
    assert tracer.spans["outer"].self_time == 8.0
    assert tracer.spans["inner"].self_time == 2.0
