"""Byte-for-byte parity against the pre-optimization goldens.

Every hot-path change (inlined dispatch loop, incremental run-merge,
due-notice memoization, cached interval notices, pre-bound metric
children, ...) must leave the simulation's observable output — the
full canonical RunResult dump, metrics registry included — unchanged
down to the byte.  See tests/perf/parity.py for the matrix and
docs/performance.md for why this gate exists.
"""

import json

import pytest

from repro.core.metrics import RunResult
from tests.perf.parity import canonical_dump, cases, golden_path

CASES = cases()


@pytest.mark.parametrize("name,spec", CASES,
                         ids=[name for name, _ in CASES])
def test_golden_byte_parity(name, spec):
    with open(golden_path(name)) as handle:
        golden = handle.read()
    # regen.py writes the dump plus a trailing newline.
    assert canonical_dump(spec) + "\n" == golden, (
        f"optimized simulation diverged from golden {name!r}; if the "
        "behavior change is intentional, regenerate with "
        "`PYTHONPATH=src:. python -m tests.perf.regen`")


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_golden_restores_to_itself(name):
    """A restored result re-dumps to the bytes it was restored from:
    the registry re-inserts series in the live run's (numeric node)
    order, so every float ``total`` adds up exactly as it did live —
    the 16- and 32-node goldens are the ones a label-string order
    broke."""
    with open(golden_path(name)) as handle:
        golden = json.load(handle)
    assert RunResult.from_dict(golden).to_dict() == golden
