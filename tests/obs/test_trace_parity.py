"""Trace parity: a traced run of each small cell reproduces, event for
event, the trace and result committed in ``golden/trace_digests.json``.

The registry goldens (``tests/perf``) pin what a run counts; they do
not see an event a protocol stops emitting while its counters stay
put.  Each cell here keeps the SHA-256 of the canonical JSON of
``(trace, RunResult.to_dict())`` and the number of events of each
name, so a mismatch names the event kind that moved before the digest
says that something did.

The grid is the five workloads × the four lazy protocols × ATM and
Ethernet × a clean and a lossy network (2 % drop, 1 % duplication,
1 % reordering): 80 cells of 4 processors, seed 3.  Re-pin every cell
(only for a change meant to move traces) with::

    PYTHONPATH=src:. python -m tests.obs.test_trace_parity
"""

import hashlib
import json
import os
from collections import Counter

import pytest

from repro.core.config import FaultConfig, MachineConfig, NetworkConfig
from repro.lab.spec import RunSpec, execute_spec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "trace_digests.json")

APPS = {"jacobi": dict(n=32, iterations=4),
        "water": dict(nmols=16, steps=2),
        "cholesky": dict(k=4),
        "tsp": dict(ncities=7),
        "kvstore": dict(nkeys=16, value_words=8, shards=4, requests=60)}
PROTOCOLS = ["li", "lu", "lh", "ec"]
NETWORKS = {"atm": NetworkConfig.atm, "ethernet": NetworkConfig.ethernet}
VARIANTS = {"clean": FaultConfig(),
            "lossy": FaultConfig(drop_prob=0.02, dup_prob=0.01,
                                 reorder_prob=0.01)}
CELLS = [f"{app}-{protocol}-{network}-{variant}"
         for app in APPS for protocol in PROTOCOLS
         for network in NETWORKS for variant in VARIANTS]


def cell_spec(cell: str) -> RunSpec:
    app, protocol, network, variant = cell.split("-")
    return RunSpec(app, APPS[app], protocol=protocol,
                   config=MachineConfig(nprocs=4,
                                        network=NETWORKS[network](),
                                        faults=VARIANTS[variant],
                                        seed=3),
                   trace=True)


def cell_digest(cell: str) -> dict:
    """The cell's digest and its per-event-name counts."""
    result = execute_spec(cell_spec(cell))
    canonical = json.dumps([result.trace, result.to_dict()],
                           sort_keys=True, separators=(",", ":"))
    counts = Counter(event["name"] for event in result.trace)
    return {"sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "events": dict(sorted(counts.items()))}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_traced_cell_reproduces_its_digest(cell, golden):
    expected = golden[cell]
    actual = cell_digest(cell)
    assert actual["events"] == expected["events"]
    assert actual["sha256"] == expected["sha256"]


def main() -> None:
    digests = {cell: cell_digest(cell) for cell in CELLS}
    with open(GOLDEN, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN} ({len(digests)} cells)")


if __name__ == "__main__":
    main()
