"""Zero-overhead acceptance: with faults disabled, the robustness
layer must be invisible.

``tests/obs/golden/jacobi_atm_li.json`` is the full metrics dump of a
reference run (jacobi n=24/iterations=3, 4 procs, ATM, protocol li)
captured *before* the fault/transport subsystem existed.  A fault-free
run today must reproduce it bit for bit — same metric set (no
``faults.*`` / ``transport.*`` series), same counts, same float cycle
sums, same elapsed time.  The file was later edited, not re-run, to
the values-only dump: each entry lost its words (they live in
``repro.obs.catalog``) and five unread metrics' entries went, with
every remaining value asserted bit-equal (see tests/perf/parity.py).
"""

import json
import os

from repro.apps import create_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.runner import run_app

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "jacobi_atm_li.json")


def _reference_run():
    return run_app(create_app("jacobi", n=24, iterations=3),
                   MachineConfig(nprocs=4,
                                 network=NetworkConfig.atm()),
                   protocol="li")


def test_fault_free_run_matches_pre_subsystem_golden_dump():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    golden_elapsed = golden.pop("elapsed_cycles")
    result = _reference_run()
    current = json.loads(result.registry.as_json())
    assert current == golden
    assert result.elapsed_cycles == golden_elapsed


def test_fault_free_run_registers_no_robustness_metrics():
    result = _reference_run()
    registry = result.registry
    robustness = [name for name in registry.names()
                  if name.startswith(("faults.", "transport."))]
    assert robustness == []
