"""RunResult / MachineConfig JSON round-trips.

The lab's disk cache and process-pool transport both rely on
``to_dict``/``from_dict`` being lossless; this checks the property on
*real* runs — every application at the small preset — not synthetic
fixtures, so any field the simulator actually populates is covered.
"""

import json

import pytest

from repro.analysis.experiments import APP_PARAMS
from repro.core.config import (FaultConfig, MachineConfig,
                               NetworkConfig, StallSpec)
from repro.core.metrics import RunResult
from repro.lab import RunSpec, execute_spec

APPS = sorted(APP_PARAMS["small"])
#: (app, nprocs) per case: every app on 2 processors, plus two runs
#: wide enough that label-string order ("1", "10", "11", "2") differs
#: from node order, which a float total is sensitive to.
CASES = {**{app: (app, 2) for app in APPS},
         "tsp_12p": ("tsp", 12), "water_16p": ("water", 16)}


@pytest.fixture(scope="module")
def results():
    return {name: execute_spec(RunSpec(
        app, APP_PARAMS["small"][app], protocol="lh",
        config=MachineConfig(nprocs=nprocs,
                             network=NetworkConfig.atm())))
        for name, (app, nprocs) in CASES.items()}


@pytest.mark.parametrize("app", APPS)
def test_roundtrip_is_lossless(results, app):
    result = results[app]
    wire = json.dumps(result.to_dict(), sort_keys=True)
    restored = RunResult.from_dict(json.loads(wire))
    assert json.dumps(restored.to_dict(), sort_keys=True) == wire


@pytest.mark.parametrize("case", list(CASES))
def test_restored_results_answer_the_same_queries(results, case):
    """Exactly (``==``), not approximately: a restored registry adds
    its float series in the live run's order."""
    result = results[case]
    restored = RunResult.from_dict(
        json.loads(json.dumps(result.to_dict())))
    for reader in ("elapsed_cycles", "finish_times", "total_messages",
                   "sync_messages", "data_kbytes", "access_misses",
                   "diffs_created", "lock_wait_cycles"):
        assert getattr(restored, reader) == getattr(result, reader), \
            reader
    assert restored.summary() == result.summary()
    assert restored.time_breakdown() == result.time_breakdown()
    assert restored.registry.names() == result.registry.names()
    for name in result.registry.names():
        assert restored.registry.total(name) == \
            result.registry.total(name), name
    assert restored.registry.by_label("dsm.messages_total", "msg_type") \
        == result.registry.by_label("dsm.messages_total", "msg_type")
    assert restored.speedup_over(result) == 1.0


def test_untouched_cycle_fields_dump_as_floats(results):
    """Jacobi takes no lock, so its ``sync.lock_wait_cycles`` cells
    were never written; the dump must still say ``0.0`` (a golden
    dump is compared byte for byte), and must restore exactly."""
    result = results["jacobi"]
    data = result.to_dict()
    assert all(type(time) is float for time in data["finish_times"])
    metrics = {m["name"]: m for m in data["registry"]["metrics"]}
    for series in metrics["sync.lock_wait_cycles"]["series"]:
        assert series["count"] == 0
        assert type(series["sum"]) is float and series["sum"] == 0.0
    assert RunResult.from_dict(data).to_dict() == data


def test_schema_version_is_checked(results):
    data = results["jacobi"].to_dict()
    assert data["schema"] == RunResult.SCHEMA_VERSION
    data["schema"] = 999
    with pytest.raises(ValueError):
        RunResult.from_dict(data)


def test_machine_config_roundtrips_with_faults():
    config = MachineConfig(
        nprocs=4, cpu_mhz=80.0, page_size=1024,
        network=NetworkConfig.ethernet(),
        faults=FaultConfig(drop_prob=0.01, dup_prob=0.002,
                           stalls=(StallSpec(proc=1, at_us=10.0,
                                             duration_us=5.0),),
                           seed=7))
    clone = MachineConfig.from_dict(
        json.loads(json.dumps(config.to_dict())))
    assert clone == config


def test_fault_enabled_result_roundtrips():
    """A fault-enabled run carries the robustness catalogue, its
    histograms included, and restores bit for bit, so a lossy run can
    cross the process pool.  Integer bucket bounds (``"1024"``, not
    ``"1024.0"``, which once raised ``KeyError`` on restore) are
    covered through ``MEM_CATALOG`` by tests/obs/test_registry.py's
    values-only dump round trip."""
    result = execute_spec(RunSpec(
        "jacobi", APP_PARAMS["small"]["jacobi"], protocol="lh",
        config=MachineConfig(nprocs=2,
                             network=NetworkConfig.ethernet(),
                             faults=FaultConfig(drop_prob=0.01))))
    wire = json.dumps(result.to_dict(), sort_keys=True)
    assert '"faults.recovery_outage_cycles"' in wire
    restored = RunResult.from_dict(json.loads(wire))
    assert json.dumps(restored.to_dict(), sort_keys=True) == wire
