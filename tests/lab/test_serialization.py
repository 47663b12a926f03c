"""RunResult / NodeMetrics / MachineConfig JSON round-trips.

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


@pytest.fixture(scope="module")
def results():
    return {app: execute_spec(RunSpec(
        app, APP_PARAMS["small"][app], protocol="lh",
        config=MachineConfig(nprocs=2, network=NetworkConfig.atm())))
        for app in APPS}


@pytest.mark.parametrize("app", APPS)
def test_roundtrip_is_lossless(results, app):
    result = results[app]
    wire = json.dumps(result.to_dict(), sort_keys=True)
    restored = RunResult.from_dict(json.loads(wire))
    assert json.dumps(restored.to_dict(), sort_keys=True) == wire


@pytest.mark.parametrize("app", APPS)
def test_restored_results_answer_the_same_queries(results, app):
    result = results[app]
    restored = RunResult.from_dict(
        json.loads(json.dumps(result.to_dict())))
    assert restored.elapsed_cycles == result.elapsed_cycles
    assert restored.total_messages == result.total_messages
    assert restored.sync_messages == result.sync_messages
    assert restored.data_kbytes == result.data_kbytes
    assert restored.access_misses == result.access_misses
    assert restored.summary() == result.summary()
    assert restored.time_breakdown() == result.time_breakdown()
    assert restored.metric_total("dsm.messages_total") == \
        result.metric_total("dsm.messages_total")
    assert restored.metric_by("dsm.messages_total", "msg_type") == \
        result.metric_by("dsm.messages_total", "msg_type")
    assert restored.speedup_over(result) == 1.0


def test_untouched_cycle_fields_dump_as_floats(results):
    """Jacobi takes no lock, so its ``sync.lock_wait_cycles`` cells
    were never written; the NodeMetrics built from the registry must
    still say ``0.0`` (a golden dump is compared byte for byte), and
    the dump must restore exactly."""
    result = results["jacobi"]
    data = result.to_dict()
    for node in data["node_metrics"]:
        assert node["lock_acquires"] == 0
        for name in ("lock_wait_cycles", "barrier_wait_cycles",
                     "compute_cycles", "overhead_cycles",
                     "miss_wait_cycles", "finish_time"):
            assert type(node[name]) is float, name
        assert node["lock_wait_cycles"] == 0.0
    assert type(data["network_contention_cycles"]) is float
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
    """A fault-enabled run carries ``faults.crash_checkpoint_bytes``,
    a histogram with *integer* bucket bounds (``"1024"``, not
    ``"1024.0"``): restoring it once raised ``KeyError``, so no lossy
    run could cross the process pool."""
    result = execute_spec(RunSpec(
        "jacobi", APP_PARAMS["small"]["jacobi"], protocol="lh",
        config=MachineConfig(nprocs=2,
                             network=NetworkConfig.ethernet(),
                             faults=FaultConfig(drop_prob=0.01))))
    wire = json.dumps(result.to_dict(), sort_keys=True)
    assert '"1024"' in wire
    restored = RunResult.from_dict(json.loads(wire))
    assert json.dumps(restored.to_dict(), sort_keys=True) == wire
