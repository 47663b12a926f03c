"""Opt-in mem.* instrumentation (repro.mem.instrument).

The parity-critical property: nothing is registered or recorded
unless ``enable`` was called, so a default run's registry dump is
bit-for-bit identical to a build without the instrumentation.
"""

import numpy as np
import pytest

from repro.mem import Diff, instrument
from repro.mem.pages import PageTable
from repro.mem.wire import decode_diff, encode_diff
from repro.obs import MEM_CATALOG, MetricsRegistry


@pytest.fixture(autouse=True)
def _reset_instruments():
    instrument.disable()
    yield
    instrument.disable()


def _exercise_substrate():
    table = PageTable(words_per_page=8)
    copy = table.install(0)
    copy.make_twin()
    copy.make_twin()  # no-op: twin already frozen
    diff = Diff(0, [(1, np.array([2.0, 3.0])), (5, np.array([7.0]))])
    decode_diff(encode_diff(diff))
    return table


def test_disabled_by_default_registers_nothing():
    registry = MetricsRegistry()
    _exercise_substrate()
    assert not any(name.startswith("mem.")
                   for name in registry.names())


def test_enable_records_substrate_activity():
    registry = MetricsRegistry()
    ins = instrument.enable(registry)
    assert instrument.active is ins
    _exercise_substrate()

    assert registry.total("mem.page_installs_total") == 1
    assert registry.total("mem.twin_snapshots_total") == 1
    assert registry.total("mem.diffs_encoded_total") == 1
    assert registry.total("mem.diffs_decoded_total") == 1
    runs = registry.get("mem.diff_runs").labels()
    assert runs.count == 1 and runs.sum == 2.0
    encoded = registry.get("mem.diff_encoded_bytes").labels()
    # 16-byte header + 2 runs x 8 + 3 words x 8 host bytes.
    assert encoded.sum == 16 + 16 + 24
    accounted = registry.get("mem.diff_accounted_bytes").labels()
    # 2 runs x 8 + 3 words x 4 simulated bytes.
    assert accounted.sum == 16 + 12


def test_enable_installs_full_mem_catalogue():
    registry = MetricsRegistry()
    instrument.enable(registry)
    for spec in MEM_CATALOG:
        assert registry.get(spec.name).spec is spec


def test_disable_stops_recording_but_keeps_series():
    registry = MetricsRegistry()
    instrument.enable(registry)
    _exercise_substrate()
    instrument.disable()
    assert instrument.active is None
    _exercise_substrate()
    assert registry.total("mem.diffs_encoded_total") == 1


def test_default_machine_dump_has_no_mem_series():
    """A normal simulation never touches the mem catalogue."""
    from repro.apps import create_app
    from repro.core.config import MachineConfig, NetworkConfig
    from repro.core.runner import run_app

    result = run_app(create_app("jacobi", n=16, iterations=2),
                     MachineConfig(nprocs=2,
                                   network=NetworkConfig.atm()),
                     protocol="li")
    names = [m["name"] for m in result.registry.dump()["metrics"]]
    assert not any(name.startswith("mem.") for name in names)
