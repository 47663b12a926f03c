"""On-disk cache: sharded layout, atomicity, corruption handling."""

import json

import pytest

from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import ResultCache, RunSpec, execute_spec


@pytest.fixture(scope="module")
def run():
    spec = RunSpec("jacobi", {"n": 24, "iterations": 2},
                   config=MachineConfig(nprocs=2,
                                        network=NetworkConfig.atm()))
    return spec, execute_spec(spec)


def test_roundtrip_preserves_result_bytes(tmp_path, run):
    spec, result = run
    cache = ResultCache(tmp_path)
    fp = spec.fingerprint()
    assert cache.get(fp) is None
    cache.put(fp, result, spec=spec)
    restored = cache.get(fp)
    assert json.dumps(restored.to_dict(), sort_keys=True) == \
        json.dumps(result.to_dict(), sort_keys=True)
    assert len(cache) == 1


def test_entries_are_sharded_by_prefix(tmp_path, run):
    spec, result = run
    cache = ResultCache(tmp_path)
    fp = spec.fingerprint()
    cache.put(fp, result)
    assert (tmp_path / fp[:2] / f"{fp}.json").exists()
    # ... and no stray temp files survive the atomic write.
    assert not list(tmp_path.glob("**/*.tmp"))


def test_bad_fingerprint_rejected(tmp_path):
    with pytest.raises(ValueError):
        ResultCache(tmp_path).get("short")


def test_corrupt_entry_reads_as_miss_and_is_evicted(tmp_path, run):
    spec, result = run
    cache = ResultCache(tmp_path)
    fp = spec.fingerprint()
    cache.put(fp, result)
    path = tmp_path / fp[:2] / f"{fp}.json"
    path.write_text("{ not json")
    assert cache.get(fp) is None
    assert not path.exists()


def test_fingerprint_mismatch_evicts(tmp_path, run):
    spec, result = run
    cache = ResultCache(tmp_path)
    fp = spec.fingerprint()
    other = "0" * 64
    cache.put(fp, result)
    # Copy the valid envelope under the wrong address.
    path = cache._path(other)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text((tmp_path / fp[:2] / f"{fp}.json").read_text())
    assert cache.get(other) is None
    assert not path.exists()


def test_clear_empties_the_store(tmp_path, run):
    spec, result = run
    cache = ResultCache(tmp_path)
    cache.put(spec.fingerprint(), result)
    cache.put("f" * 64, result)
    assert cache.clear() == 2
    assert len(cache) == 0
