"""The open-loop generator: validation, shape, and the determinism
property the lab cache and per-node multiplexing stand on."""

import hashlib
import json
import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import pytest

from repro.core.rng import substream
from repro.serve.workload import (SERVE_APP_PARAMS, Request,
                                  generate_requests, node_schedules,
                                  validate_workload, write_counts,
                                  zipf_cdf)

GEN_ARGS = dict(nkeys=16, requests=200, rate_rps=50_000.0,
                read_fraction=0.8, zipf_s=0.99, nclients=1_000_000,
                arrival="poisson", seed=1993)


# -- validation ---------------------------------------------------------


@pytest.mark.parametrize("field,value,message", [
    ("rate_rps", 0.0, "arrival rate"),
    ("rate_rps", -5.0, "arrival rate"),
    ("read_fraction", -0.1, "read fraction"),
    ("read_fraction", 1.5, "read fraction"),
    ("zipf_s", -0.01, "Zipf exponent"),
    ("nkeys", 0, "at least one key"),
    ("requests", 0, "at least one request"),
    ("nclients", 0, "at least one client"),
    ("arrival", "bursty", "arrival mode"),
])
def test_validation_rejects_bad_parameters(field, value, message):
    args = dict(GEN_ARGS)
    args[field] = value
    with pytest.raises(ValueError, match=message):
        generate_requests(**args)


def test_validation_accepts_boundary_fractions():
    validate_workload(1.0, 0.0, 0.0)
    validate_workload(1.0, 1.0, 0.0)


# -- schedule shape -----------------------------------------------------


def test_schedule_is_sorted_and_in_domain():
    schedule = generate_requests(**GEN_ARGS)
    assert len(schedule) == GEN_ARGS["requests"]
    arrivals = [r.arrival_us for r in schedule]
    assert arrivals == sorted(arrivals)
    assert all(0 <= r.key < GEN_ARGS["nkeys"] for r in schedule)
    assert all(0 <= r.client < GEN_ARGS["nclients"] for r in schedule)
    assert all(r.op in ("get", "put") for r in schedule)
    assert [r.req_id for r in schedule] == list(range(len(schedule)))


def test_fixed_arrivals_are_evenly_spaced():
    args = dict(GEN_ARGS, arrival="fixed", requests=10,
                rate_rps=1_000_000.0)  # 1 request per microsecond
    schedule = generate_requests(**args)
    assert [r.arrival_us for r in schedule] == pytest.approx(
        list(range(10)))


def test_zipf_skews_toward_low_keys():
    cdf = zipf_cdf(4, 1.0)
    # Weights 1, 1/2, 1/3, 1/4 accumulated.
    assert cdf == pytest.approx([1.0, 1.5, 1.5 + 1 / 3, 25 / 12])
    skewed = generate_requests(**dict(GEN_ARGS, zipf_s=1.2,
                                      requests=2_000))
    hot = sum(1 for r in skewed if r.key == 0)
    cold = sum(1 for r in skewed if r.key == GEN_ARGS["nkeys"] - 1)
    assert hot > 5 * max(cold, 1)


def test_zipf_zero_is_roughly_uniform():
    schedule = generate_requests(**dict(GEN_ARGS, zipf_s=0.0,
                                        requests=4_000))
    counts = [0] * GEN_ARGS["nkeys"]
    for r in schedule:
        counts[r.key] += 1
    expected = len(schedule) / GEN_ARGS["nkeys"]
    assert min(counts) > expected * 0.5
    assert max(counts) < expected * 1.5


def test_read_fraction_controls_the_mix():
    all_reads = generate_requests(**dict(GEN_ARGS, read_fraction=1.0))
    assert all(r.op == "get" for r in all_reads)
    all_writes = generate_requests(**dict(GEN_ARGS,
                                          read_fraction=0.0))
    assert all(r.op == "put" for r in all_writes)


def test_node_schedules_partition_by_client():
    schedule = generate_requests(**GEN_ARGS)
    per_node = node_schedules(schedule, 4)
    assert sum(len(s) for s in per_node) == len(schedule)
    for node, stream in enumerate(per_node):
        assert all(r.client % 4 == node for r in stream)
        arrivals = [r.arrival_us for r in stream]
        assert arrivals == sorted(arrivals)


def test_write_counts_match_the_puts():
    schedule = generate_requests(**GEN_ARGS)
    counts = write_counts(schedule, GEN_ARGS["nkeys"])
    assert sum(counts) == sum(1 for r in schedule if r.op == "put")


# -- determinism (the property the lab cache stands on) -----------------

_CHILD = """
import json, sys
from repro.serve.workload import generate_requests
args = json.loads(sys.stdin.read())
schedule = generate_requests(**args)
print(json.dumps([r._asdict() for r in schedule], sort_keys=True))
"""


def _schedule_in_subprocess(args: dict, hashseed: str) -> str:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(args),
        capture_output=True, text=True, env=env, check=True)
    return proc.stdout.strip()


def test_same_seed_same_schedule_across_processes():
    local = json.dumps([r._asdict() for r in
                        generate_requests(**GEN_ARGS)],
                       sort_keys=True)
    assert _schedule_in_subprocess(GEN_ARGS, "0") == local
    assert _schedule_in_subprocess(GEN_ARGS, "1") == local


def _reference_schedule(nkeys, requests, rate_rps, read_fraction,
                        zipf_s, nclients, arrival, seed):
    """The documented model written with the plain Random API: one
    draw per substream per request, in the module docstring's order."""
    arrivals_rng = substream(seed, "serve.arrivals")
    keys_rng = substream(seed, "serve.keys")
    ops_rng = substream(seed, "serve.ops")
    clients_rng = substream(seed, "serve.clients")
    cdf = zipf_cdf(nkeys, zipf_s)
    mean_gap_us = 1e6 / rate_rps
    clock_us = 0.0
    out = []
    for req_id in range(requests):
        if arrival == "poisson":
            clock_us += arrivals_rng.expovariate(1.0 / mean_gap_us)
        else:
            clock_us = req_id * mean_gap_us
        key = bisect_left(cdf, keys_rng.random() * cdf[-1])
        op = "get" if ops_rng.random() < read_fraction else "put"
        out.append((req_id, clients_rng.randrange(nclients), key, op,
                    clock_us))
    return out


@pytest.mark.parametrize("seed", [1, 1993, 2**40 + 7])
@pytest.mark.parametrize("arrival", ["poisson", "fixed"])
@pytest.mark.parametrize("nclients", [1, 1_000_000])
def test_schedule_is_the_documented_model(seed, arrival, nclients):
    args = dict(GEN_ARGS, requests=500, seed=seed, arrival=arrival,
                nclients=nclients)
    schedule = generate_requests(**args)
    # Tuple equality: every field, floats compared exactly.
    assert [tuple(r) for r in schedule] == _reference_schedule(**args)


#: SHA-256 of the seed-1993 ``serve_read_clean`` schedule (20,000
#: requests), serialised as compact JSON rows ``[req_id, client, key,
#: op, arrival_us]``.  Every supported Python must produce it.
SERVE_READ_CLEAN_SHA256 = (
    "70d8b7b178b52d2bbba99569d010c64569f1fb71be2caa268726ca6af0cd11d9")


def test_serve_read_clean_schedule_is_pinned():
    schedule = generate_requests(
        nkeys=256, requests=20_000, rate_rps=10_000.0,
        read_fraction=0.9, zipf_s=0.99, nclients=1_000_000,
        arrival="poisson", seed=1993)
    blob = json.dumps([list(r) for r in schedule],
                      separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SERVE_READ_CLEAN_SHA256


def test_different_seeds_differ():
    a = generate_requests(**GEN_ARGS)
    b = generate_requests(**dict(GEN_ARGS, seed=7))
    assert a != b


def test_dimensions_are_independent_substreams():
    # Changing the op mix must not move arrivals or key choices.
    a = generate_requests(**dict(GEN_ARGS, read_fraction=0.9))
    b = generate_requests(**dict(GEN_ARGS, read_fraction=0.1))
    assert [r.arrival_us for r in a] == [r.arrival_us for r in b]
    assert [r.key for r in a] == [r.key for r in b]


def test_scaled_params_generate():
    for scale, params in SERVE_APP_PARAMS.items():
        schedule = generate_requests(
            nkeys=params["nkeys"], requests=params["requests"],
            rate_rps=params["rate_rps"],
            read_fraction=params["read_fraction"],
            zipf_s=params["zipf_s"], nclients=params["nclients"],
            arrival="poisson", seed=1993)
        assert len(schedule) == params["requests"], scale


def test_request_is_frozen():
    request = Request(req_id=0, client=1, key=2, op="get",
                      arrival_us=3.0)
    with pytest.raises(Exception):
        request.key = 5
