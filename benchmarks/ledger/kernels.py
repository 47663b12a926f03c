"""Layer kernels: public functions of each layer timed in isolation.

Each kernel builds seeded synthetic inputs once, then runs one short
*batch* per round.  Each layer group of a round is bracketed by two
calibration samples, so every batch is paired with calibrations taken
a few milliseconds before and after it; the reported value is the
median over rounds of
the batch's normalised time per operation (or bytes per normalised
second).  Nothing here is traced.

The three ``obs.*_overhead_ratio`` arms are whole runs of
``jacobi_li_8p``, each paired with its own plain run (order
alternating from round to round), so they need no calibration: the
ratio is arm time / plain time.
"""

from __future__ import annotations

import gc
import json
import random
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from benchmarks.ledger.calibrate import calibration_sample, normalised
from benchmarks.ledger.metrics import KERNELS, summarise
from benchmarks.ledger.workloads import BY_NAME

from repro.core.config import (FaultConfig, MachineConfig,
                               NetworkConfig, TransportConfig)
from repro.faults import FaultInjector
from repro.lab import Lab
from repro.lab.cache import ResultCache
from repro.lab.spec import RunSpec, execute_spec
from repro.core.metrics import RunResult
from repro.mem import (Diff, IntervalLog, IntervalRecord, PageCopy,
                       VectorClock, decode_diff, encode_diff)
from repro.net import AtmNetwork, EthernetNetwork, Message, MsgKind
from repro.net.transport import ReliableTransport
from repro.obs import (JsonlSink, MemorySink, MetricsRegistry, NullSink,
                       Observability, TimeseriesSampler, Tracer)
from repro.serve.workload import generate_requests
from repro.sim.engine import Simulator

PAGE_WORDS = 1024                 # 4 KiB page of 4-byte words
HOST_PAGE_BYTES = PAGE_WORDS * 8  # one float64 per word on the host

_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _noop(*_args) -> None:
    return None


# -- sim ----------------------------------------------------------------

def k_dispatch_zero(rng, tmp):
    def run():
        sim = Simulator()
        for _ in range(8000):
            sim.schedule(0.0, _noop)
        sim.run()
        return 8000
    return run


def k_dispatch_timed(rng, tmp):
    sim = Simulator()
    delays = [rng.uniform(1.0, 1000.0) for _ in range(1024)]
    cursor = [0]

    def tick():
        cursor[0] = index = cursor[0] + 1
        sim.schedule(delays[index & 1023], tick)

    for delay in delays[:1000]:        # ~1k pending timed events
        sim.schedule(delay, tick)

    def run():
        sim.run(max_events=5000)
        return 5000
    return run


def k_process_yield(rng, tmp):
    def ticker(count):
        for _ in range(count):
            yield 1.0

    def run():
        sim = Simulator()
        sim.spawn(ticker(4000))
        sim.run()
        return 4000
    return run


def k_timer_cancel(rng, tmp):
    def run():
        sim = Simulator()
        for _ in range(3000):
            sim.timer(100.0).cancel()
        sim.run()
        return 3000
    return run


# -- net / transport ----------------------------------------------------

def _messages(rng, count: int, nprocs: int = 8) -> List[Message]:
    out = []
    for _ in range(count):
        src = rng.randrange(nprocs)
        dst = (src + 1 + rng.randrange(nprocs - 1)) % nprocs
        out.append(Message(src, dst, MsgKind.DIFF_REPLY,
                           data_bytes=rng.choice((0, 64, 512, 4096))))
    return out


def _k_transmit(network_class, network_config):
    def make(rng, tmp):
        config = MachineConfig(nprocs=8, network=network_config)
        sim = Simulator()
        network = network_class(sim, config)
        network.attach(_noop)
        network.attach_obs(Observability())
        messages = _messages(rng, 1000)
        transmit = network.transmit

        def run():
            for message in messages:
                transmit(message)
            sim.run()
            return len(messages)
        return run
    return make


def _k_transport_round(drop_prob: float):
    def make(rng, tmp):
        config = MachineConfig(
            nprocs=8, network=NetworkConfig.atm(),
            seed=rng.randrange(1 << 30),
            faults=FaultConfig(drop_prob=drop_prob),
            transport=TransportConfig(force=True))
        sim = Simulator()
        obs = Observability()
        network = AtmNetwork(sim, config)
        delivered = []
        transport = ReliableTransport(sim, config, network,
                                      delivered.append, obs=obs)
        network.attach(transport.on_network_delivery)
        network.attach_obs(obs)
        if drop_prob:
            network.attach_faults(FaultInjector(config, obs=obs))
        messages = _messages(rng, 200)

        def run():
            del delivered[:]
            for message in messages:
                transport.send(message)
            sim.run()
            if len(delivered) != len(messages) or transport.in_flight():
                raise AssertionError(
                    "transport kernel lost or duplicated a message")
            return len(messages)
        return run
    return make


# -- mem ----------------------------------------------------------------

def _page(rng) -> PageCopy:
    return PageCopy(0, PAGE_WORDS,
                    values=[rng.random() for _ in range(PAGE_WORDS)])


def _sparse_ranges(rng) -> List[Tuple[int, int]]:
    """8 runs x 16 words, sorted and disjoint."""
    starts = sorted(rng.sample(range(0, PAGE_WORDS // 32), 8))
    return [(start * 32, start * 32 + 16) for start in starts]


def k_twin(rng, tmp):
    copy = _page(rng)

    def run():
        for _ in range(2000):
            copy.drop_twin()
            copy.make_twin()
        return 2000 * HOST_PAGE_BYTES
    return run


def _k_diff_create(dense: bool):
    def make(rng, tmp):
        copy = _page(rng)
        ranges = [(0, PAGE_WORDS)] if dense else _sparse_ranges(rng)
        words = sum(end - start for start, end in ranges)
        count = 4000 if dense else 2000

        def run():
            for _ in range(count):
                Diff.from_ranges(0, copy, ranges,
                                 assume_normalized=True)
            return count * words * 8
        return run
    return make


def _sample_diffs(rng) -> List[Diff]:
    copy = _page(rng)
    return [Diff.from_ranges(0, copy, _sparse_ranges(rng)),
            Diff.from_ranges(0, copy, [(0, PAGE_WORDS)])]


def k_diff_apply(rng, tmp):
    target = _page(rng)
    diffs = _sample_diffs(rng)
    payload = sum(len(diff.payload) for diff in diffs)

    def run():
        for _ in range(1500):
            for diff in diffs:
                diff.apply(target)
        return 1500 * payload
    return run


def k_rdif_encode(rng, tmp):
    copy = _page(rng)
    shapes = [_sparse_ranges(rng), [(0, PAGE_WORDS)]]

    def prepare():
        # Fresh diffs every batch: the encoded blob is memoised on
        # the diff, and the kernel measures the cold encode.
        return [Diff.from_ranges(0, copy, shapes[i & 1])
                for i in range(600)]

    def run(diffs):
        return sum(len(encode_diff(diff)) for diff in diffs)
    return prepare, run


def k_rdif_decode(rng, tmp):
    blobs = [encode_diff(diff) for diff in _sample_diffs(rng)]
    size = sum(len(blob) for blob in blobs)

    def run():
        for _ in range(500):
            for blob in blobs:
                decode_diff(blob)
        return 500 * size
    return run


def k_record_write(rng, tmp):
    copy = _page(rng)
    writes = []
    for _ in range(40):                 # 40 intervals of 64 writes
        cursor = 0
        for _ in range(64):
            if rng.random() < 0.15:      # out-of-order write
                start = rng.randrange(0, PAGE_WORDS - 8)
            else:
                start = min(cursor + rng.randrange(0, 12),
                            PAGE_WORDS - 8)
            end = start + rng.randrange(1, 8)
            cursor = max(cursor, end)
            writes.append((start, end))

    def run():
        record = copy.record_write
        for index, (start, end) in enumerate(writes):
            record(start, end)
            if index & 63 == 63:
                copy.take_written_ranges()
        return len(writes)
    return run


def _k_vc_merge(width: int):
    def make(rng, tmp):
        clocks = [VectorClock(rng.randrange(50) for _ in range(width))
                  for _ in range(65)]
        pairs = list(zip(clocks, clocks[1:]))

        def run():
            for _ in range(40):
                for left, right in pairs:
                    left.merged(right)
            return 40 * len(pairs)
        return run
    return make


def k_records_after(rng, tmp):
    log = IntervalLog()
    for proc in range(32):
        for index in range(1, 201):
            clock = [rng.randrange(index + 1) for _ in range(32)]
            clock[proc] = index
            log.add(IntervalRecord(proc, index, VectorClock(clock),
                                   frozenset({rng.randrange(64)})))
    queries = [VectorClock(rng.randrange(150, 201) for _ in range(32))
               for _ in range(16)]

    def run():
        for query in queries:
            log.records_after(query)
        return len(queries)
    return run


# -- obs ----------------------------------------------------------------

def k_counter_inc(rng, tmp):
    child = MetricsRegistry().counter("bench.kernel").labels()

    def run():
        for _ in range(20000):
            child.inc()
        return 20000
    return run


def _emit_batch(tracer, count: int) -> int:
    for index in range(count):
        # The emission-site idiom: truth-test, then emit.
        if tracer:
            tracer.emit("msg.send", msg=index, src=1, dst=2,
                        kind="diff_reply", data_bytes=512,
                        context="app", reply_to=None)
    return count


def k_null_emit(rng, tmp):
    tracer = Tracer(NullSink())
    return lambda: _emit_batch(tracer, 20000)


def k_memory_emit(rng, tmp):
    sink = MemorySink()
    tracer = Tracer(sink)

    def run():
        sink.events.clear()
        return _emit_batch(tracer, 3000)
    return run


def k_jsonl_emit(rng, tmp):
    path = str(tmp / "kernel.jsonl")

    def run():
        with JsonlSink(path) as sink:
            return _emit_batch(Tracer(sink), 1000)
    return run


# -- lab / serve --------------------------------------------------------

_SMALL = RunSpec("jacobi", dict(n=32, iterations=2), protocol="li",
                 config=MachineConfig(nprocs=4,
                                      network=NetworkConfig.atm()))
_VERSION = "0" * 64     # fixed code version: no source-tree hashing


def k_fingerprint(rng, tmp):
    spec = BY_NAME["serve_write_lossy"].spec()

    def run():
        for _ in range(100):
            spec.fingerprint(_VERSION)
        return 100
    return run


def k_cache_hit(rng, tmp):
    cache = ResultCache(tmp / "hit")
    fingerprint = _SMALL.fingerprint(_VERSION)
    cache.put(fingerprint, execute_spec(_SMALL), _SMALL)

    def run():
        for _ in range(5):
            if cache.get(fingerprint) is None:
                raise AssertionError("cache kernel missed")
        return 5
    return run


def k_cache_put(rng, tmp):
    cache = ResultCache(tmp / "put")
    fingerprint = _SMALL.fingerprint(_VERSION)
    result = execute_spec(_SMALL)

    def run():
        for _ in range(5):
            cache.put(fingerprint, result, _SMALL)
        return 5
    return run


def k_result_roundtrip(rng, tmp):
    result = execute_spec(_SMALL)

    def run():
        for _ in range(5):
            RunResult.from_dict(json.loads(json.dumps(
                result.to_dict())))
        return 5
    return run


def k_spec_overhead(rng, tmp):
    """Per-spec cost the lab adds around ``execute_spec``
    (fingerprint, serialisation, disk write) on 20 tiny specs."""
    specs = [RunSpec("jacobi", dict(n=16, iterations=1 + index),
                     protocol="li",
                     config=MachineConfig(
                         nprocs=2, network=NetworkConfig.atm()))
             for index in range(20)]
    batch = [0]

    def run():
        batch[0] += 1
        lab = Lab(jobs=None, cache_dir=str(tmp / f"lab{batch[0]}"))
        started = time.perf_counter()
        lab.run_many(specs)
        through_lab = time.perf_counter() - started
        started = time.perf_counter()
        for spec in specs:
            execute_spec(spec)
        direct = time.perf_counter() - started
        return len(specs), through_lab - direct
    return run


def k_generate(rng, tmp):
    seed = rng.randrange(1 << 30)

    def run():
        generate_requests(nkeys=256, requests=2000, rate_rps=10_000.0,
                          read_fraction=0.9, zipf_s=0.99,
                          nclients=1_000_000, arrival="poisson",
                          seed=seed)
        return 2000
    return run


#: Layer groups; calibration samples separate the groups of a round.
GROUPS: Tuple[Tuple[Tuple[str, Callable], ...], ...] = (
    (("sim.k_dispatch_zero_ns", k_dispatch_zero),
     ("sim.k_dispatch_timed_ns", k_dispatch_timed),
     ("sim.k_process_yield_ns", k_process_yield),
     ("sim.k_timer_cancel_ns", k_timer_cancel)),
    (("net.k_atm_transmit_ns",
      _k_transmit(AtmNetwork, NetworkConfig.atm())),
     ("net.k_ethernet_transmit_ns",
      _k_transmit(EthernetNetwork, NetworkConfig.ethernet())),
     ("transport.k_clean_round_us", _k_transport_round(0.0)),
     ("transport.k_lossy_round_us", _k_transport_round(0.05))),
    (("mem.k_twin_mb_s", k_twin),
     ("mem.k_diff_create_sparse_mb_s", _k_diff_create(dense=False)),
     ("mem.k_diff_create_dense_mb_s", _k_diff_create(dense=True)),
     ("mem.k_diff_apply_mb_s", k_diff_apply),
     ("mem.k_rdif_encode_mb_s", k_rdif_encode),
     ("mem.k_rdif_decode_mb_s", k_rdif_decode)),
    (("mem.k_record_write_ns", k_record_write),
     ("mem.k_vc_merge8_ns", _k_vc_merge(8)),
     ("mem.k_vc_merge32_ns", _k_vc_merge(32)),
     ("mem.k_records_after_us", k_records_after)),
    (("obs.k_counter_inc_ns", k_counter_inc),
     ("obs.k_null_emit_ns", k_null_emit),
     ("obs.k_memory_emit_ns", k_memory_emit),
     ("obs.k_jsonl_emit_us", k_jsonl_emit)),
    (("lab.k_fingerprint_us", k_fingerprint),
     ("lab.k_cache_hit_ms", k_cache_hit),
     ("lab.k_cache_put_ms", k_cache_put),
     ("lab.k_result_roundtrip_ms", k_result_roundtrip)),
    (("lab.k_spec_overhead_ms", k_spec_overhead),
     ("serve.k_generate_us_per_req", k_generate)),
)

_UNITS = {metric.name: metric.unit for metric in KERNELS}


def _value(unit: str, work: float, seconds: float) -> float:
    if unit == "MB/s":
        return work / seconds / 1e6
    return seconds / work * _SCALE[unit]


def _micro_kernels(seed: int, rounds: int, tmp: Path
                   ) -> Dict[str, List[float]]:
    built = []
    for group in GROUPS:
        members = []
        for name, make in group:
            # One substream per kernel: adding a kernel never moves
            # another's inputs.
            made = make(random.Random(f"{seed}/{name}"), tmp)
            prepare, run = made if isinstance(made, tuple) \
                else (None, made)
            members.append((name, prepare, run))
        built.append(members)
    samples: Dict[str, List[float]] = {
        name: [] for group in GROUPS for name, _make in group}
    for _ in range(rounds):
        gc.collect()
        before, _cpu = calibration_sample()
        for members in built:
            timings = []
            for name, prepare, run in members:
                prepared = () if prepare is None else (prepare(),)
                started = time.perf_counter()
                outcome = run(*prepared)
                seconds = time.perf_counter() - started
                if isinstance(outcome, tuple):
                    outcome, seconds = outcome
                timings.append((name, outcome, seconds))
            # A group is bracketed by two calibration samples and
            # paired with their mean, like a timed repetition.
            after, _cpu = calibration_sample()
            cal = (before + after) / 2
            before = after
            for name, work, seconds in timings:
                samples[name].append(_value(
                    _UNITS[name], work, normalised(seconds, cal)))
    return samples


def _events(result) -> int:
    return int(result.registry.total("sim.events_dispatched_total"))


def _timed_events(run) -> Tuple[float, int]:
    gc.collect()
    started = time.perf_counter()
    result = run()
    return time.perf_counter() - started, _events(result)


def _overhead_arms(rounds: int, tmp: Path):
    """Whole-run arms on ``jacobi_li_8p``, each paired with its own
    plain run.  Whichever of the pair runs second starts from the
    other's heap, so the order alternates from round to round (plain
    then arm, arm then plain) and that position bias cancels over an
    even number of rounds.  Every arm only observes, so it must
    dispatch the identical event count; a different count is a failed
    check."""
    from repro.apps import create_app
    from repro.core.runner import run_app

    spec = BY_NAME["jacobi_li_8p"].spec()

    def plain():
        return execute_spec(spec)

    def with_obs(obs=None, sampler=None):
        return run_app(create_app(spec.app, **spec.app_params),
                       spec.config, protocol=spec.protocol, obs=obs,
                       sampler=sampler)

    arms = (
        ("obs.nullsink_overhead_ratio", lambda: with_obs(
            obs=Observability(tracer=Tracer(NullSink())))),
        ("obs.sampler_overhead_ratio", lambda: with_obs(
            sampler=TimeseriesSampler(window_us=1000.0))),
        ("obs.jsonl_overhead_ratio", lambda: execute_spec(
            spec, trace_path=str(tmp / "arm.jsonl"))),
    )
    samples: Dict[str, List[float]] = {name: [] for name, _ in arms}
    attempted = failed = 0
    errors = []
    for index in range(rounds):
        for name, arm in arms:
            if index % 2:
                (seconds, events), (base, base_events) = (
                    _timed_events(arm), _timed_events(plain))
            else:
                (base, base_events), (seconds, events) = (
                    _timed_events(plain), _timed_events(arm))
            samples[name].append(seconds / base)
            attempted += 1
            if events != base_events:
                failed += 1
                errors.append(f"{name}: arm dispatched {events} "
                              f"events, plain run {base_events}")
    return samples, attempted, failed, errors


def run_kernels(seed: int, rounds: int, scratch: str) -> dict:
    """The micro-kernel (c) metrics as median/q1/q3/n."""
    with tempfile.TemporaryDirectory(prefix="ledger-kernels-",
                                     dir=scratch) as tmp:
        samples = _micro_kernels(seed, rounds, Path(tmp))
    return {"metrics": {name: summarise(values)
                        for name, values in samples.items()},
            "attempted": 0, "failed": 0, "errors": []}


#: The gate carried over from BENCH_core: a tracer holding a NullSink
#: may cost less than 1 % of the plain run.
NULLSINK_GATE = 1.01
#: One paired ratio reads +-5 % in a noisy epoch of the sandbox, so
#: the median of 16 rounds moves +-1.5 % on unchanged code and fewer
#: rounds resolve nothing: the gate is checked from this many rounds
#: up, and on the first quartile - it fails when three rounds in four
#: saw the arm more than 1 % slower, which noise does not produce.
GATE_MIN_ROUNDS = 8


def run_arms(rounds: int, scratch: str) -> dict:
    """The three whole-run obs arms, plus their checks."""
    with tempfile.TemporaryDirectory(prefix="ledger-arms-",
                                     dir=scratch) as tmp:
        samples, attempted, failed, errors = _overhead_arms(
            rounds, Path(tmp))
    metrics = {name: summarise(values)
               for name, values in samples.items()}
    if rounds >= GATE_MIN_ROUNDS:
        attempted += 1
        nullsink = metrics["obs.nullsink_overhead_ratio"]
        if nullsink["q1"] >= NULLSINK_GATE:
            failed += 1
            errors.append(
                f"obs.nullsink_overhead_ratio {nullsink['value']:.4f} "
                f"(q1 {nullsink['q1']:.4f}) is not below "
                f"{NULLSINK_GATE}")
    return {"metrics": metrics, "attempted": attempted,
            "failed": failed, "errors": errors}
