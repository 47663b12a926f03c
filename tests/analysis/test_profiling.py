"""Tests for the ``repro profile`` host/simulated-time attribution,
including the protocol-time buckets (interval-bookkeeping vs diff vs
vector-clock)."""

import re

import pytest

from repro.analysis.profiling import (PROTOCOL_BUCKETS, ProfileReport,
                                      _protocol_bucket, exclusive_shares,
                                      format_profile, profile_spec)
from repro.core.config import MachineConfig, NetworkConfig
from repro.lab.spec import RunSpec
from repro.mem.intervals import DiffStore, IntervalLog


def _spec():
    return RunSpec("jacobi", dict(n=48, iterations=3), protocol="li",
                   config=MachineConfig(nprocs=4,
                                        network=NetworkConfig.atm()))


class TestProtocolBucket:
    def test_vector_clock_file(self):
        assert _protocol_bucket("/x/src/repro/mem/timestamps.py", 1,
                                "merged") == "vector-clock"

    def test_diff_files(self):
        assert _protocol_bucket("/x/src/repro/mem/diffs.py", 1,
                                "apply") == "diff"
        assert _protocol_bucket("/x/src/repro/mem/wire.py", 1,
                                "encode_diff") == "diff"

    def test_intervals_file_split_by_class(self):
        # intervals.py holds both the interval log and the DiffStore;
        # DiffStore's methods count as diff machinery.  Both classes
        # define ``get``, so the split is by line, as pstats keys it.
        path = "/x/src/repro/mem/intervals.py"

        def bucket(method):
            code = method.__code__
            return _protocol_bucket(path, code.co_firstlineno,
                                    code.co_name)

        for method in (IntervalLog.add_if_new, IntervalLog.records_after,
                       IntervalLog.get):
            assert bucket(method) == "interval-bookkeeping"
        for method in (DiffStore.put, DiffStore.get, DiffStore.has,
                       DiffStore.prune_intervals):
            assert bucket(method) == "diff"

    def test_protocols_by_function_name(self):
        base = "/x/src/repro/protocols/base.py"
        lazy = "/x/src/repro/protocols/lazy.py"
        assert _protocol_bucket(base, 1, "seal_interval") \
            == "interval-bookkeeping"
        assert _protocol_bucket(base, 1, "incorporate_records") \
            == "interval-bookkeeping"
        assert _protocol_bucket(lazy, 1, "due_notices") \
            == "interval-bookkeeping"
        assert _protocol_bucket(base, 1, "collect_garbage") \
            == "interval-bookkeeping"
        assert _protocol_bucket(lazy, 1, "_serve_diff_request") == "diff"
        assert _protocol_bucket(lazy, 1, "store_diffs") == "diff"
        assert _protocol_bucket(lazy, 1, "resolve_miss") \
            == "protocol (other)"

    def test_non_protocol_code_is_unbucketed(self):
        assert _protocol_bucket("/x/src/repro/sim/engine.py", 1,
                                "run_until") is None
        assert _protocol_bucket("/usr/lib/python3/heapq.py", 1,
                                "heappush") is None


class TestProfileSpec:
    def test_report_has_all_buckets_and_interval_time(self):
        report = profile_spec(_spec(), top=5)
        assert set(report.protocol_seconds) == set(PROTOCOL_BUCKETS)
        assert all(seconds >= 0.0
                   for seconds in report.protocol_seconds.values())
        # A lazy-protocol run cannot avoid interval bookkeeping.
        assert report.protocol_seconds["interval-bookkeeping"] > 0.0
        assert report.events > 0

    def test_profiled_result_is_bit_identical(self):
        from tests.perf.parity import canonical_dump
        import json
        spec = _spec()
        report = profile_spec(spec, top=0)
        profiled = json.dumps(report.result.to_dict(),
                              sort_keys=True, indent=1)
        assert profiled == canonical_dump(spec)

    def test_format_includes_bucket_section(self):
        report = profile_spec(_spec(), top=3)
        text = format_profile(report, top=3)
        assert "protocol-time buckets" in text
        for name in PROTOCOL_BUCKETS:
            assert name in text


class TestSimulatedTimeShares:
    """ROADMAP 4(d): overhead overlaps the waits, so it is printed on
    its own line and the exclusive slices sum to 100 %."""

    def test_default_run_shares_sum_to_100_with_overhead_apart(
            self, capsys):
        from repro.cli import main
        assert main(["profile", "jacobi", "--top", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("simulated-time attribution (repro.obs):")
        shares, overhead = lines[at + 1], lines[at + 2]
        names = re.findall(r"(\w+) [\d.]+%", shares)
        assert names == ["compute", "lock_wait", "barrier_wait",
                         "miss_wait", "remainder"]
        printed = [float(v) for v in re.findall(r"([\d.]+)%", shares)]
        # Five values rounded to 0.1 each.
        assert sum(printed) == pytest.approx(100.0, abs=0.25)
        assert overhead.strip().startswith("overhead ")
        assert "overlaps the waits" in overhead
        # The old single line summed past 100 % on this very run.
        assert float(re.search(r"([\d.]+)%", overhead).group(1)) > 10

    def test_exclusive_shares_leave_time_breakdown_untouched(self):
        report = profile_spec(_spec(), top=0)
        breakdown = report.result.time_breakdown()
        assert report.sim_time_breakdown == breakdown
        assert list(breakdown) == ["compute", "lock_wait",
                                   "barrier_wait", "miss_wait",
                                   "overhead", "other"]
        shares = exclusive_shares(breakdown)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(shares[name] == breakdown[name]
                   for name in shares if name != "remainder")
