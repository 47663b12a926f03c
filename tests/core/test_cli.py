"""CLI smoke tests (small scale to stay fast)."""

import pytest

from repro.cli import build_parser, main


def test_parser_builds_and_rejects_unknown_app():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "doom"])


def test_run_command(capsys):
    assert main(["run", "water", "--procs", "2",
                 "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "water/lh on 2 procs" in out
    assert "time breakdown" in out


def test_run_with_speedup(capsys):
    assert main(["run", "jacobi", "--procs", "2", "--scale", "small",
                 "--speedup"]) == 0
    assert "speedup over sequential" in capsys.readouterr().out


def test_compare_command_lists_all_protocols(capsys):
    assert main(["compare", "water", "--procs", "2",
                 "--scale", "small"]) == 0
    out = capsys.readouterr().out
    for protocol in ("lh", "li", "lu", "ei", "eu"):
        assert f"\n{protocol:>6s}" in out or out.startswith(protocol)


def test_sweep_command(capsys):
    assert main(["sweep", "jacobi", "--scale", "small",
                 "--proc-list", "1,2", "--protocol", "li"]) == 0
    out = capsys.readouterr().out
    assert "jacobi/li" in out
    assert "speedup=" in out


def _last_line(capsys, argv):
    assert main(argv + ["--no-cache"]) == 0
    return capsys.readouterr().out.splitlines()[-1]


@pytest.mark.parametrize("flag", [["--mhz", "80"], ["--loss", "0.05"],
                                  ["--page-size", "1024"]])
def test_sweep_honours_the_machine_and_fault_flags(capsys, flag):
    """`sweep` once parsed these and simulated the default machine."""
    argv = ["sweep", "jacobi", "--scale", "small", "--proc-list", "1,4"]
    plain = _last_line(capsys, argv)
    assert plain.startswith("   4p  speedup=")
    assert _last_line(capsys, argv + flag) != plain


def test_networks_command(capsys):
    assert main(["networks", "--app", "jacobi", "--procs", "2",
                 "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "Ethernet" in out
    assert "ATM" in out
    assert "jacobi (LH, 2 procs)" in out


def test_networks_honours_protocol_and_machine_flags(capsys):
    argv = ["networks", "--app", "jacobi", "--procs", "2",
            "--scale", "small"]
    plain = _last_line(capsys, argv)
    assert _last_line(capsys, argv + ["--mhz", "80"]) != plain
    assert main(argv + ["--protocol", "ei", "--no-cache"]) == 0
    assert "jacobi (EI, 2 procs)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["crashsweep", "jacobi", "--network", "atm"],
    ["crashsweep", "jacobi", "--rates", "0.0,0.01"],
    ["crashsweep", "jacobi", "--crash", "0:5000"],
    ["crashsweep", "jacobi", "--crash-mttf", "5000"],
    ["networks", "--network", "atm"],
    ["networks", "--bandwidth", "10"],
    ["compare", "jacobi", "--protocol", "li"],
    ["sweep", "jacobi", "--procs", "4"],
    ["losssweep", "jacobi", "--protocol", "li"],
    ["losssweep", "jacobi", "--loss", "0.1"],
    ["serve", "--protocol", "li"],
    ["serve", "--network", "atm"],
    ["servesweep", "--protocol", "li"],
    ["servesweep", "--network", "atm"],
    ["crashsweep", "jacobi", "--protocol", "li"],
    # The one in-process tool builds no Lab.
    ["profile", "jacobi", "--jobs", "2"],
    ["profile", "jacobi", "--no-cache"],
    # A capture is part of the spec: no subcommand streams traces
    # into a directory, the trace tools sample no windows, and the
    # timeseries tools replay no trace file.
    ["run", "jacobi", "--trace-dir", "t"],
    ["trace", "critical-path", "jacobi", "--trace-dir", "t"],
    ["trace", "export", "jacobi", "--window-us", "100"],
    ["timeseries", "report", "kvstore", "--from", "t.jsonl"],
    ["trace", "contention", "jacobi", "--slo-us", "100"],
])
def test_flags_a_subcommand_cannot_honour_are_rejected(argv, capsys):
    """What a subcommand would parse and ignore is not registered on
    it, and no flag is accepted as a prefix of another (`crashsweep
    --protocol li` was once read as `--protocols li`)."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    flag = next(word for word in argv if word.startswith("--"))
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "jacobi", "--jobs", "0"],
    ["run", "jacobi", "--procs", "0"],
    ["run", "jacobi", "--page-size", "1001"],
    ["run", "jacobi", "--page-size", "0"],
    ["run", "jacobi", "--bandwidth", "0"],
    ["run", "jacobi", "--mhz", "0"],
    ["sweep", "jacobi", "--proc-list", "1,x"],
    ["sweep", "jacobi", "--proc-list", "0,2"],
    ["losssweep", "jacobi", "--rates", "0.0,1.5"],
    ["servesweep", "--rates", "10000,0"],
    ["crashsweep", "jacobi", "--mttfs", "0,-5"],
    ["profile", "jacobi", "--top", "-3"],
    ["trace", "contention", "jacobi", "--top", "0"],
    ["serve", "--tail", "-2"],
    ["serve", "--requests", "0"],
    ["servesweep", "--requests", "0"],
    ["timeseries", "report", "--requests", "0"],
    ["crashsweep", "jacobi", "--max-events", "0"],
    ["serve", "--protocols", "li,bogus"],
    ["serve", "--networks", "token-ring"],
    ["servesweep", "--networks", "token-ring"],
    ["serve", "--slo-us", "0"],
    ["timeseries", "report", "--slo-us", "0"],
], ids=" ".join)
def test_bad_numbers_fail_at_the_command_line(argv, capsys):
    """A count, rate or size no run can have exits 2 naming the flag:
    not a traceback from inside the lab, not a table of zeros."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--scale", "small"])
    assert exit_info.value.code == 2
    flag = next(word for word in argv if word.startswith("--"))
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,absent", [
    (["crashsweep", "jacobi", "--scale", "small", "--mttfs", "0",
      "--networks", "atm", "--protocols", "li"], "lh"),
    (["serve", "--scale", "small", "--requests", "30",
      "--protocols", "li", "--networks", "atm", "--no-cache"],
     "ethernet"),
])
def test_the_list_flags_select_the_cells(argv, absent, capsys):
    """The spelled-out forms of the flags rejected above."""
    assert main(argv) == 0
    table = capsys.readouterr().out
    assert "    li       atm" in table
    assert absent not in table


def test_crashsweep_composes_message_faults_with_the_crash_plan(capsys):
    argv = ["crashsweep", "jacobi", "--mttfs", "0,30000",
            "--protocols", "li", "--networks", "ethernet"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert "100.00%" in plain
    assert main(argv + ["--loss", "0.02"]) == 0
    lossy = capsys.readouterr().out
    assert lossy != plain and "100.00%" in lossy


def test_crashsweep_reaches_sc(capsys):
    """``--protocols`` names every protocol, and SC rides out crashes
    like the others: every cell completes."""
    assert main(["crashsweep", "jacobi", "--protocols", "sc",
                 "--mttfs", "0,30000"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] == ["sc"]]
    assert len(rows) == 4
    assert all("100.00%" in row for row in rows)


@pytest.mark.parametrize("protocol", ["sc", "ec"])
def test_run_names_every_protocol(protocol, capsys):
    assert main(["run", "jacobi", "--procs", "2", "--scale", "small",
                 "--protocol", protocol]) == 0
    assert f"jacobi/{protocol} on 2 procs" in capsys.readouterr().out


def test_run_with_loss_reports_transport_stats(capsys):
    assert main(["run", "jacobi", "--procs", "4", "--scale", "small",
                 "--network", "ethernet", "--loss", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "transport:" in out
    assert "retransmits=" in out


def test_run_without_faults_prints_no_transport_line(capsys):
    assert main(["run", "jacobi", "--procs", "2",
                 "--scale", "small"]) == 0
    assert "transport:" not in capsys.readouterr().out


def test_stall_flag_parses_and_rejects_garbage():
    parser = build_parser()
    args = parser.parse_args(["run", "jacobi", "--stall", "1:500:200",
                              "--stall", "0:10:20"])
    assert [(s.proc, s.at_us, s.duration_us) for s in args.stall] == \
        [(1, 500.0, 200.0), (0, 10.0, 20.0)]
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "jacobi", "--stall", "nope"])


def test_losssweep_command(capsys):
    assert main(["losssweep", "jacobi", "--procs", "4",
                 "--scale", "small", "--network", "ethernet",
                 "--rates", "0.0,0.01", "--protocols", "lh"]) == 0
    out = capsys.readouterr().out
    assert "slowdown" in out
    assert "1.00x" in out          # the 0.0-rate baseline row
    with pytest.raises(SystemExit):
        main(["losssweep", "jacobi", "--protocols", "doom"])


def test_report_command(tmp_path, capsys):
    target = tmp_path / "report.md"
    assert main(["report", str(target), "--scale", "small",
                 "--no-cache"]) == 0
    text = target.read_text()
    assert "# EXPERIMENTS" in text
    assert "Table 2" in text


def test_report_warm_cache_executes_nothing(tmp_path, capsys):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.md"
    warm = tmp_path / "warm.md"
    assert main(["report", str(cold), "--scale", "small",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["report", str(warm), "--scale", "small",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "lab: executed 0, " in out      # zero simulations re-run
    assert warm.read_bytes() == cold.read_bytes()


def test_stats_save_load_roundtrip(tmp_path, capsys):
    saved = tmp_path / "result.json"
    assert main(["stats", "jacobi", "--procs", "2", "--scale",
                 "small", "--no-cache", "--save", str(saved)]) == 0
    first = capsys.readouterr().out
    assert saved.exists()
    assert main(["stats", "--load", str(saved)]) == 0
    assert capsys.readouterr().out == first


def test_stats_load_accepts_cache_envelopes(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["stats", "jacobi", "--procs", "2", "--scale",
                 "small", "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    entries = list(cache.glob("??/*.json"))
    assert entries
    assert main(["stats", "--load", str(entries[0]),
                 "--format", "table"]) == 0
    assert "dsm.messages_total" in capsys.readouterr().out


@pytest.mark.parametrize("content,reason", [
    ('{"schema": 3, "app": ', "not JSON"),
    ("[1, 2, 3]", "not a saved RunResult or lab cache entry"),
    ('{"const_labels": {}, "metrics": []}',
     "not a saved RunResult or lab cache entry"),
    ('{"schema": 3, "app": "jacobi"}',
     "not a saved RunResult or lab cache entry"),
    ('{"schema": 1, "app": "jacobi"}',
     "unsupported RunResult schema 1 (expected 3)"),
    ('{"schema": 2, "app": "jacobi"}',
     "unsupported RunResult schema 2 (expected 3)"),
    ('{"fingerprint": "ab", "result": {"schema": 1}}',
     "unsupported RunResult schema 1 (expected 3)"),
    ('{"schema": 3, "app": "jacobi", "protocol": "li", "nprocs": 1, '
     '"elapsed_cycles": 1.0, "finish_times": [1.0], "app_result": null, '
     '"registry": {"const_labels": {}, "metrics": [{"name": '
     '"bogus.metric_total", "total": 1, "series": []}]}}',
     "uncatalogued metric 'bogus.metric_total' in dump"),
    (None, "No such file or directory"),
], ids=["bad-json", "json-list", "registry-dump", "truncated-result",
        "schema-1", "schema-2", "schema-1-envelope",
        "uncatalogued-metric", "missing-file"])
def test_stats_load_rejects_what_is_not_a_result(tmp_path, capsys,
                                                 content, reason):
    """A file ``--load`` cannot answer from exits 2 naming the file
    and why — not a traceback."""
    path = tmp_path / "result.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exit_info:
        main(["stats", "--load", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --load: {path}: {reason}" in err
    assert err.count(str(path)) == 1, err


@pytest.mark.parametrize("argv", [
    ["trace", "export", "jacobi", "--cache-dir", "c"],
    ["trace", "contention", "jacobi", "--jobs", "2"],
    ["timeseries", "report", "--no-cache"],
    ["timeseries", "export", "kvstore", "--jobs", "2"],
])
def test_capture_subcommands_take_the_lab_flags(argv):
    """The trace and timeseries tools resolve their run through the
    lab, so they take its flags."""
    args = build_parser().parse_args(argv)
    assert (args.jobs, args.cache_dir, args.no_cache) != \
        (None, ".repro-cache", False)


def _trace_stats(tmp_path, *flags):
    return main(["stats", "jacobi", "--procs", "2", "--scale", "small",
                 "--cache-dir", str(tmp_path / "cache"), *flags])


def test_stats_load_writes_the_saved_trace(tmp_path, capsys):
    saved, first, second = (tmp_path / name for name in
                            ("result.json", "a.jsonl", "b.jsonl"))
    assert _trace_stats(tmp_path, "--trace", str(first),
                        "--save", str(saved)) == 0
    registry = capsys.readouterr().out
    assert main(["stats", "--load", str(saved),
                 "--trace", str(second)]) == 0
    assert capsys.readouterr().out == registry
    assert first.read_bytes() and \
        second.read_bytes() == first.read_bytes()


def test_stats_load_trace_needs_a_traced_result(tmp_path, capsys):
    saved, out = tmp_path / "result.json", tmp_path / "t.jsonl"
    assert _trace_stats(tmp_path, "--save", str(saved)) == 0
    capsys.readouterr()
    assert main(["stats", "--load", str(saved),
                 "--trace", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--trace" in err and "--load" in err
    assert not out.exists()


def test_timeseries_kvstore_spellings_are_one_spec():
    """Naming the serving app changes nothing: ``--rate`` and
    ``--requests`` shape the run either way."""
    from repro.cli import _timeseries_spec

    flags = ["--requests", "60", "--rate", "20000"]
    bare, named = (_timeseries_spec(build_parser().parse_args(argv))
                   for argv in (["timeseries", "report", *flags],
                                ["timeseries", "report", "kvstore",
                                 *flags]))
    assert bare.fingerprint() == named.fingerprint()
    assert (named.app_params["requests"],
            named.app_params["rate_rps"]) == (60, 20000.0)


def test_timeseries_rejects_a_subtick_window_in_one_line():
    with pytest.raises(SystemExit) as exit_info:
        main(["timeseries", "report", "--window-us", "0.01",
              "--no-cache"])
    assert exit_info.value.code == (
        "timeseries: window_us=0.01 is 0.400 cycles at 40 MHz — "
        "smaller than the scheduler tick (1 cycle)")


def test_capture_views_execute_nothing_on_a_warm_cache(
        tmp_path, capsys, monkeypatch):
    """A second ``trace critical-path`` and ``timeseries report``
    against the same cache simulate nothing and print the same
    bytes; another SLO re-reads the cached windows."""
    from repro.lab import harness

    lab = ["--cache-dir", str(tmp_path / "cache")]
    views = [["trace", "critical-path", "jacobi", "--scale", "small",
              "--procs", "2", "--protocol", "li", *lab],
             ["timeseries", "report", "--requests", "40", "--rate",
              "20000", *lab]]
    cold = []
    for argv in views:
        assert main(argv) == 0
        cold.append(capsys.readouterr().out)

    def no_simulation(spec, trace_path=None):
        raise AssertionError(f"simulated {spec.label()}")

    monkeypatch.setattr(harness, "execute_spec", no_simulation)
    for argv, out in zip(views, cold):
        assert main(argv) == 0
        assert capsys.readouterr().out == out
    assert main(views[1] + ["--slo-us", "50"]) == 0
    assert "SLO 50 µs" in capsys.readouterr().out


def test_stats_requires_app_or_load(capsys):
    with pytest.raises(SystemExit):
        main(["stats"])


def test_cached_cli_run_is_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["run", "water", "--procs", "2", "--scale", "small",
            "--cache-dir", str(cache)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0                 # served from the cache
    assert capsys.readouterr().out == first


def test_serve_command_reports_percentiles(capsys):
    assert main(["serve", "--requests", "40", "--rate", "30000",
                 "--protocols", "li,lh", "--networks", "ethernet,atm",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "p50us" in out and "p99us" in out and "p999us" in out
    for cell in ("li", "lh", "ethernet", "atm"):
        assert cell in out


def test_serve_tail_attribution(capsys):
    assert main(["serve", "--requests", "30", "--rate", "30000",
                 "--protocols", "lh", "--networks", "atm",
                 "--tail", "3", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "slowest 3 requests" in out
    assert "queue" in out and "contend" in out


def test_servesweep_writes_artifact(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    assert main(["servesweep", "--requests", "30",
                 "--rates", "10000,40000", "--protocols", "lh",
                 "--networks", "atm", "--out", str(out_file),
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "lh/atm" in out
    import json as json_module
    dump = json_module.loads(out_file.read_text())
    assert len(dump["cells"][0]["points"]) == 2


@pytest.mark.parametrize("flags", [
    ["serve", "--rate", "0"],
    ["serve", "--rate", "-100"],
    ["serve", "--rate", "fast"],
    ["serve", "--read-fraction", "1.5"],
    ["serve", "--read-fraction", "-0.1"],
    ["serve", "--zipf-s", "-0.5"],
    ["serve", "--slo-us", "-1"],
    ["serve", "--arrival", "bursty"],
    ["servesweep", "--read-fraction", "2"],
    ["servesweep", "--zipf-s", "-1"],
])
def test_serve_flag_validation(flags):
    with pytest.raises(SystemExit):
        build_parser().parse_args(flags)


@pytest.mark.parametrize("argv,message", [
    (["servesweep", "--crash", "0:5000"], "crash-stop"),
    (["serve", "--crash-mttf", "50000", "--crash-horizon", "100000"],
     "crash-stop"),
    (["serve", "--crash", "0:5000"], "crash-stop"),
], ids=["argv0-crash-stop", "argv4-crash-stop", "argv5-crash-stop"])
def test_serve_rejects_unrunnable_cells(argv, message):
    with pytest.raises(SystemExit, match=message):
        main(argv)


def test_run_and_stats_accept_kvstore(capsys):
    assert main(["run", "kvstore", "--procs", "2", "--scale",
                 "small", "--no-cache"]) == 0
    assert "kvstore/lh on 2 procs" in capsys.readouterr().out
