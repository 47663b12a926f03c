"""Golden parity of the timeseries-sampler plumbing.

Two gates around :mod:`repro.obs.timeseries`:

- **disabled**: a run threaded through ``run_app(..., sampler=None)``
  — exercising the engine's ``inf`` window boundary, the machine
  attribute, and the worker-pump guard — must reproduce every golden
  dump byte for byte (the zero-overhead-when-off contract also bounded
  by the repo benchmark's ``obs.nullsink_overhead_ratio``);
- **enabled**: attaching a live sampler must *still* reproduce the
  golden bytes, because sampling only reads — it never schedules,
  never perturbs dispatch order, and never shows up in the RunResult.
"""

import json

import pytest

from repro.apps import create_app
from repro.core.runner import run_app
from repro.obs import TimeseriesSampler
from tests.perf.parity import cases, golden_path

CASES = cases()
#: Enabled-sampler parity runs a representative subset (three apps,
#: lazy and eager, both networks) — the full matrix would double the
#: slowest suite in the tree for no additional coverage of the
#: dispatch loop's sampler boundary.
ENABLED_CASES = [(name, spec) for name, spec in CASES
                 if name in ("jacobi_lh_atm4", "jacobi_lh_eth4",
                             "tsp_li_atm4", "water_eu_atm4")]


def _dump(spec, sampler):
    result = run_app(create_app(spec.app, **spec.app_params),
                     spec.config, protocol=spec.protocol,
                     protocol_options=spec.protocol_options,
                     lock_broadcast=spec.lock_broadcast,
                     sampler=sampler,
                     threads_per_proc=spec.threads_per_proc)
    return json.dumps(result.to_dict(), sort_keys=True, indent=1)


@pytest.mark.parametrize("name,spec", CASES,
                         ids=[name for name, _ in CASES])
def test_sampler_disabled_golden_parity(name, spec):
    with open(golden_path(name)) as handle:
        golden = handle.read()
    assert _dump(spec, sampler=None) + "\n" == golden, (
        f"sampler-disabled run diverged from golden {name!r}")


@pytest.mark.parametrize("name,spec", ENABLED_CASES,
                         ids=[name for name, _ in ENABLED_CASES])
def test_sampler_enabled_golden_parity(name, spec):
    with open(golden_path(name)) as handle:
        golden = handle.read()
    sampler = TimeseriesSampler(window_us=250.0)
    assert _dump(spec, sampler) + "\n" == golden, (
        f"attaching a sampler changed the simulation for {name!r}")
    assert sampler.windows, "sampler recorded nothing"
