"""Ablation studies: each isolated mechanism must move the needle in
the expected direction (small scale for test speed)."""

import pytest

from repro.analysis.ablations import (ablate_diff_encoding,
                                      ablate_hybrid_heuristic,
                                      ablate_lazy_overhead_factor,
                                      ablate_lock_broadcast)


def test_diff_encoding_saves_data():
    results = ablate_diff_encoding(app="water", nprocs=4,
                                   scale="small")
    diffs = results["diffs"]
    pages = results["whole_pages"]
    assert pages.data_kbytes > 1.5 * diffs.data_kbytes
    assert pages.elapsed_cycles > diffs.elapsed_cycles
    # Near-identical protocol decisions: only the pricing changed
    # (message timing shifts can add the odd extra fetch).
    assert pages.total_messages == pytest.approx(
        diffs.total_messages, rel=0.1)


def test_hybrid_heuristic_controls_misses_and_data():
    results = ablate_hybrid_heuristic(app="water", nprocs=4,
                                      scale="small")
    copyset = results["copyset"]
    always = results["always"]
    never = results["never"]
    # Never piggybacking forces invalidations -> more access misses.
    assert never.access_misses >= copyset.access_misses
    # Always piggybacking ships at least as much data on grants.
    assert always.data_kbytes >= copyset.data_kbytes
    # The heuristic stays within the two extremes on data.
    assert copyset.data_kbytes <= always.data_kbytes + 1e-9


def test_lock_broadcast_trades_messages_for_hops():
    results = ablate_lock_broadcast(app="cholesky", nprocs=4,
                                    scale="small")
    forwarding = results["forwarding"]
    broadcast = results["broadcast"]
    # Broadcast sends more request messages...
    assert broadcast.sync_messages > forwarding.sync_messages
    # ...and both produce the correct factorization (finish() checks).
    assert broadcast.elapsed_cycles > 0


def test_lazy_overhead_factor_costs_time_not_messages():
    results = ablate_lazy_overhead_factor(app="water", nprocs=4,
                                          scale="small")
    doubled = results["doubled"]
    flat = results["flat"]
    assert flat.elapsed_cycles < doubled.elapsed_cycles
    assert flat.total_messages == pytest.approx(
        doubled.total_messages, rel=0.1)


def test_unknown_protocol_option_rejected():
    from repro.core import Machine, MachineConfig
    with pytest.raises(ValueError, match="tunable"):
        Machine(MachineConfig(nprocs=2), protocol="lh",
                protocol_options={"warp_speed": True})


@pytest.mark.parametrize("protocol,options,allowed", [
    # Once run silently as "always".
    ("lh", {"piggyback_policy": "alwyas"}, "'copyset', 'always', 'never'"),
    # EC's bound-page rule is its class attribute, not a knob value.
    ("lu", {"piggyback_policy": "bound"}, "'copyset', 'always', 'never'"),
    # Once truthy, so every diff was priced as a page.
    ("li", {"price_diffs_as_pages": "no"}, "False, True"),
    ("ei", {"price_diffs_as_pages": None}, "False, True"),
])
def test_bad_protocol_option_value_rejected(protocol, options, allowed):
    from repro.core import Machine, MachineConfig
    (knob, value), = options.items()
    with pytest.raises(ValueError) as error:
        Machine(MachineConfig(nprocs=2), protocol=protocol,
                protocol_options=options)
    message = str(error.value)
    assert repr(knob) in message and f"[{allowed}]" in message
    assert repr(value) in message


def test_good_protocol_option_values_accepted():
    from repro.core import Machine, MachineConfig
    machine = Machine(MachineConfig(nprocs=2), protocol="lh",
                      protocol_options={"piggyback_policy": "never",
                                        "price_diffs_as_pages": True})
    protocol = machine.nodes[0].protocol
    assert protocol.piggyback_policy == "never"
    assert protocol.price_diffs_as_pages is True
