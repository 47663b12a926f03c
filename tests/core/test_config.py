"""Unit tests for the architectural configuration and cost model."""

import pytest

from repro.core.config import (MachineConfig, NetworkConfig,
                               OverheadConfig)


class TestMachineConfig:
    def test_defaults_match_paper_model(self):
        config = MachineConfig()
        assert config.cpu_mhz == 40.0
        assert config.page_size == 4096
        assert config.words_per_page == 1024
        assert config.network.kind == "atm"

    def test_invalid_nprocs_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(nprocs=0)

    def test_page_size_must_align_to_words(self):
        with pytest.raises(ValueError):
            MachineConfig(page_size=4097)

    @pytest.mark.parametrize("make", [
        lambda: MachineConfig(cpu_mhz=0),
        lambda: MachineConfig(page_size=0),
        lambda: NetworkConfig.atm(0),
    ], ids=["cpu_mhz", "page_size", "bandwidth_mbps"])
    def test_zero_rates_and_sizes_rejected(self, make):
        """A zero clock makes the network free, a zero bandwidth
        divides by zero inside a run: both fail at construction."""
        with pytest.raises(ValueError):
            make()

    def test_time_conversions(self):
        config = MachineConfig(cpu_mhz=40.0)
        assert config.seconds_to_cycles(1.0) == 40e6
        assert config.us_to_cycles(25.0) == pytest.approx(1000.0)

    def test_wire_cycles_scale_with_bandwidth(self):
        slow = MachineConfig(network=NetworkConfig.atm(10.0))
        fast = MachineConfig(network=NetworkConfig.atm(100.0))
        assert slow.wire_cycles(1000) == pytest.approx(
            10 * fast.wire_cycles(1000))

    def test_replace_returns_modified_copy(self):
        config = MachineConfig(nprocs=4)
        other = config.replace(nprocs=8)
        assert other.nprocs == 8
        assert config.nprocs == 4
        assert other.network == config.network


class TestOverheadConfig:
    def test_message_cycles_formula(self):
        overhead = OverheadConfig()
        # (1000 + bytes * 1.5/4) per end.
        assert overhead.message_cycles(400, lazy=False) == \
            pytest.approx(1000 + 400 * 0.375)

    def test_lazy_doubles_per_byte_term_only(self):
        overhead = OverheadConfig()
        eager = overhead.message_cycles(1000, lazy=False)
        lazy = overhead.message_cycles(1000, lazy=True)
        assert lazy - eager == pytest.approx(1000 * 0.375)

    def test_scale_zero_removes_all_costs(self):
        overhead = OverheadConfig(scale=0.0)
        assert overhead.message_cycles(9999, lazy=True) == 0.0
        assert overhead.diff_cycles(1024) == 0.0

    def test_diff_cost_is_per_word_per_page(self):
        overhead = OverheadConfig()
        assert overhead.diff_cycles(1024) == 4096.0


class TestNetworkConfig:
    def test_factories(self):
        assert NetworkConfig.ethernet().collisions
        assert not NetworkConfig.ethernet(collisions=False).collisions
        assert NetworkConfig.atm().kind == "atm"
        assert NetworkConfig.ideal().latency_us == 0.0

    def test_bandwidth_conversion(self):
        assert NetworkConfig.atm(100.0).bandwidth_bps == 100e6
