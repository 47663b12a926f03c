"""Additional resource-primitive tests."""

import pytest

from repro.sim import Resource, Simulator


class TestResourceAccounting:
    def test_wait_statistics(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="r")

        def holder():
            yield resource.request()
            yield sim.timeout(40.0)
            resource.release()

        def waiter():
            yield sim.timeout(10.0)
            yield resource.request()
            resource.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.run()
        assert resource.total_waits == 1
        assert resource.total_wait_cycles == pytest.approx(30.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)
