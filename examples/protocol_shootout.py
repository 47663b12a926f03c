#!/usr/bin/env python
"""Protocol shootout: Water under all five RC protocols.

Reproduces the heart of the paper in one script — for a medium-grained
program, the choice of release-consistency protocol is the difference
between scaling and thrashing.  Prints speedup, messages, and data for
EI, EU, LI, LU, and the paper's new lazy hybrid at a chosen processor
count.

Run:  python examples/protocol_shootout.py [nprocs]
"""

import sys

from repro import (MachineConfig, NetworkConfig, PROTOCOL_NAMES,
                   run_app)
from repro.apps import Water


def main() -> None:
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    config = MachineConfig(nprocs=nprocs, network=NetworkConfig.atm())

    def fresh_app():
        return Water(nmols=64, steps=2, cycles_per_pair=3700)

    print(f"Water ({fresh_app().nmols} molecules, 2 steps) on "
          f"{nprocs} processors, 100 Mbit ATM\n")
    baseline = run_app(fresh_app(), config.replace(nprocs=1))
    print(f"{'proto':>6s} {'speedup':>8s} {'messages':>9s} "
          f"{'data KB':>8s} {'misses':>7s} {'lock wait Mcycles':>18s}")
    rows = []
    for protocol in PROTOCOL_NAMES:
        result = run_app(fresh_app(), config, protocol=protocol)
        rows.append((protocol, result.speedup_over(baseline), result))
        print(f"{protocol:>6s} {rows[-1][1]:8.2f} "
              f"{result.total_messages:9d} {result.data_kbytes:8.1f} "
              f"{result.access_misses:7d} "
              f"{result.lock_wait_cycles / 1e6:18.1f}")

    best = max(rows, key=lambda r: r[1])
    worst = min(rows, key=lambda r: r[1])
    print(f"\nbest protocol : {best[0]} ({best[1]:.2f}x)")
    print(f"worst protocol: {worst[0]} ({worst[1]:.2f}x)")
    print(f"gap           : {best[1] / worst[1]:.1f}x  "
          "(paper: >3x between LH and EU at 16 processors)")


if __name__ == "__main__":
    main()
