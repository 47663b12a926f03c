"""Regenerate the perf parity goldens (see tests/perf/parity.py).

With case names as arguments, only those goldens are written (how a
new case is pinned without touching the others)::

    PYTHONPATH=src:. python -m tests.perf.regen cholesky_ec_atm4
"""

import os
import sys

from tests.perf.parity import canonical_dump, cases, golden_path


def main(names=()) -> None:
    os.makedirs(os.path.dirname(golden_path("x")), exist_ok=True)
    selected = [(name, spec) for name, spec in cases()
                if not names or name in names]
    unknown = set(names) - {name for name, _spec in selected}
    if unknown:
        raise SystemExit(f"no golden case named {sorted(unknown)}")
    for name, spec in selected:
        dump = canonical_dump(spec)
        with open(golden_path(name), "w") as handle:
            handle.write(dump + "\n")
        print(f"wrote {golden_path(name)} ({len(dump)} bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
