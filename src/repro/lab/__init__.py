"""repro.lab — parallel experiment harness with a content-addressed
result cache.

The paper's evaluation is a large cross-product (protocols x
applications x networks x processor counts x page sizes x overhead
ablations); :class:`Lab` runs such matrices across CPU cores and
never simulates the same configuration twice:

>>> from repro.lab import Lab, RunSpec
>>> from repro.core.config import MachineConfig, NetworkConfig
>>> lab = Lab(jobs=4, cache_dir=".repro-cache")
>>> spec = RunSpec("jacobi", {"n": 48, "iterations": 3},
...                protocol="lh",
...                config=MachineConfig(nprocs=4,
...                                     network=NetworkConfig.atm()))
>>> result = lab.run(spec)          # doctest: +SKIP

Safety rests on determinism: a :class:`RunSpec` fingerprint commits
to the full machine configuration, the application parameters, and a
hash of every ``repro`` source file, and the simulator produces
bit-identical results per fingerprint (gated by the cross-process
determinism test in ``tests/properties``).  See docs/lab.md.
"""

from repro.lab.cache import ResultCache
from repro.lab.harness import (DEFAULT_CACHE_DIR, Lab, LabError,
                               LabFailure)
from repro.lab.spec import RunSpec, code_version, execute_spec

__all__ = [
    "DEFAULT_CACHE_DIR", "Lab", "LabError", "LabFailure",
    "ResultCache", "RunSpec", "code_version", "execute_spec",
]
