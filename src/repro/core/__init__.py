"""Machine glue: configuration, nodes, metrics, the app API, the runner."""

from repro.core.api import DsmApi
from repro.core.config import (MachineConfig, NetworkConfig,
                               OverheadConfig)
from repro.core.machine import Machine
from repro.core.metrics import RunResult
from repro.core.node import Node
from repro.core.runner import run_app

__all__ = [
    "DsmApi", "Machine", "MachineConfig", "NetworkConfig", "Node",
    "OverheadConfig", "RunResult", "run_app",
]
