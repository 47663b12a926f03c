"""The DSM protocols: the paper's five release-consistent
multiple-writer protocols plus the Ivy-style sequentially-consistent
single-writer baseline ('sc') they were invented to beat."""

from repro.protocols.base import (BaseProtocol, ConsistencyInfo,
                                  ProtocolError)
from repro.protocols.eager import EagerInvalidate, EagerUpdate
from repro.protocols.lazy import LazyHybrid, LazyInvalidate, LazyUpdate
from repro.protocols.registry import (ALL_PROTOCOL_NAMES,
                                      PROTOCOL_NAMES, create_protocol)
from repro.protocols.sc import SequentialInvalidate

__all__ = [
    "ALL_PROTOCOL_NAMES", "BaseProtocol", "ConsistencyInfo",
    "EagerInvalidate", "EagerUpdate", "LazyHybrid", "LazyInvalidate",
    "LazyUpdate", "PROTOCOL_NAMES", "ProtocolError",
    "SequentialInvalidate", "create_protocol",
]
