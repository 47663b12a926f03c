"""Protocol registry: name -> implementation."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.protocols.base import BaseProtocol
from repro.protocols.eager import EagerInvalidate, EagerUpdate
from repro.protocols.lazy import LazyHybrid, LazyInvalidate, LazyUpdate
from repro.protocols.entry import EntryConsistency
from repro.protocols.sc import SequentialInvalidate

_PROTOCOLS: Dict[str, Type[BaseProtocol]] = {
    "ei": EagerInvalidate,
    "eu": EagerUpdate,
    "li": LazyInvalidate,
    "lu": LazyUpdate,
    "lh": LazyHybrid,
    "sc": SequentialInvalidate,
    "ec": EntryConsistency,
}

#: The paper's canonical ordering (figures list protocols this way).
#: 'sc' — the Ivy-style single-writer baseline — is available for
#: comparison studies but is not part of the paper's five.
PROTOCOL_NAMES: List[str] = ["lh", "li", "lu", "ei", "eu"]
ALL_PROTOCOL_NAMES: List[str] = PROTOCOL_NAMES + ["sc", "ec"]


def create_protocol(name: str, node, options=None) -> BaseProtocol:
    """Instantiate the protocol ``name`` ('lh', 'li', 'lu', 'ei', 'eu')
    for ``node``.  ``options`` tweak policy knobs for ablation studies
    (see each protocol's ``configure``)."""
    try:
        cls = _PROTOCOLS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from "
            f"{sorted(_PROTOCOLS)}") from None
    protocol = cls(node)
    if options:
        protocol.configure(**options)
    return protocol
