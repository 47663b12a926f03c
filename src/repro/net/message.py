"""Protocol messages.

Following the paper's accounting, a message's wire length is a fixed
header plus the *shared data* it carries (diffs or whole pages);
protocol-specific consistency information (write notices, vector times,
copysets) travels free of charge.  The metrics layer classifies messages
as synchronization vs. data traffic from their kind
(``repro.obs.SYNC_MSG_TYPES``).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Optional

from repro.core.config import MESSAGE_HEADER_BYTES

_next_message_id = itertools.count().__next__


def restart_message_ids() -> None:
    """Number the next messages from 0 again (every machine does, so
    a run's message ids — and its trace — depend on the run alone)."""
    global _next_message_id
    _next_message_id = itertools.count().__next__


class MsgKind(Enum):
    """Every message type exchanged by the five protocols."""

    LOCK_REQ = "lock_req"            # acquirer -> lock owner
    LOCK_FWD = "lock_fwd"            # lock owner -> current holder
    LOCK_GRANT = "lock_grant"        # releaser -> acquirer (+consistency)
    BARRIER_ARRIVE = "barrier_arrive"  # worker -> barrier master
    BARRIER_DEPART = "barrier_depart"  # barrier master -> worker
    PAGE_REQ = "page_req"            # access miss: ask for a page copy
    PAGE_FWD = "page_fwd"            # owner forwards miss to valid cacher
    PAGE_REPLY = "page_reply"        # page contents (+diffs for lazy)
    DIFF_REQ = "diff_req"            # lazy miss: ask a modifier for diffs
    DIFF_REPLY = "diff_reply"        # diffs
    FLUSH = "flush"                  # eager release: notices or updates
    FLUSH_ACK = "flush_ack"          # ack (EI ack may carry merge diffs)
    UPDATE_PUSH = "update_push"      # pre-barrier update distribution
    UPDATE_ACK = "update_ack"        # ack for LU/EU pushes
    DIFF_FWD = "diff_fwd"            # EI barrier: loser -> winner diffs
    TRANSPORT_ACK = "transport_ack"  # reliable-transport pure ack
    # (never sent by protocols; appears only on the wire when the
    # reliable transport is active -- see repro.net.transport)

    # Enum's default __hash__ is a Python-level call (hash of _name_);
    # members are singletons compared by identity, so the C-level
    # object hash is equivalent — and message kinds key the per-send
    # counter and the dispatch table, once each per message.
    __hash__ = object.__hash__


class Message:
    """One point-to-point protocol message.

    ``__init__`` is written out (one frame per message: validate, fill
    the slots, draw an id only when none is given), and a message that
    fails validation draws no id."""

    __slots__ = ("src", "dst", "kind", "payload", "data_bytes", "lazy",
                 "msg_id", "reply_to", "size_bytes")

    def __init__(self, src: int, dst: int, kind: MsgKind,
                 payload: Any = None, data_bytes: int = 0,
                 lazy: bool = False, msg_id: Optional[int] = None,
                 reply_to: Optional[int] = None) -> None:
        if src == dst:
            raise ValueError(f"message to self: proc {src}")
        if data_bytes < 0:
            raise ValueError(f"negative data_bytes: {data_bytes}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.data_bytes = data_bytes  # shared data (diffs / page contents)
        self.lazy = lazy  # lazy protocols pay doubled per-byte overhead
        self.msg_id = _next_message_id() if msg_id is None else msg_id
        self.reply_to = reply_to  # correlating request msg_id
        # Wire length (header + data), fixed at construction.  A plain
        # attribute: it is read several times per hop (overhead model,
        # network serialization, traffic counters).
        self.size_bytes = MESSAGE_HEADER_BYTES + data_bytes

    def __repr__(self) -> str:
        return (f"<Msg #{self.msg_id} {self.kind.value} "
                f"{self.src}->{self.dst} data={self.data_bytes}B>")
