"""The protocol message: validation, fields and id draws."""

import pytest

from repro.core.config import MESSAGE_HEADER_BYTES
from repro.net.message import Message, MsgKind


def test_fields_positional_and_keyword():
    message = Message(2, 5, MsgKind.DIFF_REPLY, {"page": 1},
                      data_bytes=64, reply_to=9)
    assert (message.src, message.dst, message.kind, message.payload,
            message.data_bytes, message.lazy, message.reply_to) \
        == (2, 5, MsgKind.DIFF_REPLY, {"page": 1}, 64, False, 9)
    assert message.size_bytes == MESSAGE_HEADER_BYTES + 64
    bare = Message(src=0, dst=1, kind=MsgKind.FLUSH)
    assert (bare.payload, bare.data_bytes, bare.lazy, bare.reply_to) \
        == (None, 0, False, None)
    assert bare.size_bytes == MESSAGE_HEADER_BYTES
    assert not hasattr(bare, "__dict__")


@pytest.mark.parametrize("kwargs,match", [
    (dict(src=3, dst=3), r"message to self: proc 3"),
    (dict(src=0, dst=1, data_bytes=-8), r"negative data_bytes: -8"),
], ids=["to-self", "negative-data"])
def test_validation_errors(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Message(kind=MsgKind.FLUSH, **kwargs)


def test_ids_are_drawn_in_construction_order():
    """One id per constructed message, consecutive — the sequence the
    message log, the traces and the transport's dedup key off."""
    ids = [Message(0, 1, MsgKind.FLUSH).msg_id for _ in range(5)]
    assert ids == list(range(ids[0], ids[0] + 5))


def test_given_id_and_failed_validation_draw_nothing():
    first = Message(0, 1, MsgKind.FLUSH).msg_id
    assert Message(0, 1, MsgKind.FLUSH, msg_id=-7).msg_id == -7
    with pytest.raises(ValueError):
        Message(1, 1, MsgKind.FLUSH)
    with pytest.raises(ValueError):
        Message(0, 1, MsgKind.FLUSH, data_bytes=-1)
    assert Message(0, 1, MsgKind.FLUSH).msg_id == first + 1


def test_repr_names_id_kind_and_route():
    message = Message(0, 1, MsgKind.PAGE_REQ, data_bytes=12)
    assert repr(message) == (f"<Msg #{message.msg_id} page_req 0->1 "
                             "data=12B>")
