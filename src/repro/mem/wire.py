"""Canonical on-wire encoding of page diffs (the ``RDIF`` format).

This module is the single source of truth for how a run-length encoded
diff is laid out as bytes and how its wire cost is accounted.  The
protocol layer's ``size_bytes`` charging (and through it every
diff-bearing message's ``data_bytes``) derives from the constants
defined here; docs/memory.md walks through a byte-level example and
the round-trip property tests in tests/mem pin the format.

Layout (all integers little-endian)::

    header (16 bytes)
      0   4s  magic          b"RDIF"
      4   B   version        WIRE_VERSION (currently 1)
      5   B   word_size      simulated machine word, bytes (config)
      6   H   flags          0 (reserved)
      8   I   page           global page number
      12  I   run_count      number of dirty runs
    run table (8 bytes per run == RUN_HEADER_BYTES)
      +0  I   offset         first dirty word (page-relative)
      +4  I   count          dirty words in this run
    payload (8 bytes per word)
      IEEE-754 float64 host words, runs concatenated in table order

Two sizes are associated with a diff and they are *not* the same
number:

- ``Diff.size_bytes`` — the **accounted** wire cost charged by the
  simulated machine: ``RUN_HEADER_BYTES * runs + word_count *
  word_size``.  The simulated DSM moves ``word_size``-byte machine
  words (4 bytes, matching the paper's 32-bit SPARC words); the fixed
  16-byte format header is part of the per-message fixed cost
  (``MESSAGE_HEADER_BYTES``), not the diff payload.
- ``len(encode_diff(d))`` — the **host** encoding length:
  ``DIFF_HEADER_BYTES + RUN_HEADER_BYTES * runs + word_count *
  HOST_WORD_BYTES``.  The host carries float64 so that
  ``decode(encode(d))`` reproduces every word bit for bit.

``accounted_size`` and ``encoded_size`` compute the two; the property
tests assert both against real encodings.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.mem import instrument

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mem.diffs import Diff

MAGIC = b"RDIF"
WIRE_VERSION = 1

#: Fixed format header preceding the run table.
DIFF_HEADER_BYTES = 16
#: Per-run (offset, count) entry — also the accounted per-run cost.
RUN_HEADER_BYTES = 8
#: Host representation of one word (IEEE-754 float64).
HOST_WORD_BYTES = 8

_HEADER = struct.Struct("<4sBBHII")
_RUN = struct.Struct("<II")

assert _HEADER.size == DIFF_HEADER_BYTES
assert _RUN.size == RUN_HEADER_BYTES


class WireFormatError(ValueError):
    """A diff blob violates the RDIF layout or its invariants."""


def accounted_size(run_count: int, word_count: int,
                   word_size: int) -> int:
    """Simulated wire cost of a diff (``Diff.size_bytes``)."""
    return RUN_HEADER_BYTES * run_count + word_count * word_size


def encoded_size(run_count: int, word_count: int) -> int:
    """Host length of :func:`encode_diff`'s output."""
    return (DIFF_HEADER_BYTES + RUN_HEADER_BYTES * run_count
            + word_count * HOST_WORD_BYTES)


def encode_diff(diff: "Diff") -> bytes:
    """Serialize ``diff`` into the canonical RDIF byte layout."""
    starts = diff.starts
    counts = diff.counts
    parts = [_HEADER.pack(MAGIC, WIRE_VERSION, diff.word_size, 0,
                          diff.page, len(starts))]
    parts.extend(_RUN.pack(start, count)
                 for start, count in zip(starts, counts))
    parts.append(diff.payload)
    blob = b"".join(parts)
    ins = instrument.active
    if ins is not None:
        ins.diffs_encoded.inc()
        ins.diff_runs.observe(len(diff.starts))
        ins.diff_encoded_bytes.observe(len(blob))
        ins.diff_accounted_bytes.observe(diff.size_bytes)
    return blob


def decode_diff(blob: bytes) -> "Diff":
    """Parse an RDIF blob back into a :class:`repro.mem.diffs.Diff`.

    Validates the magic, version, run-table invariants (runs sorted,
    disjoint, non-empty) and that the payload length matches the run
    table exactly.
    """
    from repro.mem.diffs import Diff

    if len(blob) < DIFF_HEADER_BYTES:
        raise WireFormatError(
            f"blob of {len(blob)} bytes is shorter than the "
            f"{DIFF_HEADER_BYTES}-byte header")
    magic, version, word_size, flags, page, run_count = \
        _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if flags != 0:
        raise WireFormatError(f"unknown flags 0x{flags:04x}")
    table_end = DIFF_HEADER_BYTES + RUN_HEADER_BYTES * run_count
    if len(blob) < table_end:
        raise WireFormatError(
            f"truncated run table: {run_count} runs need "
            f"{table_end} bytes, got {len(blob)}")
    starts = []
    counts = []
    word_count = 0
    previous_end = -1
    for i in range(run_count):
        start, count = _RUN.unpack_from(
            blob, DIFF_HEADER_BYTES + RUN_HEADER_BYTES * i)
        if count == 0:
            raise WireFormatError(f"run {i} is empty")
        if start <= previous_end:
            raise WireFormatError(
                f"run {i} at word {start} overlaps or touches the "
                f"previous run ending at {previous_end}")
        previous_end = start + count - 1
        starts.append(start)
        counts.append(count)
        word_count += count
    payload = blob[table_end:]
    if len(payload) != word_count * HOST_WORD_BYTES:
        raise WireFormatError(
            f"payload of {len(payload)} bytes does not match "
            f"{word_count} words ({word_count * HOST_WORD_BYTES} "
            "bytes expected)")
    ins = instrument.active
    if ins is not None:
        ins.diffs_decoded.inc()
    return Diff.from_flat(page, tuple(starts), tuple(counts), payload,
                          word_size=word_size)
