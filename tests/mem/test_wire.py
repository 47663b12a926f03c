"""The canonical RDIF diff serialization (repro.mem.wire).

Two layers of pinning (docs/memory.md documents the format):

- **Golden fixtures** — hand-written diffs with their exact expected
  byte strings.  If any of these change, the wire format changed:
  bump ``WIRE_VERSION`` and update docs/memory.md's worked example.
- **Property tests** — Hypothesis drives random diffs through
  ``encode -> decode`` and demands identity, plus exactness of the
  two size accountings (``size_bytes``/``accounted_size`` for the
  simulated wire, ``encoded_size`` for the host blob).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.diffs import Diff, normalize_ranges, ranges_word_count
from repro.mem.wire import (DIFF_HEADER_BYTES, HOST_WORD_BYTES,
                            RUN_HEADER_BYTES, WIRE_VERSION,
                            WireFormatError, accounted_size,
                            decode_diff, encode_diff, encoded_size)

# -- golden fixtures ----------------------------------------------------

# Empty diff: header only, run_count == 0, no payload.
GOLDEN_EMPTY = bytes.fromhex(
    "52444946"    # magic  "RDIF"
    "01"          # version 1
    "04"          # word_size 4
    "0000"        # flags 0
    "00000000"    # page 0
    "00000000")   # run_count 0

# One run of three words on page 7: [2, 5) = 1.0, 2.0, 3.0.
GOLDEN_SINGLE_RUN = bytes.fromhex(
    "52444946" "01" "04" "0000"
    "07000000"                  # page 7
    "01000000"                  # run_count 1
    "02000000" "03000000"       # run: offset 2, count 3
    "000000000000f03f"          # 1.0
    "0000000000000040"          # 2.0
    "0000000000000840")         # 3.0

# Two runs, 8-byte machine words, multi-byte page number 0x01020304
# (pins little-endianness): [0,1) = -1.5 and [5,7) = 0.0, 5e-324.
GOLDEN_TWO_RUNS = bytes.fromhex(
    "52444946" "01" "08" "0000"
    "04030201"                  # page 0x01020304, little-endian
    "02000000"                  # run_count 2
    "00000000" "01000000"       # run: offset 0, count 1
    "05000000" "02000000"       # run: offset 5, count 2
    "000000000000f8bf"          # -1.5
    "0000000000000000"          # 0.0
    "0100000000000000")         # 5e-324 (smallest subnormal)


def test_golden_empty_diff():
    diff = Diff(0, [], word_size=4)
    assert encode_diff(diff) == GOLDEN_EMPTY
    assert diff.size_bytes == 0
    assert decode_diff(GOLDEN_EMPTY) == diff


def test_golden_single_run():
    diff = Diff(7, [(2, np.array([1.0, 2.0, 3.0]))], word_size=4)
    assert encode_diff(diff) == GOLDEN_SINGLE_RUN
    # Accounted wire cost: one 8-byte run header + 3 4-byte words.
    assert diff.size_bytes == 8 + 3 * 4 == 20
    assert len(GOLDEN_SINGLE_RUN) == 16 + 8 + 3 * 8 == 48
    assert decode_diff(GOLDEN_SINGLE_RUN) == diff


def test_golden_two_runs():
    diff = Diff(0x01020304,
                [(0, np.array([-1.5])), (5, np.array([0.0, 5e-324]))],
                word_size=8)
    assert encode_diff(diff) == GOLDEN_TWO_RUNS
    assert diff.size_bytes == 2 * 8 + 3 * 8 == 40
    back = decode_diff(GOLDEN_TWO_RUNS)
    assert back == diff
    assert back.page == 0x01020304
    assert back.word_size == 8


def test_golden_header_constants():
    assert WIRE_VERSION == 1
    assert DIFF_HEADER_BYTES == 16
    assert RUN_HEADER_BYTES == 8
    assert HOST_WORD_BYTES == 8


# -- round-trip property ------------------------------------------------

PAGE_WORDS = 64

ranges_strategy = st.lists(
    st.tuples(st.integers(0, PAGE_WORDS - 1),
              st.integers(0, PAGE_WORDS - 1)).map(
        lambda t: (min(t), max(t) + 1)),
    min_size=0, max_size=8)

values_strategy = st.lists(
    st.floats(allow_nan=False, width=64),
    min_size=PAGE_WORDS, max_size=PAGE_WORDS)


@given(values_strategy, ranges_strategy,
       st.integers(0, 2 ** 32 - 1), st.sampled_from([4, 8]))
def test_encode_decode_identity(values, ranges, page, word_size):
    source = np.array(values)
    diff = Diff.from_ranges(page, source, ranges, word_size=word_size)
    blob = encode_diff(diff)
    back = decode_diff(blob)
    assert back == diff
    assert back.ranges() == diff.ranges()
    # Bit-exact payload, even for signed zeros / subnormals.
    assert back.payload == diff.payload


@given(values_strategy, ranges_strategy, st.sampled_from([4, 8]))
def test_size_accounting_is_exact(values, ranges, word_size):
    source = np.array(values)
    diff = Diff.from_ranges(0, source, ranges, word_size=word_size)
    runs = len(diff.starts)
    words = ranges_word_count(normalize_ranges(ranges))
    assert diff.word_count == words
    assert diff.size_bytes == accounted_size(runs, words, word_size)
    assert diff.size_bytes == RUN_HEADER_BYTES * runs \
        + words * word_size
    assert len(encode_diff(diff)) == encoded_size(runs, words)


@given(st.binary(max_size=2 * DIFF_HEADER_BYTES))
def test_decoder_never_crashes_on_noise(blob):
    """Arbitrary bytes either decode or raise WireFormatError; never
    an unannounced exception."""
    try:
        decode_diff(blob)
    except WireFormatError:
        pass


# -- validation errors --------------------------------------------------

def _valid_blob():
    return encode_diff(Diff(7, [(2, np.array([1.0, 2.0, 3.0]))]))


def test_rejects_short_blob():
    with pytest.raises(WireFormatError, match="header"):
        decode_diff(b"RDIF")


def test_rejects_bad_magic():
    blob = b"XDIF" + _valid_blob()[4:]
    with pytest.raises(WireFormatError, match="magic"):
        decode_diff(blob)


def test_rejects_unknown_version():
    blob = bytearray(_valid_blob())
    blob[4] = 99
    with pytest.raises(WireFormatError, match="version"):
        decode_diff(bytes(blob))


def test_rejects_unknown_flags():
    blob = bytearray(_valid_blob())
    blob[6] = 1
    with pytest.raises(WireFormatError, match="flags"):
        decode_diff(bytes(blob))


def test_rejects_truncated_run_table():
    blob = bytearray(_valid_blob())
    blob[12] = 10  # claim 10 runs; only one entry present
    with pytest.raises(WireFormatError, match="truncated"):
        decode_diff(bytes(blob))


def test_rejects_empty_run():
    blob = bytearray(_valid_blob())
    blob[20:24] = (0).to_bytes(4, "little")  # count = 0
    with pytest.raises(WireFormatError, match="empty"):
        decode_diff(bytes(blob))


def test_rejects_overlapping_runs():
    diff = Diff(0, [(0, np.array([1.0])), (4, np.array([2.0]))])
    blob = bytearray(encode_diff(diff))
    blob[24:28] = (0).to_bytes(4, "little")  # second run offset -> 0
    with pytest.raises(WireFormatError, match="overlaps"):
        decode_diff(bytes(blob))


def test_rejects_payload_length_mismatch():
    with pytest.raises(WireFormatError, match="payload"):
        decode_diff(_valid_blob() + b"\x00" * 8)


def test_rejects_unsorted_runs():
    diff = Diff(0, [(0, np.array([1.0])), (8, np.array([2.0]))])
    blob = bytearray(encode_diff(diff))
    # Swap the two run entries: (8,1) before (0,1).
    blob[16:24], blob[24:32] = blob[24:32], blob[16:24]
    with pytest.raises(WireFormatError, match="overlaps"):
        decode_diff(bytes(blob))
