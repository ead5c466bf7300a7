"""CIGAR string parsing and algebra.

A CIGAR describes how a read aligns to the reference as a sequence of
``(operation, length)`` pairs.  The nine SAM operations and their
numeric codes (used verbatim by the binary BAM encoding) are::

    M 0  alignment match (can be a sequence match or mismatch)
    I 1  insertion to the reference
    D 2  deletion from the reference
    N 3  skipped region from the reference (introns)
    S 4  soft clipping (clipped sequence present in SEQ)
    H 5  hard clipping (clipped sequence NOT present in SEQ)
    P 6  padding
    = 7  sequence match
    X 8  sequence mismatch

Which operations consume query and/or reference bases drives both the
pileup engine and BAM encoding, so those predicates live here as the
single source of truth.
"""

from __future__ import annotations

import enum
import re
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "CigarOp",
    "CIGAR_OPS",
    "CONSUMES_QUERY",
    "CONSUMES_REFERENCE",
    "ALIGNED_OPS",
    "parse_cigar",
    "cigar_to_string",
    "query_length",
    "reference_length",
    "aligned_blocks",
    "aligned_pairs",
    "clip_lengths",
    "validate_cigar",
]


class CigarOp(enum.IntEnum):
    """CIGAR operation codes as used in the BAM binary encoding."""

    M = 0
    I = 1  # noqa: E741 - canonical SAM letter
    D = 2
    N = 3
    S = 4
    H = 5
    P = 6
    EQ = 7
    X = 8

    @property
    def char(self) -> str:
        """The one-letter SAM representation of this operation."""
        return _OP_TO_CHAR[int(self)]

    @classmethod
    def from_char(cls, c: str) -> "CigarOp":
        """Look an operation up from its SAM letter.

        Raises:
            ValueError: if ``c`` is not a valid CIGAR letter.
        """
        try:
            return cls(_CHAR_TO_OP[c])
        except KeyError:
            raise ValueError(f"invalid CIGAR operation {c!r}") from None


CIGAR_OPS = "MIDNSHP=X"
_OP_TO_CHAR = {i: c for i, c in enumerate(CIGAR_OPS)}
_CHAR_TO_OP = {c: i for i, c in enumerate(CIGAR_OPS)}

#: Operations that consume bases of the read (query) sequence.
CONSUMES_QUERY = frozenset(
    {CigarOp.M, CigarOp.I, CigarOp.S, CigarOp.EQ, CigarOp.X}
)
#: Operations that consume positions on the reference.
CONSUMES_REFERENCE = frozenset(
    {CigarOp.M, CigarOp.D, CigarOp.N, CigarOp.EQ, CigarOp.X}
)

#: Operations that consume both: the aligned (pileup-depositing) bases.
ALIGNED_OPS = CONSUMES_QUERY & CONSUMES_REFERENCE

Cigar = List[Tuple[CigarOp, int]]

_CIGAR_RE = re.compile(r"(\d+)([MIDNSHP=X])")


def parse_cigar(text: str) -> Cigar:
    """Parse a CIGAR string into ``[(op, length), ...]``.

    ``"*"`` (the SAM placeholder for "no alignment") parses to an empty
    list.

    Raises:
        ValueError: on malformed input, zero-length operations, or
            trailing garbage.
    """
    if text == "*" or text == "":
        return []
    out: Cigar = []
    pos = 0
    for m in _CIGAR_RE.finditer(text):
        if m.start() != pos:
            raise ValueError(f"malformed CIGAR {text!r}")
        length = int(m.group(1))
        if length == 0:
            raise ValueError(f"zero-length CIGAR op in {text!r}")
        out.append((CigarOp.from_char(m.group(2)), length))
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"malformed CIGAR {text!r}")
    return out


def cigar_to_string(cigar: Sequence[Tuple[CigarOp, int]]) -> str:
    """Render ``[(op, length), ...]`` back to a SAM CIGAR string.

    An empty CIGAR renders as ``"*"`` per the SAM specification.
    """
    if not cigar:
        return "*"
    return "".join(f"{length}{CigarOp(op).char}" for op, length in cigar)


def query_length(cigar: Sequence[Tuple[CigarOp, int]]) -> int:
    """Number of read bases covered by the CIGAR (length of SEQ)."""
    return sum(length for op, length in cigar if CigarOp(op) in CONSUMES_QUERY)


def reference_length(cigar: Sequence[Tuple[CigarOp, int]]) -> int:
    """Number of reference positions spanned by the CIGAR."""
    return sum(
        length for op, length in cigar if CigarOp(op) in CONSUMES_REFERENCE
    )


def clip_lengths(cigar: Sequence[Tuple[CigarOp, int]]) -> Tuple[int, int]:
    """Return ``(left, right)`` soft-clip lengths.

    Hard clips carry no sequence so they are excluded; only soft clips
    shift the mapping between SEQ indices and reference positions.
    """
    left = right = 0
    if cigar and CigarOp(cigar[0][0]) == CigarOp.S:
        left = cigar[0][1]
    if len(cigar) > 1 and CigarOp(cigar[-1][0]) == CigarOp.S:
        right = cigar[-1][1]
    return left, right


def aligned_pairs(
    cigar: Sequence[Tuple[CigarOp, int]], pos: int
) -> Iterator[Tuple[int | None, int | None]]:
    """Yield ``(query_index, reference_position)`` pairs.

    For each CIGAR-covered base, one element is ``None`` when the
    operation does not consume that side (e.g. ``(qi, None)`` inside an
    insertion).  ``pos`` is the 0-based leftmost reference coordinate.
    This mirrors pysam's ``get_aligned_pairs`` and is the primitive the
    pileup engine builds on.
    """
    qi = 0
    ri = pos
    for op, length in cigar:
        op = CigarOp(op)
        in_q = op in CONSUMES_QUERY
        in_r = op in CONSUMES_REFERENCE
        if in_q and in_r:
            for _ in range(length):
                yield qi, ri
                qi += 1
                ri += 1
        elif in_q:
            for _ in range(length):
                yield qi, None
                qi += 1
        elif in_r:
            for _ in range(length):
                yield None, ri
                ri += 1
        # H and P consume neither side and yield nothing.


def aligned_blocks(
    cigar: Sequence[Tuple[CigarOp, int]], pos: int
) -> List[Tuple[int, int, int]]:
    """The aligned blocks of an alignment: one ``(reference_start,
    query_start, length)`` triple per run of operations consuming both
    query and reference (``M``/``=``/``X``), in CIGAR order.

    Within a block, query base ``query_start + j`` sits on reference
    position ``reference_start + j``; everything outside the blocks
    (insertions, clips, deletions, skips) deposits no base.  Blocks of
    one alignment are disjoint and increase on both axes.
    """
    blocks: List[Tuple[int, int, int]] = []
    qi = 0
    ri = pos
    for op, length in cigar:
        op = CigarOp(op)
        in_q = op in CONSUMES_QUERY
        in_r = op in CONSUMES_REFERENCE
        if in_q and in_r:
            blocks.append((ri, qi, length))
        if in_q:
            qi += length
        if in_r:
            ri += length
    return blocks


def validate_cigar(
    cigar: Sequence[Tuple[CigarOp, int]], seq_len: int | None = None
) -> None:
    """Validate structural constraints from the SAM specification.

    * all lengths positive;
    * hard clips only at the outermost ends;
    * soft clips only at the ends (possibly inside hard clips);
    * if ``seq_len`` is given, query-consuming length must equal it.

    Raises:
        ValueError: describing the first violated constraint.
    """
    if len(cigar) == 1:
        # One operation (the common ungapped read): no clip placement
        # to check, so only the op code, the length and SEQ remain --
        # raising exactly what the general path would.
        op, length = cigar[0]
        op = CigarOp(op)
        if length <= 0:
            raise ValueError("CIGAR operation lengths must be positive")
        if seq_len is not None:
            qlen = length if op in CONSUMES_QUERY else 0
            if qlen != seq_len:
                raise ValueError(
                    f"CIGAR consumes {qlen} query bases but SEQ length "
                    f"is {seq_len}"
                )
        return
    ops = [CigarOp(op) for op, _ in cigar]
    for op, length in cigar:
        if length <= 0:
            raise ValueError("CIGAR operation lengths must be positive")
    for i, op in enumerate(ops):
        if op == CigarOp.H and i not in (0, len(ops) - 1):
            raise ValueError("hard clip must be the first or last operation")
        if op == CigarOp.S:
            left_ok = i == 0 or (i == 1 and ops[0] == CigarOp.H)
            right_ok = i == len(ops) - 1 or (
                i == len(ops) - 2 and ops[-1] == CigarOp.H
            )
            if not (left_ok or right_ok):
                raise ValueError("soft clip must be at an end of the CIGAR")
    if seq_len is not None and cigar:
        qlen = query_length(cigar)
        if qlen != seq_len:
            raise ValueError(
                f"CIGAR consumes {qlen} query bases but SEQ length is {seq_len}"
            )


def collapse(cigar: Iterable[Tuple[CigarOp, int]]) -> Cigar:
    """Merge adjacent operations of the same kind and drop zero lengths.

    Useful when programmatically constructing CIGARs (the simulator
    emits per-base ops and collapses them afterwards).
    """
    out: Cigar = []
    for op, length in cigar:
        if length == 0:
            continue
        op = CigarOp(op)
        if out and out[-1][0] == op:
            out[-1] = (op, out[-1][1] + length)
        else:
            out.append((op, length))
    return out
