"""BAM: the binary alignment format (BGZF-compressed).

Implements the BAM v1 encoding from the SAM specification:

* magic ``BAM\\x01``, SAM header text, reference dictionary;
* one binary record per alignment -- fixed 32-byte core, then read
  name, packed CIGAR (``len << 4 | op``), 4-bit packed sequence
  (two bases per byte via the ``=ACMGRSVTWYHKDBN`` nibble code),
  raw Phred qualities, and optional tags;
* the whole stream wrapped in :class:`repro.io.bgzf.BgzfWriter`.

Records round-trip exactly: ``decode(encode(r)) == r`` for every field
the model carries, which the test suite checks property-style.
"""

from __future__ import annotations

import os
import struct
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.io.bgzf import BgzfReader, BgzfWriter, SharedBlockCache
from repro.io.cigar import CigarOp, aligned_blocks
from repro.io.records import AlignedRead, SamHeader

__all__ = [
    "write_bam",
    "read_bam",
    "BamWriter",
    "BamReader",
    "BamFormatError",
    "aligned_base_arrays",
    "encode_record",
    "decode_record",
    "reg2bin",
]

PathOrFile = Union[str, os.PathLike, BinaryIO]

BAM_MAGIC = b"BAM\x01"

#: BAM 4-bit base codes ("=ACMGRSVTWYHKDBN").
SEQ_NIBBLES = "=ACMGRSVTWYHKDBN"
_BASE_TO_NIBBLE = {b: i for i, b in enumerate(SEQ_NIBBLES)}
#: ``bytes.translate`` table from the hex digits of a packed sequence
#: (``bytes.hex`` writes each byte's high nibble first, which is BAM's
#: base order) to the bases they encode.
_HEX_TO_BASE = bytes(
    ord(SEQ_NIBBLES[int(chr(c), 16)])
    if chr(c) in "0123456789abcdef"
    else c
    for c in range(256)
)
#: CIGAR op code -> :class:`CigarOp` member (codes 9-15 are invalid).
_CIGAR_OPS = tuple(CigarOp)
_CORE = struct.Struct("<iiBBHHHiiii")

_TAG_PACK = {
    "c": ("<b", int),
    "C": ("<B", int),
    "s": ("<h", int),
    "S": ("<H", int),
    "i": ("<i", int),
    "I": ("<I", int),
    "f": ("<f", float),
}


def reg2bin(beg: int, end: int) -> int:
    """UCSC binning index bin for the 0-based half-open ``[beg, end)``.

    Used to fill the ``bin`` field of BAM records (required by the
    spec even when no index is written).
    """
    end -= 1
    if beg >> 14 == end >> 14:
        return ((1 << 15) - 1) // 7 + (beg >> 14)
    if beg >> 17 == end >> 17:
        return ((1 << 12) - 1) // 7 + (beg >> 17)
    if beg >> 20 == end >> 20:
        return ((1 << 9) - 1) // 7 + (beg >> 20)
    if beg >> 23 == end >> 23:
        return ((1 << 6) - 1) // 7 + (beg >> 23)
    if beg >> 26 == end >> 26:
        return ((1 << 3) - 1) // 7 + (beg >> 26)
    return 0


def _pack_seq(seq: str) -> bytes:
    """Pack bases two-per-byte using the BAM nibble code.

    Unknown characters map to ``N`` (nibble 15), matching htslib.
    """
    n = len(seq)
    out = bytearray((n + 1) // 2)
    for i, base in enumerate(seq):
        nib = _BASE_TO_NIBBLE.get(base, 15)
        if i % 2 == 0:
            out[i // 2] = nib << 4
        else:
            out[i // 2] |= nib
    return bytes(out)


def _unpack_seq(data: bytes, n: int) -> str:
    """The first ``n`` bases of a nibble-packed sequence."""
    return data.hex().encode("ascii").translate(_HEX_TO_BASE)[:n].decode(
        "ascii"
    )


class BamFormatError(ValueError):
    """A BAM record body is truncated or internally inconsistent.

    Attributes:
        field: the record field that failed its check (``"l_seq"``,
            ``"tags"``, ...).
    """

    def __init__(self, field: str, detail: str) -> None:
        super().__init__(f"malformed BAM record: {field}: {detail}")
        self.field = field


def _encode_tags(tags: Dict[str, Tuple[str, Any]]) -> bytes:
    out = bytearray()
    for tag, (typ, value) in sorted(tags.items()):
        if len(tag) != 2:
            raise ValueError(f"SAM tag {tag!r} must be two characters")
        out.extend(tag.encode("ascii"))
        if typ == "A":
            out.append(ord("A"))
            out.append(ord(value))
        elif typ in _TAG_PACK:
            fmt, cast = _TAG_PACK[typ]
            out.append(ord(typ))
            out.extend(struct.pack(fmt, cast(value)))
        elif typ == "i":  # pragma: no cover - folded into _TAG_PACK
            out.append(ord("i"))
            out.extend(struct.pack("<i", int(value)))
        elif typ == "Z":
            out.append(ord("Z"))
            out.extend(str(value).encode("ascii") + b"\x00")
        elif typ == "B":
            sub, arr = value
            if sub not in _TAG_PACK:
                raise ValueError(f"unsupported B-array subtype {sub!r}")
            out.append(ord("B"))
            out.append(ord(sub))
            arr = np.asarray(arr)
            out.extend(struct.pack("<i", len(arr)))
            fmt, cast = _TAG_PACK[sub]
            for x in arr:
                out.extend(struct.pack(fmt, cast(x)))
        else:
            raise ValueError(f"unsupported tag type {typ!r}")
    return bytes(out)


_TAG_DTYPES = {
    "c": "<i1",
    "C": "<u1",
    "s": "<i2",
    "S": "<u2",
    "i": "<i4",
    "I": "<u4",
    "f": "<f4",
}


def _ascii(raw: bytes, field: str) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise BamFormatError(field, f"not ASCII: {raw[:16]!r}") from None


def _decode_tags(data: bytes, i: int = 0) -> Dict[str, Tuple[str, Any]]:
    """The optional fields of ``data[i:]``.

    Raises:
        BamFormatError: on a truncated field, an unknown type or a
            non-ASCII name or string.
    """
    tags: Dict[str, Tuple[str, Any]] = {}
    n = len(data)
    while i < n:
        if i + 3 > n:
            raise BamFormatError("tags", "truncated tag header")
        tag = _ascii(data[i : i + 2], "tags")
        typ = chr(data[i + 2])
        i += 3
        if typ == "A":
            if i >= n:
                raise BamFormatError("tags", f"{tag}:A value missing")
            tags[tag] = ("A", chr(data[i]))
            i += 1
        elif typ in _TAG_PACK:
            fmt, _ = _TAG_PACK[typ]
            size = struct.calcsize(fmt)
            if i + size > n:
                raise BamFormatError("tags", f"{tag}:{typ} value truncated")
            (val,) = struct.unpack_from(fmt, data, i)
            tags[tag] = (typ, val)
            i += size
        elif typ == "Z":
            end = data.find(b"\x00", i)
            if end < 0:
                raise BamFormatError("tags", f"{tag}:Z string unterminated")
            tags[tag] = ("Z", _ascii(data[i:end], "tags"))
            i = end + 1
        elif typ == "B":
            if i + 5 > n:
                raise BamFormatError("tags", f"{tag}:B header truncated")
            sub = chr(data[i])
            if sub not in _TAG_DTYPES:
                raise BamFormatError(
                    "tags", f"unsupported B-array subtype {sub!r}"
                )
            (count,) = struct.unpack_from("<i", data, i + 1)
            i += 5
            dtype = np.dtype(_TAG_DTYPES[sub])
            if count < 0 or i + count * dtype.itemsize > n:
                raise BamFormatError("tags", f"{tag}:B array truncated")
            vals = np.frombuffer(data, dtype=dtype, count=count, offset=i)
            tags[tag] = ("B", (sub, vals.astype(dtype.newbyteorder("="))))
            i += count * dtype.itemsize
        else:
            raise BamFormatError("tags", f"unsupported tag type {typ!r}")
    return tags


def aligned_base_arrays(
    read: AlignedRead,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One record's aligned bases as flat arrays ``(reference
    positions int64, base codes uint8, quals uint8)``.

    Only operations consuming both query and reference contribute
    (:func:`repro.io.cigar.aligned_blocks`); base codes follow
    ``BASE_TO_CODE.get(char, N_CODE)`` (no case folding); a missing
    quality string reads as all-zero qualities (which the default
    ``min_baseq`` then drops, as in the streaming engine) -- the
    per-base view of exactly what
    :meth:`repro.pileup.vectorized.ColumnBatchBuilder.add_read`
    deposits block by block.
    """
    from repro.pileup.column import encode_read_bases

    seq_codes = encode_read_bases(read.seq)
    if read.qual.size:
        qual = np.asarray(read.qual, dtype=np.uint8)
    else:
        qual = np.zeros(len(read.seq), dtype=np.uint8)
    blocks = aligned_blocks(read.cigar, read.pos)
    if not blocks:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.uint8),
            np.zeros(0, dtype=np.uint8),
        )
    return (
        np.concatenate(
            [np.arange(r, r + n, dtype=np.int64) for r, _, n in blocks]
        ),
        np.concatenate([seq_codes[q : q + n] for _, q, n in blocks]),
        np.concatenate([qual[q : q + n] for _, q, n in blocks]),
    )


def encode_record(read: AlignedRead, header: SamHeader) -> bytes:
    """Serialise one record as its BAM binary body (without the leading
    ``block_size`` word, which the writer prepends).

    Raises:
        ValueError: if the read references a sequence missing from the
            header or a name/CIGAR exceeds format limits.
    """
    ref_id = header.reference_id(read.rname) if read.rname != "*" else -1
    next_ref_id = (
        ref_id
        if read.rnext == "="
        else (header.reference_id(read.rnext) if read.rnext != "*" else -1)
    )
    if read.rname != "*" and ref_id < 0:
        raise ValueError(f"reference {read.rname!r} not in header")
    name = read.qname.encode("ascii") + b"\x00"
    if len(name) > 255:
        raise ValueError("read name longer than 254 characters")
    n_cigar = len(read.cigar)
    if n_cigar >= 1 << 16:
        raise ValueError("more than 65535 CIGAR operations")
    end = read.reference_end if read.cigar else read.pos + 1
    core = struct.pack(
        "<iiBBHHHiiii",
        ref_id,
        read.pos,
        len(name),
        read.mapq,
        reg2bin(read.pos, max(end, read.pos + 1)) if read.pos >= 0 else 4680,
        n_cigar,
        read.flag,
        len(read.seq),
        next_ref_id,
        read.pnext,
        read.tlen,
    )
    cigar_words = b"".join(
        struct.pack("<I", (length << 4) | int(op)) for op, length in read.cigar
    )
    qual = read.qual.astype(np.uint8).tobytes()
    if len(read.seq) and not len(qual):
        qual = b"\xff" * len(read.seq)  # 0xff = quality unavailable
    return (
        core
        + name
        + cigar_words
        + _pack_seq(read.seq)
        + qual
        + _encode_tags(read.tags)
    )


def decode_record(body: bytes, header: SamHeader) -> AlignedRead:
    """Inverse of :func:`encode_record`.

    Every length field is checked against ``len(body)`` before it is
    used, so a truncated or corrupted record cannot decode into a
    short sequence or escape as an ``IndexError``/``struct.error``.

    Raises:
        BamFormatError: naming the first field that is inconsistent
            with the body (or with the header's reference list).
    """
    size = len(body)
    if size < 32:
        raise BamFormatError("block_size", f"{size} bytes, core needs 32")
    (
        ref_id,
        pos,
        l_read_name,
        mapq,
        _bin,
        n_cigar,
        flag,
        l_seq,
        next_ref_id,
        pnext,
        tlen,
    ) = _CORE.unpack_from(body)
    off = 32 + l_read_name
    if l_read_name < 1 or off > size:
        raise BamFormatError(
            "l_read_name", f"{l_read_name} does not fit {size} bytes"
        )
    qname = _ascii(body[32 : off - 1], "read_name")
    end = off + 4 * n_cigar
    if end > size:
        raise BamFormatError("n_cigar", f"{n_cigar} does not fit {size} bytes")
    words = struct.unpack_from(f"<{n_cigar}I", body, off)
    try:
        cigar = [(_CIGAR_OPS[w & 0xF], w >> 4) for w in words]
    except IndexError:
        raise BamFormatError("cigar", "operation code above 8") from None
    off = end
    n_packed = (l_seq + 1) // 2
    end = off + n_packed + l_seq
    if l_seq < 0 or end > size:
        raise BamFormatError("l_seq", f"{l_seq} does not fit {size} bytes")
    seq = _unpack_seq(body[off : off + n_packed], l_seq)
    off += n_packed
    if l_seq and body[off] == 0xFF and body[off:end] == b"\xff" * l_seq:
        qual = np.zeros(l_seq, dtype=np.uint8)
    else:
        qual = np.frombuffer(body, dtype=np.uint8, count=l_seq, offset=off)
        qual = qual.copy()
    tags = _decode_tags(body, end) if end < size else {}
    n_refs = len(header.references)
    if ref_id >= n_refs or next_ref_id >= n_refs:
        raise BamFormatError(
            "ref_id", f"{max(ref_id, next_ref_id)} not below {n_refs}"
        )
    rname = header.references[ref_id][0] if ref_id >= 0 else "*"
    rnext = header.references[next_ref_id][0] if next_ref_id >= 0 else "*"
    try:
        return AlignedRead(
            qname=qname,
            flag=flag,
            rname=rname,
            pos=pos,
            mapq=mapq,
            cigar=cigar,
            seq=seq,
            qual=qual,
            rnext=rnext,
            pnext=pnext,
            tlen=tlen,
            tags=tags,
        )
    except ValueError as exc:
        raise BamFormatError("cigar", str(exc)) from None


class BamWriter:
    """Streaming BAM writer over a BGZF stream.

    Args:
        dest: path or writable binary file object.
        header: SAM header written up front.
        compress_threads: BGZF deflate pool size (see
            :class:`repro.io.bgzf.BgzfWriter`); output bytes are
            identical to the serial writer's.
    """

    def __init__(
        self,
        dest: PathOrFile,
        header: SamHeader,
        *,
        compress_threads: int = 0,
    ) -> None:
        self._bgzf = BgzfWriter(dest, compress_threads=compress_threads)
        self.header = header
        text = header.to_text().encode("ascii")
        self._bgzf.write(BAM_MAGIC)
        self._bgzf.write(struct.pack("<i", len(text)) + text)
        self._bgzf.write(struct.pack("<i", len(header.references)))
        for name, length in header.references:
            nm = name.encode("ascii") + b"\x00"
            self._bgzf.write(struct.pack("<i", len(nm)) + nm)
            self._bgzf.write(struct.pack("<i", length))
        self.records_written = 0

    def write(self, read: AlignedRead) -> int:
        """Append one record; returns its starting virtual offset."""
        voffset = self._bgzf.tell()
        body = encode_record(read, self.header)
        self._bgzf.write(struct.pack("<i", len(body)) + body)
        self.records_written += 1
        return voffset

    def close(self) -> None:
        """Flush the BGZF stream (EOF sentinel included) and close."""
        self._bgzf.close()

    def __enter__(self) -> "BamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BamReader:
    """Random-access BAM reader.

    Iterating yields :class:`AlignedRead`; :meth:`seek` accepts a
    virtual offset previously returned by :meth:`tell` or by
    :meth:`BamWriter.write`, enabling the per-worker partitioned
    readers used by :mod:`repro.parallel`.

    Args:
        source: path or binary file object holding a BAM stream.
        cache_blocks: decompressed BGZF blocks kept resident in the
            reader's LRU buffer (see :class:`repro.io.bgzf.BgzfReader`);
            more blocks make repeated/overlapping region seeks skip
            re-inflation at ~64 KiB of memory per block.
        decompress_threads: BGZF readahead inflation pool size
            (``0`` = serial; bytes and errors are identical either
            way).
        cache: a :class:`repro.io.bgzf.SharedBlockCache` to share the
            decompressed-block buffer with other readers of the same
            file (overrides ``cache_blocks``).
        cache_key: per-file key for shared-cache entries (defaults to
            the source path).
    """

    def __init__(
        self,
        source: PathOrFile,
        cache_blocks: int = 1,
        *,
        decompress_threads: int = 0,
        cache: Optional["SharedBlockCache"] = None,
        cache_key: Optional[object] = None,
    ) -> None:
        self._bgzf = BgzfReader(
            source,
            cache_blocks=cache_blocks,
            decompress_threads=decompress_threads,
            cache=cache,
            cache_key=cache_key,
        )
        magic = self._bgzf.readexact(4)
        if magic != BAM_MAGIC:
            raise ValueError(f"not a BAM file (magic {magic!r})")
        (l_text,) = struct.unpack("<i", self._bgzf.readexact(4))
        text = self._bgzf.readexact(l_text).decode("ascii")
        (n_ref,) = struct.unpack("<i", self._bgzf.readexact(4))
        refs: List[Tuple[str, int]] = []
        for _ in range(n_ref):
            (l_name,) = struct.unpack("<i", self._bgzf.readexact(4))
            name = self._bgzf.readexact(l_name)[:-1].decode("ascii")
            (l_ref,) = struct.unpack("<i", self._bgzf.readexact(4))
            refs.append((name, l_ref))
        self.header = SamHeader.from_text(text)
        if not self.header.references:
            self.header.references = refs
        self._data_start = self._bgzf.tell()

    @property
    def blocks_read(self) -> int:
        """Decompressed-block counter (tracer instrumentation)."""
        return self._bgzf.blocks_read

    @property
    def data_start(self) -> int:
        """Virtual offset of the first alignment record."""
        return self._data_start

    def tell(self) -> int:
        """Virtual offset of the next record to be read."""
        return self._bgzf.tell()

    def seek(self, voffset: int) -> None:
        """Position the reader at a virtual offset from :meth:`tell`."""
        self._bgzf.seek(voffset)

    def rewind(self) -> None:
        """Seek back to the first alignment record."""
        self._bgzf.seek(self._data_start)

    def read_record(self) -> AlignedRead | None:
        """Read the next record, or ``None`` at EOF."""
        size_raw = self._bgzf.read(4)
        if len(size_raw) == 0:
            return None
        if len(size_raw) < 4:
            raise EOFError("truncated BAM record length")
        (block_size,) = struct.unpack("<i", size_raw)
        if block_size < 32:
            raise BamFormatError(
                "block_size", f"{block_size}, core needs 32 bytes"
            )
        body = self._bgzf.readexact(block_size)
        return decode_record(body, self.header)

    def __iter__(self) -> Iterator[AlignedRead]:
        while True:
            rec = self.read_record()
            if rec is None:
                return
            yield rec

    def close(self) -> None:
        """Release the underlying BGZF reader."""
        self._bgzf.close()

    def __enter__(self) -> "BamReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_bam(
    dest: PathOrFile, header: SamHeader, reads: Iterable[AlignedRead]
) -> int:
    """Write all ``reads`` to a BAM file; returns the record count."""
    with BamWriter(dest, header) as writer:
        for read in reads:
            writer.write(read)
        return writer.records_written


def read_bam(source: PathOrFile) -> Tuple[SamHeader, List[AlignedRead]]:
    """Read an entire BAM file into memory."""
    with BamReader(source) as reader:
        return reader.header, list(reader)
