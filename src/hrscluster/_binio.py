"""Self-describing binary container: magic, JSON header, blob, CRC32 trailer.

Layout (little-endian):

    8 bytes   magic
    8 bytes   uint64 header length
    ...       UTF-8 JSON header
    ...       payload blob (layout described by the header)
    4 bytes   uint32 CRC32 of every preceding byte

Writes are streamed: ``write_container`` takes the blob as an iterable of
bytes-like parts and writes each as it comes, carrying the CRC along, so the
whole blob is never joined in memory. Callers check their inputs before the
file is opened, so a rejected input writes no file.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import chain
from pathlib import Path

from .errors import DataFormatError

MAGIC_LEN = 8
_LEN_FMT = "<Q"
_CRC_FMT = "<I"


def write_container(path, magic: bytes, header: dict, parts) -> None:
    """Write the container whose blob is the concatenation of ``parts``."""
    if len(magic) != MAGIC_LEN:
        raise ValueError("magic must be exactly 8 bytes")
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:
        for part in chain((magic + struct.pack(_LEN_FMT, len(header_bytes)) + header_bytes,), parts):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack(_CRC_FMT, crc & 0xFFFFFFFF))


def read_container(path, magic: bytes) -> tuple[dict, memoryview]:
    """Header and blob of a container; the blob is a view of the file's bytes."""
    raw = Path(path).read_bytes()
    min_len = MAGIC_LEN + struct.calcsize(_LEN_FMT) + struct.calcsize(_CRC_FMT)
    if len(raw) < min_len:
        raise DataFormatError(f"{path}: file truncated ({len(raw)} bytes)")
    if raw[:MAGIC_LEN] != magic:
        raise DataFormatError(
            f"{path}: bad magic {raw[:MAGIC_LEN]!r}, expected {magic!r}"
        )
    stored_crc = struct.unpack(_CRC_FMT, raw[-4:])[0]
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise DataFormatError(f"{path}: CRC mismatch, file is corrupted")
    (header_len,) = struct.unpack(
        _LEN_FMT, raw[MAGIC_LEN : MAGIC_LEN + struct.calcsize(_LEN_FMT)]
    )
    header_start = MAGIC_LEN + struct.calcsize(_LEN_FMT)
    if header_start + header_len > len(body):
        raise DataFormatError(f"{path}: header length exceeds file size")
    try:
        header = json.loads(bytes(body[header_start : header_start + header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable header ({exc})") from exc
    return header, body[header_start + header_len :]



def require(mapping, keys, path, where: str = "header") -> None:
    """Raise a DataFormatError naming the first of ``keys`` that ``mapping`` lacks."""
    if not isinstance(mapping, dict):
        raise DataFormatError(f"{path}: {where} is not a JSON object")
    for key in keys:
        if key not in mapping:
            raise DataFormatError(f"{path}: {where} lacks the field {key!r}")
