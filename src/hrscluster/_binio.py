"""Self-describing binary container: magic, JSON header, blob, CRC32 trailer.

Layout (little-endian):

    8 bytes   magic
    8 bytes   uint64 header length
    ...       UTF-8 JSON header
    ...       payload blob (layout described by the header)
    4 bytes   uint32 CRC32 of every preceding byte

``read_container`` refuses a header that is not a JSON object or holds
another ``format_version`` than the reader's; ``require`` checks the JSON
type of each field a reader declares, so readers check only what a JSON type
cannot express. Per-record values live in the blob as fixed-width columns,
never in the header.

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
_PREFIX_LEN = MAGIC_LEN + struct.calcsize(_LEN_FMT)

# The Python types a JSON value of each type decodes to: a number written
# without a fraction decodes to int, and a bool is never a number.
_DECODED = {int: {int}, float: {float, int}, str: {str}, dict: {dict}, list: {list}}
_NAMES = {int: "integer", float: "number", str: "string", dict: "object", list: "list"}


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


def read_container(path, magic: bytes, version: int) -> tuple[dict, memoryview]:
    """Header and blob of a container of format ``version``; the blob views the file's bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX_LEN + struct.calcsize(_CRC_FMT):
        raise DataFormatError(f"{path}: file truncated ({len(raw)} bytes)")
    if raw[:MAGIC_LEN] != magic:
        raise DataFormatError(f"{path}: bad magic {raw[:MAGIC_LEN]!r}, expected {magic!r}")
    stored_crc = struct.unpack(_CRC_FMT, raw[-4:])[0]
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise DataFormatError(f"{path}: CRC mismatch, file is corrupted")
    header_end = _PREFIX_LEN + struct.unpack_from(_LEN_FMT, raw, MAGIC_LEN)[0]
    if header_end > len(body):
        raise DataFormatError(f"{path}: header length exceeds file size")
    try:
        header = json.loads(bytes(body[_PREFIX_LEN:header_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable header ({exc})") from exc
    if type(header) is not dict:
        raise DataFormatError(f"{path}: header is not a JSON object")
    require(header, {"format_version": int}, path)
    if header["format_version"] != version:
        raise DataFormatError(f"{path}: format version {header['format_version']} is not supported, "
                              f"this program reads version {version}; regenerate or retrain it")
    return header, body[header_end:]


def require(header: dict, fields: dict, path) -> None:
    """Check that ``header`` holds every key of ``fields`` with its JSON type.

    A type is ``int``, ``float`` (which also admits an integer), ``str``,
    ``dict``, ``list``, or a pair ``(list, t)`` or ``(dict, t)``: a list, or
    an object, whose values are all of type ``t``. The DataFormatError names
    the first key that is missing or of another type.
    """
    for key, kind in fields.items():
        if key not in header:
            raise DataFormatError(f"{path}: header lacks the field {key!r}")
        if not _fits(header[key], kind):
            name = f"{_NAMES[kind[0]]} of {_NAMES[kind[1]]}s" if type(kind) is tuple else _NAMES[kind]
            raise DataFormatError(f"{path}: header field {key!r} is not of JSON type {name}")


def _fits(value, kind) -> bool:
    """Whether ``value`` is of the JSON type ``kind`` (see ``require``)."""
    if type(kind) is not tuple:
        return type(value) in _DECODED[kind]
    outer, inner = kind
    if type(value) is not outer:
        return False
    return set(map(type, value.values() if outer is dict else value)) <= _DECODED[inner]
