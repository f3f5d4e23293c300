"""Self-describing binary container: magic, JSON header, blob, CRC32 trailer.

Layout (little-endian):

    8 bytes   magic
    8 bytes   uint64 header length
    ...       UTF-8 JSON header
    ...       payload blob (layout described by the header)
    4 bytes   uint32 CRC32 of every preceding byte

``read_container`` refuses a file it cannot open (missing, a directory) as a
configuration error, as a missing config is, and a header that is not a
JSON object or holds another ``format_version`` than the reader's;
``require`` checks the JSON type of each field a reader declares, so readers
check only what a JSON type cannot express. Per-record values live in the
blob as fixed-width columns, never in the header.

Reads are one pass: ``read_container`` reads the header, lets the caller
check it against the size of the blob, and reads the whole blob into one
immutable buffer, carrying one CRC over every byte of the file. A CRC
mismatch is refused before anything is returned, and ahead of any refusal
of the header itself (the rest of the file is then read past a bounded
chunk at a time), so a corrupted file always reads as corrupted.

Writes are streamed: ``write_container`` takes the blob as an iterable of
bytes-like parts and writes each as it comes, carrying the CRC along, so the
whole blob is never joined in memory. Callers check their inputs before the
file is opened, so a rejected input writes no file.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from itertools import chain

from .errors import ConfigurationError, DataFormatError

MAGIC_LEN = 8
_LEN_FMT = "<Q"
_CRC_FMT = "<I"
_PREFIX_LEN = MAGIC_LEN + struct.calcsize(_LEN_FMT)
_CRC_LEN = struct.calcsize(_CRC_FMT)
# Bytes read per step when a refused file is read past to check its CRC.
_CHUNK = 1 << 20

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


def _header(header: dict, blob_size: int) -> dict:
    return header


def read_container(path, magic: bytes, version: int, layout=_header) -> tuple:
    """Read a container of format ``version`` in one CRC-checked pass.

    ``layout(header, blob_size)`` checks the header against the size of the
    blob the file holds, raising DataFormatError, and returns a value; the
    read returns that value and a read-only view of the whole blob. The
    default returns the header.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigurationError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _PREFIX_LEN + _CRC_LEN:
            raise DataFormatError(f"{path}: file truncated ({size} bytes)")
        prefix, crc = _read(fh, _PREFIX_LEN, 0, path)
        if prefix[:MAGIC_LEN] != magic:
            raise DataFormatError(f"{path}: bad magic {prefix[:MAGIC_LEN]!r}, expected {magic!r}")
        header_end = _PREFIX_LEN + struct.unpack_from(_LEN_FMT, prefix, MAGIC_LEN)[0]
        blob_size = size - _CRC_LEN - header_end
        try:
            if blob_size < 0:
                raise DataFormatError(f"{path}: header length exceeds file size")
            header, crc = _read(fh, header_end - _PREFIX_LEN, crc, path)
            value = layout(_parse_header(header, version, path), blob_size)
        except DataFormatError:
            # a corrupted file is refused as corrupted, whatever the damage did to its header
            _check_crc(fh, _skip(fh, size - _CRC_LEN - fh.tell(), crc, path), path)
            raise
        blob, crc = _read(fh, blob_size, crc, path)
        _check_crc(fh, crc, path)
    return value, memoryview(blob)


def _parse_header(raw: bytes, version: int, path) -> dict:
    """The JSON object ``raw`` holds, refused unless it is of format ``version``."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: unreadable header ({exc})") from exc
    if type(header) is not dict:
        raise DataFormatError(f"{path}: header is not a JSON object")
    require(header, {"format_version": int}, path)
    if header["format_version"] != version:
        raise DataFormatError(f"{path}: format version {header['format_version']} is not supported, "
                              f"this program reads version {version}; regenerate or retrain it")
    return header


def _read(fh, count: int, crc: int, path) -> tuple[bytes, int]:
    """The next ``count`` bytes of ``fh``, read into one immutable buffer, and ``crc`` carried over them."""
    raw = fh.read(count)
    if len(raw) != count:
        raise DataFormatError(f"{path}: file truncated while it was read")
    return raw, zlib.crc32(raw, crc)


def _skip(fh, count: int, crc: int, path) -> int:
    """Read past ``count`` bytes a chunk at a time, keeping none; returns ``crc`` carried over them."""
    for lo in range(0, count, _CHUNK):
        crc = _read(fh, min(_CHUNK, count - lo), crc, path)[1]
    return crc


def _check_crc(fh, crc: int, path) -> None:
    """Refuse the file unless its trailer, the next bytes of ``fh``, holds ``crc``."""
    if fh.read(_CRC_LEN) != struct.pack(_CRC_FMT, crc & 0xFFFFFFFF):
        raise DataFormatError(f"{path}: CRC mismatch, file is corrupted")


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
