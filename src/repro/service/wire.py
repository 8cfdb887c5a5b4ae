"""The columnar binary wire format for bulk disclosure ingestion.

JSON is the service's lingua franca, but parsing a float list builds one
Python object per disclosed value — the ingest hot path of a server
absorbing millions of randomized reports should never do that.  This
module defines ``application/x-ppdm-columns``: a versioned, columnar
frame whose float columns are raw little-endian ``float64`` bytes, so
the decoder is ``np.frombuffer`` over the request body (zero copies, no
per-value objects) and the encoder is one ``tobytes()`` per column.

Frame layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (1 = unlabeled, 2 = class-aware,
                         3 = partial — see below)
    6       2     u16    n_attributes
    8       4     i32    shard pin (-1 = unpinned, round-robin)
    [v2]    8     u64    class row count (0 = no class column)
    ...     ...   attribute table, n_attributes entries:
                    u16    name length L (UTF-8 bytes)
                    L      attribute name
                    u64    row count
    [v2]    ...   class column: class_row_count x 4 bytes of raw
                  little-endian int32 class labels
    ...     ...   columns: row_count x 8 bytes of raw little-endian
                  float64 per attribute, in table order

Version 2 frames carry an optional *class column* — one int32 label per
record, shared by every attribute column (whose row counts must then
all equal the class row count) — so classification training data
(class, attribute values) streams over the same zero-copy path.
Version 1 frames remain fully supported; the server counts their
records as unlabeled.

Version 3 is the *partial* frame (``application/x-ppdm-partial``): the
cluster tier's unit of exchange.  Instead of records it carries one
worker's **merged histogram partials** — for each attribute,
``n_blocks`` rows of noise-expanded bin counts — so a coordinator
absorbs a whole worker's state in O(bins), however many records the
worker has seen.  Writers send ``n_blocks = 1``.  Workers that kept one
histogram per class sent ``n_blocks = classes + 1`` (unlabeled, then one
row per class); the service sums the rows, so it accepts 1 or
``classes + 1``.  The header struct is shared with v1/v2; the i32 slot
that pins a shard in record frames carries ``n_blocks`` here::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (3 = partial)
    6       2     u16    n_attributes
    8       4     i32    n_blocks (>= 1; writers send 1)
    ...     ...   attribute table, n_attributes entries:
                    u16    name length L (UTF-8 bytes)
                    L      attribute name
                    u64    bin count
    ...     ...   counts: n_blocks x bin_count x 8 bytes of raw
                  little-endian float64 per attribute, in table order

Partial counts must be finite, non-negative, and integer-valued —
anything else is a malformed frame, not data.  Partial frames are
self-delimiting like record frames, so a sync body may append labeled
v2 record frames after the partial (:func:`split_partial`) — that is
how a training worker ships its row buffer alongside its aggregates in
one atomic sync body.

Version 4 is the *basket* frame (``application/x-ppdm-baskets``): the
association-mining workload's unit of ingest.  Market-basket data is
sparse boolean, so columns of float64 would waste ~64x the bytes; a
basket frame instead ships each transaction as a varint list of the
item ids it contains, with a varint offset index up front so the frame
is self-delimiting and any transaction is addressable without decoding
its predecessors.  The header struct is shared with v1-v3; the u16
slot that counts attributes in record frames carries ``n_items`` here,
and the i32 slot is the usual shard pin::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (4 = baskets)
    6       2     u16    n_items (item ids live in [0, n_items))
    8       4     i32    shard pin (-1 = unpinned, round-robin)
    ...     var   varint n_transactions (>= 1)
    ...     var   offset index: n_transactions varints, the byte
                  length of each transaction's item-id payload
                  (prefix sums give the offsets)
    ...     var   payload: per transaction, its item ids as varints,
                  strictly increasing (sorted, no duplicates; a zero
                  length encodes the empty transaction)

Varints are LEB128: 7 value bits per byte, high bit set on every byte
but the last.  Decoders reject item ids at or above ``n_items``,
non-increasing id sequences, transactions that over- or under-run
their declared byte length, and frames whose decoded matrix would be
absurdly large — malformed bytes are a 400, never a partial absorb.
v1-v3 byte-compatibility is untouched: record/partial decoders reject
version 4 frames loudly, and vice versa.

The basket codec works on whole arrays.  Past the transaction count,
the decoder reads the index, then the payload, in blocks of whole
transactions of at most 1 MiB.  In each it finds every varint's last
byte with one terminator mask (``byte < 0x80``), numbers the varints
with a cumulative sum and sums their shifted 7-bit groups with
``np.add.reduceat``; the index, the transaction boundaries, the item
bound and strict increase are checked on those arrays.  A transaction
longer than ``(n_items + 1) * 10`` bytes cannot be valid and is read
only that far, so a decode's short-lived arrays stay near 25 MiB
however long the body.  A malformed frame is refused at the first
offender a byte-by-byte walk would meet (every index entry, then each
transaction's length and its ids in order), with that walk's message.
:func:`encode_baskets` builds the same layout from
``np.nonzero(baskets)``.  Neither makes a Python call per item or per
transaction, but each frame costs a fixed few dozen NumPy calls, so
large frames gain and a frame of a few baskets is slower than a
varint loop would be.

Version 5 is the *quantized* record frame: the v2 layout plus one
dtype-code byte per attribute-table entry, so already-discretized
columns ship at their natural width instead of float64.  Randomized
categorical and binned numeric disclosures are bin indices the moment
the client locates them on the attribute's noise-expanded grid —
shipping them as ``float64`` spends 8 bytes on a value that fits in
one.  A v5 column is either raw values (code 0, float64 — exactly the
v1/v2 payload) or *pre-located bin indices* (code 1 = int8, code 2 =
int16), decoded zero-copy via ``np.frombuffer`` and widened only when
the fused bincount needs platform integers::

    offset  size  field
    0       4     magic  b"PPDM"
    4       2     u16    wire version (5 = quantized)
    6       2     u16    n_attributes
    8       4     i32    shard pin (-1 = unpinned, round-robin)
    12      8     u64    class row count (0 = no class column)
    ...     ...   attribute table, n_attributes entries:
                    u16    name length L (UTF-8 bytes)
                    L      attribute name
                    u64    row count
                    u8     dtype code (0 = float64 raw values,
                           1 = int8 bin indices, 2 = int16 bin indices)
    ...     ...   class column: class_row_count x 4 bytes of raw
                  little-endian int32 class labels (when count > 0)
    ...     ...   columns: row_count x itemsize bytes of raw
                  little-endian values per attribute, in table order

Quantized columns carry *decisions*, not measurements: each index must
lie in ``[0, n_intervals)`` of its attribute's noise-expanded grid, and
the server adds shard offsets directly — no ``searchsorted`` on the hot
path.  Because the client and server locate on the same grid, estimates
from a quantized stream are bit-identical to the float64 stream of the
same disclosures.  v1-v4 frames are byte-identical to previous
releases and still accepted unchanged.

Per-frame *codecs* ride HTTP ``Content-Encoding``, orthogonal to the
frame version: a whole request body (any number of frames, any
version) may be compressed with zlib (always available) or zstd (when
the ``zstandard`` package is importable).  :func:`compress_payload` /
:func:`decompress_payload` are the single codec implementation; the
decode side is *bounded* — a streamed ``zlib.decompressobj`` with
``max_length`` (or zstd's ``max_output_size``) enforces an explicit
decompressed-size cap, so a decompression bomb (tiny wire body, huge
decoded size) raises :class:`~repro.exceptions.DecodedSizeError`
instead of exhausting memory.

Frames are self-delimiting, so a request body may concatenate any
number of them (:func:`iter_labeled_frames` /
:func:`iter_basket_frames`) and a persistent connection can stream
batch after batch.  The NDJSON fallback (``application/x-ndjson``)
keeps the same many-batches-per-body shape curl-able: one
``{"batch": ..., "shard": ..., "classes": ...}`` JSON object per line
(``shard`` and ``classes`` optional) — the record a JSON
``POST /ingest`` body carries, checked by the same reader.

A shard pin is ``None`` (unpinned) or an integer in ``[0, 2**31)``:
encoders raise :class:`~repro.exceptions.ValidationError` for anything
else, JSON records must not pin a boolean, and decoders treat an i32
pin below ``-1`` as a malformed frame.

Malformed frames raise :class:`~repro.exceptions.ValidationError`
(decode bombs and codec corruption the sharper
:class:`~repro.exceptions.WireFormatError` subclass), which the HTTP
front end maps to status 400 (413 for decoded-size-cap hits).
"""

from __future__ import annotations

import json
import numbers
import struct
import zlib

import numpy as np

from repro.exceptions import DecodedSizeError, ValidationError, WireFormatError
from repro.utils.validation import check_counts, check_label_column

try:  # optional codec: present when the zstandard package is installed
    import zstandard as _zstandard
except ImportError:  # pragma: no cover - environment-dependent
    _zstandard = None  # type: ignore[assignment]

__all__ = [
    "CONTENT_TYPE_BASKETS",
    "CONTENT_TYPE_COLUMNS",
    "CONTENT_TYPE_NDJSON",
    "CONTENT_TYPE_PARTIAL",
    "MAGIC",
    "WIRE_CODEC_IDENTITY",
    "WIRE_CODEC_ZLIB",
    "WIRE_CODEC_ZSTD",
    "WIRE_VERSION",
    "WIRE_VERSION_BASKETS",
    "WIRE_VERSION_CLASSES",
    "WIRE_VERSION_PARTIAL",
    "WIRE_VERSION_QUANTIZED",
    "compress_payload",
    "decompress_payload",
    "encode_baskets",
    "encode_columns",
    "encode_ndjson",
    "encode_partial",
    "encode_quantized",
    "iter_basket_frames",
    "iter_labeled_frames",
    "iter_labeled_ndjson",
    "resolve_codec",
    "split_partial",
    "supported_codecs",
]

#: content type negotiating the binary columnar frames
CONTENT_TYPE_COLUMNS = "application/x-ppdm-columns"
#: content type for the newline-delimited JSON fallback
CONTENT_TYPE_NDJSON = "application/x-ndjson"
#: content type for cluster partial-sync bodies (version 3 frames)
CONTENT_TYPE_PARTIAL = "application/x-ppdm-partial"
#: content type for market-basket transaction bodies (version 4 frames)
CONTENT_TYPE_BASKETS = "application/x-ppdm-baskets"
#: the four magic bytes every columnar frame starts with
MAGIC = b"PPDM"
#: unlabeled frame version (the PR 4 layout, still fully supported)
WIRE_VERSION = 1
#: class-aware frame version: adds an optional int32 class column
WIRE_VERSION_CLASSES = 2
#: partial frame version: merged histogram counts (cluster sync)
WIRE_VERSION_PARTIAL = 3
#: basket frame version: varint transaction lists of item ids (mining)
WIRE_VERSION_BASKETS = 4
#: quantized frame version: per-column dtype codes (int8/int16 bin indices)
WIRE_VERSION_QUANTIZED = 5
#: codec token for uncompressed request bodies (the HTTP default)
WIRE_CODEC_IDENTITY = "identity"
#: codec token for zlib-compressed bodies (stdlib, always available)
WIRE_CODEC_ZLIB = "zlib"
#: codec token for zstd-compressed bodies (needs the zstandard package)
WIRE_CODEC_ZSTD = "zstd"

_HEADER = struct.Struct("<4sHHi")
_NAME_LEN = struct.Struct("<H")
_ROW_COUNT = struct.Struct("<Q")
_CLASS_COUNT = struct.Struct("<Q")
_DTYPE_CODE = struct.Struct("<B")
_F8 = np.dtype("<f8")
_I4 = np.dtype("<i4")
_I1 = np.dtype("<i1")
_I2 = np.dtype("<i2")
#: v5 dtype codes -> column dtypes (0 = raw float64 values, 1/2 = bin indices)
_DTYPE_BY_CODE = {0: _F8, 1: _I1, 2: _I2}
_CODE_BY_DTYPE = {_F8: 0, _I1: 1, _I2: 2}
#: decode-bomb guard shared by every frame decoder: a single frame may not
#: expand past this many cells, however plausible its byte length looks
_MAX_FRAME_CELLS = 1 << 28
#: a basket frame's index holds 8 bytes per transaction beside its
#: matrix's byte per item, so the cap counts a transaction as at least
#: this many cells and bounds the index with the matrix
_MIN_TRANSACTION_CELLS = 9
#: per frame content type: its name in error messages, the versions it carries
_FRAME_KINDS = {
    CONTENT_TYPE_COLUMNS: (
        "columnar",
        (WIRE_VERSION, WIRE_VERSION_CLASSES, WIRE_VERSION_QUANTIZED),
    ),
    CONTENT_TYPE_PARTIAL: ("partial", (WIRE_VERSION_PARTIAL,)),
    CONTENT_TYPE_BASKETS: ("basket", (WIRE_VERSION_BASKETS,)),
}


def _shard_pin(shard) -> int:
    """The i32 header slot for an encoder's ``shard`` (``-1`` = unpinned)."""
    if shard is None:
        return -1
    if isinstance(shard, bool) or not isinstance(shard, numbers.Integral):
        raise ValidationError(
            f"shard must be None or an integer, got {type(shard).__name__}"
        )
    if not 0 <= shard < 2**31:
        raise ValidationError(f"shard {shard} is outside [0, 2**31)")
    return int(shard)


def _decoded_pin(slot: int) -> int | None:
    """A decoded i32 shard slot as a pin (``None`` when unpinned)."""
    if slot < -1:
        raise ValidationError(
            f"malformed shard pin {slot}: frames carry -1 (unpinned) or a "
            "shard index"
        )
    return None if slot == -1 else slot


def _encoded_name(name) -> bytes:
    """The u16 length and UTF-8 bytes opening an attribute-table entry."""
    if not isinstance(name, str) or not name:
        raise ValidationError("attribute names must be non-empty strings")
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValidationError(f"attribute name {name!r} is too long")
    return _NAME_LEN.pack(len(encoded)) + encoded


def _encode_class_column(classes) -> np.ndarray:
    """Validate and convert a class column to little-endian int32."""
    arr = check_label_column(classes)
    if arr.size and (arr.min() < -(2**31) or arr.max() >= 2**31):
        raise ValidationError("class labels must fit in a signed 32-bit int")
    return np.ascontiguousarray(arr, dtype=_I4)


def _wire_column(name: str, values, quantized: bool) -> np.ndarray:
    """One batch column as the array its record frame ships.

    Raw float64 values, except that a quantized (v5) frame ships an
    integer column as bin indices at the narrower of int8 and int16.
    """
    arr = np.asarray(values)
    if not quantized or arr.dtype.kind not in "iu":
        arr = np.ascontiguousarray(values, dtype=_F8)
    if arr.ndim != 1:
        raise ValidationError(
            f"batch[{name!r}] must be 1-dimensional, got shape {arr.shape}"
        )
    if arr.dtype == _F8:
        return arr
    if arr.size and int(arr.min()) < 0:
        raise ValidationError(
            f"batch[{name!r}] holds negative bin indices; quantized "
            "columns carry locations on the attribute grid"
        )
    if arr.size and int(arr.max()) > 0x7FFF:
        raise ValidationError(
            f"batch[{name!r}] holds bin index {int(arr.max())}; "
            "quantized columns cap indices at 32767 (int16)"
        )
    if arr.dtype in (_I1, _I2):
        return arr
    return arr.astype(_I1 if (not arr.size or int(arr.max()) <= 0x7F) else _I2)


def _encode_records(batch, shard, classes, quantized: bool) -> bytes:
    """Encode one record frame: v5 when ``quantized``, else v1 or v2."""
    if not isinstance(batch, dict):
        raise ValidationError("batch must map attribute -> values")
    if len(batch) > 0xFFFF:
        raise ValidationError("a frame holds at most 65535 attributes")
    pin = _shard_pin(shard)
    class_column = None
    if classes is not None:
        class_column = _encode_class_column(classes)
        if class_column.size == 0:
            # an empty class column carries no labels: emit the plain
            # unlabeled v1 frame (empty != mismatched)
            class_column = None
    table = []
    columns = []
    for name, values in batch.items():
        entry = _encoded_name(name)
        arr = _wire_column(name, values, quantized)
        if class_column is not None and arr.size != class_column.size:
            raise ValidationError(
                f"batch[{name!r}] has {arr.size} row(s) but the class "
                f"column has {class_column.size}; labeled frames need one "
                "class label per record"
            )
        entry += _ROW_COUNT.pack(arr.size)
        if quantized:
            entry += _DTYPE_CODE.pack(_CODE_BY_DTYPE[arr.dtype])
        table.append(entry)
        columns.append(arr.tobytes())
    if quantized:
        version = WIRE_VERSION_QUANTIZED
    elif class_column is None:
        version = WIRE_VERSION
    else:
        version = WIRE_VERSION_CLASSES
    frame = [_HEADER.pack(MAGIC, version, len(batch), pin)]
    if version != WIRE_VERSION:
        n_labels = 0 if class_column is None else class_column.size
        frame.append(_CLASS_COUNT.pack(n_labels))
    frame += table
    if class_column is not None:
        frame.append(class_column.tobytes())
    return b"".join(frame + columns)


def encode_columns(batch, *, shard: int | None = None, classes=None) -> bytes:
    """Encode one ``{attribute: values}`` batch as a columnar frame.

    Parameters
    ----------
    batch:
        Mapping of attribute name to a 1-D sequence of float values.
    shard:
        Optional shard pin, an integer in ``[0, 2**31)`` carried in the
        frame header (``None`` routes round-robin on the server).
    classes:
        Optional class column: one integer label per record.  Every
        attribute column must then have exactly that many rows, and the
        frame is emitted as wire version 2 (without ``classes`` — or
        with an empty column, which carries no labels — the
        byte-for-byte version 1 layout is produced, so old servers keep
        decoding unlabeled frames).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_columns, iter_labeled_frames
    >>> frame = encode_columns({"age": [31.5, 47.0]}, shard=2)
    >>> frame[:4]
    b'PPDM'
    >>> [(batch, classes, shard)] = iter_labeled_frames(frame)
    >>> batch["age"].tolist(), classes, shard
    ([31.5, 47.0], None, 2)
    >>> labeled = encode_columns({"age": [31.5, 47.0]}, classes=[0, 1])
    >>> [(batch, classes, shard)] = iter_labeled_frames(labeled)
    >>> classes.tolist(), shard
    ([0, 1], None)
    """
    return _encode_records(batch, shard, classes, quantized=False)


def encode_quantized(batch, *, shard: int | None = None, classes=None) -> bytes:
    """Encode a batch as a version 5 frame with per-column dtype codes.

    Integer columns are treated as *pre-located bin indices* — the
    values :meth:`repro.core.Partition.locate` (or
    :meth:`~repro.service.AggregationService.quantize`) produces — and
    ship at their natural width: int8 when every index fits in a signed
    byte, int16 otherwise (indices above 32767 are rejected; no
    attribute grid is that fine).  Float columns ship as raw float64,
    byte-for-byte the v1/v2 column payload, so mixed batches work.

    Parameters
    ----------
    batch:
        Mapping of attribute name to a 1-D sequence.  Integer dtypes
        (including int8/int16 arrays, passed through unwidened) become
        quantized columns; everything else is encoded as float64 values.
    shard:
        Optional shard pin carried in the frame header.
    classes:
        Optional class column, one integer label per record — exactly
        the :func:`encode_columns` contract.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_quantized, iter_labeled_frames
    >>> frame = encode_quantized({"age": np.array([0, 3, 1], dtype=np.int8)})
    >>> frame[:4], frame[4]
    (b'PPDM', 5)
    >>> [(batch, classes, shard)] = iter_labeled_frames(frame)
    >>> batch["age"].tolist(), batch["age"].dtype.name
    ([0, 3, 1], 'int8')
    """
    return _encode_records(batch, shard, classes, quantized=True)


def _read_header(view: memoryview, offset: int, content_type: str) -> tuple:
    """Check the frame header at ``offset``; return ``(version, count, slot)``.

    ``count`` is the header's u16 (attributes or items) and ``slot`` its
    raw i32 (a shard pin or a block count); ``content_type`` names the
    body and so the wire versions it may carry.
    """
    kind, versions = _FRAME_KINDS[content_type]
    left = len(view) - offset
    if left < _HEADER.size:
        raise ValidationError(
            f"truncated {kind} frame: {left} byte(s) left, header needs "
            f"{_HEADER.size}"
        )
    magic, version, count, slot = _HEADER.unpack_from(view, offset)
    if magic != MAGIC:
        raise ValidationError(
            f"bad frame magic {bytes(magic)!r}; expected {MAGIC!r} "
            f"(is the body really {content_type}?)"
        )
    if version not in versions:
        raise ValidationError(
            f"unsupported wire version {version} in a {content_type} body; "
            f"expected version {' or '.join(map(str, versions))}"
        )
    return version, count, slot


def _read_table(
    view: memoryview, offset: int, n_attributes: int, kind: str, coded: bool
):
    """Yield ``(name, count, dtype, next_offset)`` per attribute-table entry.

    An entry is a u16-length UTF-8 name and a u64 count (rows or bins),
    then, when ``coded`` (wire v5), a u8 dtype code; a repeated name is
    malformed.  Callers check each count as it arrives, before later
    entries are read.
    """
    end = len(view)
    tail = _ROW_COUNT.size + (_DTYPE_CODE.size if coded else 0)
    seen = set()
    for _ in range(n_attributes):
        if end - offset < _NAME_LEN.size:
            raise ValidationError(f"truncated {kind} frame attribute table")
        (name_len,) = _NAME_LEN.unpack_from(view, offset)
        offset += _NAME_LEN.size
        if end - offset < name_len + tail:
            raise ValidationError(f"truncated {kind} frame attribute table")
        try:
            name = str(view[offset : offset + name_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"attribute name is not UTF-8: {exc}") from exc
        offset += name_len
        (count,) = _ROW_COUNT.unpack_from(view, offset)
        offset += _ROW_COUNT.size
        dtype = _F8
        if coded:
            (code,) = _DTYPE_CODE.unpack_from(view, offset)
            offset += _DTYPE_CODE.size
            dtype = _DTYPE_BY_CODE.get(code)
            if dtype is None:
                raise WireFormatError(
                    f"quantized frame: column {name!r} declares unknown "
                    f"dtype code {code}; this server speaks codes "
                    f"{sorted(_DTYPE_BY_CODE)}"
                )
        if name in seen:
            raise ValidationError(f"duplicate attribute {name!r} in frame")
        seen.add(name)
        yield name, count, dtype, offset


def _read_array(view: memoryview, offset: int, count: int, dtype, what: str):
    """Zero-copy view of ``count`` values at ``offset``, and the next offset."""
    nbytes = count * dtype.itemsize
    if len(view) - offset < nbytes:
        raise ValidationError(
            f"truncated {what} declares {count} value(s) but only "
            f"{len(view) - offset} byte(s) remain"
        )
    array = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
    return array, offset + nbytes


def _decode_frame(view: memoryview, offset: int) -> tuple:
    """Decode one record frame at ``offset``.

    Returns ``(batch, classes, shard, next_offset)`` — ``classes`` is
    ``None`` for frames without a class column.
    """
    version, n_attributes, slot = _read_header(view, offset, CONTENT_TYPE_COLUMNS)
    offset += _HEADER.size
    class_rows = 0
    if version != WIRE_VERSION:
        if len(view) - offset < _CLASS_COUNT.size:
            raise ValidationError(
                f"truncated columnar frame: version {version} header needs "
                "a class row count"
            )
        (class_rows,) = _CLASS_COUNT.unpack_from(view, offset)
        offset += _CLASS_COUNT.size
    table = []
    total_cells = class_rows
    coded = version == WIRE_VERSION_QUANTIZED
    for name, row_count, dtype, offset in _read_table(
        view, offset, n_attributes, "columnar", coded
    ):
        if class_rows and row_count != class_rows:
            raise ValidationError(
                f"labeled frame: column {name!r} declares {row_count} "
                f"row(s) but the class column has {class_rows}"
            )
        table.append((name, row_count, dtype))
        total_cells += row_count
    if total_cells > _MAX_FRAME_CELLS:
        raise WireFormatError(
            f"columnar frame declares {total_cells} cells across "
            f"{n_attributes} column(s); the decoder caps frames at "
            f"{_MAX_FRAME_CELLS}"
        )
    classes = None
    if class_rows:
        classes, offset = _read_array(
            view, offset, class_rows, _I4, "columnar frame: the class column"
        )
    batch = {}
    for name, row_count, dtype in table:
        batch[name], offset = _read_array(
            view, offset, row_count, dtype, f"columnar frame: column {name!r}"
        )
    return batch, classes, _decoded_pin(slot), offset


def iter_labeled_frames(payload):
    """Yield ``(batch, classes, shard)`` for every frame in ``payload``.

    The decoder behind ``POST /ingest`` with
    ``Content-Type: application/x-ppdm-columns``: version 1, 2, and 5
    frames may be freely mixed in one body, and each column — including
    the class column — is decoded as a zero-copy ``np.frombuffer`` view
    (quantized version 5 columns at their declared int8/int16 width).

    Examples
    --------
    >>> from repro.service.wire import encode_columns, iter_labeled_frames
    >>> body = encode_columns({"x": [0.1]}) + encode_columns(
    ...     {"x": [0.9]}, classes=[1]
    ... )
    >>> [(b["x"].tolist(), None if c is None else c.tolist(), s)
    ...  for b, c, s in iter_labeled_frames(body)]
    [([0.1], None, None), ([0.9], [1], None)]
    """
    view = memoryview(payload)
    offset = 0
    while offset < len(view):
        batch, classes, shard, offset = _decode_frame(view, offset)
        yield batch, classes, shard

def encode_partial(partials) -> bytes:
    """Encode merged histogram partials as one version 3 frame.

    ``partials`` maps attribute name to a 2-D ``(n_blocks, bins)`` count
    matrix; :meth:`~repro.service.AggregationService.export_partial`
    produces ``(1, bins)``.  Every attribute must share one block count;
    counts must be finite, non-negative, and integer-valued (histogram
    counts, not arbitrary floats).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_partial, split_partial
    >>> frame = encode_partial({"age": np.array([[2.0, 1.0], [0.0, 3.0]])})
    >>> frame[:4]
    b'PPDM'
    >>> partials, rest = split_partial(frame)
    >>> partials["age"].tolist(), bytes(rest)
    ([[2.0, 1.0], [0.0, 3.0]], b'')
    """
    if not isinstance(partials, dict) or not partials:
        raise ValidationError(
            "partials must be a non-empty mapping of attribute -> "
            "(n_blocks, bins) counts"
        )
    if len(partials) > 0xFFFF:
        raise ValidationError("a partial frame holds at most 65535 attributes")
    n_blocks = None
    table = []
    blocks = []
    for name, counts in partials.items():
        entry = _encoded_name(name)
        matrix = np.ascontiguousarray(counts, dtype=_F8)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValidationError(
                f"partials[{name!r}] must be a (n_blocks, bins) matrix, "
                f"got shape {matrix.shape}"
            )
        if n_blocks is None:
            n_blocks = matrix.shape[0]
        elif matrix.shape[0] != n_blocks:
            raise ValidationError(
                f"partials[{name!r}] has {matrix.shape[0]} class block(s); "
                f"other attributes have {n_blocks} — one schema per frame"
            )
        check_counts(matrix, f"partial counts for {name!r}")
        table.append(entry + _ROW_COUNT.pack(matrix.shape[1]))
        blocks.append(matrix.tobytes())
    if n_blocks is None or n_blocks > 0x7FFFFFFF:
        raise ValidationError(f"partial frame cannot hold {n_blocks} blocks")
    header = _HEADER.pack(MAGIC, WIRE_VERSION_PARTIAL, len(partials), n_blocks)
    return header + b"".join(table) + b"".join(blocks)


def split_partial(payload) -> tuple:
    """Decode a leading version 3 frame; return ``(partials, remainder)``.

    The sync-body decoder: a pulled body is one partial frame,
    optionally followed by concatenated labeled record frames (a
    training worker's row buffer).  ``remainder`` is the bytes after the
    partial frame (empty when the body is the frame alone), ready for
    :func:`iter_labeled_frames`.  Every count comes back validated
    finite, non-negative, and integer-valued.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_partial, split_partial
    >>> frame = encode_partial({"x": np.array([[1.0, 0.0]])})
    >>> partials, rest = split_partial(frame + b"tail")
    >>> partials["x"].tolist(), bytes(rest)
    ([[1.0, 0.0]], b'tail')
    """
    view = memoryview(payload)
    _, n_attributes, n_blocks = _read_header(view, 0, CONTENT_TYPE_PARTIAL)
    if n_attributes < 1:
        raise ValidationError("a partial frame needs at least one attribute")
    if n_blocks < 1:
        raise ValidationError(
            f"partial frame declares {n_blocks} class block(s); needs >= 1"
        )
    offset = _HEADER.size
    table = []
    for name, bin_count, _, offset in _read_table(
        view, offset, n_attributes, "partial", False
    ):
        if bin_count < 1:
            raise ValidationError(
                f"partial frame: attribute {name!r} declares 0 bins"
            )
        table.append((name, bin_count))
    total_bins = sum(bins for _, bins in table)
    if n_blocks * total_bins > _MAX_FRAME_CELLS:
        raise WireFormatError(
            f"partial frame declares {n_blocks} block(s) x {total_bins} "
            f"bin(s) = {n_blocks * total_bins} cells; the decoder caps "
            f"frames at {_MAX_FRAME_CELLS}"
        )
    partials = {}
    for name, bin_count in table:
        flat, offset = _read_array(
            view, offset, n_blocks * bin_count, _F8,
            f"partial frame: attribute {name!r}",
        )
        matrix = flat.reshape(n_blocks, bin_count)
        check_counts(matrix, f"partial counts for {name!r}")
        partials[name] = matrix
    return partials, view[offset:]


#: a varint never needs more than 10 bytes (70 value bits > 64)
_VARINT_MAX_BYTES = 10
#: the continuation flag, set on every byte of a varint but its last
_VARINT_MORE = 0x80
_U8 = np.dtype(np.uint8)
#: frame bytes one decoding block covers at most.  A block's short-lived
#: arrays take up to ~25 bytes per byte (one-byte ids), so besides its
#: matrix and its index a decode holds ~25 MiB, however long the body.
_BLOCK_BYTES = 1 << 20
#: transactions one block covers at most (empty ones take no bytes), so
#: a block numbers its transactions in ``uint16``
_BLOCK_TRANSACTIONS = 1 << 16


def _decode_varint(view: memoryview, offset: int, end: int, what: str) -> tuple:
    """Decode one LEB128 varint; return ``(value, next_offset)``.

    A frame's transaction count is the one varint read this way.  The
    array decoders below call it again only on a varint they refuse, so
    every varint error carries this function's message.
    """
    value = 0
    shift = 0
    for length in range(1, _VARINT_MAX_BYTES + 1):
        chunk = view[offset : offset + 1] if offset < end else b""
        if not len(chunk):
            raise ValidationError(f"truncated basket frame: {what} varint")
        byte = chunk[0]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if value >= 1 << 64:
                raise ValidationError(
                    f"basket frame: {what} varint exceeds 64 bits"
                )
            return value, offset
        shift += 7
    raise ValidationError(
        f"basket frame: {what} varint runs past {_VARINT_MAX_BYTES} bytes"
    )


def _varint_sizes(values: np.ndarray) -> np.ndarray:
    """The byte length of each non-negative integer's LEB128 encoding."""
    sizes = np.ones(values.shape, _U8)
    for place in range(1, _VARINT_MAX_BYTES):
        high = values >> (7 * place)
        if not high.any():
            break
        sizes += high != 0
    return sizes


def _encode_varints(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """LEB128-encode non-negative integers back to back, as ``uint8``.

    ``sizes`` is :func:`_varint_sizes` of ``values``.  One pass per byte
    place (at most three for item ids), each over every value that
    reaches it: no per-value Python work.
    """
    ends = np.cumsum(sizes, dtype=np.intp)
    out = np.empty(int(ends[-1]) if len(ends) else 0, _U8)
    starts = ends - sizes
    for place in range(int(sizes.max(initial=0))):
        has = sizes > place
        group = ((values[has] >> (7 * place)) & 0x7F).astype(_U8)
        group |= (sizes[has] > place + 1).astype(_U8) << 7
        out[starts[has] + place] = group
    return out


def encode_baskets(baskets, *, shard: int | None = None) -> bytes:
    """Encode a boolean transaction matrix as one version 4 basket frame.

    ``baskets`` is the mining stack's native shape — a 2-D boolean
    matrix, one row per transaction, one column per item (what
    :func:`repro.mining.generate_baskets` produces and
    :class:`repro.mining.RandomizedResponse` randomizes).  Each row is
    shipped as the varint list of its set-column ids, so sparse baskets
    cost bytes proportional to their items, not to the item universe.
    Empty transactions (all-false rows — MASK randomization can produce
    them) encode as a zero-length id list.  The frame is built from
    ``np.nonzero(baskets)`` with whole-array operations, so its cost
    does not include a Python call per item or per transaction.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_baskets, iter_basket_frames
    >>> matrix = np.array([[True, False, True], [False, False, False]])
    >>> frame = encode_baskets(matrix, shard=1)
    >>> frame[:4]
    b'PPDM'
    >>> [(decoded, shard)] = iter_basket_frames(frame)
    >>> decoded.tolist(), shard
    ([[True, False, True], [False, False, False]], 1)
    """
    pin = _shard_pin(shard)
    matrix = np.asarray(baskets)
    if matrix.ndim != 2:
        raise ValidationError(
            f"baskets must be a 2-D boolean matrix, got shape {matrix.shape}"
        )
    if matrix.dtype != np.bool_:
        raise ValidationError(
            f"baskets must be a boolean matrix, got dtype {matrix.dtype}"
        )
    n_transactions, n_items = matrix.shape
    if n_transactions < 1:
        raise ValidationError("a basket frame needs at least one transaction")
    if not 1 <= n_items <= 0xFFFF:
        raise ValidationError(
            f"a basket frame holds 1..65535 items, got {n_items}"
        )
    # row-major: each transaction's ids, ascending, one transaction after
    # another, which is the payload's order
    rows, items = np.nonzero(matrix)
    items = items.astype(np.uint16)
    sizes = _varint_sizes(items)
    lengths = np.bincount(rows, weights=sizes, minlength=n_transactions)
    # the transaction count, then the index: one run of varints
    index = np.concatenate(([n_transactions], lengths.astype(np.int64)))
    header = _HEADER.pack(MAGIC, WIRE_VERSION_BASKETS, n_items, pin)
    return (
        header
        + _encode_varints(index, _varint_sizes(index)).tobytes()
        + _encode_varints(items, sizes).tobytes()
    )


def _varint_spans(ends: np.ndarray, count=None) -> tuple:
    """Where the varints that ``ends`` marks start and end: ``(first, last)``.

    ``ends`` is True at each varint's last byte; only the first
    ``count`` varints are kept when it is given.  ``last[k]`` is varint
    k's last byte and ``first[k]`` its first; ``first`` holds one entry
    more, the byte after the last varint.  Positions are ``uint32``
    unless ``ends`` is too long for them.
    """
    position = np.uint32 if len(ends) < 2**32 else np.uint64
    last = np.flatnonzero(ends)[:count].astype(position)
    first = np.zeros(len(last) + 1, position)
    np.add(last, 1, out=first[1:])
    return first, last


def _varint_values(data, first, last, dtype, top: int) -> np.ndarray:
    """The values of the varints spanning ``data[first[k] : last[k] + 1]``.

    The varints lie back to back from ``data[0]``.  A cumulative sum
    over their starts gives each byte its varint, each byte's 7 value
    bits are shifted by 7 x its place in that varint, and one
    ``np.add.reduceat`` sums every varint's groups.  Places past ``top``
    shift as place ``top``, so values below ``2**(7 * (top + 1))`` are
    exact and any larger one still reads as at least ``2**(7 * top)``.
    Only a varint that :func:`_malformed_varints` refuses can wrap in
    ``dtype``.
    """
    if not len(last):
        return np.zeros(0, dtype)
    width = int(last[-1]) + 1
    place = np.zeros(width, dtype)
    place[first[1 : len(last)]] = 1
    np.cumsum(place, dtype=dtype, out=place)
    # each byte's place: its distance from the start of its varint
    place = first.astype(dtype, copy=False)[place]
    np.subtract(np.arange(width, dtype=dtype), place, out=place)
    np.minimum(place, top, out=place)
    place *= 7
    groups = (data[:width] & 0x7F).astype(dtype)
    groups <<= place
    del place  # a server decodes on many threads: keep each one's peak low
    return np.add.reduceat(groups, first[: len(last)], dtype=dtype)


def _malformed_varints(data, first, last) -> np.ndarray:
    """Which varints :func:`_decode_varint` refuses.

    A varint is cut short when its last byte still sets the continuation
    flag, runs past ten bytes, or, at ten bytes, carries more than one
    value bit in its last byte (past 64 bits).
    """
    sizes = last - first[: len(last)]
    sizes += 1
    ending = data[last]
    return (
        (ending >= _VARINT_MORE)
        | (sizes > _VARINT_MAX_BYTES)
        | ((sizes == _VARINT_MAX_BYTES) & (ending > 1))
    )


def _read_index(view: memoryview, offset: int, count: int) -> tuple:
    """The ``count`` index varints at ``offset``: their values and the next offset.

    Entries are read in blocks whose bytes fit ``_BLOCK_BYTES``.  The
    index may run into the payload and past it, up to the end of the
    body, as the byte-by-byte walk may: only the first terminators count.
    """
    end = len(view)
    lengths = np.empty(count, np.uint64)
    per_block = _BLOCK_BYTES // _VARINT_MAX_BYTES
    for done in range(0, count, per_block):
        want = min(count - done, per_block)
        window = np.frombuffer(
            view, _U8, count=min(end - offset, want * _VARINT_MAX_BYTES),
            offset=offset,
        )
        first, last = _varint_spans(window < _VARINT_MORE, want)
        bad = np.flatnonzero(_malformed_varints(window, first, last))
        if bad.size or len(last) < want:
            # the first refused entry, else the first one with no end: the
            # scalar decoder raises on either
            k = int(bad[0]) if bad.size else len(last)
            what = f"index[{done + k}]"
            _decode_varint(view, offset + int(first[k]), end, what)
            raise WireFormatError(f"basket frame: malformed {what} varint")
        lengths[done : done + want] = _varint_values(
            window, first, last, np.uint64, 9
        )
        offset += int(first[-1])
    return lengths, offset


def _read_transactions(
    view: memoryview, offset: int, lengths: np.ndarray, n_items: int
) -> tuple:
    """The transactions of ``lengths`` bytes each at ``offset``, as a matrix.

    Returns ``(matrix, next_offset)``.  Whole transactions are decoded a
    block at a time, at most ``_BLOCK_BYTES`` of payload per block, and
    the blocks go in order, so a malformed frame is refused at its first
    offender in the byte-by-byte walk's order, with that walk's message.
    """
    matrix = np.zeros((len(lengths), n_items), dtype=bool)
    # A valid transaction holds at most n_items ids of at most ten bytes
    # each, so one longer than `clip` bytes meets an offender within its
    # first `clip`, and only those are read.  The transactions after it
    # in its block are then read from the wrong bytes, which is harmless:
    # the block refuses that offender, or an earlier one, first.
    clip = (n_items + 1) * _VARINT_MAX_BYTES
    done = 0
    while done < len(lengths):
        room = len(view) - offset
        block = lengths[done : done + _BLOCK_TRANSACTIONS]
        # a length past the body is capped, so the sums cannot overflow;
        # the first transaction that ends past the body is truncated
        stops = np.cumsum(np.minimum(block, room + 1).astype(np.int64))
        take = int(np.searchsorted(stops, room, side="right"))
        if not take:
            raise ValidationError(
                f"truncated basket frame: transaction {done} declares "
                f"{int(block[0])} byte(s) but only {room} remain"
            )
        # whole transactions up to _BLOCK_BYTES, and at least one
        sizes = np.minimum(block[:take], clip).astype(np.intp)
        stop = np.searchsorted(np.cumsum(sizes), _BLOCK_BYTES, side="right")
        take = max(1, int(stop))
        owner, items = _read_block(view, offset, sizes[:take], done, n_items)
        matrix[done : done + take][owner, items] = True
        done += take
        offset += int(stops[take - 1])
    return matrix, offset


def _read_block(view: memoryview, offset, sizes, row: int, n_items: int) -> tuple:
    """The ids of back-to-back transactions of ``sizes`` bytes at ``offset``.

    Returns ``(owner, items)``: each id's transaction, counted from the
    block's first, which is transaction ``row`` of the frame, and the
    id.  Every check runs on whole arrays; the block's first offender is
    refused with the byte-by-byte walk's message.
    """
    data = np.frombuffer(view, _U8, count=int(sizes.sum()), offset=offset)
    stops = np.cumsum(sizes)
    # a varint ends at a terminator or where its transaction does
    ends = data < _VARINT_MORE
    ends[stops[sizes > 0] - 1] = True
    first, last = _varint_spans(ends)
    del ends
    wrong = _malformed_varints(data, first, last)
    items = _varint_values(data, first, last, np.uint32, 3)
    wrong |= items >= n_items
    # each varint belongs to the transaction that holds its last byte
    owner = np.repeat(np.arange(len(sizes), dtype=np.uint16), sizes)[last]
    wrong[1:] |= (owner[1:] == owner[:-1]) & (items[1:] <= items[:-1])
    bad = np.flatnonzero(wrong)
    if bad.size:
        k = int(bad[0])
        i = int(owner[k])
        what = f"transaction {row + i}"
        item, _ = _decode_varint(
            view, offset + int(first[k]), offset + int(stops[i]), what
        )
        if item >= n_items:
            raise ValidationError(
                f"basket frame: {what} holds item {item}, outside the "
                f"declared universe of {n_items}"
            )
        raise ValidationError(
            f"basket frame: {what} item ids must be strictly increasing "
            f"({item} after {int(items[k - 1])})"
        )
    return owner, items


def _decode_basket_frame(view: memoryview, offset: int) -> tuple:
    """Decode one basket frame at ``offset``.

    Returns ``(matrix, shard, next_offset)``.
    """
    end = len(view)
    _, n_items, slot = _read_header(view, offset, CONTENT_TYPE_BASKETS)
    if n_items < 1:
        raise ValidationError("basket frame declares an empty item universe")
    offset += _HEADER.size
    n_transactions, offset = _decode_varint(view, offset, end, "transaction count")
    if n_transactions < 1:
        raise ValidationError("basket frame declares no transactions")
    if n_transactions > end - offset:
        # each transaction needs at least one index byte
        raise ValidationError(
            f"truncated basket frame: {n_transactions} transaction(s) "
            f"declared but only {end - offset} byte(s) remain"
        )
    cells = n_transactions * max(n_items, _MIN_TRANSACTION_CELLS)
    if cells > _MAX_FRAME_CELLS:
        raise WireFormatError(
            f"basket frame of {n_transactions} transaction(s) x {n_items} "
            f"item(s) counts as {cells} cells (at least "
            f"{_MIN_TRANSACTION_CELLS} per transaction); the decoder caps "
            f"frames at {_MAX_FRAME_CELLS}"
        )
    lengths, offset = _read_index(view, offset, n_transactions)
    matrix, offset = _read_transactions(view, offset, lengths, n_items)
    return matrix, _decoded_pin(slot), offset


def iter_basket_frames(payload):
    """Yield ``(matrix, shard)`` for every basket frame in ``payload``.

    The decoder behind ``POST /ingest`` with
    ``Content-Type: application/x-ppdm-baskets``: frames are
    self-delimiting, so one body may concatenate any number of them.
    Every frame must share one item universe with its predecessors —
    mixed widths (or a stray v1-v3 frame) are a malformed body.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service.wire import encode_baskets, iter_basket_frames
    >>> body = encode_baskets(np.eye(2, dtype=bool)) + encode_baskets(
    ...     np.zeros((1, 2), dtype=bool), shard=1
    ... )
    >>> [(int(m.sum()), s) for m, s in iter_basket_frames(body)]
    [(2, None), (0, 1)]
    """
    view = memoryview(payload)
    offset = 0
    n_items = None
    while offset < len(view):
        matrix, shard, offset = _decode_basket_frame(view, offset)
        if n_items is None:
            n_items = matrix.shape[1]
        elif matrix.shape[1] != n_items:
            raise ValidationError(
                f"basket body mixes item universes: frame declares "
                f"{matrix.shape[1]} item(s), previous frames {n_items}"
            )
        yield matrix, shard


def encode_ndjson(frames) -> bytes:
    """Encode ``(batch, shard)`` pairs as newline-delimited JSON.

    The curl-able fallback with the same many-batches-per-body shape as
    the columnar format: each line is exactly a ``POST /ingest`` JSON
    body (``{"batch": {...}, "shard": i}``, the shard key omitted when
    unpinned).

    Examples
    --------
    >>> from repro.service.wire import encode_ndjson
    >>> encode_ndjson([({"x": [0.5]}, None), ({"x": [0.9]}, 1)])
    b'{"batch": {"x": [0.5]}}\\n{"batch": {"x": [0.9]}, "shard": 1}\\n'
    """
    lines = []
    for batch, shard in frames:
        if not isinstance(batch, dict):
            raise ValidationError("batch must map attribute -> values")
        payload = {
            "batch": {
                name: np.asarray(values, dtype=float).tolist()
                for name, values in batch.items()
            }
        }
        if shard is not None:
            payload["shard"] = _shard_pin(shard)
        lines.append(json.dumps(payload).encode())
    return b"\n".join(lines) + (b"\n" if lines else b"")


def _read_record(record, where: str) -> tuple:
    """Check one JSON ingest record; return ``(batch, classes, shard)``.

    The shape of a JSON ``POST /ingest`` body and of every NDJSON line:
    a ``"batch"`` object, an optional integer (not boolean) ``"shard"``,
    and an optional ``"classes"`` list.  ``where`` names the record in
    error messages.
    """
    if not isinstance(record, dict) or "batch" not in record:
        raise ValidationError(f'{where} must be {{"batch": {{name: [values]}}}}')
    batch = record["batch"]
    if not isinstance(batch, dict):
        raise ValidationError(f"{where}: 'batch' must map attribute -> values")
    shard = record.get("shard")
    if shard is not None and (isinstance(shard, bool) or not isinstance(shard, int)):
        raise ValidationError(
            f"{where}: 'shard' must be an integer, got {type(shard).__name__}"
        )
    classes = record.get("classes")
    if classes is not None and not isinstance(classes, list):
        raise ValidationError(
            f"{where}: 'classes' must be a list of integer labels, got "
            f"{type(classes).__name__}"
        )
    return batch, classes, shard


def iter_labeled_ndjson(payload):
    """Yield ``(batch, classes, shard)`` for every line of an NDJSON body.

    Blank lines are skipped, so trailing newlines and curl-assembled
    bodies are fine.  Each line must carry a ``"batch"`` object; an
    optional integer ``"shard"`` pins the batch, and an optional
    ``"classes"`` key is a JSON list with one integer class label per
    record (``None`` when absent — unlabeled records).

    Examples
    --------
    >>> from repro.service.wire import iter_labeled_ndjson
    >>> body = b'{"batch": {"x": [0.5]}, "classes": [1], "shard": 0}\\n'
    >>> list(iter_labeled_ndjson(body))
    [({'x': [0.5]}, [1], 0)]
    """
    for lineno, line in enumerate(bytes(payload).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"NDJSON line {lineno} is not valid JSON: {exc}"
            ) from exc
        yield _read_record(record, f"NDJSON line {lineno}")


def supported_codecs() -> tuple:
    """Return the codec tokens this process can decode, identity first.

    zstd appears only when the optional ``zstandard`` package imports —
    the tuple is what a 415 response advertises, so clients learn
    exactly which ``Content-Encoding`` values this server accepts.

    Examples
    --------
    >>> from repro.service.wire import supported_codecs
    >>> supported_codecs()[:2]
    ('identity', 'zlib')
    """
    if _zstandard is None:
        return (WIRE_CODEC_IDENTITY, WIRE_CODEC_ZLIB)
    return (WIRE_CODEC_IDENTITY, WIRE_CODEC_ZLIB, WIRE_CODEC_ZSTD)


def resolve_codec(token) -> str | None:
    """Normalize a ``Content-Encoding`` token to a supported codec name.

    Returns one of :func:`supported_codecs` — ``None``/empty/
    ``identity`` map to :data:`WIRE_CODEC_IDENTITY`, ``deflate`` is an
    alias for zlib — or ``None`` when the token names a codec this
    process cannot decode (unknown encodings, or zstd without the
    ``zstandard`` package).  Matching is case-insensitive and ignores
    surrounding whitespace, per RFC 9110.

    Examples
    --------
    >>> from repro.service.wire import resolve_codec
    >>> resolve_codec(None), resolve_codec(" ZLIB "), resolve_codec("deflate")
    ('identity', 'zlib', 'zlib')
    >>> resolve_codec("br") is None
    True
    """
    if token is None:
        return WIRE_CODEC_IDENTITY
    name = str(token).strip().lower()
    if name in ("", WIRE_CODEC_IDENTITY):
        return WIRE_CODEC_IDENTITY
    if name in (WIRE_CODEC_ZLIB, "deflate"):
        return WIRE_CODEC_ZLIB
    if name == WIRE_CODEC_ZSTD and _zstandard is not None:
        return WIRE_CODEC_ZSTD
    return None


def compress_payload(payload, codec: str) -> bytes:
    """Compress an encoded wire body with ``codec``.

    The single compression implementation behind ``ppdm ingest --codec``:
    ``identity`` returns the bytes unchanged, ``zlib`` uses the stdlib
    at its default level, ``zstd`` needs the optional ``zstandard``
    package.  The codec applies to the *whole* request body — any
    number of concatenated frames, any mix of versions — and rides the
    ``Content-Encoding`` header, never the frame bytes themselves.

    Examples
    --------
    >>> from repro.service.wire import compress_payload, decompress_payload
    >>> body = b"PPDM" + bytes(1000)
    >>> wire = compress_payload(body, "zlib")
    >>> len(wire) < len(body)
    True
    >>> decompress_payload(wire, "zlib", max_decoded=2000) == body
    True
    """
    data = bytes(payload)
    if codec == WIRE_CODEC_IDENTITY:
        return data
    if codec == WIRE_CODEC_ZLIB:
        return zlib.compress(data)
    if codec == WIRE_CODEC_ZSTD:
        if _zstandard is None:
            raise ValidationError(
                "the zstd codec needs the optional zstandard package"
            )
        return _zstandard.ZstdCompressor().compress(data)
    raise ValidationError(
        f"unknown codec {codec!r}; this process supports "
        f"{', '.join(supported_codecs())}"
    )


def decompress_payload(payload, codec: str, *, max_decoded: int) -> bytes:
    """Decompress a request body, bounded by an explicit decoded-size cap.

    The inverse of :func:`compress_payload`, and the only decode path
    the HTTP front end uses: a compressed body breaks the
    ``Content-Length ≈ decoded size`` assumption, so the decoder never
    trusts the stream — zlib decodes through a streamed
    ``decompressobj`` with ``max_length`` and zstd through its own
    output-size bound.  A stream that would expand past ``max_decoded``
    raises :class:`~repro.exceptions.DecodedSizeError` (mapped to 413);
    truncated or corrupt streams raise
    :class:`~repro.exceptions.WireFormatError` (mapped to 400).  Either
    way the caller has already read the full wire body, so a keep-alive
    connection stays usable.

    Examples
    --------
    >>> import zlib
    >>> from repro.service.wire import decompress_payload
    >>> decompress_payload(zlib.compress(b"frame"), "zlib", max_decoded=64)
    b'frame'
    >>> decompress_payload(zlib.compress(bytes(10_000)), "zlib", max_decoded=64)
    Traceback (most recent call last):
        ...
    repro.exceptions.DecodedSizeError: zlib body expands past the 64-byte decoded-size cap
    """
    data = bytes(payload)
    cap = int(max_decoded)
    if cap < 1:
        raise ValidationError(f"max_decoded must be positive, got {max_decoded}")
    if codec == WIRE_CODEC_IDENTITY:
        if len(data) > cap:
            raise DecodedSizeError(
                f"body is {len(data)} byte(s); the decoder caps bodies "
                f"at {cap}"
            )
        return data
    if codec == WIRE_CODEC_ZLIB:
        engine = zlib.decompressobj()
        try:
            decoded = engine.decompress(data, cap + 1)
        except zlib.error as exc:
            raise WireFormatError(f"corrupt zlib body: {exc}") from exc
        if len(decoded) > cap:
            raise DecodedSizeError(
                f"zlib body expands past the {cap}-byte decoded-size cap"
            )
        if not engine.eof:
            raise WireFormatError(
                "truncated zlib body: the stream ends mid-block"
            )
        if engine.unused_data:
            raise WireFormatError(
                f"{len(engine.unused_data)} trailing byte(s) after the "
                "zlib stream"
            )
        return decoded
    if codec == WIRE_CODEC_ZSTD:
        if _zstandard is None:
            raise ValidationError(
                "the zstd codec needs the optional zstandard package"
            )
        try:
            declared = _zstandard.frame_content_size(data)
        except _zstandard.ZstdError as exc:
            raise WireFormatError(f"corrupt zstd body: {exc}") from exc
        if declared not in (-1,) and declared > cap:
            raise DecodedSizeError(
                f"zstd body declares {declared} decoded byte(s); the "
                f"decoder caps bodies at {cap}"
            )
        try:
            return _zstandard.ZstdDecompressor().decompress(
                data, max_output_size=cap
            )
        except _zstandard.ZstdError as exc:
            text = str(exc).lower()
            if "output size" in text or "too small" in text:
                raise DecodedSizeError(
                    f"zstd body expands past the {cap}-byte decoded-size cap"
                ) from exc
            raise WireFormatError(
                f"corrupt or truncated zstd body: {exc}"
            ) from exc
    raise ValidationError(
        f"unknown codec {codec!r}; this process supports "
        f"{', '.join(supported_codecs())}"
    )

