"""Labels, routing tables and route traces — the objects Section 2.3 defines.

The routing-table-construction (RTC) problem asks every node to output a
label ``lambda(v)`` and a ``next_v`` function; the distance-approximation
problem asks for a label and a ``dist_v`` function.  This module provides
the concrete data structures the schemes of Section 4 produce, together with
size accounting in ``O(log n)``-bit words (one word = an identifier, a
distance, a level index or a flag), which is how the paper states label and
table sizes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Label",
    "RoutingTable",
    "RouteTrace",
    "words_to_bits",
    "payload_words",
    # fixed-width record tables (artifact format v2)
    "RecordTableError",
    "NodeInternTable",
    "PivotRowTable",
    "OffsetRecordTable",
]

def payload_words(value: Any) -> int:
    """Number of ``O(log n)``-bit words needed to encode ``value``."""
    if value is None or isinstance(value, (int, float, bool, str)):
        return 1
    if isinstance(value, (tuple, list)):
        return sum(payload_words(item) for item in value)
    if isinstance(value, dict):
        return sum(payload_words(k) + payload_words(v) for k, v in value.items())
    return 1


def words_to_bits(words: int, n: int) -> int:
    """Convert a word count into bits assuming ``ceil(log2 n)``-bit words."""
    return words * max(1, math.ceil(math.log2(max(2, n))))


@dataclass
class Label:
    """A node label: named fields plus size accounting.

    The paper measures label size in bits; we count the number of words the
    fields occupy and convert with :func:`words_to_bits`.
    """

    owner: Hashable
    fields: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def words(self) -> int:
        return 1 + payload_words(self.fields)  # +1 for the owner identifier

    def bits(self, n: int) -> int:
        return words_to_bits(self.words(), n)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-builtin view (serving responses and artifact metadata)."""
        return {"owner": self.owner, "fields": dict(self.fields)}


@dataclass
class RoutingTable:
    """A node's local routing state.

    ``next_hops`` maps destination identifiers to neighbours; ``extra``
    holds auxiliary per-node structures (tree-routing intervals, bunch
    distance estimates, spanner copies, ...), each accounted by
    :func:`payload_words`.
    """

    owner: Hashable
    next_hops: Dict[Hashable, Hashable] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    def words(self) -> int:
        words = 0
        for dest, nxt in self.next_hops.items():
            words += payload_words(dest) + payload_words(nxt)
        for key, value in self.extra.items():
            words += payload_words(value)
        return words

    def bits(self, n: int) -> int:
        return words_to_bits(self.words(), n)


@dataclass
class RouteTrace:
    """The outcome of routing one packet: path taken, success flag, cost.

    ``estimate`` is the table estimate the route was selected on; a
    delivered route weighs at most that much.  Both routing schemes build a
    route from tree paths joined without repeating the shared node, and sum
    its (integer) ``weight`` from the trees' ``dist`` tables.  Nothing is
    repaired: a pair the trees cannot connect is an undelivered trace with
    estimate ``inf``.
    """

    source: Hashable
    target: Hashable
    path: List[Hashable] = field(default_factory=list)
    delivered: bool = False
    weight: float = float("inf")
    estimate: Optional[float] = None

    #: Memo of this trace's canonical wire text, filled on first use by
    #: :func:`repro.serving.wire.encode_answer_texts`: it lives and dies
    #: with whatever cache holds the trace (served traces are never
    #: mutated).  Not a field: ``==``, ``repr`` and pickles never see it.
    wire_text: ClassVar[Optional[str]] = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__
        if "wire_text" in state:
            state = dict(state)
            del state["wire_text"]
        return state

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)

    def stretch(self, exact_distance: float) -> float:
        """Multiplicative stretch of the traced route against the true distance."""
        if not self.delivered:
            return float("inf")
        if exact_distance <= 0:
            return 1.0
        return self.weight / exact_distance

    def as_dict(self) -> Dict[str, Any]:
        """Plain-builtin view (serving responses, workload traces, JSON output)."""
        return {
            "source": self.source,
            "target": self.target,
            "path": list(self.path),
            "delivered": self.delivered,
            "weight": self.weight,
            "hops": self.hops,
            "estimate": self.estimate,
        }


# ======================================================================
# Fixed-width record tables (artifact format v2)
# ======================================================================
# The serving layer's artifact format v2 stores the query-hot tables —
# per-node pivot rows and per-(level, node) bunch rows — as fixed-width
# binary records over *interned* node indices, so a reader can locate any
# record by pure offset arithmetic.  Everything below is stdlib ``struct``
# encoding; no third-party dependencies.  The classes come in pairs:
#
# * ``encode`` classmethods produce the section bytes at save time;
# * the constructors wrap a section's bytes and read them back row by
#   row, every row bounds-checked.
#
# The loader decodes both tables into the build's plain dicts once, at
# load, so a loaded hierarchy selects levels exactly as the in-memory
# build does (``CompactRoutingHierarchy._select_levels``).


class RecordTableError(ValueError):
    """Raised for malformed or out-of-bounds record-table bytes."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"f"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_TUPLE = b"U"

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

def _encode_value(value: Any, out: bytearray) -> None:
    """Tagged binary encoding of one node label: ``None``, a ``bool``, a
    64-bit ``int``, a ``float``, a ``str`` or a tuple of these; any other
    label is a :class:`RecordTableError`."""
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int) and -(2 ** 63) <= value < 2 ** 63:
        out += _TAG_INT
        out += _I64.pack(value)
    elif isinstance(value, float):
        out += _TAG_FLOAT
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _TAG_STR
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, tuple):
        out += _TAG_TUPLE
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    else:
        raise RecordTableError(
            f"node label {value!r} has no intern-table encoding (None, "
            f"bool, 64-bit int, float, str or a tuple of these)")


def _decode_value(buf: memoryview, pos: int) -> Tuple[Any, int]:
    tag = bytes(buf[pos:pos + 1])
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag == _TAG_STR:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return bytes(buf[pos:pos + length]).decode("utf-8"), pos + length
    if tag == _TAG_TUPLE:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(buf, pos)
            items.append(item)
        return tuple(items), pos
    raise RecordTableError(f"unknown intern-table value tag {tag!r}")


class NodeInternTable:
    """Bidirectional node-label <-> dense-index intern table.

    Every binary table in a v2 artifact refers to nodes by their index in
    this table (the graph's node insertion order), so node labels are
    stored exactly once no matter how many records mention them.
    """

    def __init__(self, nodes: Iterable[Hashable]) -> None:
        self._nodes: List[Hashable] = list(nodes)
        self._index: Dict[Hashable, int] = {
            node: i for i, node in enumerate(self._nodes)}
        if len(self._index) != len(self._nodes):
            raise RecordTableError("duplicate node labels in intern table")

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._index

    def index_of(self, node: Hashable) -> int:
        """The dense index of ``node`` (raises ``KeyError`` if unknown)."""
        return self._index[node]

    def indices_of(self, nodes: Iterable[Hashable]) -> List[int]:
        """Dense indices for a whole batch of labels in one pass (unknown
        labels raise ``KeyError``, as :meth:`index_of` does).

        No query path calls this: it is kept only for the ledger's intern
        timing in ``benchmarks/e2e/peel.py``, and leaves with it in the
        follow-up benchmark change that drops ``kernel=``.
        """
        index = self._index
        return [index[node] for node in nodes]

    def nodes(self) -> List[Hashable]:
        """The node labels in index order (a copy)."""
        return list(self._nodes)

    def encode(self) -> bytes:
        """Serialise the table: a ``uint32`` count, then each label in the
        tagged value encoding."""
        out = bytearray(_U32.pack(len(self._nodes)))
        for node in self._nodes:
            _encode_value(node, out)
        return bytes(out)

    @classmethod
    def decode(cls, buf) -> "NodeInternTable":
        view = memoryview(buf)
        try:
            (count,) = _U32.unpack_from(view, 0)
            if count > len(view) - 4:
                # Every label takes at least its one tag byte.
                raise RecordTableError(
                    f"intern table claims {count} labels in "
                    f"{len(view) - 4} bytes")
            pos = 4
            nodes = []
            for _ in range(count):
                node, pos = _decode_value(view, pos)
                nodes.append(node)
        except (struct.error, IndexError) as exc:
            raise RecordTableError(f"corrupt intern table: {exc}") from exc
        if pos != len(view):
            raise RecordTableError(
                f"intern table has {len(view) - pos} trailing bytes")
        return cls(nodes)


class PivotRowTable:
    """Node-major fixed-width pivot records.

    One record per (node, level) holding ``(pivot_index, distance)`` as
    ``<int32, float64>``; ``pivot_index == -1`` encodes "no pivot".  The
    records for one node are contiguous, so a full per-node pivot row —
    the label-derived half of every query — is one bounded slice read.
    """

    _HEADER = struct.Struct("<II")   # num_nodes, num_levels
    _RECORD = struct.Struct("<id")
    NO_PIVOT = -1

    @classmethod
    def encode(cls, num_nodes: int, num_levels: int,
               rows: Iterable[Sequence[Tuple[int, float]]]) -> bytes:
        out = bytearray(cls._HEADER.pack(num_nodes, num_levels))
        written = 0
        for row in rows:
            if len(row) != num_levels:
                raise RecordTableError(
                    f"pivot row has {len(row)} levels, expected {num_levels}")
            for pivot_index, dist in row:
                out += cls._RECORD.pack(pivot_index, dist)
            written += 1
        if written != num_nodes:
            raise RecordTableError(
                f"encoded {written} pivot rows, expected {num_nodes}")
        return bytes(out)

    def __init__(self, buf) -> None:
        self._buf = memoryview(buf)
        try:
            self.num_nodes, self.num_levels = self._HEADER.unpack_from(
                self._buf, 0)
        except struct.error as exc:
            raise RecordTableError(f"corrupt pivot table header: {exc}") from exc
        expected = (self._HEADER.size
                    + self.num_nodes * self.num_levels * self._RECORD.size)
        if len(self._buf) != expected:
            raise RecordTableError(
                f"pivot table is {len(self._buf)} bytes, header implies "
                f"{expected}")

    def row(self, node_index: int) -> List[Tuple[int, float]]:
        """All ``(pivot_index, distance)`` records of one node (contiguous)."""
        if not 0 <= node_index < self.num_nodes:
            raise RecordTableError(f"node index {node_index} out of range")
        start = self._HEADER.size + node_index * self.num_levels * self._RECORD.size
        stop = start + self.num_levels * self._RECORD.size
        return list(self._RECORD.iter_unpack(self._buf[start:stop]))


class OffsetRecordTable:
    """Variable-length rows of fixed-width records behind an offset index.

    Layout: a ``<num_rows, num_records>`` header, then ``num_rows`` index
    entries of ``<record_offset uint64, count uint32>``, then the records
    (``<int32 key, float64 value>``).  A row is found by one index read
    plus one bounded slice read — no scanning, no deserialisation.  The
    count sentinel ``ABSENT`` marks a row that is *not present* (a node
    with no bunch at a level), which is distinct from an empty row.
    """

    _HEADER = struct.Struct("<QQ")   # num_rows, num_records
    _INDEX = struct.Struct("<QI")    # record offset, count
    _RECORD = struct.Struct("<id")
    ABSENT = 0xFFFFFFFF

    @classmethod
    def encode(cls, rows: Iterable[Optional[Sequence[Tuple[int, float]]]]
               ) -> bytes:
        index = bytearray()
        data = bytearray()
        num_rows = 0
        num_records = 0
        for row in rows:
            num_rows += 1
            if row is None:
                index += cls._INDEX.pack(0, cls.ABSENT)
                continue
            index += cls._INDEX.pack(num_records, len(row))
            for key, value in row:
                data += cls._RECORD.pack(key, value)
            num_records += len(row)
        return cls._HEADER.pack(num_rows, num_records) + bytes(index) + bytes(data)

    def __init__(self, buf) -> None:
        self._buf = memoryview(buf)
        try:
            self.num_rows, self.num_records = self._HEADER.unpack_from(
                self._buf, 0)
        except struct.error as exc:
            raise RecordTableError(f"corrupt offset table header: {exc}") from exc
        self._index_base = self._HEADER.size
        self._data_base = self._index_base + self.num_rows * self._INDEX.size
        expected = self._data_base + self.num_records * self._RECORD.size
        if len(self._buf) != expected:
            raise RecordTableError(
                f"offset table is {len(self._buf)} bytes, header implies "
                f"{expected}")

    def _entry(self, row_index: int) -> Tuple[int, int]:
        if not 0 <= row_index < self.num_rows:
            raise RecordTableError(f"row index {row_index} out of range")
        return self._INDEX.unpack_from(
            self._buf, self._index_base + row_index * self._INDEX.size)

    def has_row(self, row_index: int) -> bool:
        _, count = self._entry(row_index)
        return count != self.ABSENT

    def row_items(self, row_index: int) -> List[Tuple[int, float]]:
        offset, count = self._extent(row_index)
        start = self._data_base + offset * self._RECORD.size
        return list(self._RECORD.iter_unpack(
            self._buf[start:start + count * self._RECORD.size]))

    def _extent(self, row_index: int) -> Tuple[int, int]:
        """``(record offset, count)`` of a present row: one index read,
        checked against the record area."""
        offset, count = self._entry(row_index)
        if count == self.ABSENT:
            raise RecordTableError(f"row {row_index} is absent from this table")
        if offset + count > self.num_records:
            raise RecordTableError(
                f"row {row_index} points past the record area "
                f"(offset {offset}, count {count}, {self.num_records} records)")
        return offset, count
