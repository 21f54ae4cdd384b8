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
import os
import pickle
import struct
import sys
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.metrics import NULL_REGISTRY

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
    "InternedPivotView",
    "InternedBunchRow",
    "InternedBunchLevel",
    "PivotRowBackend",
    "ColumnarQueryKernel",
    "HAVE_NUMPY",
]

# Optional accelerator for the pivot-row gather only (bunch rows are a few
# records each, where array set-up costs more than it saves): the gather has
# a stdlib struct/array twin producing bit-identical answers, so numpy's
# absence (or REPRO_NO_NUMPY=1, which the CI matrix uses to pin the stdlib
# path) changes speed, never results.
try:
    import numpy as _np
except ImportError:          # pragma: no cover - depends on environment
    _np = None
if _np is not None and os.environ.get("REPRO_NO_NUMPY"):
    _np = None

HAVE_NUMPY = _np is not None

#: The ``<int32, float64>`` record layout shared by the pivot and bunch
#: tables, as a packed numpy structured dtype (itemsize 12, no padding).
_RECORD_DTYPE = (None if _np is None
                 else _np.dtype([("key", "<i4"), ("value", "<f8")]))

#: Whether a native int32 view of the little-endian records reads them right.
_LITTLE_ENDIAN = sys.byteorder == "little"


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
# record by pure offset arithmetic and ``mmap`` the table instead of
# deserialising it.  Everything below is stdlib ``struct``/``array``-style
# encoding; no third-party dependencies.  The classes come in pairs:
#
# * ``encode`` classmethods produce the section bytes at save time;
# * the constructors wrap a ``memoryview`` (typically over an ``mmap``)
#   and answer point lookups without copying or materialising the table.
#
# ``Interned*View`` adapters then present those tables through the exact
# mapping interface the in-memory :class:`~repro.routing.tz_hierarchy.
# CompactRoutingHierarchy` uses (``pivots[l][v]``, ``bunches[v][s]``), so a
# lazily-loaded hierarchy answers queries through the same code path as an
# eager one.


class RecordTableError(ValueError):
    """Raised for malformed or out-of-bounds record-table bytes."""


_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"f"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_TUPLE = b"U"
_TAG_PICKLE = b"P"

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

def _encode_value(value: Any, out: bytearray) -> None:
    """Tagged binary encoding of one node label (int/str/float/bool/None/
    tuple natively; anything else falls back to an embedded pickle)."""
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
        raw = pickle.dumps(value, protocol=4)
        out += _TAG_PICKLE
        out += _U32.pack(len(raw))
        out += raw


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
    if tag == _TAG_PICKLE:
        (length,) = _U32.unpack_from(buf, pos)
        pos += 4
        return pickle.loads(bytes(buf[pos:pos + length])), pos + length
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
        """Dense indices for a whole batch of labels in one pass.

        The batch-query kernel resolves every label exactly once through
        this instead of one dict probe per (pair, level) touch.  Unknown
        labels raise ``KeyError`` naming the offending label, matching
        :meth:`index_of`.
        """
        index = self._index
        return [index[node] for node in nodes]

    def get_index(self, node: Hashable) -> Optional[int]:
        return self._index.get(node)

    def node_at(self, index: int) -> Hashable:
        return self._nodes[index]

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

    def record(self, node_index: int, level_offset: int) -> Tuple[int, float]:
        if not 0 <= node_index < self.num_nodes:
            raise RecordTableError(f"node index {node_index} out of range")
        if not 0 <= level_offset < self.num_levels:
            raise RecordTableError(f"level offset {level_offset} out of range")
        pos = self._HEADER.size + (node_index * self.num_levels
                                   + level_offset) * self._RECORD.size
        return self._RECORD.unpack_from(self._buf, pos)

    def row(self, node_index: int) -> List[Tuple[int, float]]:
        """All ``(pivot_index, distance)`` records of one node (contiguous)."""
        if not 0 <= node_index < self.num_nodes:
            raise RecordTableError(f"node index {node_index} out of range")
        start = self._HEADER.size + node_index * self.num_levels * self._RECORD.size
        stop = start + self.num_levels * self._RECORD.size
        return list(self._RECORD.iter_unpack(self._buf[start:stop]))

    def _np_records(self):
        """The whole record area as a ``(num_nodes, num_levels)`` structured
        numpy view over the mapped bytes (built once, zero-copy)."""
        table = getattr(self, "_np_table", None)
        if table is None:
            flat = _np.frombuffer(self._buf, dtype=_RECORD_DTYPE,
                                  offset=self._HEADER.size)
            table = flat.reshape(self.num_nodes, self.num_levels)
            self._np_table = table
        return table

    def rows_batch(self, node_indices: Sequence[int]
                   ) -> Tuple[Sequence[int], Sequence[float]]:
        """Packed pivot records for a batch of nodes.

        Returns ``(pivots, dists)`` as two flat parallel sequences, row
        major with ``num_levels`` entries per node in ``node_indices``
        order — the columnar twin of calling :meth:`row` per node.  The
        stdlib path fills ``array('i')`` / ``array('d')`` blocks from the
        contiguous record slices; with numpy the whole gather is one fancy
        index over a zero-copy structured view.
        """
        if _np is not None:
            rows = self._np_records()[node_indices]
            # .tolist() converts to plain int/float once; the kernel's
            # per-pair loop then avoids numpy-scalar boxing on every access.
            return rows["key"].ravel().tolist(), rows["value"].ravel().tolist()
        pivots = array("i")
        dists = array("d")
        base = self._HEADER.size
        stride = self.num_levels * self._RECORD.size
        for node_index in node_indices:
            if not 0 <= node_index < self.num_nodes:
                raise RecordTableError(f"node index {node_index} out of range")
            start = base + node_index * stride
            for pivot_index, dist in self._RECORD.iter_unpack(
                    self._buf[start:start + stride]):
                pivots.append(pivot_index)
                dists.append(dist)
        return pivots, dists


class OffsetRecordTable:
    """Variable-length rows of fixed-width records behind an offset index.

    Layout: a ``<num_rows, num_records>`` header, then ``num_rows`` index
    entries of ``<record_offset uint64, count uint32>``, then the records
    (``<int32 key, float64 value>``).  A row is found by one index read
    plus one bounded slice read — no scanning, no deserialisation.  The
    count sentinel ``ABSENT`` marks a row that is *not present* (used by
    per-shard sub-artifacts for bunch rows owned by other shards), which
    is distinct from an empty row.
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
        # The record area as int32 words: record j's key is word 3j.  A
        # memoryview cast is native-endian and the records are ``<i``, so a
        # big-endian host decodes key columns record by record instead.
        self._words = (self._buf[self._data_base:].cast("i")
                       if _LITTLE_ENDIAN else None)

    def _entry(self, row_index: int) -> Tuple[int, int]:
        if not 0 <= row_index < self.num_rows:
            raise RecordTableError(f"row index {row_index} out of range")
        return self._INDEX.unpack_from(
            self._buf, self._index_base + row_index * self._INDEX.size)

    def has_row(self, row_index: int) -> bool:
        _, count = self._entry(row_index)
        return count != self.ABSENT

    def row_count(self, row_index: int) -> int:
        offset, count = self._entry(row_index)
        if count == self.ABSENT:
            raise RecordTableError(f"row {row_index} is absent from this table")
        return count

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

    def row_keys(self, row_index: int) -> Tuple[int, List[int]]:
        """``(record offset, keys)`` of a row — the keys only, as a list.

        A packed ``<id`` record is three int32 words with the key first, so
        the key column is one strided slice of the word view; a value is
        read on its own, by record number, through :meth:`value_at`.
        """
        offset, count = self._extent(row_index)
        if self._words is None:
            return offset, [key for key, _ in self.row_items(row_index)]
        return offset, self._words[3 * offset:3 * (offset + count):3].tolist()

    def value_at(self, record: int) -> float:
        """The float64 value of record number ``record`` (as numbered by
        :meth:`row_keys`: its row's offset plus its position in the row),
        read from behind the record's 4-byte key."""
        return _F64.unpack_from(
            self._buf, self._data_base + record * self._RECORD.size + 4)[0]

    def probe(self, row_index: int, key: int) -> Optional[float]:
        """The value stored for ``key`` in the row, or ``None``.

        One index read, one membership test over the row's key column
        (rows are ``O~(n^{1/k})`` entries), and one float64 unpacked for
        the record that matched — no other record is decoded.
        """
        offset, keys = self.row_keys(row_index)
        if key in keys:
            return self.value_at(offset + keys.index(key))
        return None


# ----------------------------------------------------------------------
# mapping adapters: record tables presented as the hierarchy's dicts
# ----------------------------------------------------------------------
class InternedPivotView:
    """One pivot level as a read-only mapping ``{node: pivot}`` (or
    ``{node: distance}``), decoding records straight from the table."""

    _PIVOT = 0
    _DIST = 1

    __slots__ = ("_table", "_intern", "_level", "_field")

    def __init__(self, table: PivotRowTable, intern: NodeInternTable,
                 level_offset: int, field: int) -> None:
        self._table = table
        self._intern = intern
        self._level = level_offset
        self._field = field

    @classmethod
    def pivots(cls, table, intern, level_offset) -> "InternedPivotView":
        return cls(table, intern, level_offset, cls._PIVOT)

    @classmethod
    def distances(cls, table, intern, level_offset) -> "InternedPivotView":
        return cls(table, intern, level_offset, cls._DIST)

    def __getitem__(self, node: Hashable):
        index = self._intern.index_of(node)   # KeyError for unknown nodes
        pivot_index, dist = self._table.record(index, self._level)
        if self._field == self._DIST:
            return dist
        return None if pivot_index < 0 else self._intern.node_at(pivot_index)

    def get(self, node: Hashable, default=None):
        try:
            return self[node]
        except KeyError:
            return default

    def __contains__(self, node: Hashable) -> bool:
        return node in self._intern

    def __len__(self) -> int:
        return len(self._intern)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._intern.nodes())

    def keys(self) -> Iterator[Hashable]:
        return iter(self._intern.nodes())

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        for node in self._intern.nodes():
            yield node, self[node]

    def values(self) -> Iterator[Any]:
        for node in self._intern.nodes():
            yield self[node]


class InternedBunchRow:
    """One bunch row as a read-only mapping ``{source: estimate}``.

    Membership tests and lookups scan the row's records (bunch rows are
    ``O~(n^{1/k})`` entries by construction), decoding nothing but the
    records touched.
    """

    __slots__ = ("_table", "_intern", "_row")

    def __init__(self, table: OffsetRecordTable, intern: NodeInternTable,
                 row_index: int) -> None:
        self._table = table
        self._intern = intern
        self._row = row_index

    def __contains__(self, node: Hashable) -> bool:
        index = self._intern.get_index(node)
        if index is None:
            return False
        return self._table.probe(self._row, index) is not None

    def __getitem__(self, node: Hashable) -> float:
        index = self._intern.get_index(node)
        value = None if index is None else self._table.probe(self._row, index)
        if value is None:
            raise KeyError(node)
        return value

    def get(self, node: Hashable, default=None):
        index = self._intern.get_index(node)
        if index is None:
            return default
        value = self._table.probe(self._row, index)
        return default if value is None else value

    def __len__(self) -> int:
        return self._table.row_count(self._row)

    def __iter__(self) -> Iterator[Hashable]:
        for index, _ in self._table.row_items(self._row):
            yield self._intern.node_at(index)

    def keys(self) -> Iterator[Hashable]:
        return iter(self)

    def items(self) -> Iterator[Tuple[Hashable, float]]:
        for index, value in self._table.row_items(self._row):
            yield self._intern.node_at(index), value

    def values(self) -> Iterator[float]:
        for _, value in self._table.row_items(self._row):
            yield value


class InternedBunchLevel:
    """One level's bunches as a read-only mapping ``{node: bunch_row}``.

    Row indices are ``level * num_nodes + node_index`` into one shared
    :class:`OffsetRecordTable` holding every level's rows.  Accessing a
    row a sub-artifact sliced away raises ``KeyError`` with an
    explanatory message — by construction the sharded front-end never
    routes such a query to this slice.
    """

    __slots__ = ("_table", "_intern", "_level", "_num_nodes")

    def __init__(self, table: OffsetRecordTable, intern: NodeInternTable,
                 level: int, num_nodes: int) -> None:
        self._table = table
        self._intern = intern
        self._level = level
        self._num_nodes = num_nodes

    def _row_index(self, node: Hashable) -> int:
        return self._level * self._num_nodes + self._intern.index_of(node)

    def __getitem__(self, node: Hashable) -> InternedBunchRow:
        row = self._row_index(node)    # KeyError for unknown nodes
        if not self._table.has_row(row):
            raise KeyError(
                f"bunch row for node {node!r} (level {self._level}) is not "
                f"present in this artifact slice; sub-artifacts only hold "
                f"rows for their own shard's sources")
        return InternedBunchRow(self._table, self._intern, row)

    def get(self, node: Hashable, default=None):
        try:
            return self[node]
        except KeyError:
            return default

    def __contains__(self, node: Hashable) -> bool:
        index = self._intern.get_index(node)
        if index is None:
            return False
        return self._table.has_row(self._level * self._num_nodes + index)

    def __len__(self) -> int:
        return sum(1 for node in self._intern.nodes() if node in self)

    def __iter__(self) -> Iterator[Hashable]:
        for node in self._intern.nodes():
            if node in self:
                yield node

    def keys(self) -> Iterator[Hashable]:
        return iter(self)

    def items(self) -> Iterator[Tuple[Hashable, InternedBunchRow]]:
        for node in self:
            yield node, self[node]


class PivotRowBackend:
    """Zero-copy ``pivot_row`` provider for an mmap-loaded hierarchy.

    ``CompactRoutingHierarchy.pivot_row`` delegates here when present: the
    full per-level pivot row of a target is one contiguous record-slice
    read straight from the page cache, instead of ``k`` dict lookups over
    eagerly materialised pivot maps.
    """

    __slots__ = ("_table", "_intern")

    def __init__(self, table: PivotRowTable, intern: NodeInternTable) -> None:
        self._table = table
        self._intern = intern

    def pivot_row(self, target: Hashable) -> Tuple[Optional[Hashable], ...]:
        index = self._intern.index_of(target)
        row: List[Optional[Hashable]] = [target]   # level 0 pivot is the target
        node_at = self._intern.node_at
        for pivot_index, _dist in self._table.row(index):
            row.append(None if pivot_index < 0 else node_at(pivot_index))
        return tuple(row)


class ColumnarQueryKernel:
    """Array-native batch query kernel over the v2 record tables.

    The per-pair query path answers ``distance(s, t)`` through the mapping
    adapters above: one ``InternedBunchRow`` object per probe, one label
    dict lookup per touch, one full-row scan per level.  This kernel
    answers a whole batch straight from the record slices instead:

    * every label is resolved to its interned id exactly once
      (:meth:`NodeInternTable.indices_of`);
    * pairs are grouped by source and the groups visited in index order,
      so bunch-row reads walk the mapped section monotonically;
    * each distinct target's pivot row is gathered once into one packed
      block (:meth:`PivotRowTable.rows_batch`);
    * each ``(level, source)`` bunch row has its index entry read and its
      key column listed at most once per batch
      (:meth:`OffsetRecordTable.row_keys`); every pair in the group is a
      membership test on that list, and only a hit unpacks a value.

    Answers are bit-identical to the per-pair path — same float records,
    same ``estimate + tail`` arithmetic, same ``KeyError`` for unknown
    labels or bunch rows a sub-artifact sliced away — only the access
    pattern changes.  ``stats`` counts batches / pairs / source groups /
    distinct ``(level, source)`` bunch rows touched (``bunch_rows_decoded``)
    for the serving layer's ``--json`` report.
    """

    __slots__ = ("_intern", "_pivot_table", "_bunch_table", "_k",
                 "_num_nodes", "stats", "metrics")

    def __init__(self, intern: NodeInternTable, pivot_table: PivotRowTable,
                 bunch_table: OffsetRecordTable, k: int) -> None:
        if pivot_table.num_levels != k - 1:
            raise RecordTableError(
                f"pivot table has {pivot_table.num_levels} levels, "
                f"expected k-1 = {k - 1}")
        if bunch_table.num_rows != k * len(intern):
            raise RecordTableError(
                f"bunch table has {bunch_table.num_rows} rows, "
                f"expected k*n = {k * len(intern)}")
        self._intern = intern
        self._pivot_table = pivot_table
        self._bunch_table = bunch_table
        self._k = k
        self._num_nodes = len(intern)
        self.stats: Dict[str, int] = {"batches": 0, "pairs": 0, "groups": 0,
                                      "bunch_rows_decoded": 0}
        #: Telemetry registry for per-group decode spans; the serving layer
        #: swaps in a live registry when telemetry is enabled (the no-op
        #: singleton costs one attribute access per group otherwise).
        self.metrics = NULL_REGISTRY

    def node_label(self, index: int) -> Hashable:
        """The node label behind an interned index (for route selections)."""
        return self._intern.node_at(index)

    def _bunch_keys(self, level: int, source_index: int
                    ) -> Tuple[int, List[int]]:
        row_index = level * self._num_nodes + source_index
        try:
            return self._bunch_table.row_keys(row_index)
        except RecordTableError:
            if self._bunch_table.has_row(row_index):
                raise
            # Same KeyError contract as InternedBunchLevel.__getitem__.
            node = self._intern.node_at(source_index)
            raise KeyError(
                f"bunch row for node {node!r} (level {level}) is not "
                f"present in this artifact slice; sub-artifacts only hold "
                f"rows for their own shard's sources") from None

    def select_batch(self, pairs: Sequence[Tuple[Hashable, Hashable]]
                     ) -> List[Optional[Tuple[int, Optional[int], float]]]:
        """Level selections ``(level, pivot_index, estimate)`` per pair.

        Mirrors ``CompactRoutingHierarchy._select_level`` exactly: the
        minimal level whose target pivot lands in the source's bunch, with
        ``(k, None, inf)`` when no level hits.  Pairs whose source equals
        their target return ``None`` — the query paths short-circuit
        equality before level selection, so selection is undefined there.
        """
        pairs = list(pairs)
        intern = self._intern
        source_ids = intern.indices_of(s for s, _ in pairs)
        target_ids = intern.indices_of(t for _, t in pairs)

        # Distinct targets resolve their pivot rows once, as one packed block.
        slot_of: Dict[int, int] = {}
        distinct_targets: List[int] = []
        for t in target_ids:
            if t not in slot_of:
                slot_of[t] = len(distinct_targets)
                distinct_targets.append(t)
        pivots, pivot_dists = self._pivot_table.rows_batch(distinct_targets)
        stride = self._k - 1

        groups: Dict[int, List[int]] = {}
        for position, s in enumerate(source_ids):
            groups.setdefault(s, []).append(position)

        k = self._k
        value_at = self._bunch_table.value_at
        results: List[Optional[Tuple[int, Optional[int], float]]] = \
            [None] * len(pairs)
        decoded = 0
        no_hit = (k, None, float("inf"))
        for s in sorted(groups):
            with self.metrics.span("kernel_group_decode"):
                bunch_rows: List[Optional[Tuple[int, List[int]]]] = [None] * k
                for position in groups[s]:
                    t = target_ids[position]
                    if s == t:
                        continue       # equality sentinel: stays None
                    base = slot_of[t] * stride
                    selection = no_hit
                    for level in range(k):
                        if level == 0:
                            # level-0 pivot is the target itself
                            pivot, tail = t, 0.0
                        else:
                            pivot = pivots[base + level - 1]
                            if pivot < 0:      # NO_PIVOT
                                continue
                            tail = pivot_dists[base + level - 1]
                        row = bunch_rows[level]
                        if row is None:
                            row = bunch_rows[level] = self._bunch_keys(level, s)
                            decoded += 1
                        offset, keys = row
                        if pivot in keys:
                            selection = (level, pivot, value_at(
                                offset + keys.index(pivot)) + tail)
                            break
                    results[position] = selection
        self.stats["batches"] += 1
        self.stats["pairs"] += len(pairs)
        self.stats["groups"] += len(groups)
        self.stats["bunch_rows_decoded"] += decoded
        return results

    def distance_batch(self, pairs: Sequence[Tuple[Hashable, Hashable]]
                       ) -> List[float]:
        """Distance estimates for ``pairs``, list-for-list identical to
        the per-pair dict path (equal pairs are 0.0 by definition)."""
        return [0.0 if selection is None else selection[2]
                for selection in self.select_batch(pairs)]
