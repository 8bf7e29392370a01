"""Columnar partition representation for the fused data plane.

``FLINT_COLUMNAR`` (default on) lets the fused-chain compiler lower a
narrow chain to *vectorised batch kernels* operating on arrays-of-columns
instead of streaming records one at a time through Python closures.  The
representation lives strictly *inside* one fused-chain execution:

- **Plane boundary rule.** Everything observable — block-manager puts,
  checkpoint payloads, shuffle buckets, memoised partitions, action results
  — is always *row* form (plain Python lists of records).  A chain converts
  rows → columns on entry, runs its batch kernels, and converts back on
  exit.  The block manager enforces this (it refuses ColumnarBatch
  payloads).
- **Bit-identity rule.** ``to_records(from_records(rows))`` must equal
  ``rows`` exactly — same Python types (``int`` stays ``int``, ``float``
  stays ``float``), same values, same nesting.  ``from_records`` therefore
  *refuses* (returns None) anything it cannot round-trip: empty partitions,
  ragged tuples, mixed-type columns, bools, ints outside int64, and any
  non-numeric leaf.  Refusal is never an error — the chain silently falls
  back to the row plane.

A batch is a schema tree plus a column tree mirroring it:

- scalar leaf ``"i8"`` / ``"f8"`` → one NumPy array (int64 / float64);
- ``("tuple", (child, ...))`` → a tuple of child columns (records are
  fixed-arity tuples);
- ``("list", child)`` → ragged column: ``(counts, child_column)`` where
  ``counts[j]`` is record ``j``'s list length and the child column holds
  the concatenated elements.  Lists nest (PageRank's cogrouped adjacency
  lists are list-of-list-of-int).

Batch kernels may raise :class:`ColumnarUnsupported` when the runtime
schema does not fit them; the runtime counts a fallback and re-runs the
chain on the row plane, so a kernel only ever has to be *correct or
refuse*, never general.
"""

from __future__ import annotations

import os
from itertools import chain as _chain
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ColumnarBatch",
    "ColumnarUnsupported",
    "columnar_enabled_by_env",
    "from_records",
]


def columnar_enabled_by_env() -> bool:
    """``FLINT_COLUMNAR``: default on; ``off``, ``0`` or ``false`` disable it."""
    return os.environ.get("FLINT_COLUMNAR", "on").lower() not in (
        "off", "0", "false",
    )


class ColumnarUnsupported(Exception):
    """A batch kernel cannot apply to this batch's schema.

    Raised *by kernels* (never by the conversion layer) when the runtime
    schema differs from the shape they were written for.  The runtime
    treats it exactly like a conversion refusal: count a fallback, run the
    chain on the row plane.
    """


class _Refuse(Exception):
    """Internal: these records cannot be columnarised (not an error)."""


#: Singleton sets for the C-speed exact-type scans in :func:`_build`.
_INT_ONLY = frozenset((int,))
_FLOAT_ONLY = frozenset((float,))
_TUPLE_ONLY = frozenset((tuple,))
_LIST_ONLY = frozenset((list,))


def _build(values: List[Any]) -> Tuple[Any, Any]:
    """Infer ``(schema, column)`` for one field across all records.

    Validates exact Python types as it goes — ``type(v) is int`` (which
    excludes ``bool``), ``type(v) is float`` — so the round trip can
    rebuild records bit-identically.  Raises :class:`_Refuse` on anything
    mixed, ragged, or non-numeric.
    """
    if not values:
        # A vacuous level (e.g. every list at this depth is empty): no
        # elements exist, so the leaf dtype is unobservable — any
        # placeholder round-trips exactly.
        return "f8", np.empty(0, dtype=np.float64)
    # All structural scans below run in C (``map`` feeding a set method):
    # the exact-type requirement — ``type(v) is int``, which excludes
    # ``bool`` and int subclasses — is what makes the ``np.array`` casts
    # coercion-free, so the checks must see every element.
    t0 = type(values[0])
    if t0 is int:
        if not _INT_ONLY.issuperset(map(type, values)):
            raise _Refuse
        try:
            return "i8", np.array(values, dtype=np.int64)
        except OverflowError as exc:  # int outside int64
            raise _Refuse from exc
    if t0 is float:
        if not _FLOAT_ONLY.issuperset(map(type, values)):
            raise _Refuse
        return "f8", np.array(values, dtype=np.float64)
    if t0 is tuple:
        arity = len(values[0])
        if not _TUPLE_ONLY.issuperset(map(type, values)):
            raise _Refuse
        if set(map(len, values)) != {arity}:
            raise _Refuse  # ragged arity
        children = [_build([v[i] for v in values]) for i in range(arity)]
        return (
            ("tuple", tuple(schema for schema, _ in children)),
            tuple(column for _, column in children),
        )
    if t0 is list:
        if not _LIST_ONLY.issuperset(map(type, values)):
            raise _Refuse
        counts = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
        child_schema, child_column = _build(list(_chain.from_iterable(values)))
        return ("list", child_schema), (counts, child_column)
    raise _Refuse


def _emit(schema: Any, column: Any, n: int) -> List[Any]:
    """Rebuild the Python values of one field (inverse of :func:`_build`).

    ``ndarray.tolist`` already yields native ``int``/``float`` objects, so
    types round-trip exactly.
    """
    if schema == "i8" or schema == "f8":
        return column.tolist()
    if schema[0] == "tuple":
        parts = [
            _emit(child, col, n) for child, col in zip(schema[1], column)
        ]
        if not parts:
            return [() for _ in range(n)]
        return list(zip(*parts))
    counts, child_column = column
    flat = _emit(schema[1], child_column, int(counts.sum()))
    out: List[Any] = []
    start = 0
    for count in counts.tolist():
        out.append(flat[start : start + count])
        start += count
    return out


def _select(schema: Any, column: Any, mask: np.ndarray) -> Any:
    """Row subset of one column tree by boolean mask (order preserved)."""
    if schema == "i8" or schema == "f8":
        return column[mask]
    if schema[0] == "tuple":
        return tuple(
            _select(child, col, mask) for child, col in zip(schema[1], column)
        )
    counts, child_column = column
    child_mask = np.repeat(mask, counts)
    return counts[mask], _select(schema[1], child_column, child_mask)


class ColumnarBatch:
    """One partition's records as a schema tree of NumPy columns."""

    __slots__ = ("schema", "data", "length")

    def __init__(self, schema: Any, data: Any, length: int):
        self.schema = schema
        self.data = data
        self.length = int(length)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarBatch(schema={self.schema!r}, length={self.length})"

    def require(self, schema: Any) -> Any:
        """The column tree, if the schema matches; else kernel fallback."""
        if self.schema != schema:
            raise ColumnarUnsupported(
                f"batch schema {self.schema!r} != expected {schema!r}"
            )
        return self.data

    def select(self, mask: np.ndarray) -> "ColumnarBatch":
        """Keep records where ``mask`` is True, preserving order."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self.length,):
            raise ColumnarUnsupported(
                f"selection mask must be bool[{self.length}], "
                f"got {mask.dtype} {mask.shape}"
            )
        return ColumnarBatch(
            self.schema, _select(self.schema, self.data, mask), int(mask.sum())
        )

    def to_records(self) -> List[Any]:
        """Rows back out — bit-identical to what ``from_records`` consumed."""
        return _emit(self.schema, self.data, self.length)


def from_records(records: Sequence[Any]) -> Optional[ColumnarBatch]:
    """Columnarise a partition, or None when it must stay on the row plane.

    Refusals (all return None, never raise): empty input; mixed-type or
    ragged-arity columns; ``bool`` leaves (``bool`` is an ``int`` subclass
    but must round-trip as ``bool``); ints outside int64; any non-numeric
    leaf (strings, dicts, None, objects).
    """
    if type(records) is not list:
        records = list(records)
    if not records:
        return None
    try:
        schema, data = _build(records)
    except _Refuse:
        return None
    return ColumnarBatch(schema, data, len(records))
