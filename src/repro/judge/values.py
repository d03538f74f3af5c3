"""Runtime value model for the interpreter.

C++ value semantics are emulated on Python objects:

* scalars (``int``, ``double``, ``bool``, ``char``) are immutable Python
  values (char is a 1-character ``str``);
* containers wrap Python structures and are *deep-copied* on assignment
  and by-value parameter passing (:func:`copy_value`), matching C++;
* reference parameters share the same :class:`Cell`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

from ..lang.cpp_ast import TypeSpec
from .errors import RuntimeFault

__all__ = ["Cell", "VectorVal", "MapVal", "SetVal", "PairVal", "QueueVal",
           "StackVal", "PriorityQueueVal", "IterRef", "default_value",
           "copy_value", "container_size", "deep_element_count",
           "truthy", "sort_key", "NUMERIC_BASES", "CONTAINERS"]

NUMERIC_BASES = {
    "int", "long", "long long", "unsigned", "unsigned long long", "short",
    "size_t", "bool", "double", "float", "long double", "auto",
}


@dataclass
class Cell:
    """A storage location: variable slot or by-ref parameter binding."""

    value: Any
    type: TypeSpec = field(default_factory=TypeSpec)


class VectorVal:
    """``std::vector`` (also backs arrays)."""

    __slots__ = ("items", "elem_type")

    def __init__(self, items: list | None = None,
                 elem_type: TypeSpec | None = None):
        self.items = items if items is not None else []
        self.elem_type = elem_type or TypeSpec(base="int")

    def __len__(self) -> int:
        return len(self.items)

    def at(self, index: int):
        if not 0 <= index < len(self.items):
            raise RuntimeFault(f"vector index {index} out of range "
                               f"[0, {len(self.items)})")
        return self.items[index]

    def set(self, index: int, value) -> None:
        if not 0 <= index < len(self.items):
            raise RuntimeFault(f"vector index {index} out of range "
                               f"[0, {len(self.items)})")
        self.items[index] = value


class MapVal:
    """``std::map`` / ``std::unordered_map`` (ordered flag kept for cost)."""

    __slots__ = ("entries", "key_type", "value_type", "ordered")

    def __init__(self, key_type: TypeSpec | None = None,
                 value_type: TypeSpec | None = None, ordered: bool = True):
        self.entries: dict = {}
        self.key_type = key_type or TypeSpec(base="int")
        self.value_type = value_type or TypeSpec(base="int")
        self.ordered = ordered

    def __len__(self) -> int:
        return len(self.entries)


class SetVal:
    __slots__ = ("items", "elem_type", "ordered", "multi")

    def __init__(self, elem_type: TypeSpec | None = None, ordered: bool = True,
                 multi: bool = False):
        # A multiset needs counts; model both with a count dict.
        self.items: dict = {}
        self.elem_type = elem_type or TypeSpec(base="int")
        self.ordered = ordered
        self.multi = multi

    def __len__(self) -> int:
        return sum(self.items.values()) if self.multi else len(self.items)


class PairVal:
    __slots__ = ("first", "second")

    def __init__(self, first=0, second=0):
        self.first = first
        self.second = second


class QueueVal:
    __slots__ = ("items",)

    def __init__(self):
        from collections import deque

        self.items = deque()

    def __len__(self) -> int:
        return len(self.items)


class StackVal:
    __slots__ = ("items",)

    def __init__(self):
        self.items: list = []

    def __len__(self) -> int:
        return len(self.items)


class PriorityQueueVal:
    """Max-heap by default, like ``std::priority_queue``."""

    __slots__ = ("heap",)

    def __init__(self):
        self.heap: list = []

    def push(self, value) -> None:
        heapq.heappush(self.heap, _Neg(value))

    def pop(self):
        if not self.heap:
            raise RuntimeFault("pop on empty priority_queue")
        return heapq.heappop(self.heap).value

    def top(self):
        if not self.heap:
            raise RuntimeFault("top on empty priority_queue")
        return self.heap[0].value

    def __len__(self) -> int:
        return len(self.heap)


class _Neg:
    """Heap entry ordered by C++'s ``operator<`` reversed (its
    :func:`sort_key`, taken at push), so heapq (a min-heap) acts as a
    max-heap."""

    __slots__ = ("key", "value")

    def __init__(self, value):
        self.key = sort_key(value)
        self.value = value

    def __lt__(self, other) -> bool:
        return other.key < self.key


#: Container values; comparing one is defined only between two vectors.
CONTAINERS = frozenset({VectorVal, MapVal, SetVal, QueueVal, StackVal,
                        PriorityQueueVal})


def sort_key(value):
    """C++'s ``operator<`` as a key: a pair as a tuple and a vector as a
    list of their members' keys, so rows order lexicographically as
    ``std::vector`` does; any other container faults. ``sort`` and
    ``priority_queue`` order by it and charge flat costs, so the key
    charges nothing."""
    if type(value) is PairVal:
        return (sort_key(value.first), sort_key(value.second))
    if type(value) is VectorVal:
        return [sort_key(item) for item in value.items]
    if type(value) in CONTAINERS:
        name = type(value).__name__
        raise RuntimeFault(f"cannot compare {name} with {name}")
    return value


@dataclass
class IterRef:
    """A ``begin()``/``end()`` style iterator: container + position."""

    container: Any
    position: int
    reversed: bool = False


def default_value(type_spec: TypeSpec):
    """The value a fresh C++ variable of this type holds (globals /
    value-initialized locals; locals of scalar type are zero-initialized
    here, a safe simplification the generators rely on)."""
    base = type_spec.base
    if base in ("double", "float", "long double"):
        return 0.0
    if base in NUMERIC_BASES:
        return 0
    if base == "char":
        return "\0"
    if base == "string":
        return ""
    if base == "vector":
        elem = type_spec.args[0] if type_spec.args else TypeSpec(base="int")
        return VectorVal(elem_type=elem)
    if base in ("map", "unordered_map"):
        key = type_spec.args[0] if type_spec.args else TypeSpec(base="int")
        val = type_spec.args[1] if len(type_spec.args) > 1 else TypeSpec(base="int")
        return MapVal(key_type=key, value_type=val, ordered=(base == "map"))
    if base in ("set", "unordered_set", "multiset"):
        elem = type_spec.args[0] if type_spec.args else TypeSpec(base="int")
        return SetVal(elem_type=elem, ordered=(base != "unordered_set"),
                      multi=(base == "multiset"))
    if base == "pair":
        first = default_value(type_spec.args[0]) if type_spec.args else 0
        second = default_value(type_spec.args[1]) if len(type_spec.args) > 1 else 0
        return PairVal(first, second)
    if base == "queue" or base == "deque":
        return QueueVal()
    if base == "stack":
        return StackVal()
    if base == "priority_queue":
        return PriorityQueueVal()
    if base == "void":
        return None
    raise RuntimeFault(f"cannot default-construct type {type_spec}")


def copy_value(value):
    """Deep copy implementing C++ value semantics for containers."""
    if isinstance(value, VectorVal):
        out = VectorVal(elem_type=value.elem_type)
        out.items = [copy_value(v) for v in value.items]
        return out
    if isinstance(value, MapVal):
        out = MapVal(value.key_type, value.value_type, value.ordered)
        out.entries = {k: copy_value(v) for k, v in value.entries.items()}
        return out
    if isinstance(value, SetVal):
        out = SetVal(value.elem_type, value.ordered, value.multi)
        out.items = dict(value.items)
        return out
    if isinstance(value, PairVal):
        return PairVal(copy_value(value.first), copy_value(value.second))
    if isinstance(value, QueueVal):
        out = QueueVal()
        out.items.extend(copy_value(v) for v in value.items)
        return out
    if isinstance(value, StackVal):
        out = StackVal()
        out.items = [copy_value(v) for v in value.items]
        return out
    if isinstance(value, PriorityQueueVal):
        out = PriorityQueueVal()
        out.heap = list(value.heap)
        return out
    return value  # scalars & strings are immutable


def container_size(value) -> int:
    """Element count of a container (0 for scalars)."""
    if isinstance(value, (VectorVal, MapVal, SetVal, QueueVal, StackVal,
                          PriorityQueueVal)):
        return len(value)
    if isinstance(value, str):
        return len(value)
    return 0


def deep_element_count(value) -> int:
    """Total scalar slots reachable from ``value`` (memory accounting)."""
    if isinstance(value, VectorVal):
        return 1 + sum(deep_element_count(v) for v in value.items)
    if isinstance(value, MapVal):
        return 1 + sum(1 + deep_element_count(v) for v in value.entries.values())
    if isinstance(value, SetVal):
        return 1 + len(value)
    if isinstance(value, PairVal):
        return deep_element_count(value.first) + deep_element_count(value.second)
    if isinstance(value, (QueueVal, StackVal, PriorityQueueVal)):
        return 1 + len(value)
    if isinstance(value, str):
        return 1 + len(value) // 8
    return 1


def truthy(value) -> bool:
    """C++ truthiness of a scalar."""
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value not in ("", "\0")
    raise RuntimeFault(f"value of type {type(value).__name__} is not a condition")
