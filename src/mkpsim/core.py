"""Exact-arithmetic domain model for multiple-knapsack instances.

Everything is a non-negative integer: item costs, item weights, knapsack
capacities, remaining capacities.  Density (cost/weight) comparisons are done
by cross-multiplication, never by floating point, so ties are detected
exactly and every run is reproducible bit-for-bit across platforms.

Conventions used throughout the package:
  * item ids are 0..m-1 and equal the item's position in the instance list
  * knapsack indices are 0..n-1 and equal the position in the capacity list
    (the simulation layer numbers the owning processors 1..n; processor j
    owns knapsack index j-1)
  * an unassigned item maps to ``None``
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property, cmp_to_key


class DomainError(ValueError):
    """Structural violation: bad ids, negative quantities, overfull knapsack."""


class InstanceFormatError(ValueError):
    """Instance document rejected by the strict schema parser."""


def _shown(value) -> str:
    """``repr(value)`` cut to 60 characters, so that one bad field in an
    instance document cannot make an error line arbitrarily long."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


def _require_int(value, what: str) -> int:
    # bool is an int subclass; JSON true/false must not sneak in as 0/1
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{what} must be an integer, got {_shown(value)}")
    # Refuse what str() cannot print: every report, digest and repr would fail
    # on it.  The interpreter's limit is 0 (none) or at least 640 digits, and
    # 2**(3*640) < 10**640, so the common path is one bit-length comparison.
    if value.bit_length() > 3 * 640:
        limit = getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit
        if limit and abs(value) >= 10**limit:
            raise DomainError(f"{what} has more than {limit} decimal digits")
    return value


@dataclass(frozen=True)
class Item:
    """One item: integer profit ``cost`` >= 0 and integer ``weight`` >= 1.

    Zero weights are rejected because they would make the cost/weight
    ordering undefined.
    """

    id: int
    cost: int
    weight: int

    def __post_init__(self):
        if _require_int(self.id, "item id") < 0:
            raise DomainError(f"item id must be >= 0, got {_shown(self.id)}")
        if _require_int(self.cost, "item cost") < 0:
            raise DomainError(
                f"item {_shown(self.id)}: cost must be >= 0, got {_shown(self.cost)}"
            )
        if _require_int(self.weight, "item weight") < 1:
            raise DomainError(
                f"item {_shown(self.id)}: weight must be >= 1, got {_shown(self.weight)}"
            )


@dataclass(frozen=True)
class Instance:
    """An instance: m items and n >= 1 knapsack capacities.

    Item ids must equal their list position so that id-keyed maps and
    positional structures agree.  :attr:`density_order` and :attr:`digest`
    are computed on first use and kept; as they are not fields, equality,
    hashing, ``repr`` and the JSON document ignore them.
    """

    items: tuple[Item, ...]
    capacities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "capacities", tuple(self.capacities))
        for pos, item in enumerate(self.items):
            if not isinstance(item, Item):
                raise DomainError(f"item at position {pos} is not an Item: {_shown(item)}")
            if item.id != pos:
                raise DomainError(
                    f"item at position {pos} has id {_shown(item.id)}; ids must equal position"
                )
        # profit, OPT and the ratio's terms are at most this sum: if it prints,
        # every figure a report shows does
        _require_int(sum(item.cost for item in self.items), "total cost")
        if len(self.capacities) < 1:
            raise DomainError("an instance needs at least one knapsack")
        for j, cap in enumerate(self.capacities):
            if _require_int(cap, f"capacity {j}") < 0:
                raise DomainError(f"capacity {j} must be >= 0, got {_shown(cap)}")

    @classmethod
    def from_pairs(cls, pairs, capacities) -> "Instance":
        """Build from (cost, weight) pairs; ids are assigned positionally."""
        items = tuple(Item(i, c, w) for i, (c, w) in enumerate(pairs))
        return cls(items, tuple(capacities))

    @property
    def m(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return len(self.capacities)

    @cached_property
    def density_order(self) -> tuple[int, ...]:
        """:func:`sort_by_density` of the items, as a tuple no caller can reorder."""
        return tuple(sort_by_density(self.items))

    @cached_property
    def digest(self) -> str:
        """:func:`instance_digest` of the instance."""
        return instance_digest(self)

    def item(self, item_id: int) -> Item:
        if not 0 <= item_id < self.m:
            raise DomainError(f"unknown item id {item_id}")
        return self.items[item_id]


def compare_density(a: Item, b: Item) -> int:
    """Exact three-way comparison of cost/weight ratios.

    Returns +1 if ``a`` is denser than ``b``, -1 if less dense, 0 on an exact
    tie.  Computed as ``a.cost*b.weight <=> b.cost*a.weight`` with Python's
    unbounded integers, so inputs up to and beyond 10**9 never overflow.
    """
    lhs = a.cost * b.weight
    rhs = b.cost * a.weight
    if lhs > rhs:
        return 1
    if lhs < rhs:
        return -1
    return 0


def _denser_first(a: Item, b: Item) -> int:
    """Comparator for the density order: denser first, ties by ascending id."""
    return -compare_density(a, b) or a.id - b.id


def sort_by_density(items) -> list[int]:
    """Item ids ordered by decreasing cost/weight; ties by ascending id."""
    return [it.id for it in sorted(items, key=cmp_to_key(_denser_first))]


@dataclass
class Assignment:
    """A (partial) placement of items into knapsacks.

    ``placement`` maps every item id to a knapsack index or ``None``;
    ``remaining`` caches r_j = W_j minus the load of knapsack j.  The cache is
    maintained by the mutators here and cross-checked by
    :func:`check_feasible`.
    """

    placement: dict[int, int | None]
    remaining: list[int]

    @classmethod
    def empty(cls, inst: Instance) -> "Assignment":
        return cls({i: None for i in range(inst.m)}, list(inst.capacities))

    def copy(self) -> "Assignment":
        return Assignment(dict(self.placement), list(self.remaining))

    def assign(self, inst: Instance, item_id: int, knapsack: int) -> None:
        # hot path: index directly rather than through ``inst.item``/``inst.n``
        if not 0 <= item_id < len(inst.items):
            raise DomainError(f"unknown item id {item_id}")
        item = inst.items[item_id]
        if not 0 <= knapsack < len(inst.capacities):
            raise DomainError(f"unknown knapsack {knapsack}")
        if self.placement.get(item_id) is not None:
            raise DomainError(f"item {item_id} already assigned")
        if item.weight > self.remaining[knapsack]:
            raise DomainError(
                f"item {item_id} (weight {item.weight}) does not fit knapsack "
                f"{knapsack} (remaining {self.remaining[knapsack]})"
            )
        self.placement[item_id] = knapsack
        self.remaining[knapsack] -= item.weight

    def assigned_items(self) -> list[int]:
        return sorted(i for i, k in self.placement.items() if k is not None)


def objective(assignment: Assignment, inst: Instance) -> int:
    """Total profit of all assigned items.

    Raises :class:`DomainError` on unknown item or knapsack ids; feasibility
    beyond that is the caller's concern (see :func:`check_feasible`).
    """
    m, n = inst.m, inst.n
    total = 0
    for item_id, knapsack in assignment.placement.items():
        if not 0 <= item_id < m:
            raise DomainError(f"unknown item id {item_id}")
        if knapsack is None:
            continue
        if not 0 <= knapsack < n:
            raise DomainError(f"item {item_id} assigned to unknown knapsack {knapsack}")
        total += inst.items[item_id].cost
    return total


def check_feasible(assignment: Assignment, inst: Instance) -> str | None:
    """``None`` when the assignment is feasible, else the first violation.

    Checks, in order: known ids, per-knapsack load <= capacity, and that the
    cached remaining values match recomputation.  Items absent from the
    placement map are treated as unassigned; a dict cannot assign one item
    twice, so single-assignment is structural.

    Cost: one pass over the placement in id order, which checks the ids and
    totals every knapsack's load (O(m log m) for the id sort, linear when the
    placement is already in id order as every assignment built here is),
    then O(n) to compare the loads with the capacities and the cache.
    """
    items, capacities, m, n = inst.items, inst.capacities, inst.m, inst.n
    remaining = assignment.remaining
    if len(remaining) != n:
        return f"remaining vector has length {len(remaining)}, expected {n}"
    loads = [0] * n
    placement = assignment.placement
    for item_id in sorted(placement):
        if not 0 <= item_id < m:
            return f"unknown item id {item_id}"
        knapsack = placement[item_id]
        if knapsack is not None:
            if not 0 <= knapsack < n:
                return f"item {item_id} assigned to unknown knapsack {knapsack}"
            loads[knapsack] += items[item_id].weight
    for j, load in enumerate(loads):
        capacity = capacities[j]
        if load > capacity:
            return f"knapsack {j}: load {load} exceeds capacity {capacity}"
        expected = capacity - load
        if remaining[j] != expected:
            return f"knapsack {j}: cached remaining {remaining[j]} != recomputed {expected}"
    return None


# ---------------------------------------------------------------------------
# Canonical instance document
# ---------------------------------------------------------------------------
#
# {"items": [{"id": 0, "cost": 8, "weight": 4}, ...], "capacities": [10, 7]}
#
# The parser is strict: exactly these fields, each once, integers only (no
# booleans), ids equal to list position.  The digest is the SHA-256 of the
# compact canonical serialization, so it is independent of file whitespace.

_TOP_KEYS = {"items", "capacities"}
_ITEM_KEYS = {"id", "cost", "weight"}


def instance_to_json(inst: Instance, *, indent: int | None = 2) -> str:
    doc = {
        "items": [{"id": it.id, "cost": it.cost, "weight": it.weight} for it in inst.items],
        "capacities": list(inst.capacities),
    }
    return json.dumps(doc, indent=indent) + "\n"


def _unique_keys(pairs: list) -> dict:
    # json.loads would otherwise keep the last value of a repeated key
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(f"duplicate field {_shown(key)}")
        doc[key] = value
    return doc


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except InstanceFormatError:
        raise
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise InstanceFormatError("JSON nested too deeply to parse") from None
    except ValueError:  # a number with more digits than int() may convert
        raise InstanceFormatError("a number has too many digits to parse") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")
    if set(doc) != _TOP_KEYS:
        raise InstanceFormatError(
            f"top-level fields must be exactly {sorted(_TOP_KEYS)}, got {_shown(sorted(doc))}"
        )
    if not isinstance(doc["items"], list) or not isinstance(doc["capacities"], list):
        raise InstanceFormatError("'items' and 'capacities' must be lists")
    items = []
    for pos, raw in enumerate(doc["items"]):
        if not isinstance(raw, dict) or set(raw) != _ITEM_KEYS:
            raise InstanceFormatError(
                f"item {pos}: fields must be exactly {sorted(_ITEM_KEYS)}"
            )
        try:
            items.append(Item(raw["id"], raw["cost"], raw["weight"]))
        except DomainError as exc:
            raise InstanceFormatError(f"item {pos}: {exc}") from exc
    try:
        return Instance(tuple(items), tuple(doc["capacities"]))
    except DomainError as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def instance_digest(inst: Instance) -> str:
    """SHA-256 (hex) of the compact canonical document,
    ``instance_to_json(inst, indent=None)``.  An instance computes it once,
    as its :attr:`~Instance.digest`."""
    canonical = instance_to_json(inst, indent=None)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
