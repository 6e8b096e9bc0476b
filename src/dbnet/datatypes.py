"""Typed value domains, rigid predicates, variables, and substitutions.

Every piece of data handled by the engine is a `Value` tagged with the name
of its `DataType`. Types in a `TypeDomain` have pairwise disjoint value
domains and pairwise disjoint predicate vocabularies, so a predicate name
identifies its type unambiguously.

`Value` and `Variable` are named tuples, so they hash, compare and sort as
their fields do: a value as (type name, payload). Payloads of one type are
mutually comparable, so the natural order of a value tuple over a fixed
colour is the canonical order of tokens, and of facts (`persistence.Fact`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar, Union

from .errors import BindingError, DefinitionError

Payload = Union[str, int, Decimal, bool]

_cache_token_counter = itertools.count()


def fresh_cache_token() -> int:
    """Process-unique keys for per-instance memoization tables."""
    return next(_cache_token_counter)


class Kind(enum.Enum):
    STRING = "string-like"
    INT = "integer-like"
    REAL = "real-like"
    BOOL = "bool-like"


# Only bool-like domains are finite; the others are countably infinite.
_INFINITE_KINDS = {Kind.STRING, Kind.INT, Kind.REAL}


@dataclass(frozen=True)
class Predicate:
    """A predicate symbol with a fixed arity and rigid semantics."""

    name: str
    arity: int
    semantics: Callable[..., bool]


@dataclass(frozen=True)
class DataType:
    """A value domain plus a finite set of rigidly interpreted predicates."""

    name: str
    kind: Kind
    predicates: dict[str, Predicate] = field(default_factory=dict)

    def contains(self, payload: object) -> bool:
        """Membership probe for the raw payload in this type's domain."""
        if self.kind is Kind.STRING:
            return type(payload) is str
        if self.kind is Kind.INT:
            return type(payload) is int
        if self.kind is Kind.REAL:
            return type(payload) is Decimal and payload.is_finite()
        return type(payload) is bool

    @property
    def is_infinite(self) -> bool:
        return self.kind in _INFINITE_KINDS


class Value(NamedTuple):
    """A constant: a payload plus the name of the type that owns it."""

    type_name: str
    payload: Payload

    def __repr__(self) -> str:
        return f"Value({self.type_name}, {self.payload!r})"


class Variable(NamedTuple):
    """A typed variable; `fresh` marks the nu-flavored kind."""

    name: str
    type_name: str
    fresh: bool = False

    def __repr__(self) -> str:
        nu = "nu " if self.fresh else ""
        return f"{nu}{self.name}:{self.type_name}"


Term = Union[Value, Variable]

#: A (partial) well-typed mapping from variables to values.
Substitution = dict[Variable, Value]

#: Anything with a `.name` (a type, relation, action, place, ...).
Named = TypeVar("Named")


def canon_decimal(text: str) -> Decimal:
    """Parse a plain decimal literal into its canonical exact form."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise DefinitionError(f"not a decimal: {text!r}") from None
    if not d.is_finite():
        raise DefinitionError(f"not a finite decimal: {text!r}")
    return _strip_trailing_zeros(d)


def _strip_trailing_zeros(d: Decimal) -> Decimal:
    sign, digits, exp = d.as_tuple()
    while exp < 0 and digits[-1:] == (0,) and len(digits) > 1:
        digits = digits[:-1]
        exp += 1
    if exp < 0 and digits == (0,):
        exp = 0
    # Never keep a positive exponent: scale back to plain notation.
    normalized = Decimal((sign, digits, exp))
    if exp > 0:
        normalized = Decimal((sign, digits + (0,) * exp, 0))
    return normalized


def format_decimal(d: Decimal) -> str:
    """Plain-notation rendering that always keeps a fraction part."""
    text = format(d, "f")
    if "." not in text:
        text += ".0"
    return text


def by_name(items: Iterable[Named], noun: str) -> dict[str, Named]:
    """Key `items` by their `.name`, refusing a name given twice."""
    out: dict[str, Named] = {}
    for item in items:
        if item.name in out:
            raise DefinitionError(f"duplicate {noun} name {item.name!r}")
        out[item.name] = item
    return out


class TypeDomain:
    """A finite set of data types with disjoint domains and predicates."""

    def __init__(self, types: Iterable[DataType]):
        self.types: dict[str, DataType] = by_name(types, "type")
        self._predicate_owner: dict[str, DataType] = {}
        kinds: set[Kind] = set()
        for dt in self.types.values():
            if dt.kind in kinds:
                # Same kind means the same Python payload domain, which would
                # break pairwise disjointness of value domains.
                raise DefinitionError(
                    f"type {dt.name!r} overlaps an existing {dt.kind.value} domain"
                )
            kinds.add(dt.kind)
            for pred in dt.predicates.values():
                if pred.name in self._predicate_owner:
                    raise DefinitionError(f"duplicate predicate name {pred.name!r}")
                self._predicate_owner[pred.name] = dt

    def __contains__(self, type_name: str) -> bool:
        return type_name in self.types

    def type(self, type_name: str) -> DataType:
        try:
            return self.types[type_name]
        except (KeyError, TypeError):  # TypeError: an unhashable name read from JSON
            raise DefinitionError(f"unknown type {type_name!r}") from None

    def type_of_predicate(self, pred_name: str) -> DataType:
        try:
            return self._predicate_owner[pred_name]
        except KeyError:
            raise DefinitionError(f"unknown predicate {pred_name!r}") from None

    def check_value(self, value: Value) -> Value:
        dt = self.type(value.type_name)
        if not dt.contains(value.payload):
            raise DefinitionError(
                f"payload {value.payload!r} is not in the domain of type {dt.name!r}"
            )
        return value

    def mismatches(self, terms: Sequence[Term], type_names: Sequence[str]) -> list[str]:
        """Why `terms` do not fit the column types `type_names`: a count
        mismatch, or per component a type mismatch or a value outside its
        type's domain. Variables are checked by type only."""
        if len(terms) != len(type_names):
            return [f"expected {len(type_names)} components, got {len(terms)}"]
        problems = []
        for i, (term, type_name) in enumerate(zip(terms, type_names), 1):
            if term.type_name != type_name:
                problems.append(f"component {i} is {term.type_name!r}, expected {type_name!r}")
            elif isinstance(term, Value):
                try:
                    self.check_value(term)
                except DefinitionError as exc:
                    problems.append(str(exc))
        return problems

    def owner_of_payload(self, payload: Payload) -> list[DataType]:
        """All types whose domain contains the payload (disjointness probe)."""
        return [dt for dt in self.types.values() if dt.contains(payload)]


def apply_substitution(term: Term, theta: Substitution) -> Value:
    """Ground a term: values are fixed points, variables look up theta."""
    if isinstance(term, Value):
        return term
    try:
        return theta[term]
    except KeyError:
        raise BindingError(f"unbound variable {term!r}") from None


def fresh_value(dtype: DataType, excluded: set[Value] | frozenset[Value]) -> Value:
    """A value of `dtype` outside `excluded`, chosen deterministically.

    Integers (and reals) take the successor of the largest excluded value;
    strings take the first unused name of the sequence ν0, ν1, ….
    """
    if not dtype.is_infinite:
        raise DefinitionError(f"type {dtype.name!r} has a finite domain; cannot be fresh")
    taken = {v.payload for v in excluded if v.type_name == dtype.name}
    if dtype.kind is Kind.INT:
        payload: Payload = max((p for p in taken if isinstance(p, int)), default=-1) + 1
    elif dtype.kind is Kind.REAL:
        biggest = max((p for p in taken if isinstance(p, Decimal)), default=Decimal(-1))
        payload = _strip_trailing_zeros(biggest.to_integral_value(rounding="ROUND_FLOOR") + 1)
    else:
        k = 0
        while f"ν{k}" in taken:
            k += 1
        payload = f"ν{k}"
    value = Value(dtype.name, payload)
    assert value not in excluded
    return value


def _succ(a: int, b: int) -> bool:
    return b == a + 1


def builtin_catalog() -> TypeDomain:
    """The built-in type catalog: string, int, real, and bool."""
    return TypeDomain(
        [
            DataType(
                "string",
                Kind.STRING,
                {"=_s": Predicate("=_s", 2, lambda a, b: a == b)},
            ),
            DataType(
                "int",
                Kind.INT,
                {
                    "=_int": Predicate("=_int", 2, lambda a, b: a == b),
                    "<_int": Predicate("<_int", 2, lambda a, b: a < b),
                    "succ": Predicate("succ", 2, _succ),
                },
            ),
            DataType(
                "real",
                Kind.REAL,
                {
                    "=_r": Predicate("=_r", 2, lambda a, b: a == b),
                    "<_r": Predicate("<_r", 2, lambda a, b: a < b),
                },
            ),
            DataType(
                "bool",
                Kind.BOOL,
                {"=_bool": Predicate("=_bool", 2, lambda a, b: a == b)},
            ),
        ]
    )


#: The built-in catalog, shared by everything that needs no other domain.
CATALOG = builtin_catalog()

#: Predicate name used for `a = b` sugar, per type name.
EQUALITY_PREDICATES = {"string": "=_s", "int": "=_int", "real": "=_r", "bool": "=_bool"}

#: Predicate name used for `a < b` sugar, per type name.
ORDER_PREDICATES = {"int": "<_int", "real": "<_r"}


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"})


def escape_string(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def render_literal(v: Value) -> str:
    """The concrete-syntax form of a value (same form the DSL parses)."""
    p = v.payload
    if isinstance(p, bool):
        return "true" if p else "false"
    if isinstance(p, str):
        return escape_string(p)
    if isinstance(p, Decimal):
        return format_decimal(p)
    return str(p)


def payload_from_json(cell: object, type_name: str) -> Value:
    """Rebuild a value of the built-in catalog from its JSON cell form
    (reals travel as strings)."""
    if type_name == "real" and isinstance(cell, str):
        cell = canon_decimal(cell)
    return CATALOG.check_value(Value(type_name, cell))


def string_value(s: str) -> Value:
    return Value("string", s)


def int_value(i: int) -> Value:
    return Value("int", i)


def real_value(text: str | Decimal) -> Value:
    if isinstance(text, Decimal):
        return Value("real", _strip_trailing_zeros(text))
    return Value("real", canon_decimal(text))


def bool_value(b: bool) -> Value:
    return Value("bool", b)
