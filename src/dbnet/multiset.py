"""Immutable multisets with the algebra used by the firing rule."""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, TypeVar

T = TypeVar("T", bound=Hashable)


class Multiset(Generic[T]):
    """A finite multiset. All operations return new instances."""

    __slots__ = ("_counts", "_hash")

    def __init__(self, items: Iterable[T] = ()):
        counts: dict[T, int] = {}
        for x in items:
            counts[x] = counts.get(x, 0) + 1
        self._counts = counts
        self._hash: int | None = None

    @classmethod
    def from_counts(cls, counts: Mapping[T, int]) -> "Multiset[T]":
        ms: Multiset[T] = cls()
        for x, n in counts.items():
            if n < 0:
                raise ValueError(f"negative multiplicity for {x!r}")
            if n:
                ms._counts[x] = n
        return ms

    def count(self, x: T) -> int:
        return self._counts.get(x, 0)

    def items(self) -> Iterator[tuple[T, int]]:
        return iter(self._counts.items())

    def distinct(self) -> Iterator[T]:
        return iter(self._counts)

    def __contains__(self, x: object) -> bool:
        return x in self._counts

    def __iter__(self) -> Iterator[T]:
        for x, n in self._counts.items():
            for _ in range(n):
                yield x

    def size(self) -> int:
        """The number of elements; unlike `len`, not bounded by sys.maxsize."""
        return sum(self._counts.values())

    def __len__(self) -> int:
        return self.size()

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{x!r}^{n}" for x, n in self._counts.items())
        return f"Multiset({{{inner}}})"

    def includes(self, other: "Multiset[T]") -> bool:
        """True iff `other` is a sub-multiset of self (other <= self)."""
        return all(self.count(x) >= n for x, n in other.items())

    def __add__(self, other: "Multiset[T]") -> "Multiset[T]":
        counts = dict(self._counts)
        for x, n in other.items():
            counts[x] = counts.get(x, 0) + n
        return Multiset.from_counts(counts)

    def __sub__(self, other: "Multiset[T]") -> "Multiset[T]":
        if not self.includes(other):
            raise ValueError("multiset difference requires inclusion")
        counts = dict(self._counts)
        for x, n in other.items():
            counts[x] -= n
            if counts[x] == 0:
                del counts[x]
        return Multiset.from_counts(counts)

    def sorted_items(self, key: Callable[[T], object]) -> list[tuple[T, int]]:
        return sorted(self._counts.items(), key=lambda it: key(it[0]))


EMPTY: Multiset = Multiset()
