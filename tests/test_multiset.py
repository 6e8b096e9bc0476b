import pytest
from hypothesis import given
from hypothesis import strategies as st

from dbnet.multiset import EMPTY, Multiset

multisets = st.lists(st.integers(min_value=0, max_value=5), max_size=8).map(Multiset)


def test_union_adds_multiplicities():
    assert Multiset(["a"]) + Multiset(["a"]) == Multiset(["a", "a"])


def test_difference():
    assert Multiset(["a", "a", "b"]) - Multiset(["a"]) == Multiset(["a", "b"])


def test_difference_requires_inclusion():
    with pytest.raises(ValueError):
        Multiset(["a"]) - Multiset(["a", "a"])
    with pytest.raises(ValueError):
        Multiset(["a"]) - Multiset(["b"])


def test_inclusion():
    assert Multiset(["a"]).includes(EMPTY)
    assert Multiset(["a", "a"]).includes(Multiset(["a"]))
    assert not Multiset(["a"]).includes(Multiset(["a", "a"]))


def test_counts_and_len():
    s = Multiset(["a", "b", "a", "a"])
    assert s.count("a") == 3
    assert s.count("c") == 0
    assert len(s) == 4
    assert sorted(s) == ["a", "a", "a", "b"]


def test_from_counts_rejects_negative():
    with pytest.raises(ValueError):
        Multiset.from_counts({"a": -1})


@given(multisets, multisets)
def test_union_commutes(s1, s2):
    assert s1 + s2 == s2 + s1


@given(multisets, multisets)
def test_difference_inverts_union(s1, s2):
    assert (s1 + s2) - s2 == s1


@given(multisets, multisets)
def test_inclusion_via_counts(s1, s2):
    assert s2.includes(s1) == all(s2.count(x) >= n for x, n in s1.items())


@given(multisets)
def test_hash_consistent_with_equality(s):
    assert hash(Multiset(list(s))) == hash(s)
