"""Degree sequences and the lazily grown arena."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertree.degrees import PeriodicDegreeSequence, degree_at
from pertree.errors import CapacityExceeded
from pertree.tree import TreeArena


def test_parse_roundtrip():
    seq = PeriodicDegreeSequence.parse("2,3,4")
    assert seq.degrees == (2, 3, 4)
    assert seq.period == 3
    assert str(seq) == "2,3,4"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        PeriodicDegreeSequence.parse("2,x")
    with pytest.raises(ValueError):
        PeriodicDegreeSequence(())
    with pytest.raises(ValueError):
        PeriodicDegreeSequence((1, 0))


def test_constructor_rejects_a_degree_that_is_not_an_integer():
    for bad in ((1.5, 2.9), (2, 2.5), (np.float64(3.5),), (float("nan"),),
                (float("inf"), 2), ("3",)):
        with pytest.raises(ValueError, match="must be integers"):
            PeriodicDegreeSequence(bad)


def test_constructor_accepts_integral_numbers():
    seq = PeriodicDegreeSequence((np.int64(3), 2.0, np.float64(4.0), np.uint8(5)))
    assert seq.degrees == (3, 2, 4, 5)
    assert all(type(d) is int for d in seq.degrees)
    assert PeriodicDegreeSequence([1, 2]).degrees == (1, 2)


@settings(max_examples=200, deadline=None)
@given(degrees=st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
def test_parse_roundtrip_property(degrees):
    seq = PeriodicDegreeSequence(tuple(degrees))
    assert PeriodicDegreeSequence.parse(str(seq)) == seq


@settings(max_examples=200, deadline=None)
@given(degrees=st.lists(st.integers(1, 1000), min_size=1, max_size=5),
       slot=st.integers(0, 4),
       bad=st.one_of(st.just(""), st.integers(-1000, 0).map(str),
                     st.floats().filter(lambda x: not x.is_integer()).map(repr),
                     st.text("xy.e+-", min_size=1)))
def test_parse_rejects_bad_parts_property(degrees, slot, bad):
    parts = [str(d) for d in degrees]
    parts.insert(min(slot, len(parts)), bad)
    with pytest.raises(ValueError):
        PeriodicDegreeSequence.parse(",".join(parts))


def test_degree_at_examples():
    seq = PeriodicDegreeSequence((1, 50))
    assert degree_at(seq, 0) == 1
    assert degree_at(seq, -1) == 50          # mathematical mod
    seq3 = PeriodicDegreeSequence((2, 3, 4))
    assert degree_at(seq3, 7) == 3           # 7 mod 3 = 1


def test_degree_at_negative_heights_cycle():
    seq = PeriodicDegreeSequence((2, 3, 4))
    for h in range(-9, 9):
        assert degree_at(seq, h) == (2, 3, 4)[h % 3]


def test_materialize_children_counts_and_heights():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    kids = arena.materialize_children(arena.root)
    assert len(kids) == 3
    assert all(arena.heights[c] == 1 for c in kids)
    grandkids = arena.materialize_children(kids[0])
    assert len(grandkids) == 4
    assert all(arena.heights[c] == 2 for c in grandkids)


def test_materialize_children_idempotent():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    first = arena.materialize_children(arena.root)
    size = len(arena)
    again = arena.materialize_children(arena.root)
    assert again == first
    assert len(arena) == size


def test_materialize_parent_extends_spine():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    p = arena.materialize_parent(arena.root)
    assert arena.heights[p] == -1
    # degree_at(-1) = 4 child slots; the root holds the first
    assert arena.children_count(p) == 4
    assert arena.neighbor(p, 1) == arena.root
    kids = arena.materialize_children(p)
    assert len(kids) == 4
    assert arena.root in kids
    assert arena.spine_bottom == p


def test_materialize_parent_nonspine_is_lookup():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    kid = arena.materialize_children(arena.root)[1]
    size = len(arena)
    assert arena.materialize_parent(kid) == arena.root
    assert len(arena) == size


def test_double_parent_on_1n_tree():
    arena = TreeArena(PeriodicDegreeSequence((1, 50)))
    p1 = arena.materialize_parent(arena.root)
    p2 = arena.materialize_parent(p1)
    assert arena.heights[p2] == -2
    # degree_at(-2) = g(0) = 1: the single child slot holds the height -1 vertex
    assert arena.neighbor(p2, 1) == p1


def test_child_slot_counts_match_degree_at():
    arena = TreeArena(PeriodicDegreeSequence((2, 3, 4)), root_residue=1)
    frontier = [arena.root]
    for _ in range(3):
        nxt = []
        for v in frontier:
            kids = arena.materialize_children(v)
            assert len(kids) == degree_at(arena.degree_seq,
                                          arena.root_residue + arena.heights[v])
            for c in kids:
                assert arena.heights[c] == arena.heights[v] + 1
            nxt.extend(kids)
        frontier = nxt


def test_ids_stable_and_growth_monotone():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    kids = arena.materialize_children(arena.root)
    before = len(arena)
    arena.materialize_parent(arena.root)
    assert arena.materialize_children(arena.root) == kids
    assert len(arena) > before


def test_capacity_exceeded_is_explicit():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)), max_vertices=3)
    with pytest.raises(CapacityExceeded):
        arena.materialize_children(arena.root)
    arena2 = TreeArena(PeriodicDegreeSequence((3, 4)), max_vertices=2)
    arena2.materialize_parent(arena2.root)
    with pytest.raises(CapacityExceeded):
        arena2.materialize_parent(arena2.spine_bottom)


def test_neighbor_slots():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    kids = arena.materialize_children(arena.root)
    assert [arena.neighbor(arena.root, s) for s in (1, 2, 3)] == kids
    assert arena.neighbor(kids[0], 0) == arena.root


def test_capacity_counts_touched_vertices():
    arena = TreeArena(PeriodicDegreeSequence((1, 100)), max_vertices=3)
    p = arena.materialize_parent(arena.root)
    kid = arena.neighbor(arena.root, 1)
    assert len(arena) == 3
    with pytest.raises(CapacityExceeded):
        arena.neighbor(p, 2)
    with pytest.raises(CapacityExceeded):
        arena.neighbor(kid, 7)
    with pytest.raises(CapacityExceeded):
        arena.materialize_parent(p)
    # touching vertices that already exist at a full cap does not raise
    assert arena.neighbor(p, 1) == arena.root
    assert arena.neighbor(arena.root, 1) == kid
    assert arena.neighbor(kid, 0) == arena.root
    assert arena.neighbor(arena.root, 0) == p
    assert len(arena) == 3


def test_neighbor_rejects_missing_slots():
    arena = TreeArena(PeriodicDegreeSequence((3, 4)))
    for slot in (-1, 4):
        with pytest.raises(IndexError):
            arena.neighbor(arena.root, slot)
    assert len(arena) == 1


@settings(max_examples=60, deadline=None)
@given(degrees=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       residue=st.integers(0, 3),
       steps=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                      max_size=200))
def test_lazy_neighbor_contract(degrees, residue, steps):
    arena = TreeArena(PeriodicDegreeSequence(tuple(degrees)), root_residue=residue)
    seen = [arena.root]
    edges: dict[tuple[int, int], int] = {}
    for pick, slot_pick in steps:
        v = seen[pick % len(seen)]
        slot = slot_pick % (arena.children_count(v) + 1)
        w = arena.neighbor(v, slot)
        # a repeated call returns the same vertex and creates nothing
        size = len(arena)
        assert arena.neighbor(v, slot) == w
        assert len(arena) == size
        assert edges.setdefault((v, slot), w) == w
        if slot:
            assert arena.heights[w] == arena.heights[v] + 1
            assert arena.neighbor(w, 0) == v
        else:
            assert arena.heights[w] == arena.heights[v] - 1
        if w not in seen:
            seen.append(w)
    assert len(arena) == len(seen)
    # the flat tables: every created child maps back to its parent by its key
    for key, w in arena.children.items():
        v, slot = divmod(key, arena.stride)
        assert arena.parents[w] == v
        assert 0 < slot <= arena.children_count(v)
        assert arena.neighbor(v, slot) == w
