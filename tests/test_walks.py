"""Exact walk counting: DP values, identities, growth roots."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertree.bounds import lambda_ell_period2
from pertree.degrees import PeriodicDegreeSequence
from pertree.errors import LimitExceeded
from pertree.oracle import enumerate_closed_walks
from pertree.walks import (
    closed_walk_count,
    level_return_count,
    m0_estimates,
)


def seq(*degs):
    return PeriodicDegreeSequence(degs)


# Counts verified independently by powering the adjacency matrix of an
# explicitly built ball (lengths 2, 4, 6, 8).
FROZEN_COUNTS = {
    ((2,), 0): [3, 15, 87, 543],
    ((1, 1), 0): [2, 6, 20, 70],
    ((3, 4), 0): [4, 32, 304, 3152],
    ((3, 4), 1): [5, 40, 380, 3940],
    ((2, 3, 4), 0): [3, 19, 154, 1380],
}


@pytest.mark.parametrize("key", sorted(FROZEN_COUNTS))
def test_closed_walk_counts_frozen(key):
    degs, residue = key
    got = [closed_walk_count(seq(*degs), residue, two_n)
           for two_n in (2, 4, 6, 8)]
    assert got == FROZEN_COUNTS[key]


def test_length_zero_walk():
    assert closed_walk_count(seq(3, 4), 0, 0) == 1
    assert closed_walk_count(seq(7,), 0, 0) == 1


def test_line_counts_are_central_binomials():
    for n in range(1, 16):
        assert closed_walk_count(seq(1, 1), 0, 2 * n) == \
            math.comb(2 * n, n)


def test_odd_or_negative_length_rejected():
    with pytest.raises(ValueError):
        closed_walk_count(seq(3, 4), 0, 3)
    with pytest.raises(ValueError):
        closed_walk_count(seq(3, 4), 0, -2)


def test_m0_estimates_rejects_nmax_below_one():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            m0_estimates(seq(3, 4), n_max)
    assert m0_estimates(seq(3, 4), 1).counts == [closed_walk_count(seq(3, 4), 0, 2)]


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        closed_walk_count(seq(3, 4), 0, 42)
    with pytest.raises(LimitExceeded):
        m0_estimates(seq(3, 4), 21)


@pytest.mark.parametrize("degs", [(1, 1), (3, 4), (1, 10)])
def test_supermultiplicativity(degs):
    counts = m0_estimates(seq(*degs), 20).counts
    full = [1] + counts           # index by half-length
    for m in range(0, 21):
        for n in range(0, 21 - m):
            assert full[m] * full[n] <= full[m + n]


def test_level_return_n1():
    for a, b in [(3, 4), (1, 10), (2, 2)]:
        per_m, total = level_return_count(a, b, 1)
        assert total == a + b
        assert per_m == [a + b]


def test_level_return_n2_golden():
    per_m, total = level_return_count(3, 4, 2)
    assert per_m == [49, 24]
    assert total == 73


def test_level_return_homogeneous_identity():
    for d in (2, 3, 5):
        for n in range(1, 16):
            _, total = level_return_count(d, d, n)
            assert total == math.comb(2 * n, n) * d ** n


def test_good_path_lower_bound():
    # closed walks at a homogeneous root dominate binom(2n,n) d^n / (2n)
    for d in (2, 3):
        for n in range(1, 11):
            count = closed_walk_count(seq(d,), 0, 2 * n)
            assert count * 2 * n >= math.comb(2 * n, n) * d ** n


def test_running_max_monotone_and_bounded():
    table = m0_estimates(seq(3, 4), 10)
    rmax = table.running_max()
    assert rmax == sorted(rmax)
    assert rmax[-1] <= math.sqrt(3) + math.sqrt(4)
    # finite prefixes undershoot, so the reciprocal overshoots lambda_ell
    assert 1.0 / rmax[-1] >= lambda_ell_period2(3, 4)


def test_roots_approach_two_on_the_line():
    table = m0_estimates(seq(1, 1), 20)
    assert all(r < 2.0 for r in table.roots)
    assert table.roots == sorted(table.roots)
    assert table.roots[-1] > 1.85


def test_homogeneous_root_targets_2_sqrt_d():
    table = m0_estimates(seq(4,), 20)
    assert table.roots[-1] < 4.0
    assert table.roots[-1] > 3.5          # slow climb toward 2 sqrt(4) = 4


def test_residue_changes_counts_but_not_growth():
    t0 = m0_estimates(seq(3, 4), 12, root_residue=0)
    t1 = m0_estimates(seq(3, 4), 12, root_residue=1)
    assert t0.counts != t1.counts
    assert t0.roots[-1] == pytest.approx(t1.roots[-1], rel=0.05)


def test_counts_are_exact_integers():
    table = m0_estimates(seq(3, 4), 20)
    assert all(isinstance(c, int) for c in table.counts)
    assert table.counts[-1] > 2 ** 64     # would overflow fixed-width arithmetic


@settings(max_examples=30, deadline=None)
@given(degrees=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       residue=st.integers(0, 5))
def test_dp_matches_enumeration_property(degrees, residue):
    s = seq(*degrees)
    counts = m0_estimates(s, 4, root_residue=residue).counts[:4]
    assert counts == [enumerate_closed_walks(s, residue, two_n) for two_n in (2, 4, 6, 8)]
