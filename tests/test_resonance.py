"""Exact resonance enumeration tests."""

import hashlib
import json
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import resonance as rs

import paper_appendix as pa


# ---------------------------------------------------------------------------
# brute-force oracles

def brute_pair_sum_sumsq(S, Q, limit=200):
    out = set()
    for s in range(-limit, limit + 1):
        t = S - s
        if s <= t and s * s + t * t == Q:
            out.add((s, t))
    return out


def brute_two_mode_pair(p, q, limit=300):
    """The external pairs (s <= t) of the two-mode torus {p, q}: direct search
    of (p, p, s) ~ (q, q, t) over |s|, |t| <= limit, s != t, both external."""
    grid = np.arange(-limit, limit + 1)
    s, t = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    mask = ((s != t) & ~np.isin(s, (p, q)) & ~np.isin(t, (p, q))
            & (2 * p + s == 2 * q + t) & (2 * p * p + s * s == 2 * q * q + t * t))
    return set(zip(np.minimum(s, t)[mask].tolist(), np.maximum(s, t)[mask].tolist()))


def test_enumerate_R_small():
    pairs = pa.enumerate_R(3)
    assert pairs == sorted(pairs) and len(pairs) == len(set(pairs))
    for js, ls in pairs:
        assert sum(js) == sum(ls)
        assert sum(x * x for x in js) == sum(x * x for x in ls)
        assert tuple(sorted(js)) == js and tuple(sorted(ls)) == ls
    # a known nontrivial resonance: (-2,1,1) ~ (-1,-1,2)
    assert ((-2, 1, 1), (-1, -1, 2)) in pairs


def test_flagship_catalog():
    cat = rs.enumerate_sets((-3, 10, -6))
    assert [(p.s, p.t) for p in cat.set_A] == [(-14, 18)]
    assert [(p.s, p.t) for p in cat.set_B] == [(1, 9)]
    assert cat.set_C == [] and cat.set_E == []
    assert cat.disjoint
    assert cat.one_mode_solutions == []


def test_flagship_witnesses():
    cat = rs.enumerate_sets((-3, 10, -6))
    (pair,) = cat.set_B
    wits = pa.b_witnesses((-3, 10, -6), pair)
    assert (-3, 10, -6) in wits
    for a, b, c in wits:
        assert 2 * a + b == c + pair.s + pair.t
        assert 2 * a * a + b * b == c * c + pair.s**2 + pair.t**2


def _two_mode_pair(p, q):
    """The single coupled pair of the two-mode torus {p, q}, or None."""
    pairs = rs.enumerate_sets((p, q)).set_A
    assert len(pairs) <= 1
    return pairs[0] if pairs else None


def test_two_mode_pairs():
    assert _two_mode_pair(0, 1) is None  # odd gap
    pair = _two_mode_pair(0, 2)
    assert (pair.s, pair.t) == (-1, 3)
    assert pair.set_tag == "TwoMode"
    assert pair.internal_witness == (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(-15, 15), st.integers(1, 8))
def test_two_mode_matches_brute_force(p, half_gap):
    q = p + 2 * half_gap
    pair = _two_mode_pair(p, q)
    brute = brute_two_mode_pair(p, q)
    if pair is None:
        assert brute == set()
    else:
        assert {tuple(sorted((pair.s, pair.t)))} == brute


@settings(max_examples=40, deadline=None)
@given(st.integers(-15, 15), st.integers(0, 7))
def test_odd_gap_never_pairs(p, k):
    assert _two_mode_pair(p, p + 2 * k + 1) is None


def brute_families(internal, limit):
    """Each family's external pairs (s <= t), and the one-mode solutions,
    by direct search of the defining systems over |s|, |t| <= limit and all
    ordered internal witnesses."""
    grid = np.arange(-limit, limit + 1)
    s, t = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    ok = ~np.isin(s, internal) & ~np.isin(t, internal)
    hits = {fam: set() for fam in "ABCE"}

    def add(fam, mask):
        mask &= ok
        hits[fam].update(zip(np.minimum(s, t)[mask].tolist(), np.maximum(s, t)[mask].tolist()))

    for a, b in product(internal, repeat=2):
        if a != b:
            add("A", (2 * a + s == 2 * b + t) & (2 * a * a + s * s == 2 * b * b + t * t)
                & (s != t))
    one_mode = []
    for a, b, c in product(internal, repeat=3):
        add("B", (2 * a + b == c + s + t) & (2 * a * a + b * b == c * c + s * s + t * t)
            & (s != t))
        if b != c:
            add("C", (2 * a + s == b + c + t) & (2 * a * a + s * s == b * b + c * c + t * t)
                & (s != t))
        add("E", (2 * a + b == c + 2 * s) & (2 * a * a + b * b == c * c + 2 * s * s) & (s == t))
        one_mode += [((a, b, c), int(l)) for l in grid
                     if 2 * a + b == 2 * c + l and 2 * a * a + b * b == 2 * c * c + l * l
                     and l not in internal]
    return hits, sorted(one_mode)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-15, 15), min_size=3, max_size=3, unique=True))
def test_three_mode_families_match_brute_force(internal):
    internal = tuple(internal)
    bound = 4 * max(abs(m) for m in internal) + 8
    try:
        cat = rs.enumerate_sets(internal)
    except rs.BoundTooSmall:
        # some family has a solution beyond the bound
        hits, _ = brute_families(internal, 4 * bound)
        assert any(max(abs(x) for x in pair) > bound
                   for pairs in hits.values() for pair in pairs)
        return
    hits, one_mode = brute_families(internal, bound)
    fams = {"A": cat.set_A, "B": cat.set_B, "C": cat.set_C, "E": cat.set_E}
    for fam, pairs in fams.items():
        assert [(p.s, p.t) for p in pairs] == sorted(hits[fam]), fam
        for p in pairs:
            assert p.set_tag == fam
            # the witness solves the family's system, with s and t in some order
            w = p.internal_witness
            sides = {"A": lambda s, t: ((w[0], w[0], s), (w[1], w[1], t)),
                     "C": lambda s, t: ((w[0], w[0], s), (w[1], w[2], t))}.get(
                fam, lambda s, t: ((w[0], w[0], w[1]), (w[2], s, t)))
            assert any(sum(lhs) == sum(rhs)
                       and sum(x * x for x in lhs) == sum(x * x for x in rhs)
                       for lhs, rhs in (sides(p.s, p.t), sides(p.t, p.s)))
    assert cat.one_mode_solutions == one_mode


def test_catalog_json_key_order():
    cat = rs.enumerate_sets((-3, 10, -6))
    keys = list(json.loads(cat.to_json()).keys())
    assert keys == ["internal", "A", "B", "C", "E", "disjoint",
                    "one_mode_solutions"]


def test_bound_too_small():
    with pytest.raises(rs.BoundTooSmall):
        rs.enumerate_sets((-3, 10, -6), bound=10)


def test_default_bound():
    cat = rs.enumerate_sets((-3, 10, -6))
    assert cat.bound == 4 * 10 + 8


def test_family_identities():
    quint = pa.appendix_family(pa.FamilyParams(-3, 1, 4, 1))
    assert (quint.p, quint.q, quint.m, quint.s, quint.t) == (-3, 10, 1, -6, 9)


@settings(max_examples=100, deadline=None)
@given(st.integers(-20, 20), st.integers(-6, 6).filter(bool),
       st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool))
def test_family_identities_random(p, k, n, r):
    q = pa.appendix_family(pa.FamilyParams(p, k, n, r))
    # both defining identities of the (p, p, q; m, s, t) configuration
    assert 2 * q.p + q.q == q.m + q.s + q.t
    assert 2 * q.p**2 + q.q**2 == q.m**2 + q.s**2 + q.t**2


def test_family_covers_round_trip():
    params = pa.FamilyParams(-3, 1, 4, 1)
    quint = pa.appendix_family(params)
    found = pa.family_covers(quint)
    assert found is not None
    again = pa.appendix_family(found)
    # round trip up to permutation of the unordered (m, s, t) side
    assert (again.p, again.q) == (quint.p, quint.q)
    assert sorted((again.m, again.s, again.t)) == sorted(
        (quint.m, quint.s, quint.t))


def test_one_mode_solutions_two_mode():
    cat = rs.enumerate_sets((0, 2))
    assert [(p.s, p.t) for p in cat.set_A] == [(-1, 3)]
    assert cat.one_mode_solutions == []


def _catalog_digest():
    """sha256 over the catalog of every sorted 2- and 3-mode set with
    |m| <= 15 at the default bound, and of every set with |m| <= 5 at each
    bound 0..28, plus the number of default-bound sets refused."""
    cases = [(internal, None) for n in (2, 3)
             for internal in combinations(range(-15, 16), n)]
    cases += [(internal, bound) for n in (2, 3)
              for internal in combinations(range(-5, 6), n) for bound in range(29)]
    h = hashlib.sha256()
    refused = 0
    for internal, bound in cases:
        h.update(f"{internal}|{bound}\n".encode())
        try:
            cat = rs.enumerate_sets(internal, bound=bound)
        except rs.BoundTooSmall as exc:
            h.update(f"BoundTooSmall: {exc}\n".encode())
            refused += bound is None
            continue
        h.update(cat.to_json().encode())
        for pairs in (cat.set_A, cat.set_B, cat.set_C, cat.set_E):
            h.update(repr([(p.s, p.t, p.internal_witness, p.set_tag) for p in pairs]).encode())
        h.update(repr((cat.one_mode_solutions, cat.bound)).encode())
    return h.hexdigest(), refused


# recorded with the hand-written per-family solvers, before the census
# replaced them
CATALOG_SHA256 = "4338fe9506304f875f052ef30453404f4cf45aa8c3146f0ed78b0301f88efc86"


def test_catalog_golden():
    digest, refused = _catalog_digest()
    assert refused == 160
    assert digest == CATALOG_SHA256
