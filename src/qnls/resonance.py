"""Arithmetic of sextic resonances on the integer frequency lattice.

Everything in this module is exact integer arithmetic: a resonant tuple is a
pair of index triples sharing the same sum and the same sum of squares, and
the coupled external modes attached to a small internal mode set are obtained
by solving the corresponding linear/quadratic Diophantine systems in closed
form.  No floats appear anywhere here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import isqrt
from typing import Iterable, Sequence


class BoundTooSmall(Exception):
    """A closed-form external solution fell outside the enumeration bound."""


def _canonical_pair(js, ls):
    js = tuple(sorted(js))
    ls = tuple(sorted(ls))
    return (js, ls) if js <= ls else (ls, js)


def enumerate_R(K: int) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """All canonical pairs of triples in [-K, K]^3 with equal sums and equal
    sums of squares.

    Triples are sorted ascending and the pair is ordered lexicographically,
    so each resonance appears exactly once.
    """
    groups: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for trip in combinations_with_replacement(range(-K, K + 1), 3):
        key = (sum(trip), sum(x * x for x in trip))
        groups.setdefault(key, []).append(trip)
    out = []
    for trips in groups.values():
        for i, js in enumerate(trips):
            for ls in trips[i:]:
                out.append((js, ls))
    out.sort()
    return out


@dataclass(frozen=True, slots=True)
class ExternalPair:
    """A pair of external modes resonantly coupled to the internal set.

    ``internal_witness`` is the ordered tuple of internal modes whose
    Diophantine system produced the pair.  For the single-mode family the
    pair is (s, s).
    """

    s: int
    t: int
    internal_witness: tuple[int, ...]
    set_tag: str

    @property
    def modes(self) -> tuple[int, int]:
        return (self.s, self.t)


def _norm_pair(s: int, t: int) -> tuple[int, int]:
    return (s, t) if s <= t else (t, s)


def solve_two_mode_pair(p: int, q: int) -> ExternalPair | None:
    """External pair coupled to a two-mode set {p, q} by the system
    2p + s = 2q + t, 2p^2 + s^2 = 2q^2 + t^2.

    Solvable iff q - p is even; then with n = (q - p) / 2 the unique
    solution is (s, t) = (p + 3n, p - n).  Returns None when unsolvable or
    when the solution collides with the internal modes.
    """
    if (q - p) % 2:
        return None
    n = (q - p) // 2
    s, t = p + 3 * n, p - n
    assert 2 * p + s == 2 * q + t
    assert 2 * p * p + s * s == 2 * q * q + t * t
    if s == t or s in (p, q) or t in (p, q):
        return None
    return ExternalPair(*_norm_pair(s, t), internal_witness=(p, q), set_tag="TwoMode")


def solve_one_mode(j1: int, j2: int, j3: int) -> list[int]:
    """Solve 2 j1 + j2 = 2 j3 + l, 2 j1^2 + j2^2 = 2 j3^2 + l^2 for l.

    The first equation fixes l, so the result has at most one entry; the
    quadratic equation filters, as does coincidence with j1, j2, j3.
    """
    l = 2 * j1 + j2 - 2 * j3
    if 2 * j1 * j1 + j2 * j2 != 2 * j3 * j3 + l * l:
        return []
    if l in (j1, j2, j3):
        return []
    return [l]


def _solve_sum_sumsq(S: int, Q: int) -> tuple[int, int] | None:
    """Integer (s, t) with s + t = S, s^2 + t^2 = Q, s != t, or None."""
    disc = 2 * Q - S * S  # (s - t)^2
    if disc <= 0:
        return None
    r = isqrt(disc)
    if r * r != disc or (S + r) % 2:
        return None
    return ((S - r) // 2, (S + r) // 2)


def _solve_diff_diffsq(D: int, E: int) -> tuple[int, int] | None:
    """Integer (s, t) with s - t = D, s^2 - t^2 = E, or None.  D != 0."""
    if E % D:
        return None
    S = E // D
    if (S + D) % 2:
        return None
    s = (S + D) // 2
    return (s, s - D)


@dataclass(slots=True)
class ResonanceCatalog:
    """External pairs of each sextic resonance family for an internal set."""

    internal: tuple[int, ...]
    bound: int
    set_A: list[ExternalPair] = field(default_factory=list)
    set_B: list[ExternalPair] = field(default_factory=list)
    set_C: list[ExternalPair] = field(default_factory=list)
    set_E: list[ExternalPair] = field(default_factory=list)
    one_mode_solutions: list[tuple[tuple[int, int, int], int]] = field(default_factory=list)

    @property
    def disjoint(self) -> bool:
        """True iff no external mode appears in more than one family."""
        seen: dict[int, str] = {}
        for fam, pairs in (("A", self.set_A), ("B", self.set_B),
                           ("C", self.set_C), ("E", self.set_E)):
            for pair in pairs:
                for m in set(pair.modes):
                    if seen.setdefault(m, fam) != fam:
                        return False
        return True

    def all_pairs(self) -> list[ExternalPair]:
        return [*self.set_A, *self.set_B, *self.set_C, *self.set_E]

    def to_json(self) -> str:
        obj = {
            "internal": list(self.internal),
            "A": [[p.s, p.t] for p in self.set_A],
            "B": [[p.s, p.t] for p in self.set_B],
            "C": [[p.s, p.t] for p in self.set_C],
            "E": [[p.s, p.t] for p in self.set_E],
            "disjoint": self.disjoint,
            "one_mode_solutions": sorted({l for _, l in self.one_mode_solutions}),
        }
        return json.dumps(obj, indent=2, sort_keys=False)


def _dedupe(pairs: Iterable[ExternalPair]) -> list[ExternalPair]:
    out: dict[tuple[int, int], ExternalPair] = {}
    for p in pairs:
        out.setdefault(_norm_pair(p.s, p.t), p)
    return [out[k] for k in sorted(out)]


def _check_bound(s: int, t: int, bound: int, witness) -> None:
    if abs(s) > bound or abs(t) > bound:
        raise BoundTooSmall(
            f"external pair ({s}, {t}) from witness {witness} exceeds bound {bound}"
        )


def enumerate_sets(internal: Sequence[int], bound: int | None = None) -> ResonanceCatalog:
    """Solve the four external-pair families for a two- or three-mode
    internal set.

    Family A: 2 a + s = 2 b + t with matching squares (a, b internal).
    Family B: 2 a + b = c + s + t with matching squares.
    Family C: 2 a + s = b + c + t with matching squares.
    Family E: 2 a + b = c + 2 s with matching squares (degenerate pair (s, s)).

    ``bound`` caps |s|, |t|; closed-form solutions beyond it raise
    BoundTooSmall rather than being dropped silently.
    """
    internal = tuple(internal)
    if bound is None:
        bound = 4 * max(abs(m) for m in internal) + 8
    iset = set(internal)

    def external(*ms):
        return all(m not in iset for m in ms)

    A, B, C, E = [], [], [], []
    for a, b in product(internal, repeat=2):
        if a == b:
            continue
        # 2a + s = 2b + t  =>  s - t = 2(b - a),  s + t = a + b.
        sol = _solve_diff_diffsq(2 * (b - a), 2 * (b * b - a * a))
        if sol is None:
            continue
        s, t = sol
        if s != t and external(s, t):
            _check_bound(s, t, bound, (a, b))
            A.append(ExternalPair(*_norm_pair(s, t), internal_witness=(a, b), set_tag="A"))
    for a, b, c in product(internal, repeat=3):
        # Family B: s + t and s^2 + t^2 are fixed.
        sol = _solve_sum_sumsq(2 * a + b - c, 2 * a * a + b * b - c * c)
        if sol is not None:
            s, t = sol
            if external(s, t):
                _check_bound(s, t, bound, (a, b, c))
                B.append(ExternalPair(*_norm_pair(s, t), internal_witness=(a, b, c), set_tag="B"))
        # Family C: 2a + s = b + c + t, with b != c (b == c is family A).
        D = b + c - 2 * a
        if D != 0 and b != c:
            sol = _solve_diff_diffsq(D, b * b + c * c - 2 * a * a)
            if sol is not None:
                s, t = sol
                if s != t and external(s, t):
                    _check_bound(s, t, bound, (a, b, c))
                    C.append(ExternalPair(*_norm_pair(s, t), internal_witness=(a, b, c), set_tag="C"))
        # Family E: 2a + b = c + 2s.
        num = 2 * a + b - c
        if num % 2 == 0:
            s = num // 2
            if 2 * a * a + b * b == c * c + 2 * s * s and external(s):
                _check_bound(s, s, bound, (a, b, c))
                E.append(ExternalPair(s, s, internal_witness=(a, b, c), set_tag="E"))

    one_mode = []
    for j1, j2, j3 in product(internal, repeat=3):
        for l in solve_one_mode(j1, j2, j3):
            if external(l):
                one_mode.append(((j1, j2, j3), l))

    if len(internal) == 2:
        p, q = internal
        pair = solve_two_mode_pair(p, q)
        cat = ResonanceCatalog(internal, bound)
        if pair is not None:
            _check_bound(pair.s, pair.t, bound, (p, q))
            cat.set_A = [pair]
        cat.one_mode_solutions = sorted(one_mode)
        return cat

    return ResonanceCatalog(
        internal,
        bound,
        set_A=_dedupe(A),
        set_B=_dedupe(B),
        set_C=_dedupe(C),
        set_E=_dedupe(E),
        one_mode_solutions=sorted(one_mode),
    )


def b_witnesses(internal: Sequence[int], pair: ExternalPair) -> list[tuple[int, int, int]]:
    """All ordered internal triples (a, b, c) solving the family-B system
    for the given external pair."""
    s, t = pair.s, pair.t
    out = []
    for a, b, c in product(tuple(internal), repeat=3):
        if 2 * a + b == c + s + t and 2 * a * a + b * b == c * c + s * s + t * t:
            out.append((a, b, c))
    return out


@dataclass(frozen=True)
class FamilyParams:
    p: int
    k: int
    n: int
    r: int


@dataclass(frozen=True)
class Quintuple:
    """A five-mode configuration (p, p, q; m, s, t) satisfying
    2p + q = m + s + t and 2p^2 + q^2 = m^2 + s^2 + t^2."""

    p: int
    q: int
    m: int
    s: int
    t: int
    degenerate: bool

    def modes(self) -> tuple[int, int, int, int, int]:
        return (self.p, self.q, self.m, self.s, self.t)


def appendix_family(params: FamilyParams) -> Quintuple:
    """The polynomial family of resonant quintuples

        q = p + k (n^2 - n r + r^2),  m = p + k n r,
        s = p + k (r^2 - n r),        t = p + k (n^2 - n r),

    which satisfies both constraints identically.  Quintuples with repeated
    modes are returned flagged as degenerate, not raised.
    """
    p, k, n, r = params.p, params.k, params.n, params.r
    q = p + k * (n * n - n * r + r * r)
    m = p + k * n * r
    s = p + k * (r * r - n * r)
    t = p + k * (n * n - n * r)
    assert 2 * p + q == m + s + t
    assert 2 * p * p + q * q == m * m + s * s + t * t
    vals = (p, q, m, s, t)
    return Quintuple(p, q, m, s, t, degenerate=len(set(vals)) < 5)


def family_covers(quint: Quintuple, search_bound: int = 64) -> FamilyParams | None:
    """Search parameters reproducing a quintuple, treating (m, s, t) as an
    unordered multiset.  Raises ValueError if the quintuple violates its
    defining constraints."""
    p, q, m, s, t = quint.modes()
    if 2 * p + q != m + s + t or 2 * p * p + q * q != m * m + s * s + t * t:
        raise ValueError(f"not a resonant quintuple: {quint}")
    want = sorted((m, s, t))
    hits = []
    for n in range(-search_bound, search_bound + 1):
        for r in range(-search_bound, search_bound + 1):
            g = n * n - n * r + r * r
            if g == 0 or (q - p) % g:
                continue
            k = (q - p) // g
            if k == 0 or abs(k) > search_bound:
                continue
            cand = appendix_family(FamilyParams(p, k, n, r))
            if sorted((cand.m, cand.s, cand.t)) == want:
                hits.append(FamilyParams(p, k, n, r))
    return min(hits, key=lambda f: (abs(f.k), abs(f.n), abs(f.r), f.k, f.n, f.r)) if hits else None
