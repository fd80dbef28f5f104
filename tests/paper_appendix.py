"""The source paper's appendix identities, stated as code for the tests.

None of this is a step of the stability pipeline (resonance catalog,
effective-Hamiltonian blocks, A0-A2, split-step check); each name checks a
worked example of the appendix against that pipeline:
- ``enumerate_R``: the brute-force resonance set R of pairs of triples;
- ``b_witnesses``: every internal triple solving a family-B system;
- ``appendix_family`` / ``family_covers``: the four-parameter family of
  resonant quintuples and its inverse search;
- ``conservation_filter``: the mass and momentum laws of one monomial;
- ``exact_linear_solve``: Gaussian elimination over Q for the literal
  set-B and set-A* linear systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Sequence

from qnls.resonance import ExternalPair


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


def conservation_filter(internal: Sequence[int], k: Sequence[int],
                        modes: Sequence[int], signs: Sequence[int]) -> bool:
    """Admissibility of the monomial e^{i k.theta} * prod(factors).

    ``signs``: +1 for a conjugated external factor (the eta side, as in the
    worked mass identity k1 + k2 + 1 = 0 for a single eta_j), -1 otherwise.
    Admissible iff sum(k) + sum(signs) = 0 and
    sum(internal_i * k_i) + sum(sign * mode) = 0.
    """
    if sum(k) + sum(signs) != 0:
        return False
    if sum(m * ki for m, ki in zip(internal, k)) + sum(
            s * j for s, j in zip(signs, modes)) != 0:
        return False
    return True


@dataclass
class LinearSolveResult:
    status: str  # "unique" | "none" | "underdetermined"
    solution: tuple[Fraction, ...] | None = None
    integer: bool = False
    certificate: str = ""


def exact_linear_solve(system: Sequence[tuple[Sequence[int], int]]) -> LinearSolveResult:
    """Solve rows (coeffs, offset) meaning coeffs . k + offset = 0 over the
    rationals by Gaussian elimination; reports integer solvability exactly."""
    rows = [[Fraction(c) for c in coeffs] + [Fraction(off)] for coeffs, off in system]
    n = len(rows[0]) - 1
    mat = [row[:] for row in rows]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
        if r == len(mat):
            break
    for i in range(r, len(mat)):
        if mat[i][n] != 0:
            return LinearSolveResult("none", certificate="inconsistent rows")
    if r < n:
        return LinearSolveResult("underdetermined",
                                 certificate=f"rank {r} < {n}: solution lattice")
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = -mat[i][n]
    integral = all(x.denominator == 1 for x in sol)
    cert = "" if integral else "non-integer components: " + ", ".join(
        f"k{i+1} = {x}" for i, x in enumerate(sol) if x.denominator != 1)
    return LinearSolveResult("unique", tuple(sol), integral, cert)


SETB_REFERENCE_SYSTEM = (((1, 1, 1), 2), ((-3, 10, -6), 2), ((9, 100, 36), 2))
SETA_STAR_SYSTEM = (((1, 1, 1), 1), ((-3, 10, -6), 2), ((9, 100, 36), 4))
