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
from functools import lru_cache
from itertools import product
from math import isqrt
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class BoundTooSmall(Exception):
    """A closed-form external solution fell outside the enumeration bound."""


@dataclass(frozen=True, slots=True)
class ExternalPair:
    """A pair of external modes resonantly coupled to the internal set.

    ``internal_witness`` is the ordered tuple of internal modes whose
    Diophantine system produced the pair.  For family E the pair is (s, s).
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


def _solve_sum_sumsq(S: int, Q: int) -> tuple[int, int] | None:
    """Integer (s, t) with s + t = S, s^2 + t^2 = Q, s <= t, or None."""
    disc = 2 * Q - S * S  # (s - t)^2
    if disc < 0:
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


# Exponent vector k of each kind's resonant monomial e^{i k.theta}, over the
# block's witness: negative exponents count factors on the j side of the
# resonance, positive ones on the l side, and one or two external modes fill
# each side to three.  For a zeta_s eta_t pair (A, C, TwoMode) momentum gives
# k.witness = s_role - t_role; B and E pair two eta factors, E at s = t.
RESONANT_EXPONENTS: Mapping[str, tuple[int, ...]] = MappingProxyType({
    "A": (-2, 2),
    "TwoMode": (-2, 2),
    "C": (-2, 1, 1),
    "B": (-2, -1, 1),
    "E": (-2, -1, 1),
})
# 2 j1 + j2 = 2 j3 + l: five internal factors and one external mode l
_ONE_MODE_EXPONENTS = (-2, -1, 2)


def default_bound(internal: Sequence[int]) -> int:
    """The enumeration bound on |s|, |t| when the caller gives none."""
    return 4 * max(abs(m) for m in internal) + 8


@lru_cache(maxsize=2)
def _census(n: int) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]:
    """Every sextic exponent pattern over n internal modes, as rows
    (family, witness indices, net exponent vector over the internal modes).

    Families A, C and B take their exponents from ``RESONANT_EXPONENTS``
    (E shares B's rows: it is their root s = t) and "1" (one external mode)
    from ``_ONE_MODE_EXPONENTS``.  A witness is dropped when internal
    factors cancel, since the system it leaves has only internal or no
    solutions, and so is a C witness with b = c, which is family A's.  Of
    the witnesses with one net vector the first in ``itertools.product``
    order is kept.  Rows come in the order the bound is checked: A over
    ordered pairs, then B/E and C per ordered triple, then the one-mode
    rows.
    """
    rows, seen = [], set()
    cands = [("A", idx) for idx in product(range(n), repeat=2)]
    cands += [(fam, idx) for idx in product(range(n), repeat=3) for fam in "BC"]
    cands += [("1", idx) for idx in product(range(n), repeat=3)]
    for fam, idx in cands:
        k = RESONANT_EXPONENTS.get(fam, _ONE_MODE_EXPONENTS)
        net = [0] * n
        for e, i in zip(k, idx):
            net[i] += e
        key = (fam, tuple(net))
        if (sum(map(abs, net)) < sum(map(abs, k)) or key in seen
                or fam == "C" and idx[1] == idx[2]):
            continue
        seen.add(key)
        rows.append((fam, idx, key[1]))
    return tuple(rows)


def enumerate_sets(internal: Sequence[int], bound: int | None = None) -> ResonanceCatalog:
    """Solve every resonance family of a two- or three-mode internal set.

    Each row of the census fixes k.m and k.m^2, and the family's external
    slots solve
    - A and C (zeta_s eta_t): s - t = k.m, s^2 - t^2 = k.m^2;
    - B (eta_s eta_t): s + t = -k.m, s^2 + t^2 = -k.m^2, and E its root s = t;
    - one-mode: l = -k.m, l^2 = -k.m^2.
    Over two modes only A has solutions, tagged TwoMode.

    ``bound`` caps |s|, |t| (default ``default_bound``); closed-form pair
    solutions beyond it raise BoundTooSmall rather than being dropped
    silently.  One-mode solutions are not capped.  Repeated internal modes
    are refused (ValueError).
    """
    internal = tuple(internal)
    if len(set(internal)) != len(internal):
        raise ValueError("internal modes must be distinct")
    if bound is None:
        bound = default_bound(internal)
    squares = [m * m for m in internal]
    fams: dict[str, list[ExternalPair]] = {"A": [], "B": [], "C": [], "E": []}
    one_mode = []
    for fam, idx, net in _census(len(internal)):
        km = sum(map(mul, net, internal))
        km2 = sum(map(mul, net, squares))
        if fam == "1":
            if km * km == -km2 and -km not in internal:
                one_mode.append((tuple(internal[i] for i in idx), -km))
            continue
        if fam == "B":
            sol = _solve_sum_sumsq(-km, -km2)
        else:
            sol = _solve_diff_diffsq(km, km2) if km else None
        if sol is None or sol[0] in internal or sol[1] in internal:
            continue
        s, t = sol
        witness = tuple(internal[i] for i in idx)
        if abs(s) > bound or abs(t) > bound:
            raise BoundTooSmall(
                f"external pair ({s}, {t}) from witness {witness} exceeds bound {bound}")
        if s == t:
            fam = "E"
        tag = "TwoMode" if fam == "A" and len(internal) == 2 else fam
        fams[fam].append(ExternalPair(*_norm_pair(s, t), internal_witness=witness, set_tag=tag))

    return ResonanceCatalog(
        internal,
        bound,
        set_A=_dedupe(fams["A"]),
        set_B=_dedupe(fams["B"]),
        set_C=_dedupe(fams["C"]),
        set_E=_dedupe(fams["E"]),
        one_mode_solutions=sorted(one_mode),
    )
