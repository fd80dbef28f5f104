"""Nonresonance (small-divisor) verification over parameter grids.

The divisors Omega(rho).k + Lambda_a +- Lambda_b split into an exact integer
part (squares of mode numbers) and an O(nu^2) quadratic form in rho.  The
forms, the block roles and each block's resonant monomial are read from
``normal_form``, so the divisors use the Omega and Lambda that classify the
torus.  All admissibility decisions (the mass and momentum laws that fix
each family's external modes, and the integer parts) are exact integer
arithmetic; grids and transversality estimates only enter when the integer
part vanishes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .normal_form import (EffectiveHamiltonian, TorusSpec, coupling_count, pairs, shift_forms,
                          twice_gap_form)
from .resonance import default_bound

LOWER_BOUNDED = "LowerBounded"
TRANSVERSAL = "Transversal"
VIOLATED = "Violated"
FILTERED = "FilteredByConservation"

OMEGA_K = "OmegaK"
OMEGA_K_PLUS_LAMBDA = "OmegaKPlusLambda"
OMEGA_K_PLUS_PLUS = "OmegaKPlusLambdaPlusLambda"
OMEGA_K_PLUS_MINUS = "OmegaKPlusLambdaMinusLambda"


@dataclass(frozen=True)
class DivisorExpression:
    kind: str
    k: tuple[int, ...]
    modes: tuple[int, ...] = ()
    block: str | None = None  # label when Lambda entries come from a coupled block


VERDICTS = (FILTERED, LOWER_BOUNDED, TRANSVERSAL, VIOLATED)
INTERVAL = "interval certificate"
_CHUNK_ROWS = 1 << 13  # A2 rows per step of the writer and of open_rows; ~1 MB of text
_GRID_CELLS = 1 << 16  # divisor values per stacked grid pass; 512 KB


@dataclass
class HypothesisReport:
    """A2 verdicts over a DivisorTable: ``codes`` indexes VERDICTS per row,
    ``witnesses`` holds the witness of every row the interval certificate
    left open (the others have None when filtered, else the certificate)."""

    delta: float
    k_max: int
    table: DivisorTable
    codes: np.ndarray
    witnesses: dict[int, object]
    tail_note: str = ""

    def counts(self) -> dict[str, int]:
        """Verdict counts, keyed in order of first appearance."""
        codes, first, counts = np.unique(self.codes, return_index=True, return_counts=True)
        return {VERDICTS[codes[o]]: int(counts[o]) for o in np.argsort(first)}

    def violated(self) -> list:
        return [(self.table.expression(i), w) for i, w in self.witnesses.items()
                if VERDICTS[self.codes[i]] == VIOLATED]

    def json_lines(self) -> Iterator[str]:
        """One JSON object per row, each line ending in "\\n", ``_CHUNK_ROWS``
        lines at a time, so the whole text is never held at once; an empty
        table gives "\\n".

        Line r is three pieces gathered from text tables built once per call:
        '{"kind": K, "k": [a, b, ' by kind and all k components but the last,
        'c], "modes": [j, ' by the last and a two-mode list's first mode, and
        'l], "block": B, "verdict": V, "witness": W}' by last mode, block and
        verdict (index -1: no mode, block null); a judged row's holds its own
        witness.  A chunk is joined once: no array but the table's spans all rows."""
        t = self.table
        if not len(t):
            yield "\n"
            return
        n = t.lattice.shape[1]
        judged = np.array(sorted(self.witnesses), dtype=np.int64)
        k_lo, k_num = _numerals(t.lattice)
        m_lo, m_num = _numerals(t.modes)
        two_lo, two_num = _numerals(t.modes[:, 0][(t.fam_n_modes == 2)[t.family]])
        heads = (_texts('{"kind": %s, "k": [' % json.dumps(kind) for kind in KINDS)[:, None]
                 + _texts("".join(p) for p in itertools.product(
                     [v + ", " for v in k_num], repeat=n - 1)))
        opens = (_texts(v + '], "modes": [' for v in k_num)[:, None]
                 + _texts([v + ", " for v in two_num] + [""]))
        marks = _texts([v + "]" for v in m_num] + ["]"])
        tails = _texts([', "block": %s, "verdict": %s, "witness": ' % (b, json.dumps(v))
                        for v in VERDICTS]
                       for b in [json.dumps(label) for label in t.labels] + ["null"])
        plain = marks[:, None, None] + (tails + _texts(
            json.dumps(INTERVAL if v == LOWER_BOUNDED else None) + "}\n" for v in VERDICTS))
        # per lattice point, its column of heads and its row of opens
        k = t.lattice - k_lo
        k_head = np.ravel_multi_index(tuple(k[:, :-1].T), (len(k_num),) * (n - 1))
        k_last = k[:, -1]

        buf = np.empty((min(_CHUNK_ROWS, len(t)), 3), dtype=object)
        for a in range(0, len(t), _CHUNK_ROWS):
            rows = buf[:min(_CHUNK_ROWS, len(t) - a)]
            b = a + len(rows)
            fam, lat, codes = t.family[a:b], t.lat[a:b], self.codes[a:b]
            size, block = t.fam_n_modes[fam], t.fam_block[fam]
            m0, m1 = (t.modes[a:b] - m_lo).T
            two = size == 2
            first = np.where(two, t.modes[a:b, 0] - two_lo, -1)
            last = np.where(two, m1, np.where(size == 1, m0, -1))
            rows[:, 0] = heads[t.fam_kind[fam], k_head[lat]]
            rows[:, 1] = opens[k_last[lat], first]
            rows[:, 2] = plain[last, block, codes]
            w0, w1 = np.searchsorted(judged, (a, b))
            for r in judged[w0:w1].tolist():
                i = r - a
                rows[i, 2] = (marks[last[i]] + tails[block[i], codes[i]]
                              + json.dumps(self.witnesses[r]) + "}\n")
            yield "".join(rows.ravel().tolist())

    def summary(self) -> dict:
        return {
            "delta": self.delta,
            "k_max": self.k_max,
            "counts": self.counts(),
            "tail": self.tail_note,
        }


# ---------------------------------------------------------------------------
# rho-forms (the nu^-2 parts of all divisor expressions): coefficient
# vectors over ``normal_form.pairs``, taken from ``shift_forms`` and
# ``twice_gap_form``

def _enclose(coefs: np.ndarray,
             box: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Interval enclosure (lo, hi) over a positive box of the forms whose
    coefficient vectors are stacked along the last axis of ``coefs``, term
    by term: c rho_i rho_j lies between c times the products of the pair's
    lower and of its upper edges.  Terms are added in ``pairs`` order."""
    lo, hi = np.zeros((2, *coefs.shape[:-1]))
    for c, (i, j) in zip(coefs.T, pairs(len(box))):
        small = box[i][0] * box[j][0]
        big = box[i][1] * box[j][1]
        lo += np.where(c > 0, c * small, c * big)
        hi += np.where(c > 0, c * big, c * small)
    return lo, hi


# ---------------------------------------------------------------------------
# exact conic search (the paper-appendixA-setA preset of qnls hypotheses)

class EmptyRange(Exception):
    pass


@dataclass(frozen=True)
class ConicSystem:
    """Mass + momentum + energy lattice system with a free external mode j
    entering the momentum row linearly and the energy row as -j^2."""

    mass_offset: int
    momentum_coeffs: tuple[int, int, int]
    momentum_offset: int
    energy_coeffs: tuple[int, int, int]
    energy_offset: int


def setA_conic_system() -> ConicSystem:
    """Extremal-search conic system (mass 0, offsets +2 / +4)."""
    return ConicSystem(0, (-3, 10, -6), 2, (9, 100, 36), 4)


def _isqrt_exact(d: int) -> int | None:
    if d < 0:
        return None
    r = math.isqrt(d)
    return r if r * r == d else None


def conic_search(system: ConicSystem, param_range: int) -> list[tuple[tuple[int, int, int], int]]:
    """All integer solutions (k, j) with |k2| <= param_range, sorted by |k|.

    k1 is eliminated by the mass equation and j by the momentum equation;
    the energy equation becomes one quadratic Diophantine equation per k2,
    solved by an exact perfect-square discriminant test.  k = 0 is filtered.
    """
    if param_range <= 0:
        raise EmptyRange(f"param_range must be positive, got {param_range}")
    m1, m2, m3 = system.momentum_coeffs
    e1, e2, e3 = system.energy_coeffs
    out = []
    for k2 in range(-param_range, param_range + 1):
        # k1 = -k2 - k3 - mass_offset; j = momentum row evaluated there.
        # j(k3) = c0 + c1*k3, energy(k3) = d0 + d1*k3 (before the j^2 term)
        c0 = m1 * (-k2 - system.mass_offset) + m2 * k2 + system.momentum_offset
        c1 = m3 - m1
        d0 = e1 * (-k2 - system.mass_offset) + e2 * k2 + system.energy_offset
        d1 = e3 - e1
        # d0 + d1 k3 - (c0 + c1 k3)^2 = 0
        A = -c1 * c1
        B = d1 - 2 * c0 * c1
        C = d0 - c0 * c0
        roots: list[int] = []
        if A == 0 and B == 0:
            continue  # either no solution or a degenerate full line; skip
        if A == 0:
            if C % B == 0:
                roots.append(-C // B)
        else:
            disc = B * B - 4 * A * C
            r = _isqrt_exact(disc)
            if r is None:
                continue
            for sgn in ((r,) if r == 0 else (r, -r)):
                num = -B + sgn
                if num % (2 * A) == 0:
                    roots.append(num // (2 * A))
        for k3 in roots:
            k1 = -k2 - k3 - system.mass_offset
            j = c0 + c1 * k3
            k = (k1, k2, k3)
            if k == (0, 0, 0):
                continue
            # substitution check of all three original equations
            assert k1 + k2 + k3 + system.mass_offset == 0
            assert m1 * k1 + m2 * k2 + m3 * k3 + system.momentum_offset - j == 0
            assert e1 * k1 + e2 * k2 + e3 * k3 + system.energy_offset - j * j == 0
            out.append((k, j))
    out = sorted(set(out), key=lambda kj: (sum(x * x for x in kj[0]), kj[0]))
    return out


# ---------------------------------------------------------------------------
# Hypotheses A0 / A1

@dataclass
class A0Result:
    passed: bool
    supremum: float
    bound: float


def _domain_grid(spec: TorusSpec, resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) if hi > lo else np.array([lo])
            for lo, hi in spec.domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _a0_bound(spec: TorusSpec) -> float:
    """A0's C = nu^2 * max over the domain of the external shift lambda.

    The maximum is the enclosure's upper end: every coefficient of the
    lambda form is nonnegative, so on the positive box it is lambda at the
    box's upper corner, exactly.  ValueError when it overflows a float."""
    _, hi = _enclose(np.array(shift_forms(len(spec.internal))[-1], dtype=float), spec.domain)
    bound = spec.nu2 * float(hi)
    if not math.isfinite(bound):
        raise ValueError("rho too large: A0's bound overflows a float")
    return bound


def check_A0(eff: EffectiveHamiltonian) -> A0Result:
    """Sup of |Lambda - (matched mode)^2| against C = ``_a0_bound``.

    Scalar shifts are identical for every mode; pair-creation blocks
    contribute the real parts of their closed-form spectrum
    (``SpectralBlock.eigenvalues``), matched against the nearest block-mode
    square: m -+ sqrt(a^2 - C^2) for an elliptic block and the half sum
    m = (Lambda_s + Lambda_t)/2 for a hyperbolic one.  Energy-conserving
    couplings live in the perturbation, not the normal form, so their modes
    enter as scalars.
    """
    spec = eff.spec
    bound = _a0_bound(spec)
    sup = spec.lambda_shift
    for blk in eff.blocks:
        if blk.kind != "B":
            continue
        refs = [m * m for m in blk.modes]
        for lam in blk.eigenvalues:
            sup = max(sup, min(abs(lam.real - w) for w in refs))
    return A0Result(sup <= bound + 1e-12 * max(1.0, bound), sup, bound)


@dataclass
class A1Verdict:
    name: str
    passed: bool
    margin: float


_A1_MODE_CUTOFF = 40


def _delta(spec: TorusSpec, delta: float | None) -> float:
    """The separation threshold of A1, A2 and ``measure_scan``: ``delta``,
    or nu^2 when it is None.  A NaN or infinite delta is refused."""
    if delta is None:
        return spec.nu2
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    return delta


def check_A1(eff: EffectiveHamiltonian, delta: float | None = None) -> list[A1Verdict]:
    """The four separation inequalities over scalar and block eigenvalues.

    Scalars cluster by |j| (their shifts are identical, so Lambda_j =
    Lambda_{-j} exactly); an elliptic block's eigenvalues, the closed forms
    of ``SpectralBlock.eigenvalues``, cluster with the mode whose square
    they perturb, and a hyperbolic block enters with its exact rate
    ``max_im``, which is also its spectrum's imaginary part.  Beyond
    ``_A1_MODE_CUTOFF`` the gap |a^2 - b^2| - 2C grows without bound,
    certifying the tail from A0.
    """
    spec = eff.spec
    delta = _delta(spec, delta)

    elliptic: list[tuple[float, int]] = []  # (Lambda, cluster key)
    hyperbolic_im: list[float] = []
    for j, lam in eff.scalar_lambdas.items():
        if abs(j) <= _A1_MODE_CUTOFF:
            elliptic.append((lam, abs(j)))
    for blk in eff.blocks:
        if blk.hyperbolic:
            hyperbolic_im.append(blk.max_im)
            continue
        for lam in blk.eigenvalues:
            key = min((abs(m) for m in blk.modes), key=lambda a: abs(lam.real - a * a))
            elliptic.append((lam.real, key))

    def least(name, values):
        """The clause min(values) >= delta, vacuous when there are none."""
        m = min(values, default=None)
        if m is None:
            return A1Verdict(f"{name} (vacuous)", True, math.inf)
        return A1Verdict(name, m >= delta, m - delta)

    cross = least("abs(Lambda_a - Lambda_b) across clusters (tail certified by A0)",
                  (abs(la - lb) for la, ka in elliptic for lb, kb in elliptic if ka < kb))
    # the tail beyond the cutoff holds whether or not any cluster pair is left
    cross.passed &= (_A1_MODE_CUTOFF + 1)**2 - _A1_MODE_CUTOFF**2 - 2 * _a0_bound(spec) > delta
    sums = [abs(la + lb) for i, (la, _) in enumerate(elliptic) for lb, _ in elliptic[i:]]
    return [least("abs(Lambda) for elliptic modes", [abs(l) for l, _ in elliptic]),
            least("abs(Im Lambda) for hyperbolic modes", hyperbolic_im),
            cross, least("abs(Lambda_a + Lambda_b)", sums)]


# ---------------------------------------------------------------------------
# Hypothesis A2

KINDS = (OMEGA_K, OMEGA_K_PLUS_LAMBDA, OMEGA_K_PLUS_PLUS, OMEGA_K_PLUS_MINUS)


def _numerals(values: np.ndarray) -> tuple[int, list[str]]:
    """min(values, 0) and the text of each integer up to max(values, 0)."""
    lo = int(values.min(initial=0))
    return lo, [str(v) for v in range(lo, int(values.max(initial=0)) + 1)]


def _texts(strings) -> np.ndarray:
    return np.array(list(strings), dtype=object)


@dataclass
class DivisorTable:
    """Every A2 divisor expression as one row of parallel arrays.

    Row r is Omega.k + (Lambda terms) with k = lattice[lat[r]], exact
    integer part int_part[r] and external modes modes[r].  Rows are emitted
    in families (one divisor family of one block or of the scalar shifts);
    what a family fixes is stored once per family and reached through
    family[r]: the kind, mode count and block, a uniform pad for block
    eigenvalue terms the form does not capture, whether its rows are
    filtered, and the Lambda part of the nu^-2 quadratic form in rho.  The
    form's coefficients over ``pairs`` are omega_coef weighted by k plus
    that Lambda part; filtered rows carry no form.
    """

    lattice: np.ndarray  # (L, n) every nonzero k with |k|_inf <= k_max
    lat: np.ndarray  # row -> lattice index
    family: np.ndarray  # row -> family index
    modes: np.ndarray  # (rows, 2); the first n_modes entries are used
    int_part: np.ndarray
    labels: tuple[str, ...]
    omega_coef: np.ndarray  # (n, coefficients) Omega form of each k_i
    fam_kind: np.ndarray  # family -> index into KINDS
    fam_n_modes: np.ndarray
    fam_block: np.ndarray  # family -> index into labels, -1 for scalar families
    fam_pad: np.ndarray
    fam_filtered: np.ndarray
    fam_coef: np.ndarray  # (families, coefficients) Lambda part of the form

    def __len__(self) -> int:
        return len(self.lat)

    @property
    def filtered(self) -> np.ndarray:
        return self.fam_filtered[self.family]

    def expression(self, r: int) -> DivisorExpression:
        f = self.family[r]
        block = self.fam_block[f]
        return DivisorExpression(KINDS[self.fam_kind[f]], tuple(self.lattice[self.lat[r]].tolist()),
                                 tuple(self.modes[r, :self.fam_n_modes[f]].tolist()),
                                 self.labels[block] if block >= 0 else None)

    def forms(self, rows: np.ndarray) -> np.ndarray:
        """The forms Q of ``rows``, stacked (rows, n, n)."""
        n = self.lattice.shape[1]
        Q = np.empty((len(rows), n, n))
        for c, (i, j) in zip(self.coefs(rows).T, pairs(n)):
            Q[:, i, j] = Q[:, j, i] = c if i == j else c / 2
        return Q

    def divisors(self, spec: TorusSpec, rows: np.ndarray, grid: np.ndarray) -> Iterator[tuple]:
        """(rows, forms, divisors) per batch of ``rows``: each row's divisor
        int_part + nu^2 rho.Q.rho at every grid point, from one stacked pass
        per batch of at most ``_GRID_CELLS`` values."""
        size = max(1, _GRID_CELLS // len(grid))
        for a in range(0, len(rows), size):
            batch = rows[a:a + size]
            Q = self.forms(batch)
            yield batch, Q, self.int_part[batch, None] + spec.nu2 * _quads(Q, grid)

    def coefs(self, rows: np.ndarray) -> np.ndarray:
        """The form coefficients of ``rows`` over ``pairs``; 0 for a filtered row."""
        family = self.family[rows]
        # integral Omega coefficients: the product is exact in any order
        coef = self.lattice[self.lat[rows]] @ self.omega_coef + self.fam_coef[family]
        coef[self.fam_filtered[family]] = 0.0
        return coef

    def bounds(self, spec: TorusSpec, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interval enclosure over the rho domain of the divisors of ``rows``:
        the integer part, nu^2 times ``_enclose`` of the form, and the pad."""
        lo, hi = _enclose(self.coefs(rows), spec.domain)
        int_part, pad, nu2 = self.int_part[rows], self.fam_pad[self.family[rows]], spec.nu2
        return int_part + nu2 * lo - pad, int_part + nu2 * hi + pad

    def reach(self, spec: TorusSpec) -> np.ndarray:
        """Per family, how far ``bounds`` can put a row's enclosure from its
        integer part: nu^2 (max over the lattice of sum_p |(k.omega_coef)_p|
        big_p, plus sum_p |fam_coef_p| big_p) + pad, with big_p the product of
        the upper edges of pair p.  On a positive box every term of the
        enclosure, c * small_p or c * big_p, is at most |c| big_p in size.
        ValueError when some big_p overflows a float."""
        big = np.array([spec.domain[i][1] * spec.domain[j][1]
                        for i, j in pairs(len(spec.domain))])
        if not np.isfinite(big).all():
            raise ValueError("rho too large: A2's enclosure overflows a float")
        k_reach = 0.0
        for a in range(0, len(self.lattice), _CHUNK_ROWS):
            kC = self.lattice[a:a + _CHUNK_ROWS] @ self.omega_coef
            k_reach = max(k_reach, np.max(np.abs(kC, out=kC) @ big))
        return spec.nu2 * (k_reach + np.abs(self.fam_coef) @ big) + self.fam_pad

    def open_rows(self, spec: TorusSpec, delta: float, strict: bool = False) -> np.ndarray:
        """Ascending indices of the unfiltered rows the interval certificate
        leaves open: those with neither lo >= delta nor hi <= -delta, or, if
        ``strict``, neither lo > delta nor hi < -delta.

        The integer part closes most rows alone: when |int_part| - reach
        exceeds delta, the enclosure lies beyond delta on int_part's side.
        That comparison carries a relative margin of 1e-9 (|int_part| +
        reach + |delta|), which covers float rounding, so a row near the
        edge is bounded exactly; ``bounds`` runs only on the rows left over,
        and the open set is the one ``bounds`` on every row gives."""
        reach = self.reach(spec)
        left = np.empty(len(self), dtype=bool)
        for a in range(0, len(self), _CHUNK_ROWS):
            chunk = slice(a, a + _CHUNK_ROWS)
            family, size = self.family[chunk], np.abs(self.int_part[chunk])
            r = reach[family]
            clear = size - r > delta + 1e-9 * (size + r + abs(delta))
            left[chunk] = ~(clear | self.fam_filtered[family])
        rows = np.flatnonzero(left)
        lo, hi = self.bounds(spec, rows)
        closed = ((lo > delta) | (hi < -delta)) if strict else ((lo >= delta) | (hi <= -delta))
        return rows[~closed]


def _candidate_directions(n: int, k: tuple[int, ...]) -> list[np.ndarray]:
    cands = []
    if n == 2:
        z = np.array([k[1], k[0]], dtype=float)
        if np.any(z):
            cands.append(z / np.linalg.norm(z))
    else:
        kp = np.array([k[1] + k[2], k[0] + k[2], k[1] + k[0]], dtype=float)
        if np.any(kp):
            cands.append(kp / np.linalg.norm(kp))
    kv = np.array(k, dtype=float)
    cands.append(-kv / np.linalg.norm(kv))
    cands.append(kv / np.linalg.norm(kv))
    for i in range(n):
        for s in (1.0, -1.0):
            e = np.zeros(n)
            e[i] = s
            cands.append(e)
    return cands


def _judge(k: tuple[int, ...], Q: np.ndarray, vals: np.ndarray, spec: TorusSpec,
           delta: float, grid: np.ndarray):
    """(verdict, witness) of an expression the interval certificate left
    open, from its form Q and its divisor ``vals`` at the grid points: grid
    minimum first, then transversality along candidate directions."""
    avals = np.abs(vals)
    if float(avals.min()) >= delta:
        return LOWER_BOUNDED, "grid minimum"
    imin = int(np.argmin(avals))
    cands = _candidate_directions(len(spec.internal), k)
    g = 2.0 * spec.nu2 * (Q @ grid[imin])
    ng = np.linalg.norm(g)
    if ng > 0:
        cands.append(g / ng)
        cands.append(-g / ng)
    grid_Q = grid @ Q
    for z in cands:
        d = 2.0 * spec.nu2 * (grid_Q @ z)
        if float(np.min(d)) >= delta:
            return TRANSVERSAL, [float(x) for x in z]
    return VIOLATED, [float(x) for x in grid[imin]]


def _quads(Q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """rho.Q.rho, (forms, points), of the stacked forms Q: (rho_i Q_ij) rho_j
    summed in (i, j) order."""
    out = np.zeros((len(Q), len(grid)))
    term = np.empty_like(out)
    for i, j in itertools.product(range(grid.shape[1]), repeat=2):
        np.multiply(Q[:, i, j, None], grid[:, i], out=term)
        term *= grid[:, j]
        out += term
    return out


def enumerate_A2_expressions(eff: EffectiveHamiltonian, k_max: int) -> DivisorTable:
    """Every divisor family in one pass over the lattice.

    Each family draws on the points of one mass class sum(k), combined with
    spectral atoms: scalar Lambda_j (integer part j^2, the lambda form of
    ``shift_forms``, no pad) or a coupled block's eigenvalue branches (role,
    form, pad).  Rows are in nested-loop order: base families interleaved
    per k, then each block's families in ``eff.blocks`` order; j ascends in
    a family.  A base row's place is counted from the rows of the points
    before it; only block rows are sorted.  External modes range over
    |j| <= ``default_bound(internal)``, the default catalog bound.
    """
    spec = eff.spec
    internal = spec.internal
    n = len(internal)
    mode_max = default_bound(internal)
    *omegas, lam = (np.array(f, dtype=float) for f in shift_forms(n))
    omega_coef = np.array(omegas)
    none = np.zeros_like(lam)
    blocked = list({m for blk in eff.blocks for m in blk.modes})

    # every nonzero k with |k|_inf <= k_max, in itertools.product order: the
    # cube of side 2 k_max + 1 less its centre, zero.  int32 holds any lattice
    # point, lattice index or mode the table can have; sums and products over
    # them are taken in int64
    side = np.arange(-max(k_max, 0), max(k_max, 0) + 1)
    L = len(side)**n - 1

    def over_cube(values, out):  # fill out with values broadcast over the cube, less its centre
        values = np.broadcast_to(values, (len(side),) * n).ravel()
        out[:L // 2], out[L // 2:] = values[:L // 2], values[L // 2 + 1:]
        return out

    axes = np.ix_(*[side] * n)  # k_i along axis i of the cube
    lattice = np.empty((L, n), dtype=np.int32)
    for i, axis in enumerate(axes):
        over_cube(axis.astype(np.int32), lattice[:, i])
    I0 = over_cube(sum(m * m * axis for m, axis in zip(internal, axes)), np.empty(L, np.int64))
    # every family but OmegaK's draws on the points of mass -2, -1 or 0
    mass = over_cube(sum(axes), np.empty(L, np.int32))
    points = {c: np.flatnonzero(mass == c) for c in (-2, -1, 0)}
    moms = {c: lattice[idx] @ np.array(internal, dtype=np.int64) for c, idx in points.items()}

    def on(c, momentum):
        return points[c][moms[c] == momentum]

    # scalar[j] says what Lambda_j is: 0 free, 1 internal, 2 blocked, for
    # every j a family tests (|j| <= reach; a negative j wraps to the end)
    reach = max([mode_max, *map(abs, blocked)]) + max(k_max, 0) * sum(map(abs, internal))
    scalar = np.zeros(2 * reach + 1, dtype=np.int8)
    scalar[blocked] = 2
    scalar[list(internal)] = 1

    families = []  # (kind, n_modes, block, pad, filtered, Lambda coefficients)
    # per family, its rows' offsets from their point's first base row (block rows: sort
    # keys) and its entry of each column: an array over its rows, or one shared number
    parts = []

    def emit(at, idx, kind, modes, int_part=None, coef=None, pad=0.0, block=-1):
        """A family of rows over lattice indices ``idx``; int_part None marks them filtered."""
        filtered = int_part is None
        at = at if block < 0 else (block * L + idx) * 8 + at
        parts.append((at, idx, len(families), *(*modes, 0, 0)[:2], 0 if filtered else int_part))
        families.append((KINDS.index(kind), len(modes), block, pad, filtered,
                         none if filtered else coef))

    def emit_with_scalar(at, idx, j, kind, lead, int_part, coef, pad, block=-1):
        """Rows ending in scalar Lambda_j, filtered if j is internal; returns where j is blocked."""
        what = scalar[j]
        inner, keep = what == 1, what == 0
        emit(at, idx[inner], kind, (*lead, j[inner]), block=block)
        emit(at, idx[keep], kind, (*lead, j[keep]), int_part[keep], coef, pad, block)
        return what == 2

    # a point's base rows: its OmegaK row, its single row (none when its
    # mode is blocked), and its pair rows, j ascending
    count, every = np.full(L, 2), np.arange(L, dtype=np.int32)
    emit(0, every, OMEGA_K, (), I0, none)

    # Omega.k + Lambda_j : a single eta factor, mass forces sum(k) = -1
    # and momentum then pins j.
    one, j = points[-1], -moms[-1]
    emit(1, np.delete(every, one), OMEGA_K_PLUS_LAMBDA, ())
    count[one[emit_with_scalar(1, one, j, OMEGA_K_PLUS_LAMBDA, (), I0[one] + j * j, lam, 0.0)]] = 1

    # Omega.k + Lambda_j + Lambda_l : two eta factors on the momentum line;
    # Omega.k + Lambda_j - Lambda_l : one eta, one zeta; the scalar shifts
    # cancel exactly, and same-|mode| pairs share a cluster.  At momentum mu
    # the j with |j|, |l| <= mode_max are one interval, for sums cut at j <= l
    for sgn, c, kind, coef in ((1, -2, OMEGA_K_PLUS_PLUS, 2 * lam),
                               (-1, 0, OMEGA_K_PLUS_MINUS, none)):
        idx, mu = points[c], moms[c]
        lo = -mode_max - np.minimum(mu, 0)
        hi = np.minimum(mode_max - np.maximum(mu, 0), -mu // 2 if sgn > 0 else mode_max)
        width = np.maximum(hi - lo + 1, 0)
        p = np.repeat(np.arange(len(idx)), width)
        j = np.arange(len(p)) + np.repeat(lo - np.cumsum(width) + width, width)
        l = -sgn * (mu[p] + j)  # momentum: mu + j + sgn * l = 0
        ok = ((scalar[j] | scalar[l]) == 0) & ((sgn > 0) | (np.abs(j) != np.abs(l)))
        p, j, l = p[ok], j[ok], l[ok]
        width = np.bincount(p, minlength=len(idx))
        count[idx] += width
        emit(2 + np.arange(len(p)) - (np.cumsum(width) - width)[p], idx[p], kind, (j, l),
             I0[idx][p] + j * j + sgn * l * l, coef)
    start, base_rows = np.cumsum(count) - count, int(count.sum())
    del mass, p, j, l

    # coupled-block divisor families, keyed by point, then slot: branches
    # 0-1 by role, pair sum 2, difference 3, branch +- Lambda_j 4-7
    for b, blk in enumerate(eff.blocks):
        # the block's own monomial is carried by the normal form (its divisor
        # vanishes identically), so its families must not test it
        resident = _resident(blk.k, k_max, L)

        def pair(idx, kind, modes, int_part, coef, pad, slot):
            """A block's own pair family; its defining monomial is filtered."""
            hit = np.isin(idx, resident)
            emit(slot, idx[hit], kind, modes, block=b)
            emit(slot, idx[~hit], kind, modes, I0[idx[~hit]] + int_part, coef, pad, b)

        # blk.modes is (s_role, t_role); an E block's one mode plays both
        s_role, t_role = blk.modes[0], blk.modes[-1]
        roles = list({s_role, t_role})
        if blk.kind == "B":
            # a = (Lambda_t - Lambda_s)/2 = nu^2 (lambda + k.omega/2) and
            # b = Lambda_t - a, over nu^2
            gap = np.array(twice_gap_form(blk.k), dtype=float) / 2
            amax = spec.nu2 * float(np.max(np.abs(_enclose(gap, spec.domain))))
            pad1 = _pad_b_root(spec, blk, amax)
            # slack for the frame ambiguity of chart-dependent nu^2 shifts:
            # the bound on |2a|, exactly twice amax
            slack = 2 * amax
            branch_coef, branch_pad = lam - gap, pad1 + slack
            # eigenvalue pair sum: trace of the block, creation pair
            pair(on(-2, -s_role - t_role), OMEGA_K_PLUS_PLUS, blk.modes,
                 s_role**2 + t_role**2, 2 * (lam - gap), slack, 2)
            # eigenvalue pair difference: >= 2|Im| when hyperbolic
            pair(on(0, 0), OMEGA_K_PLUS_MINUS, blk.modes, 0, none, 2 * pad1, 3)
        else:
            # energy-conserving blocks (elliptic couplings): eigenvalue pairs
            # perturb (s_role^2, t_role^2); pad covers the rotation of the
            # block eigenvalues away from the scalar shifts.
            eig = blk.eigenvalues
            branch_coef, branch_pad = lam, abs(eig[-1].real - eig[0].real) + 2 * abs(blk.coupling)
            if blk.kind == "E":
                # creation pair (s, s): divisor 2 Lambda_s + Omega.k
                pair(on(-2, -2 * s_role), OMEGA_K_PLUS_PLUS,
                     (s_role, s_role), 2 * s_role * s_role, 2 * lam, branch_pad, 2)
            elif s_role != t_role:
                # zeta_s eta_t pair difference within the block
                pair(on(0, s_role - t_role), OMEGA_K_PLUS_MINUS,
                     (s_role, t_role), t_role * t_role - s_role * s_role, none, 2 * branch_pad, 3)

        for r, role in enumerate(roles):
            # single branches, one family per momentum content (for the
            # even-gap two-mode torus these force half-integer lattice
            # components, removing the families entirely)
            idx = on(-1, -role)
            emit(r, idx, OMEGA_K_PLUS_LAMBDA, (role,), I0[idx] + role * role,
                 branch_coef, branch_pad, b)
            # mixed: eigenvalue branch +- scalar Lambda_j
            for slot, sgn in ((4 + r, 1), (6 + r, -1)):
                idx = points[-1 - sgn]
                j = -sgn * (moms[-1 - sgn] + role)
                emit_with_scalar(slot, idx, j, OMEGA_K_PLUS_PLUS if sgn > 0 else OMEGA_K_PLUS_MINUS,
                                 (role,), I0[idx] + role * role + sgn * j * j,
                                 branch_coef + sgn * lam, branch_pad, b)

    # a base row sits at its point's first row plus its offset, block rows in key order (no
    # two share a key); a row's lattice index is its point's, which a block row's key holds
    keys = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)]
                                  + [at for (at, *_), fam in zip(parts, families) if fam[2] >= 0]))
    lat = np.empty(base_rows + len(keys), dtype=np.int32)
    lat[:base_rows], lat[base_rows:] = np.repeat(every, count), keys // 8 % L
    int_part = np.zeros(len(lat), dtype=np.int64)
    int_part[start] = I0  # family 0, OmegaK, at every point's first row: written first to free it
    del count, every, I0, parts[0]
    family, modes = np.zeros(len(lat), dtype=np.int32), np.zeros((len(lat), 2), dtype=np.int32)
    for fam in families[:0:-1]:  # each column is written once, freeing family by family
        offset, idx, *entries = parts.pop()
        at = start[idx] + offset if fam[2] < 0 else base_rows + np.searchsorted(keys, offset)
        for column, v in zip((family, modes[:, 0], modes[:, 1], int_part), entries):
            if np.ndim(v) or v:  # zero entries need no write
                column[at] = v
    kind, n_modes, block, pad, filtered, coef = zip(*families)
    return DivisorTable(
        lattice, lat=lat, family=family, modes=modes,
        int_part=int_part, labels=tuple(f"{blk.kind}{blk.modes}" for blk in eff.blocks),
        omega_coef=omega_coef, fam_kind=np.array(kind, dtype=np.int8),
        fam_n_modes=np.array(n_modes, dtype=np.int8), fam_block=np.array(block),
        fam_pad=np.array(pad, dtype=float), fam_filtered=np.array(filtered),
        fam_coef=np.array(coef))


def _resident(k: tuple[int, ...], k_max: int, L: int) -> np.ndarray:
    """Lattice indices of +-k over the L-point lattice of
    ``enumerate_A2_expressions``, none when k is zero or beyond k_max: that
    lattice is the product-order cube of side 2 k_max + 1 less its centre,
    zero, so a point past the centre sits one place earlier than in the cube."""
    if not 0 < max(abs(x) for x in k) <= k_max:
        return np.zeros(0, dtype=np.intp)
    at = np.ravel_multi_index([[s * x + k_max for s in (1, -1)] for x in k],
                              (2 * k_max + 1,) * len(k))
    return at - (at > L // 2)


def _pad_b_root(spec: TorusSpec, blk, amax: float) -> float:
    """Uniform bound on |sqrt(a^2 - c^2)| of the pair-creation block over the
    domain (covers both the real and the imaginary branch); ``amax`` bounds
    |a| there, and the coupling c = count nu^2 rho_a sqrt(rho_b rho_c) over
    the witness (a, b, c), increasing in every rho, is bounded by its value
    at the domain's upper corner."""
    hi_a, hi_b, hi_c = (spec.domain[spec.internal.index(m)][1] for m in blk.witness)
    count = coupling_count(blk.kind, blk.witness, *blk.modes)
    return math.hypot(amax, count * spec.nu2 * hi_a * math.sqrt(hi_b * hi_c))


def _a2_inputs(eff: EffectiveHamiltonian, delta: float | None, k_max: int,
               grid_resolution: int, least_resolution: int) -> tuple:
    """(spec, delta, grid, table) of ``check_A2`` and ``measure_scan``.  A
    grid under ``least_resolution`` points per dimension is refused, and so
    is k_max < 1, whose empty lattice would certify nothing."""
    if grid_resolution < least_resolution:
        raise ValueError(f"grid_resolution must be at least {least_resolution} per dimension")
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    spec = eff.spec
    return (spec, _delta(spec, delta), _domain_grid(spec, grid_resolution),
            enumerate_A2_expressions(eff, k_max))


def check_A2(eff: EffectiveHamiltonian, delta: float | None = None,
             k_max: int = 20, grid_resolution: int = 16) -> HypothesisReport:
    """Verdict for every admissible divisor with |k|_inf <= k_max.

    Integer parts are exact; expressions whose integer part dominates are
    certified by the interval bound, through ``DivisorTable.open_rows``;
    grid evaluation and transversality (paper candidate directions first,
    then coordinate and gradient directions) handle the rest.
    grid_resolution is the grid's points per dimension, at least 2.
    """
    spec, delta, grid, table = _a2_inputs(eff, delta, k_max, grid_resolution, 2)
    codes = (~table.filtered).astype(np.int8)  # FILTERED 0, LOWER_BOUNDED 1
    witnesses = {}
    for rows, forms, divisors in table.divisors(spec, table.open_rows(spec, delta), grid):
        for r, Q, vals in zip(rows.tolist(), forms, divisors):
            verdict, witnesses[r] = _judge(table.expression(r).k, Q, vals, spec, delta, grid)
            codes[r] = VERDICTS.index(verdict)
    tail = ("beyond k_max the transversality polynomials grow linearly in |k| "
            "while integer parts dominate; certified analytically, not scanned")
    return HypothesisReport(delta, k_max, table, codes, witnesses, tail)


def measure_scan(eff: EffectiveHamiltonian, delta: float | None = None,
                 k_max: int = 20, grid_resolution: int = 16) -> float:
    """Fraction of domain grid points where some admissible divisor falls
    below delta in magnitude (delta = 0 counts exact resonances)."""
    spec, delta, grid, table = _a2_inputs(eff, delta, k_max, grid_resolution, 8)
    excluded = np.zeros(grid.shape[0], dtype=bool)
    for _, _, vals in table.divisors(spec, table.open_rows(spec, delta, strict=True), grid):
        near = (vals == 0) if delta == 0 else (np.abs(vals) < delta)
        excluded |= near.any(axis=0)
    return float(np.mean(excluded))
