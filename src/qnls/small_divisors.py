"""Nonresonance (small-divisor) verification over parameter grids.

The divisors Omega(rho).k + Lambda_a +- Lambda_b split into an exact integer
part (squares of mode numbers) and an O(nu^2) quadratic form in rho.  All
admissibility decisions (conservation filters, Diophantine solvability,
integer parts) are exact; grids and transversality estimates only enter when
the integer part vanishes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .normal_form import EffectiveHamiltonian, TorusSpec, lambda_coefficient

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

    def verdict(self, i: int) -> tuple[str, object]:
        v = VERDICTS[self.codes[i]]
        return v, self.witnesses.get(i, INTERVAL if v == LOWER_BOUNDED else None)

    @property
    def verdicts(self) -> list:
        """(DivisorExpression, verdict, witness) per row, in enumeration order."""
        return [(self.table.expression(i), *self.verdict(i)) for i in range(len(self.table))]

    def counts(self) -> dict[str, int]:
        """Verdict counts, keyed in order of first appearance."""
        codes, first, counts = np.unique(self.codes, return_index=True, return_counts=True)
        return {VERDICTS[codes[o]]: int(counts[o]) for o in np.argsort(first)}

    def violated(self) -> list:
        return [(self.table.expression(i), w) for i, w in self.witnesses.items()
                if VERDICTS[self.codes[i]] == VIOLATED]

    def to_json_lines(self) -> str:
        """One JSON object per row.  Rows alike but for k share one line dumped
        with k = null and split there; each judged row has its own."""
        t = self.table
        fmt = "[" + ", ".join(["%d"] * t.lattice.shape[1]) + "]"
        ks = [fmt % tuple(k) for k in t.lattice.tolist()]
        own = np.zeros(len(t), dtype=np.int64)
        own[list(self.witnesses)] = np.arange(1, len(self.witnesses) + 1)
        cols = np.column_stack([t.kind, t.modes, t.n_modes, t.block, self.codes, own])
        cols -= cols.min(axis=0, initial=0)
        key = np.ravel_multi_index(cols.T, cols.max(axis=0, initial=0) + 1)
        _, first, inv = np.unique(key, return_index=True, return_inverse=True)
        parts = [json.dumps({"kind": e.kind, "k": None, "modes": list(e.modes), "block": e.block,
                             "verdict": v, "witness": w}).split("null", 1)
                 for e, (v, w) in ((t.expression(i), self.verdict(i)) for i in first.tolist())]
        return "\n".join([parts[u][0] + ks[l] + parts[u][1]
                          for u, l in zip(inv.ravel().tolist(), t.lat.tolist())])

    def summary_json(self) -> str:
        return json.dumps({
            "delta": self.delta,
            "k_max": self.k_max,
            "counts": self.counts(),
            "tail": self.tail_note,
        }, indent=2)


# ---------------------------------------------------------------------------
# quadratic forms in rho (the nu^-2 coefficients of all divisor expressions)

def omega_form(n: int, i: int) -> np.ndarray:
    """Quadratic form Q with rho.Q.rho = nu^-2 frequency shift of internal mode i."""
    Q = np.zeros((n, n))
    Q[i, i] = 3.0
    others = [j for j in range(n) if j != i]
    for j in others:
        Q[j, j] = 9.0
        Q[i, j] += 9.0
        Q[j, i] += 9.0
    if len(others) == 2:
        a, b = others
        Q[a, b] += 18.0
        Q[b, a] += 18.0
    return Q


def lambda_form(n: int) -> np.ndarray:
    Q = 18.0 * np.ones((n, n))
    np.fill_diagonal(Q, 9.0)
    return Q


def b_lambda_s_form() -> np.ndarray:
    """3 * (-r1^2 + r2^2 + 5 r3^2 - 6 r1 r2 + 12 r2 r3 + 6 r3 r1), witness order."""
    Q = np.array([
        [-3.0, -9.0, 9.0],
        [-9.0, 3.0, 18.0],
        [9.0, 18.0, 15.0],
    ])
    return Q


def _quad(Q: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.einsum("gi,ij,gj->g", grid, Q, grid)


def _interval(Q: np.ndarray, box: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Interval bound of rho.Q.rho over a positive box, term by term."""
    lo = hi = 0.0
    n = Q.shape[0]
    for i in range(n):
        for j in range(i, n):
            c = Q[i, j] + (Q[j, i] if j != i else 0.0)
            if c == 0.0:
                continue
            small = box[i][0] * box[j][0]
            big = box[i][1] * box[j][1]
            if c > 0:
                lo += c * small
                hi += c * big
            else:
                lo += c * big
                hi += c * small
    return lo, hi


# ---------------------------------------------------------------------------
# conservation and exact solvers

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


class EmptyRange(Exception):
    pass


@dataclass(frozen=True)
class ConicSystem:
    """Mass + momentum + energy lattice system with an optional free external
    mode j entering the momentum row linearly and the energy row as -j^2."""

    mass_offset: int
    momentum_coeffs: tuple[int, int, int]
    momentum_offset: int
    energy_coeffs: tuple[int, int, int]
    energy_offset: int
    unknown_mode: bool = True


def setA_conic_system() -> ConicSystem:
    """Extremal-search conic system (mass 0, offsets +2 / +4)."""
    return ConicSystem(0, (-3, 10, -6), 2, (9, 100, 36), 4, unknown_mode=True)


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
        if system.unknown_mode:
            # d0 + d1 k3 - (c0 + c1 k3)^2 = 0
            A = -c1 * c1
            B = d1 - 2 * c0 * c1
            C = d0 - c0 * c0
        else:
            # momentum must vanish identically: c0 + c1 k3 = 0, and energy too
            A, B, C = 0, d1, d0
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
            if not system.unknown_mode:
                if c0 + c1 * k3 != 0:
                    continue
                j = 0
            k = (k1, k2, k3)
            if k == (0, 0, 0):
                continue
            # substitution check of all three original equations
            assert k1 + k2 + k3 + system.mass_offset == 0
            assert m1 * k1 + m2 * k2 + m3 * k3 + system.momentum_offset - j == 0 or not system.unknown_mode
            if system.unknown_mode:
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
    note: str = ""


def _domain_grid(spec: TorusSpec, resolution: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, resolution) if hi > lo else np.array([lo])
            for lo, hi in spec.domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def check_A0(eff: EffectiveHamiltonian, grid_resolution: int = 8) -> A0Result:
    """Sup of |Lambda - (matched mode)^2| against C = nu^2 * max over the
    domain of the external-shift polynomial.

    Scalar shifts are identical for every mode; pair-creation blocks
    contribute their eigenvalue real parts (matched against the nearest
    block-mode square).  Energy-conserving couplings live in the
    perturbation, not the normal form, so their modes enter as scalars.
    """
    spec = eff.spec
    nu2 = spec.nu**2
    grid = _domain_grid(spec, grid_resolution)
    bound = nu2 * float(np.max(_quad(lambda_form(len(spec.internal)), grid)))
    sup = nu2 * float(lambda_coefficient([float(r) for r in spec.rho]))
    note = ""
    for blk in eff.blocks:
        if blk.kind != "B":
            continue
        refs = [m * m for m in blk.modes]
        for lam in blk.eigenvalues:
            sup = max(sup, min(abs(lam.real - w) for w in refs))
        if blk.hyperbolic:
            note = "hyperbolic block real parts included; imaginary parts belong to A1"
    return A0Result(sup <= bound + 1e-12 * max(1.0, bound), sup, bound, note)


@dataclass
class A1Verdict:
    name: str
    passed: bool
    margin: float


def check_A1(eff: EffectiveHamiltonian, delta: float | None = None,
             mode_cutoff: int = 40) -> list[A1Verdict]:
    """The four separation inequalities over scalar and block eigenvalues.

    Scalars cluster by |j| (their shifts are identical, so Lambda_j =
    Lambda_{-j} exactly); block eigenvalues cluster with the mode whose
    square they perturb.  Beyond ``mode_cutoff`` the gap |a^2 - b^2| - 2C
    grows without bound, certifying the tail from A0.
    """
    spec = eff.spec
    if delta is None:
        delta = spec.nu**2
    a0 = check_A0(eff)

    elliptic: list[tuple[float, int]] = []  # (Lambda, cluster key)
    hyperbolic_im: list[float] = []
    for j, lam in eff.scalar_lambdas.items():
        if abs(j) <= mode_cutoff:
            elliptic.append((lam, abs(j)))
    for blk in eff.blocks:
        for lam in blk.eigenvalues:
            if abs(lam.imag) > 1e-3 * spec.nu**2:
                hyperbolic_im.append(abs(lam.imag))
            else:
                key = min((abs(m) for m in blk.modes),
                          key=lambda a: abs(lam.real - a * a))
                elliptic.append((lam.real, key))

    out = []
    min_abs = min(abs(l) for l, _ in elliptic)
    out.append(A1Verdict("abs(Lambda) for elliptic modes", min_abs >= delta,
                         min_abs - delta))
    if hyperbolic_im:
        m = min(hyperbolic_im)
        out.append(A1Verdict("abs(Im Lambda) for hyperbolic modes", m >= delta, m - delta))
    else:
        out.append(A1Verdict("abs(Im Lambda) for hyperbolic modes (vacuous)", True, math.inf))
    cross = math.inf
    by_cluster: dict[int, list[float]] = {}
    for lam, key in elliptic:
        by_cluster.setdefault(key, []).append(lam)
    keys = sorted(by_cluster)
    for i, ka in enumerate(keys):
        for kb in keys[i + 1:]:
            for la in by_cluster[ka]:
                for lb in by_cluster[kb]:
                    cross = min(cross, abs(la - lb))
    out.append(A1Verdict("abs(Lambda_a - Lambda_b) across clusters (tail certified by A0)",
                         cross >= delta and (mode_cutoff + 1)**2 - mode_cutoff**2 - 2 * a0.bound > delta,
                         cross - delta))
    min_sum = min(abs(la + lb) for i, (la, _) in enumerate(elliptic)
                  for lb, _ in elliptic[i:])
    out.append(A1Verdict("abs(Lambda_a + Lambda_b)", min_sum >= delta, min_sum - delta))
    return out


# ---------------------------------------------------------------------------
# Hypothesis A2

KINDS = (OMEGA_K, OMEGA_K_PLUS_LAMBDA, OMEGA_K_PLUS_PLUS, OMEGA_K_PLUS_MINUS)


def _pairs(n: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs in ``_interval``'s order."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _coef(Q: np.ndarray) -> np.ndarray:
    """The coefficients ``_interval`` multiplies: Q_ii, and Q_ij + Q_ji for i < j."""
    return np.array([Q[i, j] + (Q[j, i] if j != i else 0.0) for i, j in _pairs(len(Q))])


@dataclass
class DivisorTable:
    """Every A2 divisor expression as one row of parallel arrays.

    Row r is Omega.k + (Lambda terms) with k = lattice[lat[r]]: exact
    integer part int_part[r], nu^-2 quadratic form in rho given by coef[r]
    (see ``_coef``) and a uniform pad for block eigenvalue terms the form
    does not capture.  Filtered rows carry no form.
    """

    lattice: np.ndarray  # (L, n) every nonzero k with |k|_inf <= k_max
    lat: np.ndarray  # row -> lattice index
    kind: np.ndarray  # row -> index into KINDS
    modes: np.ndarray  # (rows, 2); the first n_modes entries are used
    n_modes: np.ndarray
    block: np.ndarray  # row -> index into labels, -1 for scalar families
    labels: tuple[str, ...]
    int_part: np.ndarray
    coef: np.ndarray
    pad: np.ndarray
    filtered: np.ndarray

    def __len__(self) -> int:
        return len(self.lat)

    def expression(self, r: int) -> DivisorExpression:
        block = self.block[r]
        return DivisorExpression(KINDS[self.kind[r]], tuple(self.lattice[self.lat[r]].tolist()),
                                 tuple(self.modes[r, :self.n_modes[r]].tolist()),
                                 self.labels[block] if block >= 0 else None)

    def form(self, r: int) -> np.ndarray:
        """The symmetric quadratic form Q of row r."""
        n = self.lattice.shape[1]
        Q = np.zeros((n, n))
        for c, (i, j) in zip(self.coef[r], _pairs(n)):
            Q[i, j] = Q[j, i] = c if i == j else c / 2
        return Q

    def bounds(self, spec: TorusSpec) -> tuple[np.ndarray, np.ndarray]:
        """Interval enclosure of every divisor over the rho domain: ``_interval``
        on all rows at once, accumulated in its order, so each bound is
        bit-identical to the scalar one."""
        box, nu2 = spec.domain, spec.nu**2
        lo, hi = np.zeros((2, len(self)))
        for c, (i, j) in zip(self.coef.T, _pairs(len(box))):
            small = box[i][0] * box[j][0]
            big = box[i][1] * box[j][1]
            lo += np.where(c > 0, c * small, c * big)
            hi += np.where(c > 0, c * big, c * small)
        return self.int_part + nu2 * lo - self.pad, self.int_part + nu2 * hi + self.pad


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


def _judge(k: tuple[int, ...], int_part: int, Q: np.ndarray, spec: TorusSpec,
           delta: float, grid: np.ndarray):
    """(verdict, witness) of an expression the interval certificate left
    open: grid minimum first, then transversality along candidate directions."""
    nu2 = spec.nu**2
    vals = int_part + nu2 * _quad(Q, grid)
    avals = np.abs(vals)
    if float(avals.min()) >= delta:
        return LOWER_BOUNDED, "grid minimum"
    imin = int(np.argmin(avals))
    cands = _candidate_directions(len(spec.internal), k)
    g = 2.0 * nu2 * (Q @ grid[imin])
    ng = np.linalg.norm(g)
    if ng > 0:
        cands.append(g / ng)
        cands.append(-g / ng)
    for z in cands:
        d = 2.0 * nu2 * (grid @ Q @ z)
        if float(np.min(d)) >= delta:
            return TRANSVERSAL, [float(x) for x in z]
    return VIOLATED, [float(x) for x in grid[imin]]


def resonant_k(internal: Sequence[int], blk) -> tuple[int, ...] | None:
    """Exponent vector of the block's defining resonant monomial.

    The monomial itself is carried by the normal form (its divisor vanishes
    identically), so the divisor families must not test it.
    """
    coefs = {
        "B": (-2, -1, 1),
        "E": (-2, -1, 1),
        "C": (2, -1, -1),
        "A": (-2, 2),
        "TwoMode": (-2, 2),
    }.get(blk.kind)
    if coefs is None or not blk.witness:
        return None
    acc = {m: 0 for m in internal}
    for c, m in zip(coefs, blk.witness):
        acc[m] += c
    return tuple(acc[m] for m in internal)


def enumerate_A2_expressions(eff: EffectiveHamiltonian, k_max: int,
                             mode_max: int | None = None) -> DivisorTable:
    """Every divisor family in one pass over the lattice.

    The lattice with its mass sum(k), momentum, integer part and Omega form
    is built once as arrays.  Each family is a mask over it, combined with
    spectral atoms: scalar Lambda_j (integer part j^2, ``lambda_form``, no
    pad) or a coupled block's eigenvalue branches (role, form, pad).  Rows
    are sorted into nested-loop order: base families interleaved per k, then
    each block's families in ``eff.blocks`` order; j ascends in a family.
    """
    spec = eff.spec
    internal = spec.internal
    n = len(internal)
    if mode_max is None:
        mode_max = 4 * max(abs(m) for m in internal) + 8
    lam = lambda_form(n)
    none = np.zeros((n, n))
    iset = list(set(internal))
    blocked = list({m for blk in eff.blocks for m in blk.modes})
    skip = iset + blocked

    # every nonzero k with |k|_inf <= k_max, in itertools.product order
    lattice = np.indices((max(2 * k_max + 1, 0),) * n).reshape(n, -1).T - k_max
    lattice = lattice[lattice.any(axis=1)]
    L = len(lattice)
    mass = lattice.sum(axis=1)
    mom = lattice @ np.array(internal)
    I0 = lattice @ np.array([m * m for m in internal])
    # the Omega forms are integral, so this product is exact
    kC = lattice @ np.array([_coef(omega_form(n, i)) for i in range(n)])
    chunks = []

    def emit(idx, kind, modes, int_part=None, Q=None, pad=0.0, slot=0, sub=0, block=-1):
        """Rows over lattice indices ``idx``; int_part None marks them filtered."""
        rows = len(idx)
        m = np.zeros((rows, 2), dtype=np.int64)
        for c, v in enumerate(modes):
            m[:, c] = v
        filtered = int_part is None
        chunks.append(dict(
            key=(((block + 1) * L + idx) * 8 + slot) * (2 * mode_max + 1) + sub, lat=idx,
            kind=np.full(rows, KINDS.index(kind), dtype=np.int8), modes=m,
            n_modes=np.full(rows, len(modes), dtype=np.int8), block=np.full(rows, block),
            int_part=np.zeros(rows, dtype=np.int64) if filtered else int_part,
            coef=np.zeros((rows, kC.shape[1])) if filtered else kC[idx] + _coef(Q),
            pad=np.full(rows, pad), filtered=np.full(rows, filtered)))

    def emit_with_scalar(idx, j, kind, lead, int_part, Q, pad, slot, block=-1):
        """Rows ending in scalar Lambda_j: filtered if j is internal, absent if blocked."""
        inner = np.isin(j, iset)
        emit(idx[inner], kind, (*lead, j[inner]), slot=slot, block=block)
        keep = ~np.isin(j, skip)
        emit(idx[keep], kind, (*lead, j[keep]), int_part[keep], Q, pad, slot, block=block)

    # slots order the families of one k: OmegaK 0, single 1 (block branches
    # 0-1 by role), pairs 2, differences 3, block branch +- Lambda_j 4-7
    every = np.arange(L)
    emit(every, OMEGA_K, (), I0, none)

    # Omega.k + Lambda_j : a single eta factor, mass forces sum(k) = -1
    # and momentum then pins j.
    one = every[mass == -1]
    emit(every[mass != -1], OMEGA_K_PLUS_LAMBDA, (), slot=1)
    j = -mom[one]
    emit_with_scalar(one, j, OMEGA_K_PLUS_LAMBDA, (), I0[one] + j * j, lam, 0.0, slot=1)

    # Omega.k + Lambda_j + Lambda_l : two eta factors on the momentum line;
    # Omega.k + Lambda_j - Lambda_l : one eta, one zeta; the scalar shifts
    # cancel exactly, and same-|mode| pairs share a cluster.
    jj = np.arange(-mode_max, mode_max + 1)
    for sgn, mask, kind, Q, slot in ((1, mass == -2, OMEGA_K_PLUS_PLUS, 2 * lam, 2),
                                     (-1, (mass == 0) & (mom != 0), OMEGA_K_PLUS_MINUS, none, 3)):
        idx = every[mask]
        ll = -sgn * (mom[idx, None] + jj)  # momentum: mom + j + sgn * l = 0
        ok = (jj <= ll) if sgn > 0 else (np.abs(jj) != np.abs(ll))
        ok &= (np.abs(ll) <= mode_max) & ~np.isin(jj, skip) & ~np.isin(ll, skip)
        r, c = np.nonzero(ok)
        j, l = jj[c], ll[r, c]
        emit(idx[r], kind, (j, l), I0[idx[r]] + j * j + sgn * l * l, Q, slot=slot, sub=c)

    # coupled-block divisor families
    for b, blk in enumerate(eff.blocks):
        kres = resonant_k(internal, blk)
        resident = np.zeros(L, dtype=bool) if not kres else (
            (lattice == kres).all(axis=1) | (lattice == [-x for x in kres]).all(axis=1))

        def pair(mask, kind, modes, int_part, Q, pad, slot):
            """A block's own pair family; its defining monomial is filtered."""
            emit(every[mask & resident], kind, modes, slot=slot, block=b)
            idx = every[mask & ~resident]
            emit(idx, kind, modes, I0[idx] + int_part, Q, pad, slot, block=b)

        if len(blk.modes) == 2:
            s_role, t_role = _block_roles(blk)
        else:
            s_role = t_role = blk.modes[0]
        roles = list({s_role, t_role})
        if blk.kind == "B":
            pad1 = _pad_b_root(spec)
            # slack for the frame ambiguity of chart-dependent nu^2 shifts
            slack = spec.nu**2 * max(abs(v) for v in _interval(lam - b_lambda_s_form(), spec.domain))
            branch_Q, branch_pad = (lam + b_lambda_s_form()) / 2.0, pad1 + slack
            # eigenvalue pair sum: trace of the block, creation pair
            pair((mass == -2) & (mom + s_role + t_role == 0), OMEGA_K_PLUS_PLUS, blk.modes,
                 s_role**2 + t_role**2, lam + b_lambda_s_form(), slack, 2)
            # eigenvalue pair difference: >= 2|Im| when hyperbolic
            pair((mass == 0) & (mom == 0), OMEGA_K_PLUS_MINUS, blk.modes, 0, none, 2 * pad1, 3)
        else:
            # energy-conserving blocks (elliptic couplings): eigenvalue pairs
            # perturb (s_role^2, t_role^2); pad covers the rotation of the
            # block eigenvalues away from the scalar shifts.
            branch_Q, branch_pad = lam, (abs(blk.eigenvalues[-1].real - blk.eigenvalues[0].real)
                                         + 2 * abs(blk.coupling))
            if blk.kind == "E":
                # creation pair (s, s): divisor 2 Lambda_s + Omega.k
                pair((mass == -2) & (mom + 2 * s_role == 0), OMEGA_K_PLUS_PLUS,
                     (s_role, s_role), 2 * s_role * s_role, 2 * lam, branch_pad, 2)
            elif s_role != t_role:
                # zeta_s eta_t pair difference within the block
                pair((mass == 0) & (mom - s_role + t_role == 0), OMEGA_K_PLUS_MINUS,
                     (s_role, t_role), t_role * t_role - s_role * s_role, none, 2 * branch_pad, 3)

        for r, role in enumerate(roles):
            # single branches, one family per momentum content (for the
            # even-gap two-mode torus these force half-integer lattice
            # components, removing the families entirely)
            idx = every[(mass == -1) & (mom + role == 0)]
            emit(idx, OMEGA_K_PLUS_LAMBDA, (role,), I0[idx] + role * role, branch_Q,
                 branch_pad, r, block=b)
            # mixed: eigenvalue branch +- scalar Lambda_j
            for slot, sgn in ((4 + r, 1), (6 + r, -1)):
                idx = every[mass == -1 - sgn]
                j = -sgn * (mom[idx] + role)
                emit_with_scalar(idx, j, OMEGA_K_PLUS_PLUS if sgn > 0 else OMEGA_K_PLUS_MINUS,
                                 (role,), I0[idx] + role * role + sgn * j * j,
                                 branch_Q + sgn * lam, branch_pad, slot, block=b)

    order = np.argsort(np.concatenate([c["key"] for c in chunks]), kind="stable")
    cols = {name: np.concatenate([c[name] for c in chunks])[order]
            for name in chunks[0] if name != "key"}
    labels = tuple(f"{blk.kind}{blk.modes}" for blk in eff.blocks)
    return DivisorTable(lattice, labels=labels, **cols)


def _block_roles(blk) -> tuple[int, int]:
    """(s_role, t_role) of a two-external block; (s, t) for pair creation."""
    s, t = blk.modes
    w = blk.witness
    if blk.kind == "A":
        a, b = w
        # 2a + s_role = 2b + t_role
        if 2 * a + s == 2 * b + t:
            return s, t
        return t, s
    if blk.kind == "C":
        a, b, c = w
        if 2 * a + s == b + c + t:
            return s, t
        return t, s
    if blk.kind == "TwoMode":
        p, q = w
        n_gap = (q - p) // 2
        return p + 3 * n_gap, p - n_gap
    return s, t


def _pad_b_root(spec: TorusSpec) -> float:
    """Uniform bound on |sqrt(a^2 - c^2)| of the pair-creation block over the
    domain (covers both the real and the imaginary branch)."""
    nu2 = spec.nu**2
    n = len(spec.internal)
    alo, ahi = _interval((lambda_form(n) - b_lambda_s_form()) / 2.0, spec.domain)
    amax = max(abs(alo), abs(ahi)) * nu2
    box = spec.domain
    cmax = 18.0 * nu2 * box[0][1] * math.sqrt(box[1][1] * box[2][1])
    return math.hypot(amax, cmax)


def check_A2(eff: EffectiveHamiltonian, delta: float | None = None,
             k_max: int = 20, grid: np.ndarray | None = None,
             grid_resolution: int = 16, mode_max: int | None = None) -> HypothesisReport:
    """Verdict for every admissible divisor with |k|_inf <= k_max.

    Integer parts are exact; an interval bound, evaluated for all rows at
    once, certifies expressions whose integer part dominates; grid
    evaluation and transversality (paper candidate directions first, then
    coordinate and gradient directions) handle the rest.
    """
    spec = eff.spec
    if delta is None:
        delta = spec.nu**2
    if grid is None:
        grid = _domain_grid(spec, grid_resolution)
    table = enumerate_A2_expressions(eff, k_max, mode_max)
    lo, hi = table.bounds(spec)
    codes = np.where(table.filtered, 0, 1).astype(np.int8)  # FILTERED, LOWER_BOUNDED
    witnesses = {}
    for r in np.flatnonzero(~(table.filtered | (lo >= delta) | (hi <= -delta))).tolist():
        verdict, witnesses[r] = _judge(table.expression(r).k, int(table.int_part[r]),
                                       table.form(r), spec, delta, grid)
        codes[r] = VERDICTS.index(verdict)
    tail = ("beyond k_max the transversality polynomials grow linearly in |k| "
            "while integer parts dominate; certified analytically, not scanned")
    return HypothesisReport(delta, k_max, table, codes, witnesses, tail)


def measure_scan(eff: EffectiveHamiltonian, delta: float | None = None,
                 k_max: int = 20, grid_resolution: int = 16,
                 mode_max: int | None = None) -> float:
    """Fraction of domain grid points where some admissible divisor falls
    below delta in magnitude (delta = 0 counts exact resonances)."""
    if grid_resolution < 8:
        raise ValueError("grid_resolution must be at least 8 per dimension")
    spec = eff.spec
    if delta is None:
        delta = spec.nu**2
    grid = _domain_grid(spec, grid_resolution)
    nu2 = spec.nu**2
    table = enumerate_A2_expressions(eff, k_max, mode_max)
    lo, hi = table.bounds(spec)
    excluded = np.zeros(grid.shape[0], dtype=bool)
    for r in np.flatnonzero(~(table.filtered | (lo > delta) | (hi < -delta))):
        vals = int(table.int_part[r]) + nu2 * _quad(table.form(r), grid)
        if delta == 0:
            excluded |= (vals == 0)
        else:
            excluded |= (np.abs(vals) < delta)
    return float(np.mean(excluded))
