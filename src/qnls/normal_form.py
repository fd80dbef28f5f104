"""Effective quadratic Hamiltonians around 2- and 3-mode tori.

The sextic resonant part of the Hamiltonian contributes, at second order in
the external variables, a frequency shift to every external mode plus a
finite number of 2x2 couplings, one per catalogued external pair.  This
module assembles those blocks, diagonalizes them (a direct eigensolve of the
linearized flow acts as the oracle for every closed form), and classifies
the torus as elliptic or hyperbolic.

All rho-polynomial coefficients are assembled in exact rational arithmetic
when the actions are rational; floats appear only at eigensolve time.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from .resonance import ExternalPair, ResonanceCatalog


class DegenerateBlock(Exception):
    """Block discriminant vanishes within tolerance; spectrum type undecided."""


class PreconditionViolated(Exception):
    """Catalog fails the disjointness / no-one-mode-resonance requirements."""


def _exactable(x) -> bool:
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class TorusSpec:
    """A 2- or 3-mode torus: internal modes, actions rho (|a_{m_i}|^2 = nu*rho_i),
    small parameter nu, and the rho-domain box the actions range over."""

    internal: tuple[int, ...]
    rho: tuple
    nu: float
    domain: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        n = len(self.internal)
        if n not in (2, 3):
            raise ValueError("internal mode count must be 2 or 3")
        if len(self.rho) != n:
            raise ValueError("rho length must match internal modes")
        if any(r <= 0 for r in self.rho):
            raise ValueError("rho must be strictly positive")
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")
        dom = self.domain or tuple((float(r), float(r)) for r in self.rho)
        object.__setattr__(self, "domain", tuple((float(a), float(b)) for a, b in dom))
        for r, (lo, hi) in zip(self.rho, self.domain):
            if not lo <= r <= hi:
                raise ValueError("domain must contain rho")


def domain_D1() -> tuple:
    return ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0))


def domain_D2(eps: float = 1e-2) -> tuple:
    return ((2 - eps, 2 + eps), (1 - eps, 1 + eps), (9 - eps, 9 + eps))


@dataclass(frozen=True)
class Frequencies:
    omega: tuple


# ---------------------------------------------------------------------------
# Frequency and external-shift polynomials.  These are evaluated with the
# arithmetic of their inputs: exact for int/Fraction rho, float otherwise.

def omega_coefficient(rho: Sequence, i: int):
    """nu^-2 coefficient of the frequency shift of internal mode i:
    3*(rho_i^2 + sum_{j!=i} (3 rho_j^2 + 6 rho_i rho_j) + 12 prod-cross)."""
    others = [rho[j] for j in range(len(rho)) if j != i]
    val = rho[i] * rho[i]
    for r in others:
        val = val + 3 * r * r + 6 * rho[i] * r
    if len(others) == 2:
        val = val + 12 * others[0] * others[1]
    return 3 * val


def lambda_coefficient(rho: Sequence):
    """nu^-2 coefficient of the shift of an uncoupled external mode:
    9*(sum rho_i^2 + 4 sum_{i<j} rho_i rho_j)."""
    val = sum(r * r for r in rho)
    for i in range(len(rho)):
        for j in range(i + 1, len(rho)):
            val = val + 4 * rho[i] * rho[j]
    return 9 * val


def omega(spec: TorusSpec) -> Frequencies:
    nu2 = spec.nu**2
    return Frequencies(tuple(
        m * m + nu2 * float(omega_coefficient(spec.rho, i))
        for i, m in enumerate(spec.internal)
    ))


def lambda_external(j: int, spec: TorusSpec) -> float:
    if j in spec.internal:
        raise ValueError(f"mode {j} is internal")
    return j * j + spec.nu**2 * float(lambda_coefficient(spec.rho))


def z6_internal_coefficients(spec: TorusSpec) -> dict[tuple[int, ...], int]:
    """Multinomial coefficient of each internal action monomial in the
    resonant sextic part, keyed by the exponent vector over internal modes.

    Computed by counting ordered index selections on both sides of the
    resonance (the oracle); the result is the 1 / 9 / 36 pattern.
    """
    from itertools import product as _product

    n = len(spec.internal)
    per_multiset: dict[tuple[int, ...], int] = {}
    for sel in _product(range(n), repeat=3):
        key = tuple(sorted(sel))
        per_multiset[key] = per_multiset.get(key, 0) + 1
    counts: dict[tuple[int, ...], int] = {}
    for key, cnt in per_multiset.items():
        expo = [0] * n
        for i in key:
            expo[i] += 1
        counts[tuple(expo)] = cnt * cnt  # ordered j-side times ordered l-side
    return counts


def constant_metadata(spec: TorusSpec) -> float:
    """The additive constant split off by the normal form; metadata only
    (constants never affect spectra)."""
    nu = spec.nu
    rho = [float(r) for r in spec.rho]
    if len(rho) == 2:
        r1, r2 = rho
        p, q = spec.internal
        return nu**3 * (r1**3 + r2**3 + 9 * r1**2 * r2 + 9 * r2**2 * r1) + 9 * (
            nu * p * p * r1 + nu * q * q * r2
        )
    z06 = sum(
        c * math.prod((nu * r) ** e for r, e in zip(rho, expo))
        for expo, c in z6_internal_coefficients(spec).items()
    )
    return z06 + sum(m * m * nu * r for m, r in zip(spec.internal, rho))


# ---------------------------------------------------------------------------
# Spectral blocks.

_STD_FORM_CACHE: dict[int, np.ndarray] = {}


def standard_symplectic_form(dim: int) -> np.ndarray:
    """J on coordinates (x_1..x_n, y_1..y_n)."""
    if dim % 2:
        raise ValueError("dimension must be even")
    n = dim // 2
    if dim not in _STD_FORM_CACHE:
        J = np.zeros((dim, dim))
        J[:n, n:] = np.eye(n)
        J[n:, :n] = -np.eye(n)
        _STD_FORM_CACHE[dim] = J
    return _STD_FORM_CACHE[dim]


def generic_block_spectrum(coeff: np.ndarray, form: np.ndarray | None = None) -> list[complex]:
    """Frequencies of the quadratic Hamiltonian with Hessian ``coeff``.

    Eigenvalues mu of J*coeff come in (mu, -mu) pairs; the frequencies are
    Lambda = i*mu, one representative per pair, chosen with Re > 0 (or
    Im >= 0 on the imaginary axis) and sorted by (real, imaginary) part.
    """
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1] or coeff.shape[0] % 2:
        raise ValueError("coeff must be square with even dimension")
    J = standard_symplectic_form(coeff.shape[0]) if form is None else np.asarray(form, dtype=float)
    mu = np.linalg.eigvals(J @ coeff)
    lam = 1j * mu
    scale = max(1.0, float(np.max(np.abs(lam))))
    tol = 1e-10 * scale

    def snap(z: complex) -> complex:
        re = 0.0 if abs(z.real) < tol else z.real
        im = 0.0 if abs(z.imag) < tol else z.imag
        return complex(re, im)

    vals = sorted((snap(z) for z in lam), key=lambda z: (z.real, z.imag))
    picked: list[complex] = []
    used = [False] * len(vals)
    for i in range(len(vals)):
        if used[i]:
            continue
        used[i] = True
        # partner = closest unused value to -vals[i]
        target = -vals[i]
        j_best, d_best = -1, math.inf
        for j in range(i + 1, len(vals)):
            if not used[j]:
                d = abs(vals[j] - target)
                if d < d_best:
                    j_best, d_best = j, d
        if j_best >= 0:
            used[j_best] = True
            pair = (vals[i], vals[j_best])
        else:
            pair = (vals[i], -vals[i])
        rep = max(pair, key=lambda z: (z.real, z.imag))
        picked.append(rep)
    return sorted(picked, key=lambda z: (z.real, z.imag))


ELLIPTIC = "Elliptic"
HYPERBOLIC = "Hyperbolic"
DEGENERATE = "Degenerate"


@dataclass
class SpectralBlock:
    """A coupled group of external modes with its quadratic form and spectrum.

    ``diag`` holds the uncoupled Lambda entries entering the matrix (trace
    check), ``coupling`` the off-diagonal strength; ``transform`` records
    closed-form diagonalization parameters and any discrepancy notes.
    """

    kind: str
    modes: tuple[int, ...]
    coeff: np.ndarray
    eigenvalues: tuple[complex, ...]
    classification: str
    diag: tuple[float, ...]
    coupling: float
    transform: dict = field(default_factory=dict)
    witness: tuple[int, ...] = ()

    @property
    def hyperbolic(self) -> bool:
        return self.classification == HYPERBOLIC

    @property
    def max_im(self) -> float:
        return max(abs(l.imag) for l in self.eigenvalues)


def _classify(eigenvalues, nu: float) -> str:
    """Complex when |Im| exceeds 1e-3*nu^2; Degenerate inside the band
    between numerical noise and that threshold."""
    scale = max(1.0, max(abs(l) for l in eigenvalues))
    noise = 1e-12 * scale
    im = max(abs(l.imag) for l in eigenvalues)
    if im > 1e-3 * nu * nu:
        return HYPERBOLIC
    if im <= noise:
        return ELLIPTIC
    return DEGENERATE


def _ordered_count(j_side: Sequence[int], l_side: Sequence[int]) -> int:
    return len(set(permutations(j_side))) * len(set(permutations(l_side)))


def _hermitian_pair_coeff(lam_s: float, lam_t: float, c: float) -> np.ndarray:
    """Real Hessian of lam_s|z_s|^2 + lam_t|z_t|^2 + c*2Re(z_s conj(z_t))."""
    return np.array([
        [lam_s, c, 0.0, 0.0],
        [c, lam_t, 0.0, 0.0],
        [0.0, 0.0, lam_s, c],
        [0.0, 0.0, c, lam_t],
    ])


def _creation_pair_coeff(lam_s: float, lam_t: float, c: float) -> np.ndarray:
    """Real Hessian of lam_s|z_s|^2 + lam_t|z_t|^2 + c*2Re(z_s z_t)."""
    return np.array([
        [lam_s, c, 0.0, 0.0],
        [c, lam_t, 0.0, 0.0],
        [0.0, 0.0, lam_s, -c],
        [0.0, 0.0, -c, lam_t],
    ])


def _rho_of(spec: TorusSpec, mode: int):
    return spec.rho[spec.internal.index(mode)]


def _omega_of(spec: TorusSpec, mode: int) -> float:
    return omega(spec).omega[spec.internal.index(mode)]


def _zeta_eta_block(spec: TorusSpec, kind: str, role_s: int, role_t: int,
                    frame_shift: float, coupling: float,
                    witness: tuple[int, ...], transform: dict) -> SpectralBlock:
    """Common builder for energy-conserving (zeta_s eta_t) couplings.

    ``frame_shift`` is the rotation making the coupling autonomous; it moves
    the diagonal entry of role_s.  Such blocks are Hermitian 2x2 forms and
    always have real spectra.
    """
    lam_t = lambda_external(role_t, spec)
    lam_s = lambda_external(role_s, spec) + frame_shift
    coeff = _hermitian_pair_coeff(lam_s, lam_t, coupling)
    eig = generic_block_spectrum(coeff)
    mean, a = (lam_s + lam_t) / 2, (lam_t - lam_s) / 2
    shift = math.hypot(a, coupling)
    transform = dict(transform)
    transform["closed_form"] = [mean - shift, mean + shift]
    cls = _classify(eig, spec.nu)
    return SpectralBlock(kind, (role_s, role_t), coeff, tuple(eig), cls,
                         (lam_s, lam_t), coupling, transform, witness)


def block_two_mode_case2(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Coupled block of the even-gap two-mode torus.

    Diagonal (Lambda_s, Lambda_t) with Lambda_s evaluated in the rotating
    frame of the coupling phase, off-diagonal 9 nu^2 rho1 rho2.  The two
    closed-form mixing parameters alpha (reference closed form and the value derived from the
    rotation condition) are both recorded; the generic spectrum governs.
    """
    p, q = spec.internal
    n = (q - p) // 2
    role_s, role_t = p + 3 * n, p - n
    r1, r2 = (float(r) for r in spec.rho)
    nu2 = spec.nu**2
    # rotating frame of the coupling phase, which advances with
    # 2*Omega_p - 2*Omega_q; the energy identity 2p^2 + s^2 = 2q^2 + t^2
    # makes the shifted diagonal entry t^2 + O(nu^2).
    w = omega(spec).omega
    frame_shift = 2 * (w[0] - w[1])
    # closed form of the same shifted entry:
    lam_s_closed = role_t**2 + nu2 * (21 * r2 * r2 - 3 * r1 * r1 + 36 * r1 * r2)
    coupling = 9 * nu2 * r1 * r2
    rad_reference = 4 * r1**4 + 2 * r1**2 * r2**2 + 4 * r2**4
    alpha_reference = (-2 * r1**2 + 2 * r2**2 + math.sqrt(rad_reference)) / (3 * r1 * r2)
    rad_derived = 4 * r1**4 + r1**2 * r2**2 + 4 * r2**4
    alpha_derived = (2 * r1**2 - 2 * r2**2 + math.sqrt(rad_derived)) / (3 * r1 * r2)
    transform = {
        "alpha_reference": alpha_reference,
        "alpha_derived": alpha_derived,
        "notes": ["alpha closed forms disagree; generic spectrum governs"],
    }
    blk = _zeta_eta_block(spec, "TwoMode", role_s, role_t, frame_shift,
                          coupling, (p, q), transform)
    blk.transform["lambda_s_closed"] = lam_s_closed
    return blk


def block_set_A(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Energy-conserving coupled pair driven by two second-order internal
    factors (witness (j3, j4)); always elliptic."""
    j3, j4 = pair.internal_witness
    if pair.s - pair.t == 2 * (j4 - j3):
        role_s, role_t = pair.s, pair.t
    else:
        role_s, role_t = pair.t, pair.s
    frame_shift = 2 * _omega_of(spec, j3) - 2 * _omega_of(spec, j4)
    coupling = _ordered_count((j3, j3, role_s), (j4, j4, role_t)) * spec.nu**2 * float(
        _rho_of(spec, j3) * _rho_of(spec, j4))
    return _zeta_eta_block(spec, "A", role_s, role_t, frame_shift, coupling,
                           (j3, j4), {})


def block_set_C(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Energy-conserving coupled pair driven by one second-order and two
    first-order internal factors (witness (a, b, c)); always elliptic."""
    a, b, c = pair.internal_witness
    if pair.s - pair.t == b + c - 2 * a:
        role_s, role_t = pair.s, pair.t
    else:
        role_s, role_t = pair.t, pair.s
    frame_shift = 2 * _omega_of(spec, a) - _omega_of(spec, b) - _omega_of(spec, c)
    count = _ordered_count((a, a, role_s), (b, c, role_t))
    coupling = count * spec.nu**2 * float(_rho_of(spec, a)) * math.sqrt(
        float(_rho_of(spec, b) * _rho_of(spec, c)))
    return _zeta_eta_block(spec, "C", role_s, role_t, frame_shift, coupling,
                           (a, b, c), {"ordered_count": count})


def b_gap_coefficient(rho: Sequence):
    """Exact nu^-2 coefficient of a = (Lambda_t - Lambda_s)/2 for the
    pair-creation block: (9*A - 3*B)/2 with A the external-shift polynomial
    and B = -rho1^2 + rho2^2 + 5 rho3^2 - 6 rho1 rho2 + 12 rho2 rho3 + 6 rho3 rho1."""
    r1, r2, r3 = rho
    nineA = lambda_coefficient(rho)
    B = -r1 * r1 + r2 * r2 + 5 * r3 * r3 - 6 * r1 * r2 + 12 * r2 * r3 + 6 * r3 * r1
    val = nineA - 3 * B
    return Fraction(val, 2) if isinstance(val, int) else val / 2


def block_set_B(spec: TorusSpec, pair: ExternalPair,
                witness: tuple[int, int, int] | None = None) -> SpectralBlock:
    """Pair-creation coupled block (the instability mechanism).

    With witness ordering (j5, j6, j7) mapped onto (rho1, rho2, rho3):
    Lambda_t by the external formula, Lambda_s = t^2 + 3 nu^2 (-rho1^2 +
    rho2^2 + 5 rho3^2 - 6 rho1 rho2 + 12 rho2 rho3 + 6 rho3 rho1),
    a = (Lambda_t - Lambda_s)/2, b = (Lambda_t + Lambda_s)/2, coupling
    18 nu^2 rho1 sqrt(rho2 rho3), eigenvalues b +- sqrt(a^2 - coupling^2).
    Hyperbolic iff the discriminant is negative; the generic 4x4 eigensolve
    cross-checks the closed form.
    """
    if witness is None:
        witness = pair.internal_witness
    j5, j6, j7 = witness
    r1 = _rho_of(spec, j5)
    r2 = _rho_of(spec, j6)
    r3 = _rho_of(spec, j7)
    nu2 = spec.nu**2
    s, t = pair.s, pair.t
    lam_t = lambda_external(t, spec)
    B_poly = -r1 * r1 + r2 * r2 + 5 * r3 * r3 - 6 * r1 * r2 + 12 * r2 * r3 + 6 * r3 * r1
    lam_s = t * t + 3 * nu2 * float(B_poly)
    a = (lam_t - lam_s) / 2
    b = (lam_t + lam_s) / 2
    if _exactable(r1) and _exactable(r2) and _exactable(r3):
        a_exact = b_gap_coefficient((Fraction(r1), Fraction(r2), Fraction(r3)))
        if a_exact == 0:
            a = 0.0
    coupling = 18 * nu2 * float(r1) * math.sqrt(float(r2 * r3))
    disc = a * a - coupling * coupling  # = a^2 - 324 nu^4 rho1^2 rho2 rho3
    scale = max(a * a, coupling * coupling, (1e-3 * nu2) ** 2)
    if disc != 0.0 and abs(disc) < 1e-12 * scale:
        raise DegenerateBlock(
            f"set-B discriminant {disc} within tolerance of zero for pair {pair.modes}")
    root = cmath.sqrt(complex(disc, 0.0))
    closed = [b - root, b + root]
    # real 4x4: the s-role action flips sign in the chart where the
    # pair-creation coupling is autonomous.
    coeff = _creation_pair_coeff(-lam_s, lam_t, coupling)
    eig = generic_block_spectrum(coeff)
    cls = DEGENERATE if disc == 0.0 else _classify(eig, spec.nu)
    if disc == 0.0 and coupling == 0.0:
        cls = _classify(eig, spec.nu)
    transform = {
        "a": a,
        "b": b,
        "discriminant": disc,
        "closed_form": [[z.real, z.imag] for z in sorted(closed, key=lambda z: (z.real, z.imag))],
    }
    return SpectralBlock("B", (s, t), coeff, tuple(eig), cls,
                         (lam_s, lam_t), coupling, transform, witness)


def block_set_E(spec: TorusSpec, s: int,
                witness: tuple[int, int, int] | None = None) -> SpectralBlock:
    """Single-mode self-coupled block (zeta^2 + eta^2 coupling).

    Lambda_s = 3 nu^2 (2 rho1^2 + rho2^2 - rho3^2 + 9 rho1 rho2 + 3 rho3 rho1)
    in the reference closed form (note: no s^2 term; flagged), coupling
    c = nu^2 rho1 sqrt(rho2 rho3).  Hyperbolic iff |c| > |Lambda_s| / 2 per
    the generic spectrum of the real 2x2 form.
    """
    if witness is None:
        witness = spec.internal
    r = [float(_rho_of(spec, m)) for m in witness]
    nu2 = spec.nu**2
    lam_s = 3 * nu2 * (2 * r[0] ** 2 + r[1] ** 2 - r[2] ** 2 + 9 * r[0] * r[1] + 3 * r[2] * r[0])
    c = nu2 * r[0] * math.sqrt(r[1] * r[2])
    # H = lam_s |z|^2 + c (z^2 + eta^2) = (lam_s/2 + c) x^2 + (lam_s/2 - c) y^2,
    # whose Hessian is diag(lam_s + 2c, lam_s - 2c).
    coeff = np.array([[lam_s + 2 * c, 0.0], [0.0, lam_s - 2 * c]])
    eig = generic_block_spectrum(coeff)
    disc = lam_s * lam_s - 4 * c * c
    scale = max(lam_s * lam_s, 4 * c * c, (1e-3 * nu2) ** 2)
    if disc != 0.0 and abs(disc) < 1e-12 * scale:
        raise DegenerateBlock(f"set-E parabolic transition at mode {s}")
    transform: dict = {
        "notes": ["reference closed form for Lambda_s omits the s^2 term; flagged"],
        "closed_form_magnitude": math.sqrt(abs(disc)),
    }
    if c != 0.0:
        # beta solves lam_s * beta = (1 - beta^2) * c
        rad = math.sqrt(lam_s * lam_s + 4 * c * c)
        transform["beta"] = (-lam_s + rad) / (2 * c)
    cls = DEGENERATE if disc == 0.0 and (lam_s, c) != (0.0, 0.0) else _classify(eig, spec.nu)
    return SpectralBlock("E", (s,), coeff, tuple(eig), cls,
                         (lam_s,), 2 * c, transform, tuple(witness))


@dataclass
class EffectiveHamiltonian:
    spec: TorusSpec
    constant: float
    freqs: Frequencies
    scalar_lambdas: dict[int, float]
    blocks: list[SpectralBlock]

    def to_json(self) -> str:
        obj = {
            "constant": self.constant,
            "omega": list(self.freqs.omega),
            "scalar_lambdas": {str(j): self.scalar_lambdas[j] for j in sorted(self.scalar_lambdas)},
            "blocks": [
                {
                    "modes": list(b.modes),
                    "coeff": [list(map(float, row)) for row in b.coeff],
                    "eigenvalues": [[l.real, l.imag] for l in b.eigenvalues],
                    "classification": b.classification,
                }
                for b in self.blocks
            ],
        }
        return json.dumps(obj, indent=2)


@dataclass
class Classification:
    verdict: str  # "Stable" | "Unstable"
    hyperbolic_modes: list[int]
    max_im: float

    def to_json(self) -> str:
        return json.dumps({
            "verdict": self.verdict,
            "hyperbolic_modes": self.hyperbolic_modes,
            "max_im": self.max_im,
        }, indent=2)


def classify_torus(spec: TorusSpec, catalog: ResonanceCatalog,
                   band: int | None = None) -> tuple[EffectiveHamiltonian, Classification]:
    """Assemble every external block and scalar shift, classify the torus.

    Refuses (PreconditionViolated) when the catalog families overlap or,
    for 3-mode specs, when single-external-mode resonances exist: the
    block-diagonal effective form does not apply there.
    """
    if tuple(catalog.internal) != tuple(spec.internal):
        raise PreconditionViolated("catalog was built for different internal modes")
    if not catalog.disjoint:
        raise PreconditionViolated("resonance families are not disjoint")
    if len(spec.internal) == 3 and catalog.one_mode_solutions:
        raise PreconditionViolated("single-external-mode resonances present")

    blocks: list[SpectralBlock] = []
    if len(spec.internal) == 2:
        for pair in catalog.set_A:
            blocks.append(block_two_mode_case2(spec, pair))
    else:
        for pair in catalog.set_A:
            blocks.append(block_set_A(spec, pair))
        for pair in catalog.set_B:
            blocks.append(block_set_B(spec, pair))
        for pair in catalog.set_C:
            blocks.append(block_set_C(spec, pair))
        for pair in catalog.set_E:
            blocks.append(block_set_E(spec, pair.s, pair.internal_witness))

    blocked = {m for b in blocks for m in b.modes}
    if band is None:
        band = catalog.bound
    scalar = {
        j: lambda_external(j, spec)
        for j in range(-band, band + 1)
        if j not in spec.internal and j not in blocked
    }
    eff = EffectiveHamiltonian(spec, constant_metadata(spec), omega(spec), scalar, blocks)
    hyp = sorted({m for b in blocks if b.hyperbolic for m in b.modes})
    max_im = max((b.max_im for b in blocks), default=0.0)
    if not hyp:
        max_im = 0.0
    cls = Classification("Unstable" if hyp else "Stable", hyp, max_im)
    return eff, cls
