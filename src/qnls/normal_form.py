"""Effective quadratic Hamiltonians around 2- and 3-mode tori.

The sextic resonant part of the Hamiltonian contributes, at second order in
the external variables, a frequency shift to every external mode plus a
finite number of 2x2 couplings, one per catalogued external pair.  This
module assembles every block with one builder, from the internal
frequencies Omega, the external shift lambda and the block's resonant
monomial, and classifies the torus as elliptic or hyperbolic.  A block's
type follows from its structure (zeta_s eta_t pairs are Hermitian, so
elliptic) or from the exact sign of C^2 - a^2, its coupling against its gap
(the pair-creation and self-coupled blocks).  The spectrum, a direct
eigensolve of the linearized flow, is reported and decides nothing.

All rho-polynomial coefficients are counted from the resonant sextic terms
and evaluated exactly once per torus, a float rho as the rational it stores
(see ``TorusSpec``); floats appear only in reported entries and spectra.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations_with_replacement, permutations
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .resonance import RESONANT_EXPONENTS, ExternalPair, ResonanceCatalog


class DegenerateBlock(Exception):
    """A block's coupling equals its gap exactly (C^2 = a^2): the block is
    parabolic, neither elliptic nor hyperbolic."""


class PreconditionViolated(Exception):
    """Catalog fails the disjointness / no-one-mode-resonance requirements."""


@dataclass(frozen=True, slots=True)
class TorusSpec:
    """A 2- or 3-mode torus: internal modes, actions rho (|a_{m_i}|^2 = nu*rho_i),
    small parameter nu, and the rho-domain box the actions range over.

    The exact rho-polynomials that every block builder needs (the internal
    frequencies and the external shift) are evaluated once, when the spec
    is made, and live as long as it does."""

    internal: tuple[int, ...]
    rho: tuple
    nu: float
    domain: tuple[tuple[float, float], ...] = ()
    rho_float: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # internal frequencies m_i^2 + nu^2 * omega_coefficient(rho, i)
    omega: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # nu^2 * lambda(rho): the shift shared by every uncoupled external mode
    lambda_shift: float = field(init=False, repr=False, compare=False)
    # rho_i = _rho_num[i] / _rho_den exactly; a float rho_i is the rational
    # it stores
    _rho_num: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _rho_den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.internal)
        if n not in (2, 3):
            raise ValueError("internal mode count must be 2 or 3")
        if len(self.rho) != n:
            raise ValueError("rho length must match internal modes")
        # every float the torus is evaluated in comes from float(rho): NaN,
        # inf and a Fraction outside the float range are refused with it
        try:
            rho_float = tuple(float(r) for r in self.rho)
        except OverflowError:
            raise ValueError("rho must be positive and finite as a float") from None
        if not all(0.0 < r < math.inf for r in rho_float):
            raise ValueError("rho must be positive and finite as a float")
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")
        # the default point box is float(rho) itself; only a caller's box is
        # checked, against the exact rho
        dom = tuple((float(a), float(b)) for a, b in self.domain or ())
        if dom and len(dom) != n:
            raise ValueError("domain length must match internal modes")
        # interval bounds of forms in rho multiply the box's edges, which
        # holds only on a positive box
        if any(lo <= 0 for lo, _ in dom):
            raise ValueError("domain must lie in rho > 0")
        if any(not lo <= r <= hi for r, (lo, hi) in zip(self.rho, dom)):
            raise ValueError("domain must contain rho")
        put = object.__setattr__
        put(self, "rho_float", rho_float)
        put(self, "domain", dom or tuple((r, r) for r in rho_float))
        exact = [(r.numerator, r.denominator) if isinstance(r, (int, Fraction))
                 else f.as_integer_ratio() for r, f in zip(self.rho, rho_float)]
        den = math.lcm(*(d for _, d in exact))
        put(self, "_rho_num", tuple(n * (den // d) for n, d in exact))
        put(self, "_rho_den", den)
        nu2 = self.nu**2
        put(self, "omega", tuple(
            m * m + nu2 * self.float_of(lambda r, i=i: omega_coefficient(r, i))
            for i, m in enumerate(self.internal)
        ))
        put(self, "lambda_shift", nu2 * self.float_of(lambda_coefficient))

    def float_of(self, poly: Callable[[Sequence], object]) -> float:
        """float(poly(rho)) for a homogeneous quadratic ``poly``: poly(n) / d^2
        over the integers n_i = d rho_i, the same rational rounded once, as
        Fraction.__float__ rounds it; ValueError outside the float range."""
        try:
            return poly(self._rho_num) / (self._rho_den * self._rho_den)
        except OverflowError:
            raise ValueError("rho too large: a rho-polynomial overflows a float") from None


def domain_D1() -> tuple:
    return ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0))


def domain_D2() -> tuple:
    eps = 1e-2
    return ((2 - eps, 2 + eps), (1 - eps, 1 + eps), (9 - eps, 9 + eps))


# ---------------------------------------------------------------------------
# Frequency and external-shift polynomials, counted from the resonant sextic
# terms.  They run in the arithmetic of their inputs.

def _ordered_count(j_side: Sequence[int], l_side: Sequence[int]) -> int:
    return len(set(permutations(j_side))) * len(set(permutations(l_side)))


@lru_cache(maxsize=2)
def _shift_terms(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The terms (c, a, b) of Omega_0 .. Omega_{n-1} and then of lambda, each
    polynomial the sum of c rho_a rho_b, over n internal modes.

    Z6 = sum_S N(S)^2 rho^S over the sides S, multisets of three internal
    indices, N(S) their ordered count (``_z6_counts``).  Omega_i = dZ6/drho_i
    takes, for each pair P, the side S = P + {i} with factor S.count(i);
    lambda fills each side with a pair P and one external factor.
    """
    pairs = list(combinations_with_replacement(range(n), 2))
    omega = []
    for i in range(n):
        sides = [tuple(sorted(p + (i,))) for p in pairs]
        omega.append(tuple((s.count(i) * _ordered_count(s, s), *p) for s, p in zip(sides, pairs)))
    ext = (n,)  # the external factor, a label no internal index takes
    return (*omega, tuple((_ordered_count(p + ext, p + ext), *p) for p in pairs))


def _quadratic(terms: Sequence[tuple[int, int, int]], rho: Sequence):
    return sum(c * rho[a] * rho[b] for c, a, b in terms)


def omega_coefficient(rho: Sequence, i: int):
    """nu^-2 coefficient of the frequency shift of internal mode i, dZ6/drho_i."""
    return _quadratic(_shift_terms(len(rho))[i], rho)


def lambda_coefficient(rho: Sequence):
    """nu^-2 coefficient of the shift of an uncoupled external mode: Z6's
    count with one external factor on each side."""
    return _quadratic(_shift_terms(len(rho))[-1], rho)


@lru_cache(maxsize=16)
def rho_form(poly: Callable[..., object], n: int, *args) -> np.ndarray:
    """Symmetric matrix Q with rho.Q.rho = poly(rho, *args) for a
    homogeneous quadratic ``poly`` in n actions, read-only.

    Q is read off poly by exact evaluation at integer points:
    Q_ii = P(e_i) and Q_ij = (P(e_i + e_j) - P(e_i) - P(e_j)) / 2.
    """
    def at(*idx):
        e = [0] * n
        for i in idx:
            e[i] += 1
        return Fraction(poly(e, *args))

    diag = [at(i) for i in range(n)]
    Q = np.array([[diag[i] if i == j else (at(i, j) - diag[i] - diag[j]) / 2
                   for j in range(n)] for i in range(n)], dtype=float)
    Q.flags.writeable = False
    return Q


@lru_cache(maxsize=2)
def _z6_counts(n: int) -> Mapping[tuple[int, ...], int]:
    """N(S)^2 of each side S of the resonant sextic part, keyed by S's
    exponent vector over n internal modes, S in lexicographic order: the
    1 / 9 / 36 pattern, read-only."""
    return MappingProxyType({tuple(s.count(i) for i in range(n)): _ordered_count(s, s)
                             for s in combinations_with_replacement(range(n), 3)})


def constant_metadata(spec: TorusSpec) -> float:
    """The additive constant split off by the normal form, the counted
    resonant Z6 plus H2 = sum m^2 nu rho at the torus, for two modes as for
    three; metadata only (constants never affect spectra)."""
    nu = spec.nu
    rho = spec.rho_float
    nu_rho = [nu * r for r in rho]
    z06 = sum(
        c * math.prod(x ** e for x, e in zip(nu_rho, expo))
        for expo, c in _z6_counts(len(spec.internal)).items()
    )
    return z06 + sum(m * m * nu * r for m, r in zip(spec.internal, rho))


# ---------------------------------------------------------------------------
# Spectral blocks.

@cache
def standard_symplectic_form(dim: int) -> np.ndarray:
    """J on coordinates (x_1..x_n, y_1..y_n), read-only."""
    if dim % 2:
        raise ValueError("dimension must be even")
    n = dim // 2
    J = np.zeros((dim, dim))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    J.flags.writeable = False
    return J


def generic_block_spectrum(coeff: np.ndarray) -> list[complex]:
    """Frequencies of the quadratic Hamiltonian with Hessian ``coeff``.

    Eigenvalues mu of J*coeff come in (mu, -mu) pairs; the frequencies are
    Lambda = i*mu, one representative per pair, chosen with Re > 0 (or
    Im >= 0 on the imaginary axis) and sorted by (real, imaginary) part.
    Parts below 1e-10 of the spectral scale are snapped to zero; the
    snapped values then pair up as (Lambda, -Lambda) across the middle of
    their (real, imaginary) order, so the upper half is the representatives.
    A defective repeated eigenvalue that the eigensolver splits past the
    snap can break that pairing.

    The values are reported only: no block's classification reads them, so
    such a split can move a reported eigenvalue but not a verdict.
    """
    coeff = np.asarray(coeff, dtype=float)
    if coeff.ndim != 2 or coeff.shape[0] != coeff.shape[1] or coeff.shape[0] % 2:
        raise ValueError("coeff must be square with even dimension")
    mu = np.linalg.eigvals(standard_symplectic_form(coeff.shape[0]) @ coeff)
    lam = 1j * mu
    scale = max(1.0, float(np.max(np.abs(lam))))
    tol = 1e-10 * scale

    def snap(z: complex) -> complex:
        re = 0.0 if abs(z.real) < tol else z.real
        im = 0.0 if abs(z.imag) < tol else z.imag
        return complex(re, im)

    vals = sorted((snap(z) for z in lam), key=lambda z: (z.real, z.imag))
    return vals[coeff.shape[0] // 2:]


ELLIPTIC = "Elliptic"
HYPERBOLIC = "Hyperbolic"
# kinds whose zeta_s eta_t coupling conserves energy: Hermitian 2x2 forms,
# so elliptic; the frame shift -k.Omega that makes the coupling autonomous
# moves Lambda_s
_ENERGY_CONSERVING = ("A", "C", "TwoMode")
# The E block stores 2c for the reference closed form's coupling
# c = nu^2 rho_1 sqrt(rho_2 rho_3), count 1, although its monomial's ordered
# count is 9 (ROADMAP item 7).
_E_COUNT = 2


@dataclass(slots=True)
class SpectralBlock:
    """A coupled group of external modes with its quadratic form and spectrum.

    ``diag`` holds the uncoupled Lambda entries entering the matrix (trace
    check), ``coupling`` the off-diagonal strength; with ``kind`` they fix
    the matrix, so it is derived on access rather than held by every block.
    ``witness`` lists the internal modes the kind's resonant exponents act on,
    and ``k`` is that monomial's net exponent vector over the internal
    modes, in internal order.  ``margin`` is (C^2 - a^2) / nu^4 of a B or E
    block, exact and then rounded once (its sign is the classification),
    None for a Hermitian pair; ``nu2`` is the spec's nu^2.
    """

    kind: str
    modes: tuple[int, ...]
    eigenvalues: tuple[complex, ...]
    classification: str
    diag: tuple[float, ...]
    coupling: float
    witness: tuple[int, ...]
    k: tuple[int, ...]
    margin: float | None
    nu2: object

    @property
    def coeff(self) -> np.ndarray:
        """The real Hessian of the block's quadratic form (``block_hessian``)."""
        return block_hessian(self.kind, self.diag, self.coupling)

    @property
    def hyperbolic(self) -> bool:
        return self.classification == HYPERBOLIC

    @property
    def max_im(self) -> float:
        """The largest |Im| of the spectrum; for a hyperbolic block whose
        imaginary parts fell below the spectrum's snap, nu^2 sqrt(margin),
        its exact rate rounded."""
        im = max(abs(l.imag) for l in self.eigenvalues)
        if im == 0.0 and self.hyperbolic:
            return float(self.nu2) * math.sqrt(self.margin)
        return im


def _pair_coeff(lam_s: float, lam_t: float, c: float, sign: int) -> np.ndarray:
    """Real Hessian of lam_s|z_s|^2 + lam_t|z_t|^2 + c*2Re(z_s w), with
    w = conj(z_t) for sign +1 (Hermitian) and w = z_t for sign -1 (creation)."""
    return np.array([
        [lam_s, c, 0.0, 0.0],
        [c, lam_t, 0.0, 0.0],
        [0.0, 0.0, lam_s, sign * c],
        [0.0, 0.0, sign * c, lam_t],
    ])


def block_hessian(kind: str, diag: tuple[float, ...], coupling: float) -> np.ndarray:
    """Real Hessian of a block's quadratic form from its diagonal Lambda
    entries and its coupling.

    Energy-conserving pairs (A, C, TwoMode) are Hermitian.  For pair
    creation (B) the s-role action flips sign in the chart where the
    coupling is autonomous.  The self-coupled E block, with coupling 2c, is
    H = lam_s |z|^2 + c (z^2 + eta^2) = (lam_s/2 + c) x^2 + (lam_s/2 - c) y^2,
    whose Hessian is diag(lam_s + 2c, lam_s - 2c).
    """
    if kind == "E":
        (lam_s,) = diag
        return np.array([[lam_s + coupling, 0.0], [0.0, lam_s - coupling]])
    lam_s, lam_t = diag
    if kind == "B":
        return _pair_coeff(-lam_s, lam_t, coupling, -1)
    return _pair_coeff(lam_s, lam_t, coupling, 1)


def _twice_gap(rho: Sequence, idx: Sequence[int]):
    """2 lambda + k.omega for the pair-creation exponents k over the witness
    whose modes sit at internal indices ``idx``."""
    k = RESONANT_EXPONENTS["B"]
    return 2 * lambda_coefficient(rho) + sum(e * omega_coefficient(rho, i) for e, i in zip(k, idx))


def b_gap_coefficient(rho: Sequence):
    """Exact nu^-2 coefficient of a = (Lambda_t - Lambda_s)/2 of the
    pair-creation block, rho in witness order: lambda + k.omega/2.  It is
    also the self-coupled block's Lambda_s / nu^2."""
    val = _twice_gap(rho, range(3))
    return Fraction(val, 2) if isinstance(val, int) else val / 2


def coupling_count(kind: str, witness: Sequence[int], s: int, t: int) -> int:
    """The factor of nu^2 prod rho_m^{|k_m|/2} in the stored coupling of a
    block: the ordered count of its resonant sextic monomial, whose negative
    exponents fill one side and positive exponents the other, each side
    filled to three factors by the external modes s and t (E keeps its
    reference count, ``_E_COUNT``)."""
    if kind == "E":
        return _E_COUNT
    k = RESONANT_EXPONENTS[kind]
    j_side = [m for e, m in zip(k, witness) for _ in range(-e)]
    l_side = [m for e, m in zip(k, witness) for _ in range(e)]
    n = 3 - len(j_side)
    return _ordered_count(j_side + [s, t][:n], l_side + [s, t][n:])


def block_coupling(spec: TorusSpec, kind: str, s: int, t: int, witness: Sequence[int]) -> float:
    """The coupling of the block of ``kind`` over ``witness`` with external
    modes s and t: ``coupling_count`` times nu^2 prod rho_m^{|k_m|/2}, that
    is nu^2 rho_a rho_b for two second-order factors and
    nu^2 rho_a sqrt(rho_b rho_c) for one second- and two first-order ones,
    taken at ``spec``'s rho."""
    k = RESONANT_EXPONENTS[kind]
    full = [spec.internal.index(m) for e, m in zip(k, witness) if abs(e) == 2]
    half = [spec.internal.index(m) for e, m in zip(k, witness) if abs(e) == 1]
    coupling = coupling_count(kind, witness, s, t) * spec.nu**2
    if half:
        return coupling * spec.rho_float[full[0]] * math.sqrt(
            spec.float_of(lambda r: r[half[0]] * r[half[1]]))
    return coupling * spec.float_of(lambda r: r[full[0]] * r[full[1]])


def _block(spec: TorusSpec, kind: str, s: int, t: int, witness: tuple[int, ...]) -> SpectralBlock:
    """The block of the resonant monomial of ``kind`` over ``witness``,
    coupling the external modes s and t (s = t for E).

    The monomial's exponents k fix every entry:
    - coupling: ``block_coupling``;
    - diagonal: Lambda_t = t^2 + nu^2 lambda.  A zeta_s eta_t pair (A, C,
      TwoMode) orders its roles so that k.witness = s - t and moves
      Lambda_s = s^2 + nu^2 lambda by the frame shift -k.Omega.  The
      creation pair B has Lambda_s = t^2 + nu^2 (-k.omega - lambda), the
      self block E Lambda_s = nu^2 (lambda + k.omega/2);
    - classification, by structure: a zeta_s eta_t pair is a Hermitian form,
      always elliptic.  B and E are hyperbolic iff C^2 > a^2, with C the
      coupling count nu^2 rho_a sqrt(rho_b rho_c) over witness (a, b, c) and
      the gap a = (Lambda_t - Lambda_s)/2 for B, Lambda_s for E, which is
      nu^2 g with g = ``b_gap_coefficient`` of rho in witness order.  So the
      sign of count^2 rho_a^2 rho_b rho_c - g^2 decides, in exact rationals
      and free of nu; C^2 = a^2 exactly raises DegenerateBlock;
    - spectrum: ``generic_block_spectrum`` of ``block_hessian``, reported
      only.
    """
    k = RESONANT_EXPONENTS[kind]
    idx = [spec.internal.index(m) for m in witness]
    net = [0] * len(spec.internal)
    for e, i in zip(k, idx):
        net[i] += e
    nu2 = spec.nu**2
    conserving = kind in _ENERGY_CONSERVING
    if conserving and s - t != sum(e * m for e, m in zip(k, witness)):
        s, t = t, s
    coupling = block_coupling(spec, kind, s, t, witness)

    lam_t = t * t + spec.lambda_shift
    if conserving:
        frame_shift = sum(-e * spec.omega[i] for e, i in zip(k, idx))
        diag = (s * s + spec.lambda_shift + frame_shift, lam_t)
    elif kind == "B":
        diag = (t * t + nu2 * spec.float_of(lambda r: lambda_coefficient(r) - _twice_gap(r, idx)),
                lam_t)
    else:
        diag = (nu2 * spec.float_of(lambda r: _twice_gap(r, idx)) / 2,)
    cls, margin = ELLIPTIC, None
    if not conserving:
        # homogeneous of degree 4, so the integers d*rho give its sign
        ra, rb, rc = (spec._rho_num[i] for i in idx)
        g = b_gap_coefficient((ra, rb, rc))
        excess = coupling_count(kind, witness, s, t) ** 2 * ra * ra * rb * rc - g * g
        if excess == 0:
            raise DegenerateBlock(f"set-{kind} coupling equals its gap, C^2 = a^2, "
                                  f"for modes {(s, t)}")
        if excess > 0:
            cls = HYPERBOLIC
        margin = float(excess / spec._rho_den**4)
    eig = generic_block_spectrum(block_hessian(kind, diag, coupling))
    return SpectralBlock(kind, (s,) if kind == "E" else (s, t), tuple(eig), cls,
                         diag, coupling, tuple(witness), tuple(net), margin, nu2)


# The builders classify_torus calls, one per catalog family, each through
# its module global.

def block_two_mode_case2(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Coupled block of the even-gap two-mode torus; always elliptic."""
    return _block(spec, "TwoMode", pair.s, pair.t, pair.internal_witness)


def block_set_A(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Energy-conserving coupled pair driven by two second-order internal
    factors (witness (j3, j4)); always elliptic."""
    return _block(spec, "A", pair.s, pair.t, pair.internal_witness)


def block_set_C(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Energy-conserving coupled pair driven by one second-order and two
    first-order internal factors (witness (a, b, c)); always elliptic."""
    return _block(spec, "C", pair.s, pair.t, pair.internal_witness)


def block_set_B(spec: TorusSpec, pair: ExternalPair) -> SpectralBlock:
    """Pair-creation coupled block (the instability mechanism), witness
    (j5, j6, j7)."""
    return _block(spec, "B", pair.s, pair.t, pair.internal_witness)


def block_set_E(spec: TorusSpec, s: int, witness: tuple[int, int, int]) -> SpectralBlock:
    """Single-mode self-coupled block (zeta^2 + eta^2 coupling)."""
    return _block(spec, "E", s, s, witness)


@dataclass
class EffectiveHamiltonian:
    """Uncoupled external modes |j| <= band share one shift,
    ``spec.lambda_shift``."""

    spec: TorusSpec
    constant: float
    band: int
    blocks: list[SpectralBlock]

    @property
    def scalar_lambdas(self) -> dict[int, float]:
        """Lambda_j = j^2 + spec.lambda_shift of each band mode neither internal
        nor in a block, in increasing j."""
        taken = set(self.spec.internal).union(*(b.modes for b in self.blocks))
        return {j: j * j + self.spec.lambda_shift
                for j in range(-self.band, self.band + 1) if j not in taken}

    def to_json(self) -> str:
        obj = {
            "constant": self.constant,
            "omega": list(self.spec.omega),
            "scalar_lambdas": {str(j): lam for j, lam in self.scalar_lambdas.items()},
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


@dataclass(slots=True)
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

    if band is None:
        band = catalog.bound
    eff = EffectiveHamiltonian(spec, constant_metadata(spec), band, blocks)
    hyp = sorted({m for b in blocks if b.hyperbolic for m in b.modes})
    max_im = max((b.max_im for b in blocks), default=0.0)
    if not hyp:
        max_im = 0.0
    cls = Classification("Unstable" if hyp else "Stable", hyp, max_im)
    return eff, cls
