"""Effective quadratic Hamiltonians around 2- and 3-mode tori.

The sextic resonant part of the Hamiltonian contributes, at second order in
the external variables, a frequency shift to every external mode plus a
finite number of 2x2 couplings, one per catalogued external pair.  This
module assembles every block with one builder, from the internal
frequencies Omega, the external shift lambda and the block's resonant
monomial, and classifies the torus as elliptic or hyperbolic.  A block's
type follows from its structure (zeta_s eta_t pairs are Hermitian, so
elliptic) or from the exact sign of C^2 - a^2, its coupling against its gap
(the pair-creation and self-coupled blocks).  The spectrum is reported only:
an eigensolve run when it is read, so classifying a torus runs none.

Every frequency is a rho-form, one vector of integer coefficients counted
from the resonant sextic terms (``shift_forms``, ``twice_gap_form``), and is
evaluated exactly once per torus, a float rho as the rational it stores (see
``TorusSpec``); floats appear only in reported entries and spectra.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from types import MappingProxyType
from typing import Mapping, Sequence

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

    The exact rho-forms that every block builder needs (the internal
    frequencies and the external shift) are evaluated once, when the spec
    is made, and live as long as it does."""

    internal: tuple[int, ...]
    rho: tuple
    nu: float
    domain: tuple[tuple[float, float], ...] = ()
    # nu^2 in nu's own arithmetic: exact for a Fraction nu
    nu2: float = field(init=False, repr=False, compare=False)
    rho_float: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # internal frequencies m_i^2 + nu^2 Omega_i(rho), Omega_i from shift_forms
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
        if len(set(self.internal)) != n:
            raise ValueError("internal modes must be distinct")
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
        if not all(math.isfinite(x) for edge in dom for x in edge):
            raise ValueError("domain must be finite")
        # interval bounds of forms in rho multiply the box's edges, which
        # holds only on a positive box
        if any(lo <= 0 for lo, _ in dom):
            raise ValueError("domain must lie in rho > 0")
        if any(not lo <= r <= hi for r, (lo, hi) in zip(self.rho, dom)):
            raise ValueError("domain must contain rho")
        put = object.__setattr__
        put(self, "nu2", self.nu**2)
        put(self, "rho_float", rho_float)
        put(self, "domain", dom or tuple((r, r) for r in rho_float))
        exact = [(r.numerator, r.denominator) if isinstance(r, (int, Fraction))
                 else f.as_integer_ratio() for r, f in zip(self.rho, rho_float)]
        den = math.lcm(*(d for _, d in exact))
        put(self, "_rho_num", tuple(n * (den // d) for n, d in exact))
        put(self, "_rho_den", den)
        *omega, lam = shift_forms(n)
        put(self, "omega", tuple(m * m + self.nu2 * self.float_of(w)
                                 for m, w in zip(self.internal, omega)))
        put(self, "lambda_shift", self.nu2 * self.float_of(lam))

    def float_of(self, coef: Sequence[int]) -> float:
        """float of the form ``coef`` at rho: its value at the integers
        n_i = d rho_i over d^2, the exact rational rounded once; ValueError
        outside the float range."""
        return _rounded(form_value(coef, self._rho_num), self._rho_den**2)


def domain_D1() -> tuple:
    return ((1.0, 2.0), (1.0, 2.0), (1.0, 2.0))


def domain_D2() -> tuple:
    eps = 1e-2
    return ((2 - eps, 2 + eps), (1 - eps, 1 + eps), (9 - eps, 9 + eps))


# ---------------------------------------------------------------------------
# rho-forms: homogeneous quadratics in rho, each a vector of integer
# coefficients over ``pairs(n)``, all counted from the resonant sextic terms.

def _ordered_count(j_side: Sequence[int], l_side: Sequence[int]) -> int:
    return len(set(permutations(j_side))) * len(set(permutations(l_side)))


@cache
def _z6_counts(n: int) -> Mapping[tuple[int, ...], int]:
    """N(S)^2 of each side S of the resonant sextic part, keyed by S's
    exponent vector over n modes, S in lexicographic order: the 1 / 9 / 36
    pattern, read-only.  The one count of sextic sides."""
    return MappingProxyType({tuple(s.count(i) for i in range(n)): _ordered_count(s, s)
                             for s in combinations_with_replacement(range(n), 3)})


@cache
def pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The monomials rho_a rho_b of a form, a <= b in row-major order."""
    return tuple((a, b) for a in range(n) for b in range(a, n))


def form_value(coef: Sequence, rho: Sequence):
    """sum c rho_a rho_b over ``pairs``, in the arithmetic of rho."""
    return sum(c * rho[a] * rho[b] for c, (a, b) in zip(coef, pairs(len(rho))))


@cache
def shift_forms(n: int) -> tuple[tuple[int, ...], ...]:
    """The nu^-2 frequency shifts Omega_0 .. Omega_{n-1} and then lambda as
    forms: the gradient of Z6 = sum_e N(e)^2 rho^e (``_z6_counts``) over the
    n internal modes and one external mode n, at zero external action.  The
    coefficient of rho_a rho_b in dZ6/drho_i is e_i N(e)^2 at e = e_a + e_b + e_i."""
    counts = _z6_counts(n + 1)
    sides = [[tuple(map((a, b, i).count, range(n + 1))) for a, b in pairs(n)]
             for i in range(n + 1)]
    return tuple(tuple(e[i] * counts[e] for e in row) for i, row in enumerate(sides))


@cache
def twice_gap_form(k: tuple[int, ...]) -> tuple[int, ...]:
    """2 lambda + k.Omega for the net exponents k over the internal modes:
    twice the gap a / nu^2 of a pair-creation block, and twice the
    self-coupled block's Lambda_s / nu^2."""
    *omega, lam = shift_forms(len(k))
    return tuple(2 * l + sum(e * w for e, w in zip(k, col)) for l, *col in zip(lam, *omega))


def _rounded(num: int, den: int, what: str = "a rho-form") -> float:
    """num / den rounded once, as Fraction.__float__ rounds it; ValueError
    naming ``what`` outside the float range."""
    try:
        return num / den
    except OverflowError:
        raise ValueError(f"rho too large: {what} overflows a float") from None


def constant_metadata(spec: TorusSpec) -> float:
    """The additive constant split off by the normal form, the counted
    resonant Z6 plus H2 = sum m^2 nu rho at the torus, for two modes as for
    three; metadata only (constants never affect spectra).  ValueError when
    it overflows a float."""
    nu = spec.nu
    rho = spec.rho_float
    nu_rho = [nu * r for r in rho]
    try:
        z06 = sum(
            c * math.prod(x ** e for x, e in zip(nu_rho, expo))
            for expo, c in _z6_counts(len(spec.internal)).items()
        )
    except OverflowError:
        z06 = math.inf
    constant = z06 + sum(m * m * nu * r for m, r in zip(spec.internal, rho))
    if not math.isfinite(constant):
        raise ValueError("rho too large: the normal form's constant overflows a float")
    return constant


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
    the matrix and its spectrum, both computed on each read, not stored.
    ``witness`` lists the internal modes the kind's resonant exponents act on,
    and ``k`` is that monomial's net exponent vector over the internal
    modes, in internal order.  ``margin`` is (C^2 - a^2) / nu^4 of a B or E
    block, exact and then rounded once (its sign is the classification),
    None for a Hermitian pair.  ``max_im`` is a hyperbolic block's rate
    nu^2 sqrt(margin), 0.0 for an elliptic one.
    """

    kind: str
    modes: tuple[int, ...]
    classification: str
    diag: tuple[float, ...]
    coupling: float
    witness: tuple[int, ...]
    k: tuple[int, ...]
    margin: float | None
    max_im: float

    @property
    def coeff(self) -> np.ndarray:
        """The real Hessian of the block's quadratic form (``block_hessian``)."""
        return block_hessian(self.kind, self.diag, self.coupling)

    @property
    def eigenvalues(self) -> tuple[complex, ...]:
        """The reported spectrum, ``generic_block_spectrum`` of ``coeff``."""
        return tuple(generic_block_spectrum(self.coeff))

    @property
    def hyperbolic(self) -> bool:
        return self.classification == HYPERBOLIC


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


def _block(spec: TorusSpec, kind: str, s: int, t: int, witness: tuple[int, ...]) -> SpectralBlock:
    """The block of the resonant monomial of ``kind`` over ``witness``,
    coupling the external modes s and t (s = t for E).

    The monomial's exponents k fix every entry:
    - coupling: ``coupling_count`` times nu^2 prod rho_m^{|k_m|/2}, that is
      nu^2 rho_a rho_b for two second-order factors (a, b) and
      nu^2 rho_a sqrt(rho_b rho_c) for a second-order factor a and two
      first-order ones (b, c); the rho products are the exact products
      rounded once;
    - diagonal: Lambda_t = t^2 + nu^2 lambda.  A zeta_s eta_t pair (A, C,
      TwoMode) orders its roles so that k.witness = s - t and moves
      Lambda_s = s^2 + nu^2 lambda by the frame shift -k.Omega.  The
      creation pair B has Lambda_s = t^2 + nu^2 (-k.omega - lambda), the
      self block E Lambda_s = nu^2 (lambda + k.omega/2);
    - classification, by structure: a zeta_s eta_t pair is a Hermitian form,
      always elliptic.  B and E are hyperbolic iff C^2 > a^2, with C the
      coupling and the gap a = (Lambda_t - Lambda_s)/2 for B, Lambda_s for
      E, which is nu^2 T / 2 with T the form ``twice_gap_form(k)``.  So the
      sign of the integer 4 (C^2 - a^2) d^4 / nu^4 = 4 count^2 n_a^2 n_b n_c
      - T(n)^2 decides, over the integers n = d rho and free of nu; C^2 = a^2
      exactly raises DegenerateBlock.  A hyperbolic block's rate is
      nu^2 sqrt(margin);
    - spectrum: none; ``SpectralBlock.eigenvalues`` eigensolves when read.
    """
    k = RESONANT_EXPONENTS[kind]
    idx = [spec.internal.index(m) for m in witness]
    net = [0] * len(spec.internal)
    for e, i in zip(k, idx):
        net[i] += e
    conserving = kind in _ENERGY_CONSERVING
    if conserving and s - t != sum(e * m for e, m in zip(k, witness)):
        s, t = t, s
    count = coupling_count(kind, witness, s, t)
    num, den2 = spec._rho_num, spec._rho_den**2
    # every kind's first witness factor is second-order (|k| = 2); the
    # others are one more second-order factor or two first-order ones
    n_a, *rest = (num[i] for i in idx)
    if len(rest) == 2:
        coupling = count * spec.nu2 * spec.rho_float[idx[0]] * math.sqrt(
            _rounded(rest[0] * rest[1], den2))
    else:
        coupling = count * spec.nu2 * _rounded(n_a * rest[0], den2)

    lam_t = t * t + spec.lambda_shift
    cls, margin, rate = ELLIPTIC, None, 0.0
    if conserving:
        frame_shift = sum(-e * spec.omega[i] for e, i in zip(k, idx))
        diag = (s * s + spec.lambda_shift + frame_shift, lam_t)
    else:
        twice = form_value(twice_gap_form(tuple(net)), num)
        if kind == "B":
            lam = form_value(shift_forms(len(num))[-1], num)
            diag = (t * t + spec.nu2 * _rounded(lam - twice, den2), lam_t)
        else:
            diag = (spec.nu2 * _rounded(twice, den2) / 2,)
        excess = 4 * count**2 * n_a * n_a * rest[0] * rest[1] - twice * twice
        if excess == 0:
            raise DegenerateBlock(f"set-{kind} coupling equals its gap, C^2 = a^2, "
                                  f"for modes {(s, t)}")
        margin = _rounded(excess, 4 * den2 * den2, f"the {kind} block's margin")
        if excess > 0:
            cls, rate = HYPERBOLIC, float(spec.nu2) * math.sqrt(margin)
    return SpectralBlock(kind, (s,) if kind == "E" else (s, t), cls,
                         diag, coupling, tuple(witness), tuple(net), margin, rate)


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
    """Assemble every external block and scalar shift, classify the torus,
    from exact block types alone: no block's spectrum is computed.

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

    if len(spec.internal) == 2:
        blocks = [block_two_mode_case2(spec, pair) for pair in catalog.set_A]
    else:
        blocks = ([block_set_A(spec, pair) for pair in catalog.set_A]
                  + [block_set_B(spec, pair) for pair in catalog.set_B]
                  + [block_set_C(spec, pair) for pair in catalog.set_C]
                  + [block_set_E(spec, pair.s, pair.internal_witness) for pair in catalog.set_E])

    band = catalog.bound if band is None else band
    if band < 0:
        raise ValueError(f"band must be nonnegative, got {band}")
    eff = EffectiveHamiltonian(spec, constant_metadata(spec), band, blocks)
    hyp = sorted({m for b in blocks if b.hyperbolic for m in b.modes})
    max_im = max((b.max_im for b in blocks), default=0.0)
    cls = Classification("Unstable" if hyp else "Stable", hyp, max_im)
    return eff, cls
