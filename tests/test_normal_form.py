"""Effective-Hamiltonian frequency shifts, block spectra, classification."""

import cmath
import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import normal_form as nf
from qnls import resonance as rs


FLAGSHIP = (-3, 10, -6)


def flagship_eff(rho=(2.0, 1.0, 9.0), nu=0.01, domain=None, band=20):
    cat = rs.enumerate_sets(FLAGSHIP)
    spec = nf.TorusSpec(FLAGSHIP, rho, nu, domain=domain)
    return nf.classify_torus(spec, cat, band=band)


# ---------------------------------------------------------------------------
# frequency shifts

def test_omega_matches_coefficients():
    spec = nf.TorusSpec((0, 1), (2.0, 3.0), 0.1)
    for i, j in enumerate(spec.internal):
        shift = nf.form_value(nf.shift_forms(2)[i], spec.rho)
        assert spec.omega[i] == pytest.approx(j * j + 0.1**2 * shift)


def test_rho_must_be_positive():
    with pytest.raises(ValueError):
        nf.TorusSpec((0, 1), (1.0, 0.0), 0.1)


@pytest.mark.parametrize("r", [math.nan, math.inf, Fraction(1, 10**400), Fraction(10**400)],
                         ids=["nan", "inf", "fraction-underflow", "fraction-overflow"])
def test_rho_float_must_be_positive_and_finite(r):
    # every float of the torus comes from float(rho): NaN and inf pass a
    # plain "r <= 0" test, the tiny Fraction rounds to 0.0 and the huge one
    # overflows
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        nf.TorusSpec((0, 1), (r, 1), 0.1)


@pytest.mark.parametrize("r", [1e160, 10**160], ids=["float", "int"])
def test_rho_whose_shifts_overflow_is_refused(r):
    # the exact shifts are computed on integers; above rho ~ 1e153 their
    # int / int division overflows a float
    with pytest.raises(ValueError, match="rho too large"):
        nf.TorusSpec((0, 1), (r, 1), 0.1)


def test_domain_given_must_contain_exact_rho():
    rho = (Fraction(7, 3), Fraction(1), Fraction(9))
    with pytest.raises(ValueError, match="domain must contain rho"):
        nf.TorusSpec(FLAGSHIP, rho, 0.01, domain=((2.0, 2.3), (1.0, 1.0), (9.0, 9.0)))
    spec = nf.TorusSpec(FLAGSHIP, rho, 0.01, domain=((2.0, 2.5), (1.0, 1.0), (9.0, 9.0)))
    assert spec.domain == ((2.0, 2.5), (1.0, 1.0), (9.0, 9.0))


def test_domain_given_needs_one_box_per_mode():
    # a short domain used to pass, since rho is zipped with it, and then
    # failed later with an IndexError in check_A2
    with pytest.raises(ValueError, match="domain length"):
        nf.TorusSpec(FLAGSHIP, (2.0, 1.0, 9.0), 0.01, domain=((1.0, 3.0),))
    with pytest.raises(ValueError, match="domain length"):
        nf.TorusSpec((0, 1), (1.0, 1.0), 0.01, domain=nf.domain_D1())


def test_domain_given_must_be_positive():
    # interval bounds multiply the box's edges, so a box reaching rho_1 <= 0
    # would bound rho_1^2 below by lo^2 instead of 0
    for lo in (-1.0, 0.0, -0.0):
        with pytest.raises(ValueError, match="rho > 0"):
            nf.TorusSpec(FLAGSHIP, (1.5, 1.2, 1.8), 0.01,
                         domain=((lo, 2.0), (1.0, 2.0), (1.0, 2.0)))
    nf.TorusSpec(FLAGSHIP, (1.5, 1.2, 1.8), 0.01, domain=((1e-300, 2.0), (1.0, 2.0), (1.0, 2.0)))


def test_domain_given_must_be_finite():
    # an infinite edge made A0's bound inf, which passed and certified nothing
    for box in (((1, math.inf), (0.5, 2), (8, 10)), ((1, 3), (0.5, 2), (8, math.nan))):
        with pytest.raises(ValueError, match="domain must be finite"):
            nf.TorusSpec(FLAGSHIP, (2, 1, 9), 0.01, domain=box)


def test_non_dyadic_exact_rho_classifies():
    # the default point box is float(rho); it no longer has to contain the
    # exact 7/3, which no float equals
    rho = (Fraction(7, 3), Fraction(1), Fraction(9))
    spec = nf.TorusSpec(FLAGSHIP, rho, Fraction(1, 100))
    assert spec.domain == tuple((float(r), float(r)) for r in rho)
    eff, cls = nf.classify_torus(spec, rs.enumerate_sets(FLAGSHIP))
    blk = next(b for b in eff.blocks if b.kind == "B")
    r1, r2, r3 = (rho[FLAGSHIP.index(m)] for m in blk.witness)
    gap = _b_gap_ref((r1, r2, r3))
    hyperbolic = 324 * r1 * r1 * r2 * r3 > gap * gap
    assert blk.classification == (nf.HYPERBOLIC if hyperbolic else nf.ELLIPTIC)
    assert cls.verdict == ("Unstable" if hyperbolic else "Stable")


def test_omega_coefficient_exact_rational():
    c = nf.form_value(nf.shift_forms(3)[0], (Fraction(2), Fraction(1), Fraction(9)))
    assert isinstance(c, Fraction)


def test_lambda_coefficient_value():
    # 9 * (sum rho^2 + 4 * sum_{i<j} rho_i rho_j)
    assert nf.form_value(nf.shift_forms(3)[-1], (2.0, 1.0, 9.0)) == pytest.approx(
        9 * (4 + 1 + 81) + 36 * (2 + 9 + 18))


def test_z6_internal_coefficient_pattern():
    coeffs = nf._z6_counts(3)
    # ordered-count multiplicities: pure cube 1, (2,1) split 9, (1,1,1) 36
    assert coeffs[(3, 0, 0)] == 1
    assert coeffs[(2, 1, 0)] == 9
    assert coeffs[(1, 1, 1)] == 36


def test_z6_internal_coefficients_cannot_be_corrupted():
    # the pattern is counted once per mode count; a caller's edit of the
    # returned mapping must not reach the next call
    coeffs = nf._z6_counts(3)
    try:
        coeffs[(3, 0, 0)] = 99
    except TypeError:
        pass
    again = nf._z6_counts(3)
    assert (again[(3, 0, 0)], again[(2, 1, 0)], again[(1, 1, 1)]) == (1, 9, 36)
    assert sorted(again.values()) == [1] * 3 + [9] * 6 + [36]
    two = nf._z6_counts(2)
    assert dict(two) == {(3, 0): 1, (2, 1): 9, (1, 2): 9, (0, 3): 1}
    # in lexicographic order of the sides, the order constant_metadata sums in
    assert list(two) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(again)[:4] == [(3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0)]


def test_constant_metadata_two_mode():
    # Z6 = nu^3 (r1^3 + 9 r1^2 r2 + 9 r1 r2^2 + r2^3) plus H2 = sum m^2 nu rho,
    # the three-mode formula, with H2 counted once
    nu, r1, r2 = 0.1, 2.0, 3.0
    spec = nf.TorusSpec((1, 3), (r1, r2), nu)
    expected = (nu**3 * (r1**3 + r2**3 + 9 * r1**2 * r2 + 9 * r2**2 * r1)
                + nu * 1 * r1 + nu * 9 * r2)
    assert nf.constant_metadata(spec) == pytest.approx(expected)
    spec = nf.TorusSpec((0, 2), (1.3, 0.7), 0.05)
    assert nf.constant_metadata(spec) == pytest.approx(0.142365)


# ---------------------------------------------------------------------------
# generic block spectrum

def test_generic_spectrum_harmonic_pair():
    # decoupled modes with frequencies 2 and 5
    coeff = np.diag([2.0, 5.0, 2.0, 5.0])
    lams = nf.generic_block_spectrum(coeff)
    assert lams == pytest.approx([2.0, 5.0])


def test_generic_spectrum_hyperbolic():
    # inverted pair: H = (x^2 - y^2)/2-like, coeff diag(1, -1)
    coeff = np.diag([1.0, -1.0])
    (lam,) = nf.generic_block_spectrum(coeff)
    assert lam.real == 0.0 and lam.imag == pytest.approx(1.0)


def nearest_partner_spectrum(coeff: np.ndarray) -> list[complex]:
    """The oracle for ``generic_block_spectrum``: the same eigensolve and
    snap, then each value in (re, im) order takes the closest unused value
    to its negative as partner, and the larger of the two in (re, im) order
    represents the pair."""
    mu = np.linalg.eigvals(nf.standard_symplectic_form(coeff.shape[0]) @ coeff)
    lam = 1j * mu
    tol = 1e-10 * max(1.0, float(np.max(np.abs(lam))))

    def snap(z: complex) -> complex:
        return complex(0.0 if abs(z.real) < tol else z.real,
                       0.0 if abs(z.imag) < tol else z.imag)

    vals = sorted((snap(z) for z in lam), key=lambda z: (z.real, z.imag))
    picked = []
    used = [False] * len(vals)
    for i in range(len(vals)):
        if used[i]:
            continue
        used[i] = True
        target = -vals[i]
        j_best, d_best = -1, math.inf
        for j in range(i + 1, len(vals)):
            if not used[j]:
                d = abs(vals[j] - target)
                if d < d_best:
                    j_best, d_best = j, d
        used[j_best] = True
        picked.append(max(vals[i], vals[j_best], key=lambda z: (z.real, z.imag)))
    return sorted(picked, key=lambda z: (z.real, z.imag))


def _bits(vals) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in vals]


def assert_same_spectrum(coeff: np.ndarray) -> None:
    """generic_block_spectrum equals the oracle bit for bit, signs of zero
    included."""
    assert _bits(nf.generic_block_spectrum(coeff)) == _bits(nearest_partner_spectrum(coeff))


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([2, 4, 6]), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_generic_spectrum_matches_nearest_partner_on_random_matrices(dim, seed, scale):
    # dense Gaussian entries: a matrix with many zero or equal entries can
    # give J*coeff a defective repeated eigenvalue that the eigensolver
    # splits past the snap tolerance, and then neither pairing is more than
    # noise; the block shapes that are defective are the parabolic cases below
    a = np.random.default_rng(seed).standard_normal((dim, dim)) * scale
    assert_same_spectrum(a + a.T)


@settings(max_examples=300, deadline=None)
@given(lam_s=st.floats(-10, 10), lam_t=st.floats(-10, 10), sign=st.sampled_from([1, -1]))
def test_generic_spectrum_matches_nearest_partner_on_parabolic_blocks(lam_s, lam_t, sign):
    # C^2 = a^2: the self-coupled block with coupling +-lam_s, and the
    # pair-creation block with coupling +-(lam_t - lam_s)/2, its gap a
    assert_same_spectrum(nf.block_hessian("E", (lam_s,), sign * lam_s))
    assert_same_spectrum(nf.block_hessian("B", (lam_s, lam_t), sign * (lam_t - lam_s) / 2))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_generic_spectrum_of_zero_matrix(dim):
    zero = np.zeros((dim, dim))
    assert_same_spectrum(zero)
    assert _bits(nf.generic_block_spectrum(zero)) == _bits([0j] * (dim // 2))


def test_trace_invariant():
    eff, _ = flagship_eff()
    for blk in eff.blocks:
        n = len(blk.eigenvalues)
        # symplectic trace: sum of Lambda equals half the J-weighted trace
        J = nf.standard_symplectic_form(2 * n)
        mu = np.linalg.eigvals(J @ blk.coeff)
        assert abs(mu.sum()) < 1e-9 * max(1.0, np.abs(mu).max())


# ---------------------------------------------------------------------------
# blocks

def test_b_gap_zero_exact():
    # twice the gap over the witness (-3, 10, -6), an exact integer at integer rho
    twice = nf.form_value(nf.twice_gap_form(rs.RESONANT_EXPONENTS["B"]), (2, 1, 9))
    assert twice == 0 and type(twice) is int


def test_b_block_hyperbolic_at_a0_point():
    eff, cls = flagship_eff(nu=0.01)
    blk = next(b for b in eff.blocks if b.kind == "B")
    assert blk.classification == nf.HYPERBOLIC
    # at a=0 the imaginary part is the full coupling 18 nu^2 rho1 sqrt(rho2 rho3)
    assert blk.max_im == pytest.approx(18 * 0.01**2 * 2 * 3, rel=1e-9)
    assert cls.verdict == "Unstable"
    assert cls.hyperbolic_modes == [1, 9]


def test_b_block_elliptic_on_unit_box():
    eff, cls = flagship_eff(rho=(1.5, 1.2, 1.8), domain=nf.domain_D1())
    blk = next(b for b in eff.blocks if b.kind == "B")
    assert blk.classification == nf.ELLIPTIC
    assert cls.verdict == "Stable" and cls.max_im == 0.0


def _b_closed_form(nu, rho, t):
    """Eigenvalues b -+ sqrt(a^2 - c^2) of the pair-creation block from the
    reference closed forms, rho in witness order: Lambda_s = t^2 + 3 nu^2 B,
    Lambda_t = t^2 + nu^2 lambda, c = 18 nu^2 rho1 sqrt(rho2 rho3)."""
    r1, r2, r3 = rho
    lam_s = t * t + 3 * nu**2 * _b_poly(rho)
    lam_t = t * t + nu**2 * float(_lambda_ref(rho))
    a, b = (lam_t - lam_s) / 2, (lam_t + lam_s) / 2
    root = cmath.sqrt(a * a - (18 * nu**2 * r1) ** 2 * r2 * r3)
    return sorted([b - root, b + root], key=lambda z: (z.real, z.imag))


def test_b_block_closed_form_matches_generic():
    eff, _ = flagship_eff(rho=(1.5, 1.2, 1.8))
    blk = next(b for b in eff.blocks if b.kind == "B")
    assert blk.witness == FLAGSHIP
    for lam, ref in zip(blk.eigenvalues, _b_closed_form(0.01, (1.5, 1.2, 1.8), blk.modes[1])):
        assert abs(lam - ref) <= 1e-10 * abs(ref)


def test_case2_block_elliptic():
    cat = rs.enumerate_sets((0, 2))
    spec = nf.TorusSpec((0, 2), (1.3, 0.7), 0.05)
    eff, cls = nf.classify_torus(spec, cat, band=10)
    (blk,) = eff.blocks
    assert blk.kind == "TwoMode"
    assert blk.classification == nf.ELLIPTIC
    assert cls.verdict == "Stable"
    # in the rotating frame of the coupling phase the energy identity
    # 2p^2 + s^2 = 2q^2 + t^2 makes the shifted diagonal entry t^2 + O(nu^2);
    # its closed form:
    r1, r2 = 1.3, 0.7
    lam_s_closed = blk.modes[1] ** 2 + 0.05**2 * (21 * r2 * r2 - 3 * r1 * r1 + 36 * r1 * r2)
    assert blk.coeff[0, 0] == pytest.approx(lam_s_closed, rel=1e-12)
    assert blk.coupling == pytest.approx(9 * 0.05**2 * r1 * r2, rel=1e-15)


def test_blocks_derive_matrix_and_closed_form_from_diag_and_coupling():
    # the builder solves block_hessian(kind, diag, coupling); the stored
    # fields must rebuild that matrix bit for bit, and an energy-conserving
    # block's spectrum is the Hermitian closed form mean -+ hypot(a, coupling)
    internal = (-5, -3, 3)
    spec = nf.TorusSpec(internal, (1.5, 1.25, 1.75), 0.01)
    blocks = [*nf.classify_torus(spec, rs.enumerate_sets(internal), band=12)[0].blocks,
              *flagship_eff(rho=(2.0, 1.0, 9.0))[0].blocks,
              *nf.classify_torus(nf.TorusSpec((0, 2), (1.3, 0.7), 0.05),
                                 rs.enumerate_sets((0, 2)), band=10)[0].blocks]
    assert {b.kind for b in blocks} == {"A", "B", "C", "E", "TwoMode"}
    for blk in blocks:
        assert tuple(nf.generic_block_spectrum(blk.coeff)) == blk.eigenvalues
        if blk.kind in ("A", "C"):
            lam_s, lam_t = blk.diag
            mean, shift = (lam_s + lam_t) / 2, math.hypot((lam_t - lam_s) / 2, blk.coupling)
            assert [mean - shift, mean + shift] == pytest.approx(
                [l.real for l in blk.eigenvalues], rel=1e-12)


def test_case2_mixing_matches_derived_alpha():
    # the upper eigenvector (x_s, x_t) of the block has x_t / x_s = alpha,
    # the root of the rotation condition; the reference closed form, with
    # the opposite sign of rho1^2 - rho2^2 and 2 rho1^2 rho2^2 under the
    # root, does not match it
    cat = rs.enumerate_sets((0, 2))
    r1, r2 = 1.3, 0.7
    eff, _ = nf.classify_torus(nf.TorusSpec((0, 2), (r1, r2), 0.05), cat, band=10)
    _, vecs = np.linalg.eigh(eff.blocks[0].coeff[:2, :2])
    ratio = vecs[1, 1] / vecs[0, 1]
    derived = (2 * r1**2 - 2 * r2**2 + math.sqrt(4 * r1**4 + r1**2 * r2**2 + 4 * r2**4)) / (3 * r1 * r2)
    reference = (-2 * r1**2 + 2 * r2**2 + math.sqrt(4 * r1**4 + 2 * r1**2 * r2**2 + 4 * r2**4)) / (3 * r1 * r2)
    assert ratio == pytest.approx(derived, rel=1e-9)
    assert abs(ratio - reference) > 0.1


def test_e_block_hyperbolicity_threshold():
    # hyperbolic exactly when the coupling exceeds half the diagonal shift
    spec = nf.TorusSpec((2, 3, -1), (1.0, 1.0, 1.0), 0.05)
    blk = nf.block_set_E(spec, 5, (2, 3, -1))
    nu2 = 0.05**2
    lam_s = 3 * nu2 * (2 + 1 - 1 + 9 + 3)
    c = nu2 * 1.0
    assert blk.coupling == pytest.approx(2 * c)
    expected = nf.HYPERBOLIC if abs(c) > abs(lam_s) / 2 else nf.ELLIPTIC
    assert blk.classification == expected
    # eigenvalue magnitude is the geometric mean of the two diagonal entries
    assert abs(blk.eigenvalues[0]) == pytest.approx(
        np.sqrt((lam_s + 2 * c) * (lam_s - 2 * c)))


# (-2, -1, 2) at rho = (x, 1, 1), nu = 1/100: its E block over (-1, 2, -2)
# is parabolic, C^2 = a^2, at a root just below X0, hyperbolic below it
X0 = 5.476189632163516


@pytest.mark.parametrize("kind", [Fraction, float])
def test_near_parabolic_e_block_is_decided_exactly(kind):
    # near the root the eigenvalues' imaginary parts fall below
    # 1e-3 nu^2 = 1e-7, where a float band on them read Stable or refused
    # the torus; the exact sign of C^2 - a^2 reads Unstable at every offset
    internal = (-2, -1, 2)
    cat = rs.enumerate_sets(internal)
    for offset in (1e-8, 1e-9, 1e-12, 1e-14, 0.0):
        spec = nf.TorusSpec(internal, (kind(X0 - offset), 1, 1), Fraction(1, 100))
        eff, cls = nf.classify_torus(spec, cat)
        (blk,) = [b for b in eff.blocks if b.kind == "E"]
        assert blk.hyperbolic == (offset > 0), offset
        assert cls.verdict == ("Unstable" if offset > 0 else "Stable"), offset


def test_hyperbolic_rate_survives_the_spectrum_snap():
    # 1 to 5 ulps below X0 the E block is hyperbolic, but its imaginary parts
    # (under 1e-10) fall below generic_block_spectrum's 1e-10 snap; from 6
    # ulps on they clear it, a few 1e-3 off, as the eigensolve of a nearly
    # defective J.H is.  The reported rate reads no eigenvalue: it is
    # nu^2 sqrt(margin) at every offset, the exact (C^2 - a^2) / nu^4
    # rounded once.  A float x and the same x as a Fraction are the same torus.
    internal = (-2, -1, 2)
    cat = rs.enumerate_sets(internal)
    x = X0
    for ulps in range(1, 8):
        x = math.nextafter(x, 0)
        rho = dict(zip(internal, (Fraction(x), 1, 1)))
        for kind in (Fraction, float):
            spec = nf.TorusSpec(internal, (kind(x), 1, 1), Fraction(1, 100))
            eff, cls = nf.classify_torus(spec, cat)
            (blk,) = [b for b in eff.blocks if b.kind == "E"]
            im = max(abs(l.imag) for l in blk.eigenvalues)
            assert (im == 0.0) == (ulps <= 5), (ulps, kind)
            assert cls.verdict == "Unstable" and cls.max_im == blk.max_im > 0
            ra, rb, rc = (rho[m] for m in blk.witness)
            excess = (nf.coupling_count("E", blk.witness, *blk.modes, *blk.modes) ** 2
                      * ra * ra * rb * rc - _e_lambda_s_ref((ra, rb, rc)) ** 2)
            assert blk.margin == float(excess) > 0
            assert blk.max_im == 1e-4 * math.sqrt(blk.margin)
            assert blk.max_im == pytest.approx(1e-4 * math.sqrt(excess), rel=1e-12)
            if im:
                assert im == pytest.approx(blk.max_im, rel=5e-3)


@pytest.mark.parametrize("internal,rho,kind", [
    (FLAGSHIP, (21, 1, 64), "B"),
    (FLAGSHIP, (21.0, 1.0, 64.0), "B"),
    ((-2, -1, 2), (Fraction(160801, 3249), Fraction(44197, 3249), 1), "E"),
], ids=["B", "B-float", "E"])
def test_degenerate_block_only_at_exact_parabola(internal, rho, kind):
    # count^2 rho_a^2 rho_b rho_c = g^2 exactly (for the flagship's B block
    # 18 * 21 * 8 = 3024 = g); 1e-12 away on either side the block is
    # decided, once elliptic and once hyperbolic
    cat = rs.enumerate_sets(internal)
    with pytest.raises(nf.DegenerateBlock, match="C\\^2 = a\\^2"):
        nf.classify_torus(nf.TorusSpec(internal, rho, Fraction(1, 100)), cat)
    seen = set()
    for step in (Fraction(1, 10**12), -Fraction(1, 10**12)):
        spec = nf.TorusSpec(internal, (rho[0] + step, *rho[1:]), Fraction(1, 100))
        (blk,) = [b for b in nf.classify_torus(spec, cat)[0].blocks if b.kind == kind]
        seen.add(blk.classification)
    assert seen == {nf.ELLIPTIC, nf.HYPERBOLIC}


# ---------------------------------------------------------------------------
# preconditions and serialization

def test_precondition_one_mode_refusal():
    cat = rs.enumerate_sets(FLAGSHIP)
    cat.one_mode_solutions = [((-3, 10, -6), 5)]
    spec = nf.TorusSpec(FLAGSHIP, (2.0, 1.0, 9.0), 0.01)
    with pytest.raises(nf.PreconditionViolated):
        nf.classify_torus(spec, cat)


def test_precondition_internal_mismatch():
    cat = rs.enumerate_sets(FLAGSHIP)
    spec = nf.TorusSpec((0, 1, 2), (1.0, 1.0, 1.0), 0.01)
    with pytest.raises(nf.PreconditionViolated):
        nf.classify_torus(spec, cat)


def test_internal_modes_must_be_distinct():
    for internal in ((1, 1), (0, 1, 0)):
        with pytest.raises(ValueError, match="internal modes must be distinct"):
            nf.TorusSpec(internal, (1.0,) * len(internal), 0.01)


def lambda_external(j: int, spec: nf.TorusSpec) -> float:
    if j in spec.internal:
        raise ValueError(f"mode {j} is internal")
    return j * j + spec.lambda_shift


@pytest.mark.parametrize("rho", [(2.0, 1.0, 9.0), (Fraction(7, 3), Fraction(5, 4), Fraction(9))],
                         ids=["float", "fraction"])
def test_scalar_lambdas_view_is_lambda_external(rho):
    # the stored shift reproduces the oracle on every uncoupled band mode,
    # in increasing j
    eff, _ = flagship_eff(rho=rho)
    spec = eff.spec
    taken = set(FLAGSHIP) | {m for b in eff.blocks for m in b.modes}
    want = [(j, lambda_external(j, spec)) for j in range(-20, 21) if j not in taken]
    assert list(eff.scalar_lambdas.items()) == want
    assert "scalar_lambdas" not in vars(eff)


# sha256 of EffectiveHamiltonian.to_json() for the flagship at rho=(2,1,9),
# nu=0.01, band 20, and the (0, 2) torus at rho=(1.3, 0.7), nu=0.05, band 10
# (constant Z6 + H2 for both mode counts; the float rho is read exactly, so
# the two-mode Omega_0 is the correctly rounded 0.06465000000000001)
EFF_JSON_SHA256 = {
    "flagship": "65e8c0ec60ff1c113169e30a506c7a9718ec1acd70607ae631dc7459bd9c1338",
    "two-mode": "c360f44baaacdd8a60e311b9bdf0d4edc128430ba6079f73a98567b2b4916d6b",
}


@pytest.mark.parametrize("case", list(EFF_JSON_SHA256))
def test_effective_hamiltonian_json_golden(case):
    if case == "flagship":
        eff, _ = flagship_eff()
    else:
        spec = nf.TorusSpec((0, 2), (1.3, 0.7), 0.05)
        eff, _ = nf.classify_torus(spec, rs.enumerate_sets((0, 2)), band=10)
    assert hashlib.sha256(eff.to_json().encode()).hexdigest() == EFF_JSON_SHA256[case]


def test_effective_hamiltonian_json_shape():
    import json
    eff, cls = flagship_eff()
    obj = json.loads(eff.to_json())
    assert set(obj) == {"constant", "omega", "scalar_lambdas", "blocks"}
    for b in obj["blocks"]:
        assert set(b) == {"modes", "coeff", "eigenvalues", "classification"}
    c = json.loads(cls.to_json())
    assert set(c) == {"verdict", "hyperbolic_modes", "max_im"}


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=30, deadline=None)
@given(st.floats(1.0, 2.0), st.floats(1.0, 2.0), st.floats(1.0, 2.0),
       st.floats(0.005, 0.1))
def test_eigenvalues_in_conjugate_pairs(r1, r2, r3, nu):
    eff, _ = flagship_eff(rho=(r1, r2, r3), nu=nu)
    for blk in eff.blocks:
        J = nf.standard_symplectic_form(blk.coeff.shape[0])
        mu = np.linalg.eigvals(J @ blk.coeff)
        tol = 1e-9 * max(1.0, np.abs(mu).max())
        for v in mu:
            assert np.min(np.abs(mu + v)) < tol


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 3.0), st.floats(0.5, 3.0), st.floats(0.5, 3.0))
def test_hyperbolicity_criterion_matches_discriminant(r1, r2, r3):
    nu = 0.01
    eff, _ = flagship_eff(rho=(r1, r2, r3), nu=nu)
    blk = next(b for b in eff.blocks if b.kind == "B")
    a = nu**2 * float(_b_gap_ref((r1, r2, r3)))
    c2 = (18 * nu**2 * r1)**2 * r2 * r3
    if a * a - c2 < -1e-3 * nu**2:
        assert blk.classification == nf.HYPERBOLIC
    elif a * a - c2 > 1e-3 * nu**2:
        assert blk.classification == nf.ELLIPTIC


# ---------------------------------------------------------------------------
# exact-rho golden

@functools.cache
def _exact_rho_sweep() -> list:
    """Every sorted 2- and 3-mode set with |m| <= 6, classified at
    non-dyadic Fraction rho drawn from a fixed seed, nu = 1/100: one
    (internal, rho, outcome) per torus, outcome the (eff, cls) pair or the
    refusal's exception."""
    import random
    from itertools import combinations

    rng = random.Random(20261018)
    tori = []
    for n in (2, 3):
        for internal in combinations(range(-6, 7), n):
            rho = []
            for _ in range(n):
                d = rng.choice((3, 5, 7, 11, 13))
                rho.append(Fraction(d * rng.randint(1, 2) + rng.randint(1, d - 1), d))
            try:
                spec = nf.TorusSpec(internal, tuple(rho), Fraction(1, 100))
                outcome = nf.classify_torus(spec, rs.enumerate_sets(internal))
            except (rs.BoundTooSmall, nf.PreconditionViolated, nf.DegenerateBlock) as exc:
                outcome = exc
            tori.append((internal, rho, outcome))
    return tori


def _exact_rho_sweep_digest() -> str:
    """sha256 over ``_exact_rho_sweep``: per torus its JSON, verdict and
    each block's entries, or the refusal."""
    h = hashlib.sha256()
    for internal, rho, outcome in _exact_rho_sweep():
        h.update(f"{internal}|{rho}\n".encode())
        if isinstance(outcome, Exception):
            h.update(f"refused {type(outcome).__name__}\n".encode())
            continue
        eff, cls = outcome
        h.update(eff.to_json().encode())
        h.update(cls.to_json().encode())
        for b in eff.blocks:
            h.update(repr((b.kind, b.modes, b.witness, b.diag, b.coupling,
                           b.eigenvalues)).encode())
    return h.hexdigest()


# recorded with every block assembled from Omega, lambda and its resonant
# monomial, and the constant Z6 + H2 for both mode counts; the Fraction path
# must keep every float, eigenvalue and verdict bit for bit
EXACT_RHO_SWEEP_SHA256 = "d6cae1d4d7d6e15c038fb8b58d09362ea0fe967307970e50c745bdf1f2a76443"


def test_exact_rho_sweep_golden():
    assert _exact_rho_sweep_digest() == EXACT_RHO_SWEEP_SHA256


@functools.cache
def _net(as_float: bool) -> list:
    """The instability net: every B- or E-bearing three-mode set with
    |m| <= 15, classified at ten Fraction rho in [1/6, 10] each, drawn from
    a fixed seed, nu = 1/100, or with ``as_float`` at the same rho as floats.
    One (internal, rho, outcome) per torus, rho the Fraction draw and outcome
    the (eff, cls) pair or the refusal's exception."""
    import random
    from itertools import combinations

    rng = random.Random(20261019)
    tori = []
    for internal in combinations(range(-15, 16), 3):
        try:
            cat = rs.enumerate_sets(internal)
        except rs.BoundTooSmall:
            continue
        if not (cat.set_B or cat.set_E):
            continue
        for _ in range(10):
            rho = tuple(Fraction(rng.randint(10, 600), 60) for _ in internal)
            try:
                spec = nf.TorusSpec(internal, tuple(map(float, rho)) if as_float else rho,
                                    Fraction(1, 100))
                outcome = nf.classify_torus(spec, cat)
            except (nf.PreconditionViolated, nf.DegenerateBlock) as exc:
                outcome = exc
            tori.append((internal, rho, outcome))
    return tori


def _instability_net():
    """sha256 over the net: per torus its verdict, hyperbolic modes and each
    block's kind, modes, witness and classification.  Also returns the
    number of sets, of Unstable tori and of hyperbolic B and E blocks."""
    h = hashlib.sha256()
    unstable = 0
    hyperbolic = {"B": 0, "E": 0}
    for internal, rho, outcome in _net(False):
        h.update(f"{internal}|{rho}\n".encode())
        if isinstance(outcome, Exception):
            h.update(f"refused {type(outcome).__name__}\n".encode())
            continue
        eff, cls = outcome
        h.update(repr((cls.verdict, cls.hyperbolic_modes)).encode())
        unstable += cls.verdict == "Unstable"
        for b in eff.blocks:
            h.update(repr((b.kind, b.modes, b.witness, b.classification)).encode())
            if b.hyperbolic:
                hyperbolic[b.kind] += 1
    sets = len({internal for internal, _, _ in _net(False)})
    return h.hexdigest(), sets, unstable, hyperbolic


# recorded before the resonance census replaced the per-family solvers; it
# holds hyperbolic B and E blocks away from the flagship, which no other
# golden does
INSTABILITY_NET_SHA256 = "1ed07b1349d098b85d3e42419e53504918210245ab67058ad7bcbb84a0dab199"


def test_instability_net_golden():
    digest, sets, unstable, hyperbolic = _instability_net()
    assert (sets, unstable, hyperbolic) == (714, 211, {"B": 200, "E": 11})
    assert digest == INSTABILITY_NET_SHA256


def _net_spectra() -> str:
    """sha256 over the net: per torus each block's kind, modes,
    classification and reported eigenvalues, Re and Im as float.hex."""
    h = hashlib.sha256()
    for internal, rho, outcome in _net(False):
        h.update(f"{internal}|{rho}\n".encode())
        if isinstance(outcome, Exception):
            h.update(f"refused {type(outcome).__name__}\n".encode())
            continue
        for b in outcome[0].blocks:
            h.update(repr((b.kind, b.modes, b.classification, _bits(b.eigenvalues))).encode())
    return h.hexdigest()


# recorded while the classification still read the eigenvalues, through a
# 1e-3 nu^2 band on their imaginary parts: deciding by the exact sign of
# C^2 - a^2 instead must leave every reported value as it was
NET_SPECTRA_SHA256 = "c0c30cf32a8a0a8c47f7f812aded6606844a0d10a3d563404b43d0c7c875a6ac"


def test_net_spectra_golden():
    assert _net_spectra() == NET_SPECTRA_SHA256


@pytest.mark.parametrize("as_float", [False, True], ids=["fraction", "float"])
def test_net_classification_agrees_with_reported_max_im(as_float):
    # the exact decision and rate agree with the eigensolve wherever both
    # can speak: no net block is near C^2 = a^2, and a hyperbolic one's
    # max_im is at least 1.5e-4, far above the eigensolve's noise
    blocks = 0
    for internal, rho, outcome in _net(as_float):
        assert not isinstance(outcome, Exception), (internal, rho, outcome)
        for b in outcome[0].blocks:
            blocks += 1
            im = max(abs(l.imag) for l in b.eigenvalues)
            assert b.hyperbolic == (im > 0) == (b.max_im > 0), (internal, rho, b)
            assert im == pytest.approx(b.max_im, rel=1e-9), (internal, rho, b)
    assert blocks == 20860


@pytest.mark.parametrize("as_float", [False, True], ids=["fraction", "float"])
def test_net_hyperbolic_rate_is_the_exact_margin(as_float):
    # a B or E block's margin (C^2 - a^2) / nu^4 has the sign of its type,
    # and a hyperbolic block's reported rate is nu^2 sqrt(margin)
    hyperbolic = 0
    for internal, rho, outcome in _net(as_float):
        for b in outcome[0].blocks:
            if b.kind not in ("B", "E"):
                assert b.margin is None
                continue
            assert (b.margin > 0) == b.hyperbolic, (internal, rho, b)
            if b.hyperbolic:
                hyperbolic += 1
                assert b.max_im == pytest.approx(1e-4 * math.sqrt(b.margin), rel=1e-9)
    assert hyperbolic == 211


class _Eigensolved(Exception):
    pass


def _decided(outcome):
    """What classifying decides: the verdict, hyperbolic modes, rate and
    each block's type, margin and rate; for a refusal, its type."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    eff, cls = outcome
    return (cls.verdict, cls.hyperbolic_modes, cls.max_im,
            [(b.kind, b.modes, b.classification, b.margin, b.max_im) for b in eff.blocks])


def _classified(internal, rho, nu):
    try:
        return nf.classify_torus(nf.TorusSpec(internal, rho, nu), _catalog(internal))
    except (nf.PreconditionViolated, nf.DegenerateBlock) as exc:
        return exc


@functools.cache
def _catalog(internal):
    return rs.enumerate_sets(internal)


def test_classify_runs_no_eigensolve(monkeypatch):
    # the flagship (hyperbolic B), (-2, -1, 2) below its E parabola
    # (hyperbolic E), a two-mode torus and the instability net classify the
    # same with the eigensolve made to raise; only reading a spectrum raises
    tori = [(FLAGSHIP, (2.0, 1.0, 9.0), 0.01),
            ((-2, -1, 2), (Fraction(27, 5), 1, 1), Fraction(1, 100)),
            ((0, 2), (1.3, 0.7), 0.05)]
    tori += [(internal, rho, Fraction(1, 100)) for internal, rho, _ in _net(False)]
    want = [_decided(_classified(*torus)) for torus in tori]
    assert [w[:2] for w in want[:3]] == [("Unstable", [1, 9]), ("Unstable", [1]), ("Stable", [])]

    def eigensolve(coeff):
        raise _Eigensolved
    monkeypatch.setattr(nf, "generic_block_spectrum", eigensolve)
    outcomes = [_classified(*torus) for torus in tori]
    assert [_decided(o) for o in outcomes] == want
    for eff, _ in outcomes[:3]:
        for blk in eff.blocks:
            with pytest.raises(_Eigensolved):
                blk.eigenvalues
        with pytest.raises(_Eigensolved):
            eff.to_json()


# ---------------------------------------------------------------------------
# rho-polynomial oracle: plain-Fraction copies of the coefficient formulas

def _omega_ref(rho, i):
    rho = [Fraction(r) for r in rho]
    others = rho[:i] + rho[i + 1:]
    val = rho[i] ** 2 + sum(3 * r * r + 6 * rho[i] * r for r in others)
    if len(others) == 2:
        val += 12 * others[0] * others[1]
    return 3 * val


def _lambda_ref(rho):
    rho = [Fraction(r) for r in rho]
    cross = sum(rho[i] * rho[j] for i in range(len(rho)) for j in range(i + 1, len(rho)))
    return 9 * (sum(r * r for r in rho) + 4 * cross)


def _b_poly(rho):
    """The pair-creation block's (Lambda_s - t^2) / (3 nu^2), rho in witness order."""
    r1, r2, r3 = rho
    return -r1 * r1 + r2 * r2 + 5 * r3 * r3 - 6 * r1 * r2 + 12 * r2 * r3 + 6 * r3 * r1


def _b_gap_ref(rho):
    return (_lambda_ref(rho) - 3 * _b_poly([Fraction(r) for r in rho])) / 2


def _e_lambda_s_ref(rho):
    """The self-coupled block's Lambda_s / nu^2, rho in witness order."""
    r1, r2, r3 = (Fraction(r) for r in rho)
    return 3 * (2 * r1 * r1 + r2 * r2 - r3 * r3 + 9 * r1 * r2 + 3 * r3 * r1)


_PRIMES = (3, 5, 7, 11, 13, 1_000_003)


@st.composite
def _rho(draw, kinds=(int, Fraction, float)):
    """(kind, rho) for 2 or 3 modes; Fractions have odd prime denominators
    and are never whole, so none is dyadic."""
    n = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(kinds))
    rho = []
    for _ in range(n):
        if kind is int:
            rho.append(draw(st.integers(1, 10**9)))
        elif kind is Fraction:
            d = draw(st.sampled_from(_PRIMES))
            rho.append(Fraction(d * draw(st.integers(0, 10**6)) + draw(st.integers(1, d - 1)), d))
        else:
            rho.append(draw(st.floats(1e-3, 1e3)))
    return kind, tuple(rho)


def _same(got, want, rho):
    if isinstance(got, float):
        # float rho: the formula runs in floats; within rounding of its terms
        return abs(got - float(want)) <= 1e-12 * 100 * max(rho) ** 2
    return got == want


@settings(max_examples=200, deadline=None)
@given(_rho())
def test_rho_polynomials_match_fraction_oracle(case):
    # form_value runs in the arithmetic of rho
    kind, rho = case
    *omega, lam = nf.shift_forms(len(rho))
    for i, form in enumerate(omega):
        got = nf.form_value(form, rho)
        assert type(got) is kind
        assert _same(got, _omega_ref(rho, i), rho)
    got = nf.form_value(lam, rho)
    assert type(got) is kind
    assert _same(got, _lambda_ref(rho), rho)
    if len(rho) == 3:
        got = nf.form_value(nf.twice_gap_form(rs.RESONANT_EXPONENTS["B"]), rho)
        assert type(got) is kind
        assert _same(got, 2 * _b_gap_ref(rho), rho)


@settings(max_examples=100, deadline=None)
@given(_rho(kinds=(int, Fraction)))
def test_rho_forms_match_fraction_oracle(case):
    # the integer coefficient vectors over nf.pairs give the hand-typed
    # polynomials exactly; the twice-gap form of a B witness that permutes
    # the internal modes is the witness-order gap
    _, rho = case
    n = len(rho)
    assert nf.pairs(n) == tuple(itertools.combinations_with_replacement(range(n), 2))

    def value(form):
        assert all(type(c) is int for c in form)
        return sum(c * Fraction(rho[a]) * rho[b] for c, (a, b) in zip(form, nf.pairs(n)))

    *omega, lam = nf.shift_forms(n)
    for i, form in enumerate(omega):
        assert value(form) == _omega_ref(rho, i)
    assert value(lam) == _lambda_ref(rho)
    if n == 3:
        for idx in itertools.permutations(range(3)):
            k = [0] * 3
            for e, i in zip(rs.RESONANT_EXPONENTS["B"], idx):
                k[i] += e
            want = 2 * _b_gap_ref([rho[i] for i in idx])
            assert value(nf.twice_gap_form(tuple(k))) == want == 2 * _e_lambda_s_ref(
                [rho[i] for i in idx])


@settings(max_examples=200, deadline=None)
@given(_rho(kinds=(int, Fraction)), st.sampled_from((Fraction(1, 100), 0.013)))
def test_exact_rho_floats_bit_for_bit(case, nu):
    # the per-torus evaluation over integers n_i / d gives the floats of the
    # exact rationals, as float(poly(rho)) did
    _, rho = case
    internal = tuple(range(len(rho)))
    spec = nf.TorusSpec(internal, rho, nu)
    assert spec.omega == tuple(m * m + nu**2 * float(_omega_ref(rho, i))
                               for i, m in enumerate(internal))
    assert spec.lambda_shift == nu**2 * float(_lambda_ref(rho))
    for p in nf.pairs(len(rho)):
        unit = [int(q == p) for q in nf.pairs(len(rho))]
        assert spec.float_of(unit) == float(Fraction(rho[p[0]]) * rho[p[1]])
    if len(rho) == 3:
        # _b_poly's coefficients over the pairs (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
        assert spec.float_of((-1, -6, 6, 1, 12, 5)) == float(_b_poly([Fraction(r) for r in rho]))


_FLOAT_TORI = (FLAGSHIP, (-5, -3, 3), (-2, -1, 2), (0, 2), (0, 1))


@functools.cache
def _catalog(internal):
    return rs.enumerate_sets(internal)


def _classified_text(internal, rho, nu):
    try:
        eff, cls = nf.classify_torus(nf.TorusSpec(internal, rho, nu), _catalog(internal),
                                     band=12)
    except nf.DegenerateBlock as exc:
        return str(exc)
    return eff.to_json() + cls.to_json()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FLOAT_TORI), st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3),
       st.sampled_from((0.01, Fraction(1, 100), 0.05)))
def test_float_rho_is_the_rational_it_stores(internal, draws, nu):
    # a float rho and Fraction(rho) are one torus: the same effective
    # Hamiltonian and classification, byte for byte
    rho = tuple(draws[:len(internal)])
    assert (_classified_text(internal, rho, nu)
            == _classified_text(internal, tuple(map(Fraction, rho)), nu))


# ---------------------------------------------------------------------------
# counting oracles: every coefficient is a count of ordered index selections

def _orderings(expo):
    """Distinct orderings of the multiset with multiplicities ``expo``."""
    return len(set(itertools.permutations([i for i, e in enumerate(expo) for _ in range(e)])))


def _monomial(rho, expo):
    return math.prod(Fraction(r) ** e for r, e in zip(rho, expo))


def _exponents(n, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]


@settings(max_examples=100, deadline=None)
@given(_rho(kinds=(int, Fraction)))
def test_omega_and_lambda_are_counted_sextic_terms(case):
    # Omega_i is d/d rho_i of Z6 = sum_e N(e)^2 rho^e over |e| = 3, and
    # lambda puts one external factor on each side: sum_e N(e + j)^2 rho^e
    # over |e| = 2, N the number of orderings of a side
    _, rho = case
    n = len(rho)
    for i in range(n):
        d_z6 = sum(_orderings(e) ** 2 * e[i] * _monomial(rho, [x - (j == i) for j, x in enumerate(e)])
                   for e in _exponents(n, 3) if e[i])
        assert nf.form_value(nf.shift_forms(n)[i], rho) == d_z6
    assert nf.form_value(nf.shift_forms(n)[-1], rho) == sum(
        _orderings((*e, 1)) ** 2 * _monomial(rho, e) for e in _exponents(n, 2))
    if n == 3:
        # the pair-creation gap is also the self-coupled block's Lambda_s
        twice = nf.form_value(nf.twice_gap_form(rs.RESONANT_EXPONENTS["B"]), rho)
        assert twice == 2 * _e_lambda_s_ref(rho)


def test_block_couplings_are_ordered_counts():
    # A and TwoMode (-2, 2): 3 * 3; C (-2, 1, 1): 3 * 6; B (-2, -1, 1) puts
    # both external factors on one side: 3 * 6; E keeps its reference count
    assert nf.coupling_count("A", (1, 2), 5, 7) == 9
    assert nf.coupling_count("TwoMode", (0, 2), 6, -2) == 9
    assert nf.coupling_count("C", (1, 2, 3), 5, 7) == 18
    assert nf.coupling_count("B", (1, 2, 3), 5, 7) == 18
    assert nf.coupling_count("E", (1, 2, 3), 5, 5) == 2


def test_e_block_lambda_s_is_reference_polynomial():
    # exact non-dyadic rho: the diagonal is nu^2 times the float of the
    # reference closed form, bit for bit
    internal = (-5, -3, 3)
    rho = (Fraction(7, 5), Fraction(9, 7), Fraction(16, 9))
    spec = nf.TorusSpec(internal, rho, 0.01)
    eff, _ = nf.classify_torus(spec, rs.enumerate_sets(internal), band=12)
    (blk,) = [b for b in eff.blocks if b.kind == "E"]
    rho_w = [rho[internal.index(m)] for m in blk.witness]
    assert blk.diag == (0.01**2 * float(_e_lambda_s_ref(rho_w)),)


def test_classify_calls_block_builders_through_module_globals(monkeypatch):
    # the benchmark's traced runs wrap the builders by name on the module;
    # classify_torus must reach every wrapper
    calls = []

    def wrap(name):
        inner = getattr(nf, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return wrapper

    names = ["block_set_A", "block_set_B", "block_set_C", "block_set_E", "block_two_mode_case2"]
    for name in names:
        monkeypatch.setattr(nf, name, wrap(name))
    _, cls = flagship_eff()
    assert calls == ["block_set_A", "block_set_B"] and cls.verdict == "Unstable"
    nf.classify_torus(nf.TorusSpec((-5, -3, 3), (1.5, 1.25, 1.75), 0.01),
                      rs.enumerate_sets((-5, -3, 3)), band=12)
    nf.classify_torus(nf.TorusSpec((0, 2), (1.3, 0.7), 0.05), rs.enumerate_sets((0, 2)))
    assert set(calls) == set(names)
