"""Nonresonance hypotheses, exact Diophantine certificates, conic search."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import normal_form as nf
from qnls import resonance as rs
from qnls import small_divisors as sd

FLAGSHIP = (-3, 10, -6)


def flagship_eff(rho=(1.5, 1.2, 1.8), nu=0.01, domain="D1", band=20):
    cat = rs.enumerate_sets(FLAGSHIP)
    dom = {"D1": nf.domain_D1(), "D2": nf.domain_D2(), None: None}[domain]
    if domain == "D2":
        rho = (2.0, 1.0, 9.0)
    spec = nf.TorusSpec(FLAGSHIP, rho, nu, domain=dom)
    eff, _ = nf.classify_torus(spec, cat, band=band)
    return eff


# ---------------------------------------------------------------------------
# conservation filter

def test_conservation_single_eta():
    # single conjugated external factor on a two-mode torus: mass forces
    # sum(k) = -1 and momentum pins j to an internal mode here
    assert sd.conservation_filter((0, 2), (-1, 0), (0,), (1,))
    assert not sd.conservation_filter((0, 2), (-1, 1), (5,), (1,))


def test_conservation_pair():
    # eta_j eta_l admissible only on sum(k) = -2
    assert sd.conservation_filter((0, 2), (-1, -1), (1, 1), (1, 1))
    assert not sd.conservation_filter((0, 2), (-1, 0), (1, 1), (1, 1))


def test_conservation_b_pair():
    # the creation pair of the flagship catalog with its resonant exponents
    assert sd.conservation_filter(FLAGSHIP, (-2, -1, 1), (1, 9), (1, 1))


def test_block_monomials_pass_filter():
    """Every coupled block's defining monomial satisfies both conservation
    laws (cross-module consistency)."""
    eff = flagship_eff()
    for blk in eff.blocks:
        k = sd.resonant_k(FLAGSHIP, blk)
        assert k is not None
        if blk.kind in ("B", "E"):
            signs = (1, 1)
            modes = blk.modes if blk.kind == "B" else (blk.modes[0], blk.modes[0])
        else:
            s_role, t_role = sd._block_roles(blk)
            signs = (-1, 1)
            modes = (s_role, t_role)
        assert sd.conservation_filter(FLAGSHIP, k, modes, signs)


# ---------------------------------------------------------------------------
# exact solvers

def test_literal_three_equation_system():
    res = sd.exact_linear_solve(sd.SETB_REFERENCE_SYSTEM)
    assert res.status == "unique" and not res.integer
    assert res.solution[1] == Fraction(-7, 26)


def test_physical_pair_system_is_the_resonant_monomial():
    phys = (((1, 1, 1), 2), ((-3, 10, -6), 10), ((9, 100, 36), 82))
    res = sd.exact_linear_solve(phys)
    assert res.status == "unique" and res.integer
    assert res.solution == (-2, -1, 1)  # exactly the normal-form monomial


def test_star_system_no_integer_solution():
    res = sd.exact_linear_solve(sd.SETA_STAR_SYSTEM)
    assert res.status == "unique" and not res.integer


def test_trivial_system():
    res = sd.exact_linear_solve((((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)))
    assert res.integer and res.solution == (0, 0, 0)


def test_underdetermined_and_inconsistent():
    under = sd.exact_linear_solve((((1, 1, 1), 0), ((2, 2, 2), 0)))
    assert under.status == "underdetermined"
    none = sd.exact_linear_solve((((1, 1, 1), 0), ((1, 1, 1), 1)))
    assert none.status == "none"


def test_conic_search_extremal():
    sols = sd.conic_search(sd.setA_conic_system(), 1000)
    assert sols[0] == ((-975, 195, 780), 197)
    assert 91 * 195 + 27 * 780 + 4 == 197**2


def test_conic_search_empty_below_extremal():
    assert sd.conic_search(sd.setA_conic_system(), 100) == []


def test_conic_search_filters_origin():
    degenerate = sd.ConicSystem(0, (1, 2, 3), 0, (1, 4, 9), 0)
    sols = sd.conic_search(degenerate, 5)
    assert all(k != (0, 0, 0) for k, _ in sols)


def test_conic_search_empty_range():
    with pytest.raises(sd.EmptyRange):
        sd.conic_search(sd.setA_conic_system(), 0)


# ---------------------------------------------------------------------------
# hypotheses A0 / A1

def test_a0_zero_nu():
    cat = rs.enumerate_sets(FLAGSHIP)
    spec = nf.TorusSpec(FLAGSHIP, (1.5, 1.2, 1.8), 1e-30)
    eff, _ = nf.classify_torus(spec, cat, band=20)
    res = sd.check_A0(eff)
    assert res.passed and res.bound <= 1e-50


def test_a0_two_mode_bound():
    cat = rs.enumerate_sets((0, 2))
    nu = 0.05
    spec = nf.TorusSpec((0, 2), (1.5, 1.5), nu,
                        domain=((1.0, 2.0), (1.0, 2.0)))
    eff, _ = nf.classify_torus(spec, cat, band=10)
    res = sd.check_A0(eff)
    # 9 nu^2 max(rho1^2 + rho2^2 + 4 rho1 rho2) = 9 nu^2 * 24 at rho=(2,2)
    assert res.bound == pytest.approx(9 * nu**2 * 24)
    assert res.passed


def test_a0_grid_max_matches_corner():
    eff = flagship_eff(domain="D2")
    res = sd.check_A0(eff, grid_resolution=9)
    corners = []
    for r1 in eff.spec.domain[0]:
        for r2 in eff.spec.domain[1]:
            for r3 in eff.spec.domain[2]:
                corners.append(nf.lambda_coefficient((r1, r2, r3)))
    assert res.bound == pytest.approx(eff.spec.nu**2 * max(corners), rel=1e-9)


def test_a1_hyperbolic_block():
    eff = flagship_eff(domain="D2")
    verdicts = sd.check_A1(eff)
    byname = {v.name: v for v in verdicts}
    assert all(v.passed for v in verdicts)
    hyp = next(v for v in verdicts if "Im" in v.name and "vacuous" not in v.name)
    # at a=0 the imaginary part is 108 nu^2, far above delta = nu^2
    assert hyp.margin == pytest.approx(107 * 0.01**2, rel=1e-6)


def test_a1_elliptic_all_pass():
    eff = flagship_eff()
    assert all(v.passed for v in sd.check_A1(eff))


# ---------------------------------------------------------------------------
# hypothesis A2

def test_a2_two_mode_flagship():
    cat = rs.enumerate_sets((0, 1))
    spec = nf.TorusSpec((0, 1), (1.0, 1.0), 0.01,
                        domain=((0.5, 2.0), (0.5, 2.0)))
    eff, _ = nf.classify_torus(spec, cat, band=12)
    rep = sd.check_A2(eff, delta=4 * 0.01**2, k_max=10, grid_resolution=16)
    assert rep.violated() == []
    counts = rep.counts()
    assert counts.get(sd.FILTERED, 0) > 0
    assert counts.get(sd.LOWER_BOUNDED, 0) > 0


def test_a2_three_mode_D2():
    eff = flagship_eff(domain="D2")
    rep = sd.check_A2(eff, k_max=6, grid_resolution=8)
    assert rep.violated() == []


def test_a2_refinement_stable():
    eff = flagship_eff()
    by_key = {}
    for res, grid_res in ((16, 16), (32, 32)):
        rep = sd.check_A2(eff, k_max=4, grid_resolution=grid_res)
        by_key[res] = {(e.kind, e.k, e.modes, e.block): v
                       for e, v, _ in rep.verdicts}
    assert by_key[16] == by_key[32]


def two_mode_case2_eff():
    """Even-gap two-mode torus with its coupled TwoMode block."""
    cat = rs.enumerate_sets((0, 2))
    spec = nf.TorusSpec((0, 2), (1.3, 0.7), 0.05,
                        domain=((1.0, 2.0), (0.5, 1.0)))
    eff, _ = nf.classify_torus(spec, cat, band=10)
    return eff


def test_a2_case2_single_family_filtered_out():
    # even-gap two-mode torus: momentum content of the coupled branch forces
    # a half-integer lattice component, so no single-branch family entries
    table = sd.enumerate_A2_expressions(two_mode_case2_eff(), k_max=8)
    exprs = [table.expression(r) for r in range(len(table))]
    blocked_singles = [e for e in exprs
                       if e.block and e.kind == sd.OMEGA_K_PLUS_LAMBDA]
    assert blocked_singles == []


def test_a2_every_admissible_expression_once():
    eff = flagship_eff()
    rep = sd.check_A2(eff, k_max=3, grid_resolution=8)
    keys = [(e.kind, e.k, e.modes, e.block) for e, _, _ in rep.verdicts]
    assert len(keys) == len(set(keys))


def test_a2_json_lines():
    eff = flagship_eff()
    rep = sd.check_A2(eff, k_max=2, grid_resolution=8)
    lines = rep.to_json_lines().splitlines()
    assert len(lines) == len(rep.verdicts)
    row = json.loads(lines[0])
    assert set(row) == {"kind", "k", "modes", "block", "verdict", "witness"}


# Byte-identity goldens, recorded on the per-expression enumeration (one
# Python loop per family and block) that the table-driven pass replaced: the
# sha256 of every a2_verdicts line and the exact measure_scan fractions.

A2_LINES_SHA256 = {
    "D2": ("57ebd1037a36443fc16f5711a1824745bb9f74938962c276f55d2166c7647ada", 6),
    "D1": ("2b84f9d26d961fe5f14362e0a2f922ef01c29a2e3c06fbbbf621889b619c4749", 6),
    "case2": ("d8e754df1d8300f54cee6d96e54c36cdc5c4445b488f97eefdcd86050a08e9ff", 8),
    # three A blocks, a C and an E block: the families the flagship lacks
    "ACE": ("627b012756f9b02a94f3532f285e59d2da3981ed5c4af9c1b680e511b5ba53fd", 4),
}


def golden_eff(name):
    if name == "case2":
        return two_mode_case2_eff()
    if name == "ACE":
        internal = (-5, -3, 3)
        spec = nf.TorusSpec(internal, (1.5, 1.25, 1.75), 0.01,
                            domain=((1.0, 2.0), (1.0, 1.5), (1.5, 2.0)))
        eff, _ = nf.classify_torus(spec, rs.enumerate_sets(internal), band=12)
        assert sorted({b.kind for b in eff.blocks}) == ["A", "C", "E"]
        return eff
    return flagship_eff(domain=name)


@pytest.mark.parametrize("name", sorted(A2_LINES_SHA256))
def test_a2_json_lines_golden(name):
    digest, k_max = A2_LINES_SHA256[name]
    lines = sd.check_A2(golden_eff(name), k_max=k_max).to_json_lines()
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,fraction", [("D1", 0.1796875), ("D2", 0.0)])
def test_measure_scan_golden(name, fraction):
    assert sd.measure_scan(golden_eff(name), k_max=6) == fraction


@pytest.mark.parametrize("name", ["D1", "D2"])
def test_table_bounds_match_scalar_interval(name):
    # the vectorised certificate equals the scalar one bit for bit
    eff = flagship_eff(domain=name)
    spec = eff.spec
    table = sd.enumerate_A2_expressions(eff, k_max=4)
    rows = np.flatnonzero(~table.filtered)
    assert len(rows) > 1000
    lo, hi = table.bounds(spec)
    want_lo, want_hi = [], []
    for r in rows:
        qlo, qhi = sd._interval(table.form(r), spec.domain)
        want_lo.append(int(table.int_part[r]) + spec.nu**2 * qlo - float(table.pad[r]))
        want_hi.append(int(table.int_part[r]) + spec.nu**2 * qhi + float(table.pad[r]))
    assert lo[rows].tobytes() == np.array(want_lo).tobytes()
    assert hi[rows].tobytes() == np.array(want_hi).tobytes()


# ---------------------------------------------------------------------------
# measure scan

def test_measure_scan_requires_resolution():
    eff = flagship_eff()
    with pytest.raises(ValueError):
        sd.measure_scan(eff, grid_resolution=4)


def test_measure_scan_delta_zero():
    # delta = 0 counts exact resonances; on the symmetric box the uniform
    # grid hits the rho_1 = rho_3 diagonal where differences such as
    # 18 (rho_1 - rho_3)(rho_1 + rho_3 + 3 rho_2) vanish identically
    eff = flagship_eff()
    frac0 = sd.measure_scan(eff, delta=0.0, k_max=4, grid_resolution=8)
    frac = sd.measure_scan(eff, delta=1e-6, k_max=4, grid_resolution=8)
    assert frac0 == 0.197265625
    assert frac0 <= frac


def test_measure_scan_delta_zero_asymmetric_box():
    # off the symmetric diagonal no exact resonance survives
    eff = flagship_eff(domain="D2")
    assert sd.measure_scan(eff, delta=0.0, k_max=4, grid_resolution=8) == 0.0


def test_measure_scan_monotone_in_delta():
    eff = flagship_eff()
    f_small = sd.measure_scan(eff, delta=1e-6, k_max=4, grid_resolution=8)
    f_large = sd.measure_scan(eff, delta=1e-4, k_max=4, grid_resolution=8)
    assert f_small <= f_large


def test_measure_scan_center_point_not_excluded():
    eff = flagship_eff(domain="D2")
    frac = sd.measure_scan(eff, k_max=4, grid_resolution=8)
    assert frac == 0.0


# ---------------------------------------------------------------------------
# interval arithmetic helper

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9),
       st.lists(st.floats(1.0, 1.9), min_size=3, max_size=3))
def test_interval_encloses_samples(entries, lows):
    Q = np.array(entries).reshape(3, 3)
    box = [(lo, lo + 0.1) for lo in lows]
    lo, hi = sd._interval(Q, box)
    rng = np.random.default_rng(0)
    pts = np.array([[rng.uniform(a, b) for a, b in box] for _ in range(20)])
    vals = np.einsum("gi,ij,gj->g", pts, Q, pts)
    assert lo <= vals.min() + 1e-9 and vals.max() <= hi + 1e-9
