"""Nonresonance hypotheses, exact Diophantine certificates, conic search."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qnls import cli
from qnls import normal_form as nf
from qnls import resonance as rs
from qnls import small_divisors as sd

import a2_reference
import coupling_reference
import paper_appendix as pa
from test_normal_form import _exact_rho_sweep, _net

FLAGSHIP = (-3, 10, -6)


def _quad(Q, grid):
    """rho.Q.rho at every grid point by einsum: the reference that the
    stacked ``sd._quads`` reproduces bit for bit."""
    return np.einsum("gi,ij,gj->g", grid, Q, grid)


def _interval(Q, box):
    """Interval bound of rho.Q.rho over a positive box, term by term: the
    scalar reference that ``sd._enclose`` reproduces bit for bit."""
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


def _coef(Q):
    """The coefficients of rho.Q.rho over ``nf.pairs``: Q_ii, and Q_ij + Q_ji for i < j."""
    return np.array([Q[i, j] + (Q[j, i] if j != i else 0.0) for i, j in nf.pairs(len(Q))])


def _matrix(form, n):
    """The symmetric Q with rho.Q.rho the form ``form`` over ``nf.pairs(n)``."""
    Q = np.empty((n, n))
    for c, (i, j) in zip(form, nf.pairs(n)):
        Q[i, j] = Q[j, i] = c if i == j else c / 2
    return Q


def verdict_rows(rep):
    """(DivisorExpression, verdict, witness) per row of an A2 report, in
    enumeration order: a row with no witness of its own has the interval
    certificate's name when lower-bounded, else None."""
    verdicts = [sd.VERDICTS[c] for c in rep.codes]
    return [(rep.table.expression(i), v,
             rep.witnesses.get(i, sd.INTERVAL if v == sd.LOWER_BOUNDED else None))
            for i, v in enumerate(verdicts)]


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
    assert pa.conservation_filter((0, 2), (-1, 0), (0,), (1,))
    assert not pa.conservation_filter((0, 2), (-1, 1), (5,), (1,))


def test_conservation_pair():
    # eta_j eta_l admissible only on sum(k) = -2
    assert pa.conservation_filter((0, 2), (-1, -1), (1, 1), (1, 1))
    assert not pa.conservation_filter((0, 2), (-1, 0), (1, 1), (1, 1))


def test_conservation_b_pair():
    # the creation pair of the flagship catalog with its resonant exponents
    assert pa.conservation_filter(FLAGSHIP, (-2, -1, 1), (1, 9), (1, 1))


def test_block_monomials_pass_filter():
    """Every coupled block's defining monomial satisfies both conservation
    laws with the block's own modes, for every 2- and 3-mode set with
    |m| <= 8 (cross-module consistency)."""
    kinds = set()
    for n in (2, 3):
        for internal in itertools.combinations(range(-8, 9), n):
            try:
                spec = nf.TorusSpec(internal, (1.3, 1.7, 2.9)[:n], 0.01)
                eff, _ = nf.classify_torus(spec, rs.enumerate_sets(internal))
            except (rs.BoundTooSmall, nf.PreconditionViolated):
                continue
            for blk in eff.blocks:
                if blk.kind in ("B", "E"):
                    # two eta factors; an E block's one mode is both
                    signs, modes = (1, 1), (blk.modes[0], blk.modes[-1])
                else:
                    # zeta_s eta_t with blk.modes = (s_role, t_role)
                    signs, modes = (-1, 1), blk.modes
                assert pa.conservation_filter(internal, blk.k, modes, signs), (internal, blk)
                kinds.add(blk.kind)
    assert kinds == {"A", "B", "C", "E", "TwoMode"}


# ---------------------------------------------------------------------------
# exact solvers

def test_literal_three_equation_system():
    res = pa.exact_linear_solve(pa.SETB_REFERENCE_SYSTEM)
    assert res.status == "unique" and not res.integer
    assert res.solution[1] == Fraction(-7, 26)


def test_physical_pair_system_is_the_resonant_monomial():
    phys = (((1, 1, 1), 2), ((-3, 10, -6), 10), ((9, 100, 36), 82))
    res = pa.exact_linear_solve(phys)
    assert res.status == "unique" and res.integer
    assert res.solution == (-2, -1, 1)  # exactly the normal-form monomial


def test_star_system_no_integer_solution():
    res = pa.exact_linear_solve(pa.SETA_STAR_SYSTEM)
    assert res.status == "unique" and not res.integer


def test_trivial_system():
    res = pa.exact_linear_solve((((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)))
    assert res.integer and res.solution == (0, 0, 0)


def test_underdetermined_and_inconsistent():
    under = pa.exact_linear_solve((((1, 1, 1), 0), ((2, 2, 2), 0)))
    assert under.status == "underdetermined"
    none = pa.exact_linear_solve((((1, 1, 1), 0), ((1, 1, 1), 1)))
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


@pytest.mark.parametrize("internal,rho", [(FLAGSHIP, (2, 1, 9)), ((0, 2), (1, 1))])
def test_hypotheses_refuse_a_box_that_overflows(internal, rho):
    # a finite edge of 1e200 squares to inf: A0's bound was inf and passed,
    # and A2 failed on a corner spec or judged inf enclosures
    box = ((1, 1e200), *((r / 2, 2 * r) for r in rho[1:]))
    spec = nf.TorusSpec(internal, rho, 0.01, domain=box)
    eff, _ = nf.classify_torus(spec, rs.enumerate_sets(internal))
    for check in (sd.check_A0, sd.check_A1):
        with pytest.raises(ValueError, match="rho too large: A0's bound overflows a float"):
            check(eff)
    for check in (sd.check_A2, sd.measure_scan):
        with pytest.raises(ValueError, match="rho too large: A2's enclosure overflows a float"):
            check(eff)


_A0_CATALOGS = {}


@settings(max_examples=60, deadline=None)
@given(internal=st.sampled_from([(0, 1), (0, 2), FLAGSHIP, (-5, -3, 3)]),
       lows=st.lists(st.floats(0.1, 4.0), min_size=3, max_size=3),
       widths=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=3),
       nu=st.floats(1e-3, 0.02), seed=st.integers(0, 2**32 - 1))
def test_a0_bound_is_the_box_maximum(internal, lows, widths, nu, seed):
    # on a positive box the bound is nu^2 lambda at the box's upper corner,
    # the largest value of lambda there: no sampled point exceeds it
    n = len(internal)
    box = tuple((lo, lo + w) for lo, w in zip(lows[:n], widths[:n]))
    if internal not in _A0_CATALOGS:
        _A0_CATALOGS[internal] = rs.enumerate_sets(internal)
    spec = nf.TorusSpec(internal, tuple(lo for lo, _ in box), nu, domain=box)
    try:
        eff, _ = nf.classify_torus(spec, _A0_CATALOGS[internal], band=10)
    except nf.DegenerateBlock:
        assume(False)
    bound = sd.check_A0(eff).bound
    tol = 1e-13 * bound
    lam = nf.shift_forms(n)[-1]
    corner = nu**2 * nf.form_value(lam, [hi for _, hi in box])
    assert bound <= corner + tol
    rng = np.random.default_rng(seed)
    for rho in rng.uniform([lo for lo, _ in box], [hi for _, hi in box], (20, n)):
        assert nu**2 * nf.form_value(lam, rho) <= bound + tol


def test_a1_hyperbolic_block():
    eff = flagship_eff(domain="D2")
    verdicts = sd.check_A1(eff)
    byname = {v.name: v for v in verdicts}
    assert all(v.passed for v in verdicts)
    hyp = next(v for v in verdicts if "Im" in v.name and "vacuous" not in v.name)
    # at a=0 the imaginary part is 108 nu^2, far above delta = nu^2
    assert hyp.margin == pytest.approx(107 * 0.01**2, rel=1e-12)


def test_a1_elliptic_all_pass():
    eff = flagship_eff()
    assert all(v.passed for v in sd.check_A1(eff))


def test_a1_vacuous_cross_cluster_clause_keeps_the_tail_gap():
    # band 0 around (0, 1) leaves no elliptic mode, so no two clusters: the
    # cross-cluster clause is vacuous, and still passes only while A0's tail
    # gap 81 - 2 C exceeds delta
    spec = nf.TorusSpec((0, 1), (1.0, 1.0), 0.01)
    eff, _ = nf.classify_torus(spec, rs.enumerate_sets((0, 1)), band=0)
    for delta, passed in ((None, True), (100.0, False)):
        cross = sd.check_A1(eff, delta)[2]
        assert cross.name == ("abs(Lambda_a - Lambda_b) across clusters "
                              "(tail certified by A0) (vacuous)")
        assert (cross.passed, cross.margin) == (passed, math.inf)


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
                       for e, v, _ in verdict_rows(rep)}
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
    keys = [(e.kind, e.k, e.modes, e.block) for e, _, _ in verdict_rows(rep)]
    assert len(keys) == len(set(keys))


def a2_lines(rep):
    """The a2_verdicts.jsonl text that ``qnls hypotheses`` writes for ``rep``."""
    return "".join(rep.json_lines())


def test_a2_json_lines():
    eff = flagship_eff()
    rep = sd.check_A2(eff, k_max=2, grid_resolution=8)
    lines = a2_lines(rep).splitlines()
    assert len(lines) == len(verdict_rows(rep))
    row = json.loads(lines[0])
    assert set(row) == {"kind", "k", "modes", "block", "verdict", "witness"}


# Byte-identity goldens, recorded on the per-expression enumeration (one
# Python loop per family and block) that the table-driven pass replaced: the
# sha256 of the a2_verdicts lines without the file's final newline, and the
# exact measure_scan fractions.

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
    text = a2_lines(sd.check_A2(golden_eff(name), k_max=k_max))
    assert text.endswith("}\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(A2_LINES_SHA256))
def test_a2_json_lines_match_verdict_rows(name):
    # line by line against json.dumps of each verdicts row, so a change shows
    # as a readable diff where the sha256 goldens only say "differs"
    rep = sd.check_A2(golden_eff(name), k_max=A2_LINES_SHA256[name][1])
    want = [json.dumps({"kind": e.kind, "k": list(e.k), "modes": list(e.modes),
                        "block": e.block, "verdict": v, "witness": w})
            for e, v, w in verdict_rows(rep)]
    assert a2_lines(rep) == "".join(line + "\n" for line in want)
    # every configuration but D2 has judged rows with their own witness
    assert (sd.TRANSVERSAL in rep.counts()) == (name != "D2")


def test_a2_lines_do_not_depend_on_chunk_size(monkeypatch):
    digest, k_max = A2_LINES_SHA256["D1"]
    rep = sd.check_A2(golden_eff("D1"), k_max=k_max)
    text = a2_lines(rep)
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == digest
    n = len(rep.table)
    for rows in (1, 7, n, n + 1):
        monkeypatch.setattr(sd, "_CHUNK_ROWS", rows)
        assert a2_lines(rep) == text


def test_a2_lines_of_an_empty_table():
    # check_A2 refuses k_max 0, so the empty report is built from its table
    table = sd.enumerate_A2_expressions(golden_eff("D1"), 0)
    rep = sd.HypothesisReport(1e-4, 0, table, np.zeros(0, dtype=np.int8), {})
    assert len(rep.table) == 0
    assert a2_lines(rep) == "\n"


def test_a2_lines_stream_in_less_memory_than_the_file(tmp_path):
    # D1 at k_max 20 writes 178,471 lines (~24 MB); the CLI's writer streams
    # the chunks and never holds the whole text, so its traced peak stays
    # below the file size
    rep = sd.check_A2(flagship_eff(domain="D1"), k_max=20)
    tracemalloc.start()
    try:
        path = cli._write(cli.RunConfig(out=str(tmp_path)), "a2_verdicts.jsonl",
                          rep.json_lines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.table) == 178471
    assert peak < path.stat().st_size


def test_a2_table_holds_family_constants_once():
    # per row the table keeps lattice index, family, modes and integer part;
    # kind, block, pad, filtering and the Lambda part of the form live per
    # family, and building it peaks at 1.52 times what it keeps (7.8 MB for
    # 5.1 MB; 1.63 for the masked and sorted build), bounded with 10% room
    eff = flagship_eff(domain="D1")
    tracemalloc.start()
    try:
        table = sd.enumerate_A2_expressions(eff, k_max=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(getattr(table, f.name).nbytes for f in dataclasses.fields(table)
               if isinstance(getattr(table, f.name), np.ndarray))
    assert len(table) == 178471 and len(table.fam_kind) < 100
    assert held < 48 * len(table)
    assert peak < 1.67 * held


def test_a2_certificate_holds_at_most_twice_its_table():
    # the table keeps int32 lattice indices, families and modes and int64
    # integer parts, under 32 bytes a row; enumerating and certifying it
    # (the open-row screen runs _CHUNK_ROWS rows at a time) never holds more
    # than twice that at once
    eff = flagship_eff(domain="D1")
    tracemalloc.start()
    try:
        rep = sd.check_A2(eff, k_max=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = rep.table
    held = sum(getattr(table, f.name).nbytes for f in dataclasses.fields(table)
               if isinstance(getattr(table, f.name), np.ndarray))
    assert len(table) == 178471
    assert held < 32 * len(table)
    assert peak < 2 * held


def test_open_rows_do_not_depend_on_chunk_size(monkeypatch):
    eff = golden_eff("D1")
    table = sd.enumerate_A2_expressions(eff, k_max=4)
    cases = [(delta, strict) for delta in (0.0, eff.spec.nu**2, 0.5) for strict in (False, True)]
    want = [table.open_rows(eff.spec, delta, strict) for delta, strict in cases]
    assert all(len(rows) > 0 for rows in want)
    for rows in (7, 1000, len(table) + 1):
        monkeypatch.setattr(sd, "_CHUNK_ROWS", rows)
        for (delta, strict), w in zip(cases, want):
            assert np.array_equal(table.open_rows(eff.spec, delta, strict), w)


@pytest.mark.parametrize("name,fraction", [("D1", 0.1796875), ("D2", 0.0)])
def test_measure_scan_golden(name, fraction):
    assert sd.measure_scan(golden_eff(name), k_max=6) == fraction


# Every A2 verdict path, recorded at the per-row grid evaluation: flagship D1
# at k_max 6 and grid 16 judges 14 rows Transversal and one by its grid
# minimum at delta = nu^2, and 9 Violated and 6 Transversal at 200 nu^2; the
# sha256 of the whole a2_verdicts text, and the verdict counts.
A2_PATHS_SHA256 = {
    1: ("a5abe70514c2a25981538eac57b546a9ddb57456d245d5167a6fd8bcd67d3de5",
        {sd.LOWER_BOUNDED: 11914, sd.FILTERED: 2087, sd.TRANSVERSAL: 14}),
    200: ("dbd958a71ecf5827cd363150c74fe6db6998cd5e740a77b059a6de2e32a7c201",
          {sd.LOWER_BOUNDED: 11913, sd.FILTERED: 2087, sd.TRANSVERSAL: 6, sd.VIOLATED: 9}),
}


@pytest.mark.parametrize("scale", sorted(A2_PATHS_SHA256))
def test_a2_json_lines_golden_on_every_verdict_path(scale):
    eff = golden_eff("D1")
    rep = sd.check_A2(eff, delta=scale * eff.spec.nu**2, k_max=6, grid_resolution=16)
    digest, counts = A2_PATHS_SHA256[scale]
    assert rep.counts() == counts
    assert list(rep.witnesses.values()).count("grid minimum") == (scale == 1)
    assert hashlib.sha256(a2_lines(rep).encode()).hexdigest() == digest


@pytest.mark.parametrize("scale,fraction", [(0, 0.126220703125), (1, 0.1796875), (200, 1.0)])
def test_measure_scan_golden_over_delta(scale, fraction):
    # recorded at the per-row grid evaluation; delta = scale * nu^2
    eff = golden_eff("D1")
    assert sd.measure_scan(eff, delta=scale * eff.spec.nu**2, k_max=6) == fraction


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_grid_pass_matches_einsum_bit_for_bit(n):
    # seeded symmetric forms with entries from 1e-3 to 1e6 in size, every
    # third form in quarter integers, on the domain grids of 1 to 32 points
    # a side; two-mode grids from 2 a side, since on a grid of one or two
    # points einsum sums each i's terms first
    rng = np.random.default_rng(25)
    internal, box = ((0, 1), ((0.5, 2.0), (0.75, 1.25))) if n == 2 else (FLAGSHIP, nf.domain_D1())
    spec = nf.TorusSpec(internal, tuple(hi for _, hi in box), 0.01, domain=box)
    Q = rng.choice((-1, 1), (12, n, n)) * 10.0 ** rng.uniform(-3, 6, (12, n, n))
    Q = (Q + Q.transpose(0, 2, 1)) / 2
    Q[::3] = np.round(4 * Q[::3]) / 4
    for resolution in range(1 if n == 3 else 2, 33):
        grid = sd._domain_grid(spec, resolution)
        got = sd._quads(Q, grid)
        for q, row in zip(Q, got):
            assert row.tobytes() == _quad(q, grid).tobytes(), resolution


@pytest.mark.parametrize("name", ["D1", "D2"])
def test_table_bounds_match_scalar_interval(name):
    # the vectorised certificate equals the scalar one bit for bit
    eff = flagship_eff(domain=name)
    spec = eff.spec
    table = sd.enumerate_A2_expressions(eff, k_max=4)
    rows = np.flatnonzero(~table.filtered)
    assert len(rows) > 1000
    lo, hi = table.bounds(spec, np.arange(len(table)))
    pad = table.fam_pad[table.family]
    want_lo, want_hi = [], []
    for r in rows:
        qlo, qhi = _interval(table.forms(np.array([r]))[0], spec.domain)
        want_lo.append(int(table.int_part[r]) + spec.nu**2 * qlo - float(pad[r]))
        want_hi.append(int(table.int_part[r]) + spec.nu**2 * qhi + float(pad[r]))
    assert lo[rows].tobytes() == np.array(want_lo).tobytes()
    assert hi[rows].tobytes() == np.array(want_hi).tobytes()


OPEN_ROW_DELTAS = (None, 0.0, 1e-3, 0.5, -1.0)  # None: nu^2


def assert_open_rows_match_bounds(table, spec):
    """``open_rows`` against the mask of ``bounds`` on every row, in both
    senses, and each row's reach against its enclosure."""
    lo, hi = table.bounds(spec, np.arange(len(table)))
    # no edge lies beyond the reach, up to the screen's rounding margin at
    # delta 0: the two can tie exactly, as on a point box
    reach = table.reach(spec)[table.family]
    size = np.abs(table.int_part)
    far = np.maximum(np.abs(lo - table.int_part), np.abs(hi - table.int_part))
    assert np.all(far <= reach + 1e-9 * (size + reach))
    for delta in OPEN_ROW_DELTAS:
        delta = spec.nu**2 if delta is None else delta
        for strict, closed in ((False, (lo >= delta) | (hi <= -delta)),
                               (True, (lo > delta) | (hi < -delta))):
            want = np.flatnonzero(~(table.filtered | closed))
            got = table.open_rows(spec, delta, strict=strict)
            assert np.array_equal(got, want), (delta, strict)


@pytest.mark.parametrize("name", sorted(A2_LINES_SHA256))
def test_open_rows_match_full_bounds(name):
    # the integer-part screen closes only rows the full bounds close
    eff = golden_eff(name)
    assert_open_rows_match_bounds(sd.enumerate_A2_expressions(eff, k_max=20), eff.spec)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3, unique=True),
       st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 0.1), min_size=6, max_size=6),
       st.sampled_from((0.01, 0.03)))
def test_open_rows_match_full_bounds_on_random_tori(internal, rho, widths, nu):
    domain = tuple((r * (1 - a), r * (1 + b)) for r, a, b in zip(rho, widths[:3], widths[3:]))
    spec = nf.TorusSpec(tuple(internal), tuple(rho), nu, domain=domain)
    try:
        eff, _ = nf.classify_torus(spec, rs.enumerate_sets(tuple(internal)))
    except (rs.BoundTooSmall, nf.PreconditionViolated, nf.DegenerateBlock):
        assume(False)
    assert_open_rows_match_bounds(sd.enumerate_A2_expressions(eff, k_max=6), spec)


def test_open_rows_on_the_screen_edge():
    # one lattice point and coefficients of one sign put a row's enclosure
    # exactly its reach from int_part, on int_part's side, so a delta at
    # that edge or one ulp past it is where the screen's rounding margin
    # decides; random boxes, pads and forms, either sign of int_part
    rng = np.random.default_rng(20)
    rows = 40
    for _ in range(60):
        side = tuple(sorted(rng.uniform(0.5, 3.0, 2)))
        spec = nf.TorusSpec((0, 1), (side[0],) * 2, rng.uniform(0.01, 0.9), domain=(side, side))
        sign = rng.choice((-1, 1))
        table = sd.DivisorTable(
            np.array([[1, 0]]), lat=np.zeros(rows, dtype=np.int64),
            family=np.zeros(rows, dtype=np.int32), modes=np.zeros((rows, 2), dtype=np.int64),
            int_part=sign * rng.integers(1, 2**int(rng.integers(3, 40)), rows), labels=(),
            omega_coef=-sign * rng.uniform(0, 5, (2, 3)), fam_kind=np.zeros(1, dtype=np.int8),
            fam_n_modes=np.zeros(1, dtype=np.int8), fam_block=np.array([-1]),
            fam_pad=rng.uniform(0, 1, 1), fam_filtered=np.array([False]),
            fam_coef=-sign * rng.uniform(0, 5, (1, 3)))
        lo, hi = table.bounds(spec, np.arange(len(table)))
        for edge in (lo if sign > 0 else -hi):
            for delta in (edge, np.nextafter(edge, np.inf)):
                want = np.flatnonzero((lo < delta) & (hi > -delta))
                assert np.array_equal(table.open_rows(spec, delta), want), (spec, delta)


def test_resident_mask_by_index_matches_the_scan():
    # the lattice indices of +-k, found by index arithmetic, are those a scan
    # of the lattice finds, for every block (their |k|_inf is 2, above k_max
    # 0 and 1) and for every k with |k|_inf <= 3
    effs = [golden_eff(name) for name in sorted(A2_LINES_SHA256)]
    assert {blk.kind for eff in effs for blk in eff.blocks} == {"A", "B", "C", "E", "TwoMode"}
    for eff in effs:
        n = len(eff.spec.internal)
        for k_max in (0, 1, 2, 6, 20):
            lattice = sd.enumerate_A2_expressions(eff, k_max).lattice
            assert len(lattice) == (2 * k_max + 1)**n - 1
            ks = [blk.k for blk in eff.blocks]
            if k_max <= 2:
                ks += [k for k in itertools.product(range(-3, 4), repeat=n) if any(k)]
            for k in ks:
                scan = (lattice == k).all(axis=1) | (lattice == [-x for x in k]).all(axis=1)
                got = np.sort(sd._resident(k, k_max, len(lattice)))
                assert np.array_equal(got, np.flatnonzero(scan)), (k, k_max)
    assert len(sd.enumerate_A2_expressions(golden_eff("D1"), -1)) == 0


def assert_same_table(got, want):
    """Every DivisorTable field of ``got`` equals ``want``'s in dtype, shape
    and values."""
    for field in dataclasses.fields(sd.DivisorTable):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def reference_tori():
    """(name, eff) of the tori the table build is checked on: the goldens,
    every two-mode set with |p|, |q| <= 6, four three-mode sets (E blocks
    among them), and (-15, -6, 2) enumerated to bound 600, whose C block
    (-79, -78) lies past A2's mode range 68."""
    for name in sorted(A2_LINES_SHA256):
        yield name, golden_eff(name)
    sets = [FLAGSHIP, (-2, -1, 2), (-5, -3, 3), (-15, -13, -7)]
    for internal in sets + list(itertools.combinations(range(-6, 7), 2)):
        rho = tuple(1.0 + 0.25 * i for i in range(len(internal)))
        spec = nf.TorusSpec(internal, rho, 0.01, domain=tuple((0.9 * r, 1.1 * r) for r in rho))
        try:
            yield internal, nf.classify_torus(spec, rs.enumerate_sets(internal))[0]
        except (rs.BoundTooSmall, nf.PreconditionViolated, nf.DegenerateBlock):
            assert len(internal) == 2, internal
    internal = (-15, -6, 2)
    spec = nf.TorusSpec(internal, (1.0, 1.25, 1.5), 0.01,
                        domain=((0.9, 1.1), (1.125, 1.375), (1.35, 1.65)))
    eff = nf.classify_torus(spec, rs.enumerate_sets(internal, 600))[0]
    assert max(abs(m) for blk in eff.blocks for m in blk.modes) > rs.default_bound(internal)
    yield "bound 600", eff


def test_a2_table_matches_the_masked_and_sorted_build():
    # the counted build against the full-lattice masks and global key sort it
    # replaced (kept verbatim in a2_reference), field by field; k_max 1 puts
    # every block's +-k (|k|_inf 2) outside the lattice, and k_max -1 and 0
    # leave it empty
    kinds, built = set(), 0
    for name, eff in reference_tori():
        kinds |= {blk.kind for blk in eff.blocks}
        assert any(max(map(abs, blk.k)) > 1 for blk in eff.blocks) or not eff.blocks
        for k_max in (-1, 0, 1, 2, 5, 20):
            got = sd.enumerate_A2_expressions(eff, k_max)
            assert_same_table(got, a2_reference.enumerate_A2_expressions(eff, k_max))
            built += len(got)
    assert kinds == {"A", "B", "C", "E", "TwoMode"}
    assert built > 10**6


def test_a2_b_forms_follow_the_witness():
    # the B block's witness (-2, -9, -8) is not the internal order: its
    # trace family's Lambda form must still give the block's
    # (Lambda_s + Lambda_t - 2 t^2) / nu^2 at rho
    internal, rho, nu = (-9, -8, -2), (1.3, 1.7, 2.9), 0.01
    spec = nf.TorusSpec(internal, rho, nu)
    eff, _ = nf.classify_torus(spec, rs.enumerate_sets(internal))
    b, blk = next((b, blk) for b, blk in enumerate(eff.blocks) if blk.kind == "B")
    assert blk.witness == (-2, -9, -8)
    lam_s, lam_t = blk.diag
    want = (lam_s + lam_t - 2 * blk.modes[1] ** 2) / nu**2
    table = sd.enumerate_A2_expressions(eff, k_max=6)
    (fam,) = {int(table.family[r]) for r in range(len(table))
              if table.expression(r).block == table.labels[b] and not table.filtered[r]
              and table.expression(r).kind == sd.OMEGA_K_PLUS_PLUS
              and table.expression(r).modes == blk.modes}
    got = sum(c * rho[i] * rho[j] for c, (i, j) in zip(table.fam_coef[fam], nf.pairs(3)))
    assert got == pytest.approx(want, rel=1e-12)  # 633.3; 844.98 in witness order


def _witness_k(internal, blk):
    """The kind's resonant exponents summed over the block's witness, in
    internal order."""
    acc = {m: 0 for m in internal}
    for e, m in zip(rs.RESONANT_EXPONENTS[blk.kind], blk.witness):
        acc[m] += e
    return tuple(acc[m] for m in internal)


def _witness_gap_form(internal, blk):
    """The matrix of the gap a / nu^2, half the twice-gap form stated over
    the block's witness, moved to the internal order."""
    idx = [internal.index(m) for m in blk.witness]
    Q = np.empty((3, 3))
    Q[np.ix_(idx, idx)] = _matrix(nf.twice_gap_form(rs.RESONANT_EXPONENTS["B"]), 3) / 2
    return Q


def test_a2_block_facts_over_the_instability_net():
    # every B- or E-bearing three-mode set with |m| <= 15, at one seeded rho
    # and box each: a block's exponent vector is the witness-order sum, and
    # A2's pair-creation families carry the gap form and the coupling bound
    # stated over the witness
    rng = random.Random(20261020)
    lam = _matrix(nf.shift_forms(3)[-1], 3)
    sets, b_blocks = 0, 0
    kinds = set()
    for internal in itertools.combinations(range(-15, 16), 3):
        try:
            cat = rs.enumerate_sets(internal)
        except rs.BoundTooSmall:
            continue
        if not (cat.set_B or cat.set_E):
            continue
        rho = tuple(rng.uniform(0.5, 3.0) for _ in internal)
        domain = tuple((0.9 * r, r * rng.uniform(1.01, 1.2)) for r in rho)
        spec = nf.TorusSpec(internal, rho, 0.01, domain=domain)
        try:
            eff, _ = nf.classify_torus(spec, cat)
        except (nf.PreconditionViolated, nf.DegenerateBlock):
            continue
        sets += 1
        nu2 = spec.nu**2
        table = sd.enumerate_A2_expressions(eff, k_max=1)
        for b, blk in enumerate(eff.blocks):
            kinds.add(blk.kind)
            assert blk.k == _witness_k(internal, blk), (internal, blk)
            if blk.kind != "B":
                continue
            b_blocks += 1
            gap = _witness_gap_form(internal, blk)
            mine = table.fam_block == b
            # each role's single branch has the form lambda - a / nu^2
            single = mine & (table.fam_kind == sd.KINDS.index(sd.OMEGA_K_PLUS_LAMBDA))
            assert single.sum() == 2
            for coef in table.fam_coef[single]:
                assert np.array_equal(coef, _coef(lam - gap)), (internal, blk)
            r1, r2, r3 = (domain[internal.index(m)][1] for m in blk.witness)
            cmax = nf.coupling_count("B", blk.witness, *blk.modes) * nu2 * r1 * math.sqrt(r2 * r3)
            amax = max(abs(v) for v in _interval(gap, domain)) * nu2
            root = math.hypot(amax, cmax)
            slack = nu2 * max(abs(v) for v in _interval(2 * gap, domain))
            # pads: the trace pair, the difference pair, and every branch family
            pads = set(table.fam_pad[mine & ~table.fam_filtered].tolist())
            assert pads == {slack, 2 * root, root + slack}, (internal, blk)
    assert (sets, b_blocks) == (714, 504)
    assert kinds == {"A", "B", "C", "E"}


def _coupling_tori():
    """The tori whose couplings and B pads are checked against
    ``coupling_reference``: the instability net at Fraction and at float
    rho, the exact-rho sweep, the flagship on D1 and D2, and a seeded box
    around a seeded Fraction rho of every B- or E-bearing net set."""
    rng = random.Random(20261031)
    for outcomes in (_net(False), _net(True), _exact_rho_sweep()):
        yield from (out[0] for _, _, out in outcomes if not isinstance(out, Exception))
    yield flagship_eff(domain="D1")
    yield flagship_eff(domain="D2")
    for internal in sorted({internal for internal, _, _ in _net(False)}):
        rho = tuple(Fraction(rng.randint(30, 300), rng.choice((7, 10, 64))) for _ in internal)
        box = tuple((float(r) * rng.uniform(0.8, 0.99), float(r) * rng.uniform(1.01, 1.3))
                    for r in rho)
        spec = nf.TorusSpec(internal, rho, Fraction(1, 100), domain=box)
        try:
            yield nf.classify_torus(spec, rs.enumerate_sets(internal))[0]
        except nf.DegenerateBlock:
            continue


def test_couplings_and_b_pads_match_the_corner_spec_reference():
    # _block evaluates each coupling once, and A2 bounds a B block's
    # coupling from the box's upper edges: both must give the bits of
    # block_coupling, at the spec and at a TorusSpec made at the corner
    blocks = pads = 0
    for eff in _coupling_tori():
        spec = eff.spec
        for blk in eff.blocks:
            blocks += 1
            want = coupling_reference.block_coupling(spec, blk.kind, blk.modes[0],
                                                     blk.modes[-1], blk.witness)
            assert blk.coupling.hex() == want.hex(), (spec, blk)
            if blk.kind == "B":
                pads += 1
                for amax in (0.0, 1e-3):
                    got = sd._pad_b_root(spec, blk, amax)
                    assert got.hex() == coupling_reference._pad_b_root(spec, blk, amax).hex()
    assert (blocks, pads) == (44300, 10618)


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


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_delta_is_refused(delta):
    # every comparison with a NaN delta is false, so A1 and A2 would report
    # NaN margins instead of verdicts; a finite negative delta stays valid
    eff = flagship_eff(domain="D2")
    for check in (sd.check_A1, sd.check_A2, sd.measure_scan):
        with pytest.raises(ValueError, match="delta"):
            check(eff, delta=delta)
    assert all(v.passed for v in sd.check_A1(eff, delta=-1.0))


@pytest.mark.parametrize("k_max", [0, -1])
def test_empty_lattice_is_refused(k_max):
    # with no lattice point there is no divisor, and nothing is certified
    eff = flagship_eff(domain="D2")
    for check in (sd.check_A2, sd.measure_scan):
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            check(eff, k_max=k_max)


# ---------------------------------------------------------------------------
# interval enclosure

@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9),
       st.lists(st.floats(1.0, 1.9), min_size=3, max_size=3))
def test_interval_encloses_samples(entries, lows):
    Q = np.array(entries).reshape(3, 3)
    box = [(lo, lo + 0.1) for lo in lows]
    lo, hi = sd._enclose(_coef(Q), box)
    assert (lo, hi) == _interval(Q, box)
    rng = np.random.default_rng(0)
    pts = np.array([[rng.uniform(a, b) for a, b in box] for _ in range(20)])
    vals = _quad(Q, pts)
    assert lo <= vals.min() + 1e-9 and vals.max() <= hi + 1e-9
