"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup()``, runs one pass
in ``unit()`` (the timed part) and checks that pass's outputs in
``check()`` (untimed).  A pass yields one or more operations ("tori"), each
with its own latency and outcome.  Modules are always reached as module
attributes (``self.q.sim.evolve``) so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

FLAGSHIP = (-3, 10, -6)


@dataclass
class Op:
    """One operation of a pass: its timing and what it produced."""

    name: str
    timed: object  # harness.Timed
    completed: bool  # reached a verdict or a documented refusal
    outcome: tuple = ()
    data: object = None


@dataclass
class Pass:
    ops: list[Op]
    counters: dict = field(default_factory=dict)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


class Workload:
    name = ""
    # wall_s is the pass time, or for per-torus sweeps the pass time per
    # completed torus.
    per_torus_wall = False

    def __init__(self, q, seed: int, tiny: bool, reference: dict, scratch: Path):
        self.q = q  # namespace with the qnls modules
        self.seed = seed
        self.tiny = tiny
        self.ref = reference.get(self.name, {}).get("tiny" if tiny else "full", {})
        self.scratch = scratch

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, probe) -> Pass:
        raise NotImplementedError

    def check(self, result: Pass) -> list[tuple[int, str]]:
        """Gate misses of one pass as (op index, message); index -1 is a
        miss of the pass as a whole."""
        raise NotImplementedError

    def record(self, result: Pass) -> dict:
        """Reference entry for this seed (used by ``--record``)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

class _SimWorkload(Workload):
    internal: tuple = ()
    rho: tuple = ()
    nu = 0.0
    grid_args: tuple = ()
    seed_modes: tuple = ()
    seed_amp_scale = 1e-8
    sample_every = 0
    mass_tol = 0.0
    t_end = 0.0
    stop_cut = False
    grow_factor = 100.0

    def setup(self) -> None:
        sim, nf = self.q.sim, self.q.normal_form
        self.grid = sim.GridSpec(*self.grid_args)
        self.spec = nf.TorusSpec(self.internal, self.rho, self.nu)
        self.amp = self.seed_amp_scale * math.sqrt(self.nu)
        state = sim.prepare_torus_state(self.spec, self.seed_modes, self.amp,
                                        self.grid, seed=self.seed)
        # warm-up: a short run on the same grid
        sim.evolve(state, self.grid, 400 * self.grid.dt, self.sample_every,
                   internal=self.internal, mass_tol=self.mass_tol)

    def unit(self, probe) -> Pass:
        sim = self.q.sim
        # the CLI's saturation cut: twice 1e-2 * nu * min(rho)
        stop = 2e-2 * self.nu * min(self.rho) if self.stop_cut else None
        start = probe.mark()
        state = sim.prepare_torus_state(self.spec, self.seed_modes, self.amp,
                                        self.grid, seed=self.seed)
        traj = sim.evolve(state, self.grid, self.t_end, self.sample_every,
                          internal=self.internal, watch=self.seed_modes,
                          mass_tol=self.mass_tol, stop_ext_mass=stop)
        fit = sim.fit_growth_rate(traj, self.nu, self.rho,
                                  grow_factor=self.grow_factor)
        timed = probe.region(start)
        mass = traj.mass
        counters = {
            "steps": int(round((traj.times[-1] - traj.times[0]) / self.grid.dt)),
            "samples": len(traj.times),
            "mass_drift": float(max(abs(mass - mass[0])) / mass[0]),
        }
        op = Op("torus", timed, True,
                (fit.flag, fit.rate, tuple(fit.dominant_modes)), fit)
        return Pass([op], counters)

    def record(self, result: Pass) -> dict:
        fit = result.ops[0].data
        return {"rate": fit.rate, "flag": fit.flag,
                "dominant_modes": list(fit.dominant_modes),
                "samples": result.counters["samples"]}


class GrowthUnstable(_SimWorkload):
    """Flagship torus on the thm3-unstable grid at nu = 0.02 (the cheapest
    member of the preset's scaling list), evolved to the saturation cut."""

    name = "growth-unstable"
    internal = FLAGSHIP
    rho = (2.0, 1.0, 9.0)
    nu = 0.02
    grid_args = (32, 256, 5e-3)
    seed_modes = (1, 9)
    sample_every = 40
    mass_tol = 1e-3  # thm3-unstable preset
    stop_cut = True
    grow_factor = 10.0  # the preset's scaling_grow_factor

    def __init__(self, *args):
        super().__init__(*args)
        self.t_end = 40.0 / self.nu**2
        if self.tiny:
            self.seed_amp_scale = 3e-3  # saturates after ~52k steps

    def check(self, result: Pass) -> list[tuple[int, str]]:
        fit = result.ops[0].data
        misses = []
        if fit.flag:
            misses.append(f"growth fit flagged {fit.flag}")
        if tuple(sorted(fit.dominant_modes)) != (1, 9):
            misses.append(f"dominant modes {fit.dominant_modes} != (1, 9)")
        ref = self.ref.get(str(self.seed))
        if ref is not None:
            if not _rel_close(fit.rate, ref["rate"], 1e-3):
                misses.append(f"rate {fit.rate!r} differs from reference "
                              f"{ref['rate']!r} by more than 1e-3 relative")
        else:
            # criterion 9b's window around 6 nu^2 rho1 sqrt(rho2 rho3)
            consistent = 6 * self.nu**2 * self.rho[0] * math.sqrt(self.rho[1] * self.rho[2])
            if not consistent / 2 <= fit.rate <= 2 * consistent:
                misses.append(f"rate {fit.rate!r} outside the 9b window "
                              f"[{consistent / 2}, {2 * consistent}]")
        return [(0, m) for m in misses]


class HorizonStable(_SimWorkload):
    """thm2-stable torus (0, 1) run to a fixed horizon without a stop cut."""

    name = "horizon-stable"
    internal = (0, 1)
    rho = (1.0, 1.0)
    nu = 0.01
    grid_args = (16, 128, 0.05)
    seed_modes = (2, -1)
    sample_every = 400
    mass_tol = 1e-6  # thm2-stable preset

    def __init__(self, *args):
        super().__init__(*args)
        steps = 52 * 400 if self.tiny else 160 * 400
        self.t_end = steps * self.grid_args[2]

    def check(self, result: Pass) -> list[tuple[int, str]]:
        fit = result.ops[0].data
        c = result.counters
        misses = []
        if fit.flag != "WindowNotFound" or fit.rate != 0.0:
            misses.append(f"expected WindowNotFound with rate 0, got "
                          f"{fit.flag!r} rate {fit.rate!r}")
        if not c["mass_drift"] <= self.mass_tol:
            misses.append(f"mass drift {c['mass_drift']:.3e} exceeds {self.mass_tol}")
        ref = self.ref.get("all", {})
        for key in ("flag", "samples"):
            got = fit.flag if key == "flag" else c["samples"]
            if key in ref and got != ref[key]:
                misses.append(f"{key} {got!r} != reference {ref[key]!r}")
        return [(0, m) for m in misses]

    def record(self, result: Pass) -> dict:
        return {"all": super().record(result)}


# ---------------------------------------------------------------------------

# verdict path of an a2_verdicts.jsonl line, keyed by the bytes that mark it
_A2_PATHS = {
    "a2_filtered": b'"verdict": "FilteredByConservation"',
    "a2_interval": b'"witness": "interval certificate"',
    "a2_grid": b'"witness": "grid minimum"',
    "a2_transversal": b'"verdict": "Transversal"',
    "a2_violated": b'"verdict": "Violated"',
}


class CertifyFlagship(Workload):
    """`qnls hypotheses` in-process for the flagship on D2 and D1, then
    small_divisors.measure_scan on D1."""

    name = "certify-flagship"
    DOMAINS = {"D2": "2,1,9", "D1": "1.5,1.2,1.8"}

    def setup(self) -> None:
        rs, nf = self.q.resonance, self.q.normal_form
        self.out = self.scratch / f"certify-{self.seed}"
        self.extra = ["--kmax", "4", "--grid-resolution", "8"] if self.tiny else []
        self.scan_args = dict(k_max=4, grid_resolution=8) if self.tiny else dict(
            k_max=20, grid_resolution=16)
        cat = rs.enumerate_sets(FLAGSHIP)
        spec = nf.TorusSpec(FLAGSHIP, (1.5, 1.2, 1.8), 0.01, domain=nf.domain_D1())
        self.eff_d1, _ = nf.classify_torus(spec, cat)
        # warm-up: one small certificate run through the CLI
        self._hypotheses("D2", ["--kmax", "2", "--grid-resolution", "8"])

    def _argv(self, dom: str, extra: list[str]) -> list[str]:
        return ["hypotheses", "-p", "-3", "-q", "10", "-m", "-6",
                "--rho", self.DOMAINS[dom], "--domain", dom,
                "--out", str(self.out / dom), *extra]

    def _hypotheses(self, dom: str, extra: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.q.cli.main(self._argv(dom, extra))
        return code, buf.getvalue()

    def unit(self, probe) -> Pass:
        """One operation: the flagship certified on D2 and D1 and its D1
        near-resonant fraction measured."""
        start = probe.mark()
        runs = {dom: self._hypotheses(dom, self.extra) for dom in ("D2", "D1")}
        frac = self.q.small_divisors.measure_scan(self.eff_d1, **self.scan_args)
        op = Op("flagship", probe.region(start), True, (), (runs, frac))
        counters = {k: 0 for k in _A2_PATHS}
        counters.update(a2_exprs=0, bytes_written=0)
        for dom in ("D2", "D1"):
            files = sorted((self.out / dom).iterdir())
            counters["bytes_written"] += sum(f.stat().st_size for f in files)
            data = (self.out / dom / "a2_verdicts.jsonl").read_bytes()
            counters[f"digest_{dom}"] = _sha256(data)
            counters["a2_exprs"] += data.count(b"\n")
            for key, marker in _A2_PATHS.items():
                n = data.count(marker)
                counters[key] += n
                counters[f"{key}_{dom}"] = n
        return Pass([op], counters)

    def check(self, result: Pass) -> list[tuple[int, str]]:
        misses = []
        ref = self.ref.get("all", {})
        c = result.counters
        runs, frac = result.ops[0].data
        for dom, (code, text) in runs.items():
            if code != 0:
                misses.append(f"hypotheses {dom}: exit code {code}")
                continue
            violated = json.loads(text)["A2"]["violated"]
            if violated:
                misses.append(f"hypotheses {dom}: {len(violated)} violated expressions")
            want = ref.get(dom)
            if want is None:
                misses.append(f"hypotheses {dom}: no reference recorded")
                continue
            if c[f"digest_{dom}"] != want["digest"]:
                misses.append(f"hypotheses {dom}: a2_verdicts.jsonl digest changed")
            got = {k: c[f"{k}_{dom}"] for k in _A2_PATHS}
            if got != want["paths"]:
                misses.append(f"hypotheses {dom}: verdict paths {got} != {want['paths']}")
        if frac != ref.get("measure_scan_D1"):
            misses.append(f"measure_scan fraction {frac!r} != "
                          f"reference {ref.get('measure_scan_D1')!r}")
        return [(0, m) for m in misses]

    def record(self, result: Pass) -> dict:
        c = result.counters
        entry = {dom: {"digest": c[f"digest_{dom}"],
                       "paths": {k: c[f"{k}_{dom}"] for k in _A2_PATHS}}
                 for dom in ("D2", "D1")}
        entry["measure_scan_D1"] = result.ops[0].data[1]
        return {"all": entry}

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# ---------------------------------------------------------------------------

NU_EXACT = Fraction(1, 100)
DEFECT = "domain must contain rho"


def _fmt_rho(rho) -> str:
    return ",".join(str(r) for r in rho)


class ClassifySweep(Workload):
    """Exact-arithmetic enumerate_sets + classify_torus for every sorted
    three- and two-mode set in a box, at seed-drawn small-denominator
    rational rho, plus the flagship over a rational grid inside D2."""

    name = "classify-sweep"
    per_torus_wall = True

    def setup(self) -> None:
        nf = self.q.normal_form
        box = 4 if self.tiny else 15
        rng = random.Random(self.seed)
        modes = range(-box, box + 1)
        tori = []
        for n in (3, 2):
            for internal in itertools.combinations(modes, n):
                rho = []
                for _ in range(n):
                    b = rng.randint(1, 6)
                    rho.append(Fraction(rng.randint(b, 3 * b), b))
                tori.append((internal, tuple(rho), ()))
        steps = range(-1, 2) if self.tiny else range(-2, 3)
        d2 = nf.domain_D2()
        for i, j, k in itertools.product(steps, repeat=3):
            rho = (2 + Fraction(i, 250), 1 + Fraction(j, 250), 9 + Fraction(k, 250))
            tori.append((FLAGSHIP, rho, d2))
        self.tori = tori
        # warm-up: classify the flagship once
        self._classify(FLAGSHIP, (Fraction(2), Fraction(1), Fraction(9)), d2)

    def _classify(self, internal, rho, domain):
        """(completed, outcome, catalog, classification) for one torus."""
        rs, nf = self.q.resonance, self.q.normal_form
        cat = None
        try:
            cat = rs.enumerate_sets(internal)
            spec = nf.TorusSpec(internal, rho, NU_EXACT, domain=domain)
            eff, cls = nf.classify_torus(spec, cat)
        except rs.BoundTooSmall:
            return True, ("refused", "BoundTooSmall"), cat, None
        except nf.PreconditionViolated:
            return True, ("refused", "PreconditionViolated"), cat, None
        except nf.DegenerateBlock:
            return True, ("refused", "DegenerateBlock"), cat, None
        except ValueError as exc:
            kind = "rho-domain-defect" if DEFECT in str(exc) else "ValueError"
            return False, ("failed", kind), cat, None
        except Exception as exc:  # undocumented: counted as failed
            return False, ("failed", type(exc).__name__), cat, None
        return True, (cls.verdict, tuple(cls.hyperbolic_modes)), cat, (spec, eff, cls)

    def unit(self, probe) -> Pass:
        ops = []
        for internal, rho, domain in self.tori:
            start = probe.mark()
            completed, outcome, cat, got = self._classify(internal, rho, domain)
            ops.append(Op(f"{internal}|{_fmt_rho(rho)}", probe.region(start),
                          completed, outcome, (cat, got)))
        counters = {}
        for op in ops:
            key = op.outcome[1] if op.outcome[0] in ("refused", "failed") else op.outcome[0]
            counters[key] = counters.get(key, 0) + 1
        return Pass(ops, counters)

    def table(self, result: Pass) -> bytes:
        """Per-torus verdict table over the tori the rho-domain defect cannot
        reach, so that fixing the defect leaves it unchanged."""
        return "\n".join(f"{op.name}|{op.outcome}"
                         for op, torus in zip(result.ops, self.tori)
                         if not _defect_exposed(*torus)).encode()

    def check(self, result: Pass) -> list[tuple[int, str]]:
        misses = []
        for i, op in enumerate(result.ops):
            if op.completed:
                problem = _oracle(self.q.normal_form, op)
                if problem:
                    misses.append((i, f"{op.name}: {problem}"))
        want = self.ref.get(str(self.seed))
        if want is not None and _sha256(self.table(result)) != want:
            misses.append((-1, "per-torus verdict table differs from the reference"))
        return misses

    def record(self, result: Pass) -> dict:
        return _sha256(self.table(result))


def _defect_exposed(internal, rho, domain) -> bool:
    """True when TorusSpec's default domain [float(r), float(r)] misses rho."""
    return not domain and any(Fraction(float(r)) != r for r in rho)


def _oracle(nf, op: Op) -> str:
    """Independent exact check of one completed classification.

    Block spectra follow from closed forms in exact rationals, in units of
    nu^2: pair-creation (B) blocks are hyperbolic iff
    324 r1^2 r2 r3 - gap^2 > 1e-6, self-coupled (E) blocks iff
    4 r1^2 r2 r3 - L^2 > 1e-6 (the 1e-3 nu^2 classification band, squared);
    energy-conserving (A, C, two-mode) blocks are Hermitian and elliptic.
    Results within the band or near a zero discriminant are not judged.
    """
    cat, got = op.data
    kind = op.outcome[0]
    if kind == "refused":
        if op.outcome[1] == "PreconditionViolated":
            n = len(cat.internal)
            if cat.disjoint and not (n == 3 and cat.one_mode_solutions):
                return "refused although the catalog meets the preconditions"
        return ""
    spec, eff, cls = got
    rho = {m: Fraction(r) for m, r in zip(spec.internal, spec.rho)}
    hyperbolic: set[int] = set()
    for blk in eff.blocks:
        if blk.kind in ("A", "C", "TwoMode"):
            if blk.classification != nf.ELLIPTIC:
                return f"{blk.kind} block {blk.modes} classified {blk.classification}"
            continue
        r1, r2, r3 = (rho[m] for m in blk.witness)
        if blk.kind == "B":
            rs_ = list(rho.values())
            lam = 9 * (sum(r * r for r in rs_) + 4 * sum(
                a * b for a, b in itertools.combinations(rs_, 2)))
            b_poly = -r1 * r1 + r2 * r2 + 5 * r3 * r3 - 6 * r1 * r2 + 12 * r2 * r3 + 6 * r3 * r1
            gap = (lam - 3 * b_poly) / 2
            a2, c2 = gap * gap, 324 * r1 * r1 * r2 * r3
        else:  # E
            lam_s = 3 * (2 * r1 * r1 + r2 * r2 - r3 * r3 + 9 * r1 * r2 + 3 * r3 * r1)
            a2, c2 = lam_s * lam_s, 4 * r1 * r1 * r2 * r3
        diff = c2 - a2
        if abs(diff) <= Fraction(1, 10**9) * max(a2, c2) or 0 <= diff <= Fraction(2, 10**6):
            return ""  # inside the degenerate band: not judged
        want = nf.HYPERBOLIC if diff > 0 else nf.ELLIPTIC
        if blk.classification != want:
            return f"{blk.kind} block {blk.modes} classified {blk.classification}, closed form says {want}"
        if want == nf.HYPERBOLIC:
            hyperbolic.update(blk.modes)
    verdict = "Unstable" if hyperbolic else "Stable"
    if cls.verdict != verdict or set(cls.hyperbolic_modes) != hyperbolic:
        return f"verdict {cls.verdict} {cls.hyperbolic_modes}, closed form says {verdict} {sorted(hyperbolic)}"
    if not cat.disjoint or (len(spec.internal) == 3 and cat.one_mode_solutions):
        return "classified although the catalog violates the preconditions"
    return ""


WORKLOADS = {w.name: w for w in (GrowthUnstable, HorizonStable, CertifyFlagship,
                                 ClassifySweep)}
