"""One benchmark run of one workload, in a fresh single-threaded process.

Started by run.py, which pins the thread environment and adds provenance.
Prints an info line (JSON, prefixed "info ") and, as its last line, the
result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import platform
import resource
import sys
import time
import types
from pathlib import Path

import numpy as np

import harness
from workloads import WORKLOADS, Op, Pass

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ("cli", "normal_form", "resonance", "sim", "small_divisors")

# Public module attributes wrapped in the traced run, keyed by span name.
TRACED = {
    "resonance": ["enumerate_sets"],
    "normal_form": ["classify_torus", "block_set_A", "block_set_B",
                    "block_set_C", "block_set_E", "block_two_mode_case2"],
    "small_divisors": ["check_A0", "check_A1", "check_A2",
                       "enumerate_A2_expressions", "measure_scan"],
    "sim": ["prepare_torus_state", "evolve", "conserved", "fit_growth_rate"],
    "cli": ["main", "cmd_hypotheses"],
}


def load_qnls() -> types.SimpleNamespace:
    """(Re)import qnls from the checkout's src/, never from site-packages."""
    if not (SRC / "qnls" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'qnls'} not found; run from a qnls checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "qnls" or m.startswith("qnls.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    qnls = importlib.import_module("qnls")
    if Path(qnls.__file__).resolve().parent != SRC / "qnls":
        raise SystemExit(f"error: imported qnls from {qnls.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: getattr(qnls, m) for m in MODULES})


def step_flops(K: int, N: int) -> float:
    """Computed (not counted) flops of one split step: two complex FFTs at
    5 N log2 N, about 20 N for |u|^4, the phase exponential, the product
    and the 1/N scaling, and 6 per band mode for the linear phase."""
    return 10.0 * N * np.log2(N) + 20.0 * N + 6.0 * (2 * K + 1)


class Run:
    def __init__(self, args):
        self.args = args
        self.probe = harness.SpeedProbe()
        self.reference = json.loads(Path(args.reference).read_text())
        self.scratch = Path(args.scratch)
        self.passes = []  # (traced, Pass, Timed, misses)
        self.tracer = None
        self.entry = None  # reference entry in --record runs

    def factor(self) -> float:
        """Run-level slow-down factor, the fallback for unprobed regions."""
        p = self.probe
        return (p.total / p.count) / harness.PROBE_NOMINAL_S if p.count else 1.0

    def setup(self):
        """Import, input generation and warm-up, repeated; returns the last
        workload and the normalized and raw setup times."""
        reps = 1 if self.args.tiny else 5
        norm, raw = [], []
        wl = None
        for _ in range(reps):
            if wl is not None:
                wl.close()
            start = self.probe.mark()
            q = load_qnls()
            wl = WORKLOADS[self.args.workload](q, self.args.seed, self.args.tiny,
                                               self.reference, self.scratch)
            wl.setup()
            timed = self.probe.region(start)
            norm.append(timed.normalized(self.factor()))
            raw.append(timed.raw)
        return wl, q, norm, raw

    def measure(self, wl, q):
        """Passes until --seconds have elapsed; in a traced run, untraced and
        traced passes alternate and at least one of each runs."""
        targets = {f"{m}.{a}": getattr(q, m) for m, names in TRACED.items() for a in names}
        t_start = time.perf_counter()
        traced = False
        while True:
            if traced:
                self.tracer.install(targets)
                first = len(self.tracer.spans)
            start = self.probe.mark()
            try:
                result = wl.unit(self.probe)
            except Exception as exc:  # an undocumented exception fails the pass
                timed = self.probe.region(start)
                result = Pass([Op("pass", timed, False, ("failed", type(exc).__name__))])
                misses = [(0, f"{type(exc).__name__}: {exc}")]
            else:
                timed = self.probe.region(start)
                misses = None
            finally:
                if traced:
                    self.tracer.uninstall()
            if traced:
                result.counters["_spans"] = self.tracer.self_times(first)
            if misses is None:
                misses = wl.check(result)
                if self.args.record and self.entry is None:
                    self.entry = wl.record(result)
            for op in result.ops:
                op.data = None  # keep peak RSS independent of the pass count
            self.passes.append((traced, result, timed, misses))
            if self.args.trace:
                traced = not traced
            elapsed = time.perf_counter() - t_start
            if elapsed >= self.args.seconds and not traced and (
                    not self.args.trace or len(self.passes) >= 2):
                break

    # -- metrics ------------------------------------------------------------

    def pass_times(self, traced: bool):
        fb = self.factor()
        out = []
        for tr, result, timed, _ in self.passes:
            if tr != traced:
                continue
            f = timed.factor(fb)
            t = timed.net / f
            done = sum(op.completed for op in result.ops)
            if WORKLOADS[self.args.workload].per_torus_wall:
                out.append((t / max(done, 1), t, f, result, done))
            else:
                out.append((t, t, f, result, done))
        return out

    def end_to_end(self, setup_norm):
        rows = self.pass_times(False)
        # a torus's latency is its median normalized time over the run's
        # passes, which all repeat the same tori
        per_torus: dict[str, list[float]] = {}
        for _, _, f, result, _ in rows:
            for op in result.ops:
                if op.completed:
                    t = op.timed.net / self.probe.local_factor(op.timed, f)
                    per_torus.setdefault(op.name, []).append(t)
        lat = [harness.median(ts) for ts in per_torus.values()]
        total = sum(t for _, t, _, _, _ in rows)
        done = sum(d for *_, d in rows)
        return {
            "setup_s": (harness.median(setup_norm), "s"),
            "wall_s": (harness.median([w for w, *_ in rows]), "s"),
            "tori_per_s": (done / total, "1/s"),
            "torus_p50_ms": (1e3 * harness.median(lat), "ms"),
            "torus_p99_ms": (1e3 * harness.percentile(lat, 99), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }, len(lat)

    def per_layer(self, attempted, failed):
        plain = self.pass_times(False)
        traced = self.pass_times(True)
        n = len(traced)
        selfs: dict[str, float] = {}
        calls: dict[str, float] = {}
        totals: dict[str, float] = {}
        counters: dict[str, float] = {}
        unattributed = 0.0
        for _, t, f, result, _ in traced:
            s, c, tot, roots = result.counters["_spans"]
            for k, v in s.items():
                selfs[k] = selfs.get(k, 0.0) + v / f / n
            for k, v in tot.items():
                totals[k] = totals.get(k, 0.0) + v / f / n
            for k, v in c.items():
                calls[k] = calls.get(k, 0) + v / n
            unattributed += (t - roots / f) / n
            for k, v in result.counters.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    counters[k] = counters.get(k, 0.0) + v / n

        def S(name):
            return selfs.get(name, 0.0)

        def C(name):
            return calls.get(name, 0)

        wl = WORKLOADS[self.args.workload]
        steps = counters.get("steps", 0.0)
        us_step = 1e6 * S("sim.evolve") / steps if steps else 0.0
        grid = getattr(wl, "grid_args", None)
        plain_time = sum(t for _, t, *_ in plain)
        exprs = counters.get("a2_exprs", 0.0)
        unfiltered = exprs - counters.get("a2_filtered", 0.0)
        module_self = {m: sum(v for k, v in selfs.items() if k.startswith(m + "."))
                       for m in TRACED}
        m = {
            "steps_per_s": (steps * len(plain) / plain_time if steps else 0.0, "1/s"),
            "a2_exprs_per_s": (exprs * len(plain) / plain_time if exprs else 0.0, "1/s"),
            "fail_frac": (failed / attempted, "ratio"),
            "trace.overhead_s": (harness.median([t for _, t, *_ in traced])
                                 - harness.median([t for _, t, *_ in plain]), "s"),
            "trace.wall_s": (harness.median([t for _, t, *_ in traced]), "s"),
            "trace.unattributed_s": (unattributed, "s"),
            "sim.us_per_step": (us_step, "us"),
            "sim.conserved_us": (1e6 * S("sim.conserved") / C("sim.conserved")
                                 if C("sim.conserved") else 0.0, "us"),
            "sim.conserved_calls": (C("sim.conserved"), "count"),
            "sim.steps": (steps, "count"),
            "sim.samples": (counters.get("samples", 0.0), "count"),
            "sim.fit_s": (S("sim.fit_growth_rate"), "s"),
            "sim.prepare_s": (S("sim.prepare_torus_state"), "s"),
            "sim.mass_drift": (counters.get("mass_drift", 0.0), "ratio"),
            "sim.step_gflops_computed": (
                step_flops(grid[0], grid[1]) / us_step / 1e3 if us_step else 0.0,
                "GFLOP/s"),
            "small_divisors.enumerate_s": (S("small_divisors.enumerate_A2_expressions"), "s"),
            "small_divisors.judge_s": (S("small_divisors.check_A2"), "s"),
            "small_divisors.measure_scan_s": (S("small_divisors.measure_scan"), "s"),
            "small_divisors.a0_s": (S("small_divisors.check_A0"), "s"),
            "small_divisors.a1_s": (S("small_divisors.check_A1"), "s"),
            "small_divisors.a2_exprs": (exprs, "count"),
        }
        for key in ("a2_filtered", "a2_interval", "a2_grid", "a2_transversal",
                    "a2_violated"):
            m[f"small_divisors.{key}"] = (counters.get(key, 0.0), "count")
        m["small_divisors.filtered_frac"] = (
            counters.get("a2_filtered", 0.0) / exprs if exprs else 0.0, "ratio")
        m["small_divisors.interval_frac"] = (
            counters.get("a2_interval", 0.0) / unfiltered if unfiltered else 0.0, "ratio")
        refused = sum(counters.get(k, 0.0) for k in ("PreconditionViolated",
                                                     "DegenerateBlock"))
        m.update({
            "normal_form.classify_s": (S("normal_form.classify_torus"), "s"),
            "normal_form.classify_calls": (C("normal_form.classify_torus"), "count"),
            "normal_form.refused": (refused, "count"),
            "normal_form.blocks": (sum(C(f"normal_form.{b}") for b in TRACED["normal_form"][1:]),
                                   "count"),
            "normal_form.block_A_s": (S("normal_form.block_set_A"), "s"),
            "normal_form.block_B_s": (S("normal_form.block_set_B"), "s"),
            "normal_form.block_C_s": (S("normal_form.block_set_C"), "s"),
            "normal_form.block_E_s": (S("normal_form.block_set_E"), "s"),
            "normal_form.block_two_mode_s": (S("normal_form.block_two_mode_case2"), "s"),
            "resonance.enumerate_s": (S("resonance.enumerate_sets"), "s"),
            "resonance.enumerate_calls": (C("resonance.enumerate_sets"), "count"),
            "resonance.bound_too_small": (counters.get("BoundTooSmall", 0.0), "count"),
            "cli.main_s": (totals.get("cli.main", 0.0), "s"),
            "cli.bytes_written": (counters.get("bytes_written", 0.0), "B"),
        })
        for mod in TRACED:
            m[f"{mod}.self_s"] = (module_self[mod], "s")
        return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--reference", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    run = Run(args)
    run.probe.start()
    try:
        wl, q, setup_norm, setup_raw = run.setup()
        if args.trace:
            run.tracer = harness.Tracer(run.probe)
        try:
            run.measure(wl, q)
        finally:
            wl.close()
    finally:
        run.probe.stop()

    if args.record:
        print(json.dumps(run.entry))
        return 0

    attempted = failed = 0
    misses_all = []
    for _, result, _, misses in run.passes:
        bad = {i for i, _ in misses if i >= 0}
        bad |= {i for i, op in enumerate(result.ops) if not op.completed}
        failed += len(bad) + sum(1 for i, _ in misses if i < 0)
        attempted += len(result.ops) + sum(1 for i, _ in misses if i < 0)
        misses_all.extend(msg for _, msg in misses)

    if args.trace:
        metrics = run.per_layer(attempted, failed)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in run.tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        samples = None
    else:
        metrics, samples = run.end_to_end(setup_norm)

    failures: dict[str, int] = {}
    for _, result, _, _ in run.passes:
        for op in result.ops:
            if not op.completed:
                failures[op.outcome[1]] = failures.get(op.outcome[1], 0) + 1
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny,
        "passes": len(run.passes),
        "raw_pass_s": [t.raw for _, _, t, _ in run.passes],
        "speed_factor": [t.factor(run.factor()) for _, _, t, _ in run.passes],
        "setup_raw_s": setup_raw,
        "latency_samples": samples,
        "fail_frac": failed / attempted,
        "failures_by_kind": failures,
        "gate_misses": misses_all[:20],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "qnls": str(SRC / "qnls"),
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not misses_all,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


if __name__ == "__main__":
    sys.exit(main())
