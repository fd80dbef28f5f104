"""Command-line front end: reproducible experiment orchestration.

Exit codes: 0 success/stable, 1 I/O error, 2 enumeration bound too small,
3 unstable classification, 4 precondition refused or degenerate block,
5 violated nonresonance verdicts.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import normal_form as nf
from . import resonance as rs
from . import sim
from . import small_divisors as sd

EXIT_OK = 0
EXIT_IO = 1
EXIT_BOUND = 2
EXIT_UNSTABLE = 3
EXIT_PRECONDITION = 4
EXIT_VIOLATED = 5


@dataclass
class RunConfig:
    p: int = 0
    q: int = 1
    m: int | None = None
    rho: tuple[float, ...] = (1.0, 1.0)
    nu: float = 0.01
    delta: float | None = None  # None -> nu^2
    k_max: int = 20
    band: int | None = None
    bound: int | None = None
    grid_resolution: int = 16
    domain: str = "point"  # point | D1 | D2
    K: int = 32
    N: int = 256
    dt: float = 5e-3
    t_end: float | None = None  # None -> 40/nu^2
    seed: int = 0
    seed_amp_scale: float = 1e-8
    seed_modes: tuple[int, ...] = ()
    sample_every: int = 40
    mass_tol: float = 1e-6
    grow_factor: float = 100.0
    scaling_nus: tuple[float, ...] = (0.005, 0.01, 0.02)
    scaling_grow_factor: float = 10.0
    out: str = "."
    preset: str | None = None

    @property
    def internal(self) -> tuple[int, ...]:
        return (self.p, self.q) if self.m is None else (self.p, self.q, self.m)

    def print_config(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name}={v}")
        return "\n".join(lines) + "\n"


# thm3-unstable's mass_tol override: the truncation cascade beyond the K=32
# band leaks ~5e-11 mass per step on the saturated unstable run; 1e-3 keeps
# the blow-up guard meaningful while admitting that known leak.
PRESETS = {
    "thm2-stable": dict(p=0, q=1, m=None, rho=(1.0, 1.0), nu=0.01, K=16, N=128,
                        dt=0.05, t_end=10.0 / 0.01**2, seed_modes=(2, -1),
                        sample_every=400, mass_tol=1e-6),
    "thm3-unstable": dict(p=-3, q=10, m=-6, rho=(2.0, 1.0, 9.0), nu=0.01, K=32,
                          N=256, dt=5e-3, seed_modes=(1, 9), sample_every=40,
                          mass_tol=1e-3, t_end=40.0 / 0.01**2),
    "paper-appendixA-setA": dict(p=-3, q=10, m=-6, rho=(2.0, 1.0, 9.0), nu=0.01),
}


def _parser(tp):
    """Parser of one config value of type ``tp``: the type itself for int,
    float and str, comma-separated items for a tuple (empty text is ()), and
    ``none`` in any case for None when ``tp`` is ``X | None``.  Inverts
    ``RunConfig.print_config`` field by field."""
    args = get_args(tp)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        parse = _parser(inner)

        def optional(text: str):
            return None if text.lower() == "none" else parse(text)
        return optional
    if get_origin(tp) is tuple:
        item = args[0]

        def items(text: str) -> tuple:
            return tuple(item(x) for x in text.split(",")) if text else ()
        return items
    return tp


PARSERS = {name: _parser(tp) for name, tp in get_type_hints(RunConfig).items()}


def load_config(path: str) -> dict:
    """key = value lines; a comment is a line starting with '#' or the text
    from a whitespace-preceded '#' on, so values such as runs/#3 survive."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = re.sub(r"(^|\s)#.*", "", raw, count=1).strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = _apply_strings(cfg, load_config(args.config))
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ValueError(f"unknown preset {args.preset!r}")
        cfg = replace(cfg, preset=args.preset, **PRESETS[args.preset])
    overrides = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None and f.name not in ("preset",):
            overrides[f.name] = v
    return replace(cfg, **overrides)


def _apply_strings(cfg: RunConfig, kv: dict) -> RunConfig:
    unknown = sorted(set(kv) - set(PARSERS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return replace(cfg, **{name: PARSERS[name](raw) for name, raw in kv.items()})


def _spec(cfg: RunConfig, domain=None) -> nf.TorusSpec:
    return nf.TorusSpec(cfg.internal, cfg.rho, cfg.nu, domain=domain)


def _domain(cfg: RunConfig):
    if cfg.domain == "D1":
        return nf.domain_D1()
    if cfg.domain == "D2":
        return nf.domain_D2()
    return None


def _target(cfg: RunConfig, name: str) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def _write(cfg: RunConfig, name: str, text: str) -> Path:
    target = _target(cfg, name)
    target.write_text(text)
    return target


def _classified(cfg: RunConfig) -> tuple[rs.ResonanceCatalog, nf.EffectiveHamiltonian,
                                          nf.Classification]:
    """The catalog, effective Hamiltonian and classification of the
    configured torus on the configured domain."""
    cat = rs.enumerate_sets(cfg.internal, bound=cfg.bound)
    eff, cls = nf.classify_torus(_spec(cfg, _domain(cfg)), cat, band=cfg.band)
    return cat, eff, cls


def cmd_resonances(cfg: RunConfig) -> int:
    cat = rs.enumerate_sets(cfg.internal, bound=cfg.bound)
    _write(cfg, "catalog.json", cat.to_json() + "\n")
    print(cat.to_json())
    return EXIT_OK


def cmd_normal_form(cfg: RunConfig) -> int:
    _, eff, _ = _classified(cfg)
    _write(cfg, "effective_hamiltonian.json", eff.to_json() + "\n")
    print(eff.to_json())
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    _, _, cls = _classified(cfg)
    _write(cfg, "classification.json", cls.to_json() + "\n")
    print(cls.to_json())
    return EXIT_UNSTABLE if cls.verdict == "Unstable" else EXIT_OK


def cmd_hypotheses(cfg: RunConfig) -> int:
    if cfg.preset == "paper-appendixA-setA":
        sols = sd.conic_search(sd.setA_conic_system(),
                               1000 if cfg.bound is None else cfg.bound)
        text = json.dumps([{"k": list(k), "j": j} for k, j in sols], indent=2)
        _write(cfg, "conic.json", text + "\n")
        print(text)
        return EXIT_OK
    _, eff, _ = _classified(cfg)
    summary, rep = _hypotheses(cfg, eff)
    with _target(cfg, "a2_verdicts.jsonl").open("w") as f:
        rep.write_json_lines(f)
    violated = rep.violated()
    summary["A2"]["violated"] = [{"kind": e.kind, "k": list(e.k)} for e, _ in violated]
    text = json.dumps(summary, indent=2)
    _write(cfg, "hypotheses.json", text + "\n")
    print(text)
    if violated or not summary["A0"]["passed"] or not all(v["passed"] for v in summary["A1"]):
        return EXIT_VIOLATED
    return EXIT_OK


def _hypotheses(cfg: RunConfig, eff: nf.EffectiveHamiltonian) -> tuple[dict, sd.HypothesisReport]:
    """The A0 / A1 / A2 summary of ``eff``, with every non-finite A1 margin
    written as text (JSON has no infinity), and the A2 report."""
    a0 = sd.check_A0(eff)
    a1 = sd.check_A1(eff, delta=cfg.delta)
    rep = sd.check_A2(eff, delta=cfg.delta, k_max=cfg.k_max,
                      grid_resolution=cfg.grid_resolution)
    summary = {
        "A0": {"passed": a0.passed, "supremum": a0.supremum, "bound": a0.bound},
        "A1": [{"name": v.name, "passed": v.passed, "margin": _plain(v.margin)} for v in a1],
        "A2": rep.summary(),
    }
    return summary, rep


def _grid(cfg: RunConfig) -> sim.GridSpec:
    return sim.GridSpec(cfg.K, cfg.N, cfg.dt)


def cmd_simulate(cfg: RunConfig) -> int:
    traj = sim.growth_run(_spec(cfg), _grid(cfg), _seed_modes(cfg), cfg.sample_every,
                          cfg.mass_tol, t_end=cfg.t_end, seed_amp_scale=cfg.seed_amp_scale,
                          seed=cfg.seed)
    fit = sim.fit_growth_rate(traj, cfg.nu, cfg.rho, grow_factor=cfg.grow_factor)
    _write(cfg, "trajectory.csv", traj.to_csv())
    _write(cfg, "growth_fit.json", fit.to_json() + "\n")
    print(fit.to_json())
    return EXIT_OK


def _seed_modes(cfg: RunConfig) -> tuple[int, ...]:
    """The configured seed modes or, when there are none, the first two
    modes of the torus's hyperbolic blocks (the ones that grow), else of
    all its blocks; classified at the torus's point."""
    if cfg.seed_modes:
        return cfg.seed_modes
    cat = rs.enumerate_sets(cfg.internal, bound=cfg.bound)
    blocks = nf.classify_torus(_spec(cfg), cat, band=cfg.band)[0].blocks
    growing = [b for b in blocks if b.hyperbolic] or blocks
    return tuple(m for b in growing for m in b.modes)[:2]


def cmd_scaling(cfg: RunConfig) -> int:
    slope, fits, _ = sim.scaling_experiment(
        cfg.internal, cfg.rho, cfg.scaling_nus, _grid(cfg), _seed_modes(cfg),
        seed_amp_scale=cfg.seed_amp_scale, sample_every=cfg.sample_every,
        grow_factor=cfg.scaling_grow_factor, mass_tol=cfg.mass_tol,
        seed=cfg.seed)
    rates = {str(nu): fits[nu].rate for nu in cfg.scaling_nus}
    text = json.dumps({"slope": slope, "rates": rates}, indent=2)
    _write(cfg, "scaling.json", text + "\n")
    print(text)
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    cat, eff, cls = _classified(cfg)
    report = {
        "config": {f.name: _plain(getattr(cfg, f.name)) for f in fields(cfg)},
        "catalog": json.loads(cat.to_json()),
        "effective_hamiltonian": json.loads(eff.to_json()),
        "classification": json.loads(cls.to_json()),
        "hypotheses": _hypotheses(cfg, eff)[0],
        "notes": _discrepancy_notes(cat),
    }
    text = json.dumps(report, indent=2)
    _write(cfg, "report.json", text + "\n")
    print(text)
    return EXIT_UNSTABLE if cls.verdict == "Unstable" else EXIT_OK


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, float) and not np.isfinite(v):
        return repr(v)
    return v


def _discrepancy_notes(cat) -> list[str]:
    """The (-3, 10, -6) torus's note: an earlier published account lists
    other family-A members for it.  Other tori get none."""
    if sorted(cat.internal) != [-6, -3, 10] or not cat.set_A:
        return []
    pairs = [(p.s, p.t) for p in cat.set_A]
    return ["family-A pairs computed as "
            f"{pairs}; an earlier published account lists different members "
            "for the (-3,10,-6) configuration"]


COMMANDS = ("resonances", "normal-form", "classify", "hypotheses", "simulate", "scaling",
            "report")


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qnls",
        description="Invariant-torus stability toolkit for the quintic NLS")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-p", type=int, default=None)
        p.add_argument("-q", type=int, default=None)
        p.add_argument("-m", type=int, default=None)
        p.add_argument("--rho", type=PARSERS["rho"], default=None)
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--kmax", dest="k_max", type=int, default=None)
        p.add_argument("--band", type=int, default=None)
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--grid-resolution", dest="grid_resolution", type=int,
                       default=None)
        p.add_argument("--domain", choices=["point", "D1", "D2"], default=None)
        p.add_argument("--K", type=int, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--seed-modes", dest="seed_modes", type=PARSERS["seed_modes"],
                       default=None)
        p.add_argument("--sample-every", dest="sample_every", type=int,
                       default=None)
        p.add_argument("--mass-tol", dest="mass_tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--preset", type=str, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--print-config", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.print_config:
        print(cfg.print_config(), end="")
        return EXIT_OK
    # looked up when called, so that a wrapped cmd_* is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(cfg)
    except rs.BoundTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (nf.PreconditionViolated, nf.DegenerateBlock) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (sim.BlowUp, sim.WindowNotFound, sd.EmptyRange, ValueError, OverflowError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
