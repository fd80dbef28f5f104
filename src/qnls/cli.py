"""Command-line front end: reproducible experiment orchestration.

Exit codes: 0 success/stable, 1 I/O error, bad value or usage error,
2 enumeration bound too small (only), 3 unstable classification,
4 precondition refused or degenerate block, 5 violated nonresonance verdicts.

A run's RunConfig is the defaults, then the ``--config`` file's keys (its
``preset`` first), then the flags (``--preset`` first), all text parsed by
``_apply_strings``: a bad value exits 1 from either source.  seed_amp_scale,
grow_factor, scaling_nus and scaling_grow_factor are config-file keys only.

Every artifact is written whole as a new file that then takes its name in
the out directory (``_write``): a file at its final name is complete.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, get_args, get_origin, get_type_hints

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


# the box of each --domain: none at "point", else a box of rho
DOMAINS = {"point": None, "D1": nf.domain_D1(), "D2": nf.domain_D2()}


def _parser(tp):
    """Parser of one config value of type ``tp``: the type itself for int,
    float and str, comma-separated items for a tuple (empty text is ()), and
    ``none`` in any case for None when ``tp`` is ``X | None``.  Inverts
    ``RunConfig.print_config`` field by field."""
    args = get_args(tp)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return _optional(_parser(inner))
    if get_origin(tp) is tuple:
        item = args[0]

        def items(text: str) -> tuple:
            return tuple(item(x) for x in text.split(",")) if text else ()
        return items
    return tp


def _optional(parse):
    def optional(text: str):
        return None if text.lower() == "none" else parse(text)
    return optional


def _one_of(names):
    def choice(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return choice


PARSERS = {name: _parser(tp) for name, tp in get_type_hints(RunConfig).items()} | {
    "domain": _one_of(DOMAINS), "preset": _optional(_one_of(PRESETS))}

# the command line's flags, in --help's order, each with the RunConfig field
# it sets: its name with "_" for "-", but --kmax sets k_max
FLAGS = {flag: "k_max" if flag == "--kmax" else flag.lstrip("-").replace("-", "_") for flag in (
    "-p", "-q", "-m", "--rho", "--nu", "--delta", "--kmax", "--band", "--bound",
    "--grid-resolution", "--domain", "--K", "--N", "--dt", "--t-end", "--seed",
    "--seed-modes", "--sample-every", "--mass-tol", "--out", "--preset")}


def load_config(path: str) -> dict:
    """key = value lines of a UTF-8 file; a comment is a line starting with
    '#' or the text from a whitespace-preceded '#' on, so values such as
    runs/#3 survive."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = re.sub(r"(^|\s)#.*", "", raw, count=1).strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, then the config file's keys, then the flags given."""
    cfg = RunConfig()
    if args.config:
        cfg = _apply_strings(cfg, load_config(args.config))
    return _apply_strings(cfg, {name: v for name in FLAGS.values()
                                if (v := getattr(args, name)) is not None})


def _apply_strings(cfg: RunConfig, kv: dict) -> RunConfig:
    """``cfg`` with the fields named in ``kv`` parsed from their text: the
    preset named there (none: no preset) first, then the other keys over
    it.  ValueError, naming the field, for an unknown key or a bad value."""
    unknown = sorted(set(kv) - set(PARSERS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for name, raw in kv.items():
        try:
            values[name] = PARSERS[name](raw)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    cfg = replace(cfg, **PRESETS.get(values.get("preset"), {}))
    return replace(cfg, **values)


def _spec(cfg: RunConfig, domain=None) -> nf.TorusSpec:
    return nf.TorusSpec(cfg.internal, cfg.rho, cfg.nu, domain=domain)


def _write(cfg: RunConfig, name: str, chunks: str | Iterable[str]) -> Path:
    """Write the artifact ``name`` into the out directory as a new file:
    ``chunks`` (text, or text chunk by chunk) go to ``.{name}.tmp`` there,
    as UTF-8 with line ends as given on every OS, and only the complete file
    takes the name, once the old artifact is unlinked.  Truncating the old
    file, or renaming onto it, costs about twice as much on ext4.  A failed
    write removes the temporary file and keeps the old artifact."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    target, tmp = out / name, out / f".{name}.tmp"
    try:
        with tmp.open("w", encoding="utf-8", newline="") as f:
            f.writelines((chunks,) if isinstance(chunks, str) else chunks)
        target.unlink(missing_ok=True)
        tmp.rename(target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def _classified(cfg: RunConfig) -> tuple[rs.ResonanceCatalog, nf.EffectiveHamiltonian,
                                          nf.Classification]:
    """The catalog, effective Hamiltonian and classification of the
    configured torus on the configured domain."""
    cat = rs.enumerate_sets(cfg.internal, bound=cfg.bound)
    eff, cls = nf.classify_torus(_spec(cfg, DOMAINS[cfg.domain]), cat, band=cfg.band)
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
    _write(cfg, "a2_verdicts.jsonl", rep.json_lines())
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


def cmd_simulate(cfg: RunConfig) -> int:
    traj = sim.growth_run(_spec(cfg), sim.GridSpec(cfg.K, cfg.N, cfg.dt), _seed_modes(cfg),
                          cfg.sample_every, cfg.mass_tol, t_end=cfg.t_end,
                          seed_amp_scale=cfg.seed_amp_scale, seed=cfg.seed)
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
        cfg.internal, cfg.rho, cfg.scaling_nus, sim.GridSpec(cfg.K, cfg.N, cfg.dt),
        _seed_modes(cfg), seed_amp_scale=cfg.seed_amp_scale, sample_every=cfg.sample_every,
        grow_factor=cfg.scaling_grow_factor, mass_tol=cfg.mass_tol, seed=cfg.seed)
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


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_IO with one ``error:`` line, not argparse's 2 (EXIT_BOUND)."""

    def error(self, message):
        self.exit(EXIT_IO, f"error: {message}\n")


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process.  Every flag is text, parsed
    with the config file's keys by ``build_config``."""
    parser = _ArgumentParser(
        prog="qnls",
        description="Invariant-torus stability toolkit for the quintic NLS")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for flag, field in FLAGS.items():
            p.add_argument(flag, dest=field)
        p.add_argument("--config")
        p.add_argument("--print-config", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.print_config:
            print(cfg.print_config(), end="")
            return EXIT_OK
        # looked up when called, so that a wrapped cmd_* is the one that runs
        return globals()["cmd_" + args.command.replace("-", "_")](cfg)
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
