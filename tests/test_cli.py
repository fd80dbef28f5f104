"""Command-line interface: golden outputs, exit codes, config handling."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from qnls import cli
from qnls import normal_form as nf
from qnls import resonance as rs
from qnls import sim
from qnls import small_divisors as sd
from test_small_divisors import A2_LINES_SHA256, FLAGSHIP

_SCRATCH = tempfile.mkdtemp(prefix="qnls-cli-")

# the directory holding the qnls package under test, e.g. the checkout's src/
_PKG_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_python(*args):
    # run in a scratch directory so default --out artifacts stay out of the repo;
    # put the tested package first on the child's path, as an absolute entry,
    # so it runs this code whether or not another qnls is installed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_PKG_ROOT, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=_SCRATCH, env=env)


def run_cli(*args):
    return run_python("-m", "qnls.cli", *args)


def test_import_loads_no_scipy():
    # importing scipy.fft alone adds ~27 MB of resident memory
    res = run_python("-c", "import sys, qnls; qnls.cli; "
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _worker_traced():
    """perfbench/worker.py's TRACED table, {module: [function names]}."""
    worker = _PERFBENCH / "worker.py"
    (traced,) = (ast.literal_eval(node.value) for node in ast.parse(worker.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return traced


def test_benchmark_traced_names_exist():
    # perfbench/worker.py wraps these qnls functions by name; it is parsed,
    # not imported, so a dropped or renamed function fails here
    traced = _worker_traced()
    for module, names in traced.items():
        for name in names:
            attr = getattr(importlib.import_module(f"qnls.{module}"), name, None)
            assert callable(attr), f"qnls.{module}.{name}"


def test_hypotheses_match_the_benchmark_reference(tmp_path, capsys):
    # the certify-flagship workload's gate, read from its reference: the
    # a2_verdicts.jsonl digests of the flagship on D2 and D1 at the default
    # k_max and grid, and measure_scan on its D1 torus
    ref = json.loads((_PERFBENCH / "reference.json").read_text())
    ref = ref["certify-flagship"]["full"]["all"]
    for dom, rho in (("D2", "2,1,9"), ("D1", "1.5,1.2,1.8")):
        out = tmp_path / dom
        assert cli.main(["hypotheses", "-p", "-3", "-q", "10", "-m", "-6", "--rho", rho,
                         "--domain", dom, "--out", str(out)]) == cli.EXIT_OK
        data = (out / "a2_verdicts.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == ref[dom]["digest"], dom
    capsys.readouterr()
    spec = nf.TorusSpec(FLAGSHIP, (1.5, 1.2, 1.8), 0.01, domain=nf.domain_D1())
    eff, _ = nf.classify_torus(spec, rs.enumerate_sets(FLAGSHIP))
    assert sd.measure_scan(eff) == ref["measure_scan_D1"]


def _used_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_library_names_have_a_library_caller():
    # the package is what the commands and the benchmark run: a public
    # function, class or constant that only tests call belongs in tests/
    # (the paper's appendix identities live in tests/paper_appendix.py)
    src = Path(_PKG_ROOT) / "qnls"
    bodies = {p.stem: ast.parse(p.read_text()).body for p in src.glob("*.py")}
    uses = {(m, i): _used_names(stmt) for m, body in bodies.items()
            for i, stmt in enumerate(body)}
    bench = set().union(*(_used_names(ast.parse(p.read_text()))
                          for p in _PERFBENCH.glob("*.py")))
    bench |= {name for names in _worker_traced().values() for name in names}
    uncalled = set()
    for module in ("resonance", "normal_form", "small_divisors", "sim"):
        for i, stmt in enumerate(bodies[module]):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") or name in bench:
                    continue
                if not any(name in used for at, used in uses.items() if at != (module, i)):
                    uncalled.add(f"{module}.{name}")
    assert not uncalled, sorted(uncalled)


@pytest.mark.parametrize("args", [
    ("normal-form", "-p", "0", "-q", "1", "--rho", "nan,1", "--band", "2"),
    ("classify", "-p", "0", "-q", "1", "--rho", "inf,1"),
], ids=["normal-form-nan", "classify-inf"])
def test_non_finite_rho_is_an_error(args):
    res = run_cli(*args)
    assert res.returncode == cli.EXIT_IO
    assert res.stderr == "error: rho must be positive and finite as a float\n"
    assert "NaN" not in res.stdout


_SMALL_RUN = ("simulate", "-p", "0", "-q", "1", "--rho", "1,1", "--K", "4", "--N", "32",
              "--dt", "0.01", "--seed-modes", "2", "--sample-every", "1")
_FLAGSHIP_A2 = ("hypotheses", "-p", "-3", "-q", "10", "-m", "-6", "--rho", "2,1,9",
                "--kmax", "2")


@pytest.mark.parametrize("args,message", [
    (_SMALL_RUN + ("--t-end", "inf"), "t_end must be finite, got inf"),
    (_SMALL_RUN + ("--t-end", "1", "--mass-tol", "nan"),
     "mass_tol must be nonnegative, got nan"),
    (_FLAGSHIP_A2 + ("--delta", "nan"), "delta must be finite, got nan"),
    (_FLAGSHIP_A2 + ("--delta", "inf"), "delta must be finite, got inf"),
], ids=["t-end-inf", "mass-tol-nan", "delta-nan", "delta-inf"])
def test_non_finite_run_parameter_is_an_error(args, message, tmp_path):
    # one error line, no traceback, and no NaN or Infinity written as JSON
    res = run_cli(*args, "--out", str(tmp_path))
    assert res.returncode == cli.EXIT_IO
    assert res.stderr == f"error: {message}\n"
    assert "NaN" not in res.stdout and "Infinity" not in res.stdout


def test_degenerate_block_is_refused(monkeypatch, capsys):
    # a parabolic block (C^2 = a^2 exactly) has no type, so the command
    # refuses the torus, as for a failed precondition, instead of dying in a
    # traceback
    def degenerate(*args, **kwargs):
        raise nf.DegenerateBlock("set-E discriminant within tolerance of zero")
    monkeypatch.setattr(nf, "classify_torus", degenerate)
    assert cli.main(["classify", "-p", "0", "-q", "1"]) == cli.EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "refused: set-E discriminant within tolerance of zero\n"


def test_resonances_flagship_golden():
    res = run_cli("resonances", "-p", "-3", "-q", "10", "-m", "-6")
    assert res.returncode == 0
    # the package must not import qnls.cli before runpy executes it
    assert "RuntimeWarning" not in res.stderr
    data = json.loads(res.stdout)
    assert data["A"] == [[-14, 18]]
    assert data["B"] == [[1, 9]]
    assert data["C"] == [] and data["E"] == []
    assert data["disjoint"] is True
    assert list(data) == ["internal", "A", "B", "C", "E", "disjoint",
                          "one_mode_solutions"]


def test_resonances_two_mode_golden():
    res = run_cli("resonances", "-p", "0", "-q", "2")
    data = json.loads(res.stdout)
    assert data["A"] == [[-1, 3]]


def test_resonances_bound_too_small():
    res = run_cli("resonances", "-p", "-3", "-q", "10", "-m", "-6",
                  "--bound", "10")
    assert res.returncode == cli.EXIT_BOUND


def test_classify_exit_codes():
    unstable = run_cli("classify", "-p", "-3", "-q", "10", "-m", "-6",
                       "--rho", "2,1,9", "--nu", "0.05")
    assert unstable.returncode == cli.EXIT_UNSTABLE
    assert json.loads(unstable.stdout)["verdict"] == "Unstable"

    stable = run_cli("classify", "-p", "0", "-q", "1")
    assert stable.returncode == cli.EXIT_OK
    assert json.loads(stable.stdout)["verdict"] == "Stable"

    refused = run_cli("classify", "-p", "-4", "-q", "-3", "-m", "-6",
                      "--rho", "1,1,1")
    assert refused.returncode == cli.EXIT_PRECONDITION
    assert "refused" in refused.stderr


def test_hypotheses_conic_preset_golden():
    res = run_cli("hypotheses", "--preset", "paper-appendixA-setA",
                  "--bound", "1000")
    assert res.returncode == 0
    sols = json.loads(res.stdout)
    assert sols[0]["k"] == [-975, 195, 780]
    assert sols[0]["j"] == 197


def test_hypotheses_conic_preset_empty():
    res = run_cli("hypotheses", "--preset", "paper-appendixA-setA",
                  "--bound", "100")
    assert json.loads(res.stdout) == []


def test_hypotheses_conic_preset_bound_zero_is_an_empty_range(tmp_path):
    # --bound 0 is a range, not "no bound": it used to search to 1000
    res = run_cli("hypotheses", "--preset", "paper-appendixA-setA", "--bound", "0",
                  "--out", str(tmp_path))
    assert res.returncode == cli.EXIT_IO
    assert res.stderr == "error: param_range must be positive, got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_hypotheses_flagship_pass():
    res = run_cli("hypotheses", "-p", "-3", "-q", "10", "-m", "-6",
                  "--rho", "1.5,1.2,1.8", "--nu", "0.01", "--domain", "D1",
                  "--kmax", "6", "--grid-resolution", "8")
    assert res.returncode == cli.EXIT_OK
    report = json.loads(res.stdout)
    assert report["A2"]["violated"] == []
    assert report["A0"]["passed"] and all(v["passed"] for v in report["A1"])


def strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_hypotheses_writes_valid_json(tmp_path):
    # a vacuous A1 margin is infinite; it is written as "inf", as in report.json
    res = run_cli("hypotheses", "-p", "0", "-q", "1", "--rho", "1,1", "--kmax", "3",
                  "--out", str(tmp_path))
    assert res.returncode == cli.EXIT_OK, res.stderr
    for text in (res.stdout, (tmp_path / "hypotheses.json").read_text()):
        summary = strict_json(text)
        assert [v["margin"] for v in summary["A1"]][1] == "inf"
        assert list(summary) == ["A0", "A1", "A2"]
        assert list(summary["A2"]) == ["delta", "k_max", "counts", "tail", "violated"]


def test_hypotheses_streamed_lines_golden(tmp_path):
    # the file is the golden lines plus a final "\n"; k_max 0, whose table
    # is empty, is refused before anything is written
    flagship_d2 = ("hypotheses", "-p", "-3", "-q", "10", "-m", "-6", "--rho", "2,1,9",
                   "--nu", "0.01", "--domain", "D2", "--band", "20")
    digest, k_max = A2_LINES_SHA256["D2"]
    res = run_cli(*flagship_d2, "--kmax", str(k_max), "--out", str(tmp_path / "d2"))
    assert res.returncode == cli.EXIT_OK, res.stderr
    data = (tmp_path / "d2" / "a2_verdicts.jsonl").read_bytes()
    assert data.endswith(b"}\n")
    assert hashlib.sha256(data[:-1]).hexdigest() == digest
    res = run_cli(*flagship_d2, "--kmax", "0", "--out", str(tmp_path / "empty"))
    assert res.returncode == cli.EXIT_IO
    assert res.stderr == "error: k_max must be at least 1, got 0\n"
    assert not (tmp_path / "empty").exists()


# sha256 of hypotheses.json for the flagship at k_max 4 on the point box,
# D1 and D2; recorded when A0's bound was the maximum over an 8-per-side grid
HYPOTHESES_JSON_SHA256 = {
    "point": ("2,1,9", "11fdd1f9e26042424bf8af0190b5c77f2b0506be91abd3e814f9386367078564"),
    "D1": ("1.5,1.2,1.8", "6e3a508128070016cb5eda12e0ef3f191b5ada658129286f36601bb69547c385"),
    "D2": ("2,1,9", "4b78cab815afdf4fd0cba24ae8ca1e0222d8a9cdeedaab858eda61887e7b8bc2"),
}


@pytest.mark.parametrize("domain", sorted(HYPOTHESES_JSON_SHA256))
def test_hypotheses_json_golden(domain, tmp_path, capsys):
    rho, digest = HYPOTHESES_JSON_SHA256[domain]
    assert cli.main(["hypotheses", "-p", "-3", "-q", "10", "-m", "-6", "--rho", rho,
                     "--domain", domain, "--kmax", "4", "--out", str(tmp_path)]) == cli.EXIT_OK
    capsys.readouterr()
    data = (tmp_path / "hypotheses.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("res", ["0", "1"])
def test_hypotheses_refuses_a_grid_below_two_points(res):
    # one point per dimension is the box's lower corner, no grid minimum
    res = run_cli("hypotheses", "-p", "-3", "-q", "10", "-m", "-6", "--rho", "1.5,1.2,1.8",
                  "--domain", "D1", "--kmax", "4", "--grid-resolution", res)
    assert res.returncode == cli.EXIT_IO
    assert res.stderr == "error: grid_resolution must be at least 2 per dimension\n"


def test_warnings_reach_stderr():
    # a command's warnings go to stderr under Python's default filters, and
    # stdout is what the command prints without them
    argv = ["resonances", "-p", "0", "-q", "2"]
    warned = run_python("-c", "\n".join([
        "import sys, warnings",
        "from qnls import cli",
        "plain = cli.cmd_resonances",
        "def cmd_resonances(cfg):",
        "    warnings.warn('perturbative accuracy degrades')",
        "    return plain(cfg)",
        "cli.cmd_resonances = cmd_resonances",
        f"sys.exit(cli.main({argv!r}))"]))
    assert warned.returncode == cli.EXIT_OK, warned.stderr
    assert "UserWarning: perturbative accuracy degrades" in warned.stderr
    assert warned.stdout == run_cli(*argv).stdout


def test_argument_tree_built_once():
    assert cli._arg_parser() is cli._arg_parser()


def parse_kv(text):
    return dict(line.split("=", 1) for line in text.splitlines() if line)


def test_print_config():
    res = run_cli("classify", "--preset", "thm3-unstable", "--print-config")
    assert res.returncode == cli.EXIT_OK
    cfg = parse_kv(res.stdout)
    assert cfg["p"] == "-3" and cfg["q"] == "10" and cfg["m"] == "-6"
    assert cfg["rho"] == "2.0,1.0,9.0"


ROUND_TRIP = {
    None: cli.RunConfig(),
    **{name: replace(cli.RunConfig(), preset=name, **kw) for name, kw in cli.PRESETS.items()},
    "hash-in-out": cli.RunConfig(out="runs/#3"),  # '#' inside a value is no comment
}


@pytest.mark.parametrize("case", list(ROUND_TRIP))
def test_print_config_round_trip(case, tmp_path, capsys):
    # --print-config fed back through --config reproduces the config
    want = ROUND_TRIP[case]
    path = tmp_path / "run.cfg"
    path.write_text(want.print_config())
    assert cli._apply_strings(cli.RunConfig(), cli.load_config(str(path))) == want
    assert cli.main(["classify", "--config", str(path), "--print-config"]) == cli.EXIT_OK
    assert capsys.readouterr().out == want.print_config()


def test_reruns_byte_identical():
    args = ("classify", "-p", "-3", "-q", "10", "-m", "-6",
            "--rho", "2,1,9", "--nu", "0.05")
    runs = [run_cli(*args) for _ in range(2)]
    for res in runs:
        assert res.returncode == cli.EXIT_UNSTABLE
        data = json.loads(res.stdout)
        assert isinstance(data, dict) and data
        assert data["verdict"] == "Unstable"
    assert runs[0].stdout == runs[1].stdout


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = -3\nq = 10\nm = -6\nrho = 2,1,9\nnu = 0.05\n")
    base = run_cli("classify", "--config", str(cfg))
    assert base.returncode == cli.EXIT_UNSTABLE
    # flag beats file: a tiny nu turns the same torus numerically degenerate
    # classification thresholds still flag it, so compare configs instead
    over = run_cli("classify", "--config", str(cfg), "--nu", "0.01",
                   "--print-config")
    assert parse_kv(over.stdout)["nu"] == "0.01"


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    res = run_cli("classify", "--config", str(cfg))
    assert res.returncode == cli.EXIT_IO
    # EXIT_IO is also the interpreter's code for a failed import, so check
    # that the CLI itself rejected the key
    assert "unknown config keys: frobnicate" in res.stderr


def test_simulate_smoke(tmp_path):
    res = run_cli("simulate", "-p", "0", "-q", "1", "--rho", "1,1",
                  "--nu", "0.01", "--K", "8", "--N", "64", "--dt", "0.05",
                  "--t-end", "5.0", "--sample-every", "1",
                  "--seed-modes", "2,-1", "--out", str(tmp_path))
    assert res.returncode == cli.EXIT_OK
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,mass,momentum,energy")
    assert len(lines) > 2


class _Seeded(Exception):
    pass


@pytest.mark.parametrize("torus,seeds", [
    (("-p", "-3", "-q", "10", "-m", "-6", "--rho", "2,1,9"), (1, 9)),
    (("-p", "0", "-q", "2", "--rho", "1.3,0.7", "--nu", "0.05"), (3, -1)),
    ((), ()),
], ids=["flagship", "two-mode-block", "no-block"])
def test_default_seed_modes(monkeypatch, torus, seeds):
    # with no --seed-modes, simulate and scaling both seed the first two
    # modes of the hyperbolic blocks (the flagship's B(1, 9), not its first
    # block A(-14, 18)), else the first two of all blocks
    def growth_run(spec, grid, seed_modes, *args, **kwargs):
        raise _Seeded(tuple(seed_modes))

    def scaling_experiment(internal, rho, nus, grid, seed_modes, **kwargs):
        raise _Seeded(tuple(seed_modes))
    monkeypatch.setattr(sim, "growth_run", growth_run)
    monkeypatch.setattr(sim, "scaling_experiment", scaling_experiment)
    for command in ("simulate", "scaling"):
        with pytest.raises(_Seeded) as got:
            cli.main([command, *torus])
        assert got.value.args == (seeds,), command


def test_simulate_refuses_an_unfittable_run_before_it_steps(monkeypatch, capsys, tmp_path):
    # 400 steps sampled every 10 give 41 samples, below the fit's 50: the
    # run is refused up front instead of after all 400 steps
    def run(self, n):
        raise AssertionError("the split-step kernel ran")
    monkeypatch.setattr(sim._SplitStep, "run", run)
    code = cli.main(["simulate", "-p", "0", "-q", "1", "--rho", "1,1", "--K", "4",
                     "--N", "32", "--dt", "0.01", "--t-end", "4", "--seed-modes", "2",
                     "--sample-every", "10", "--out", str(tmp_path)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr() == ("", "error: need at least 50 samples to fit\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("every", ["10000000", "500000"], ids=["every-nu", "last-nu"])
def test_scaling_refuses_an_unfittable_run_before_it_steps(monkeypatch, capsys, tmp_path,
                                                          every):
    # the default nus 0.005, 0.01 and 0.02 run 1.6e8, 4e7 and 1e7 steps: sampled
    # every 1e7 steps none gives the fit its 50 samples, and every 5e5 steps
    # only the last falls short; either way no run steps
    def run(self, n):
        raise AssertionError("the split-step kernel ran")
    monkeypatch.setattr(sim._SplitStep, "run", run)
    code = cli.main(["scaling", "-p", "0", "-q", "1", "--rho", "1,1", "--K", "4",
                     "--N", "32", "--dt", "0.01", "--sample-every", every,
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr() == ("", "error: need at least 50 samples to fit\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rho,config,message", [
    ("1e158,1e158", "", "error: rho too large"),
    ("1,1", "seed_amp_scale = 1e80\n", "error: mass is nan at t=0.010"),
], ids=["rho-overflows", "seed-overflows"])
def test_simulate_non_finite_run_is_an_error(rho, config, message, tmp_path):
    # a run whose samples turn NaN used to exit 0 with a WindowNotFound fit
    # and a trajectory of NaN rows; a rho whose polynomials overflow a float
    # is refused before the run, and a seed whose |u|^4 overflows stops at
    # the first sample
    (tmp_path / "run.cfg").write_text(config)
    res = run_cli("simulate", "-p", "0", "-q", "1", "--rho", rho, "--K", "8", "--N", "64",
                  "--dt", "0.01", "--t-end", "1", "--sample-every", "1", "--seed-modes", "2",
                  "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out"))
    assert res.returncode == cli.EXIT_IO
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1].startswith(message)
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_overflow_is_one_error_line(tmp_path):
    # at rho = 1e120 the shifts are finite but the Z6 constant overflows
    res = run_cli("classify", "-p", "0", "-q", "1", "--rho", "1e120,1e120",
                  "--out", str(tmp_path))
    assert res.returncode == cli.EXIT_IO
    assert res.stderr == "error: rho too large: the normal form's constant overflows a float\n"


def test_block_margin_overflow_names_the_block(tmp_path, capsys):
    # at rho = 1e80 the shifts and the constant are finite, but the B
    # block's (C^2 - a^2) / nu^4 is not
    code = cli.main(["classify", "-p", "-3", "-q", "10", "-m", "-6", "--rho", "1e80,1e80,1e80",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err == ("error: rho too large: the B block's margin "
                                       "overflows a float\n")


@pytest.mark.parametrize("args", [
    ("classify", "-p", "1", "-q", "1"),
    ("classify", "-p", "0", "-q", "1", "-m", "0", "--rho", "1,1,1"),
    ("resonances", "-p", "1", "-q", "1"),
], ids=["two-mode", "three-mode", "resonances"])
def test_repeated_internal_modes_are_one_error_line(args, tmp_path, capsys):
    assert cli.main([*args, "--out", str(tmp_path)]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: internal modes must be distinct\n"


@pytest.mark.parametrize("k_max", ["0", "-1"])
def test_hypotheses_refuses_an_empty_lattice(k_max, tmp_path, capsys):
    # no lattice point, no A2 divisor: an empty table certifies nothing
    code = cli.main(["hypotheses", "-p", "-3", "-q", "10", "-m", "-6", "--rho", "2,1,9",
                     "--kmax", k_max, "--out", str(tmp_path)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: k_max must be at least 1, got {k_max}\n"


def test_classify_refuses_a_negative_band(tmp_path, capsys):
    assert cli.main(["classify", "-p", "0", "-q", "1", "--band", "-5",
                     "--out", str(tmp_path)]) == cli.EXIT_IO
    assert capsys.readouterr().err == "error: band must be nonnegative, got -5\n"


def test_hypotheses_band_without_elliptic_modes(tmp_path, capsys):
    # band 0 around (0, 1) leaves no scalar mode and no block: A1's
    # elliptic clauses are vacuous, as its hyperbolic clause is; the
    # cross-cluster clause still passes only on A0's tail gap
    code = cli.main(["hypotheses", "-p", "0", "-q", "1", "--band", "0", "--kmax", "2",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    a1 = json.loads((tmp_path / "hypotheses.json").read_text())["A1"]
    assert [(v["name"], v["passed"], v["margin"]) for v in a1] == [
        ("abs(Lambda) for elliptic modes (vacuous)", True, "inf"),
        ("abs(Im Lambda) for hyperbolic modes (vacuous)", True, "inf"),
        ("abs(Lambda_a - Lambda_b) across clusters (tail certified by A0) (vacuous)", True, "inf"),
        ("abs(Lambda_a + Lambda_b) (vacuous)", True, "inf"),
    ]


@pytest.mark.parametrize("torus,notes", [
    (("-p", "-3", "-q", "10", "-m", "-6", "--rho", "2,1,9"),
     ["family-A pairs computed as [(-14, 18)]; an earlier published account lists "
      "different members for the (-3,10,-6) configuration"]),
    (("-p", "0", "-q", "2", "--rho", "1.3,0.7"), []),
], ids=["flagship", "two-mode"])
def test_report_notes_name_only_their_torus(torus, notes, tmp_path, capsys):
    cli.main(["report", *torus, "--kmax", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert json.loads((tmp_path / "report.json").read_text())["notes"] == notes
