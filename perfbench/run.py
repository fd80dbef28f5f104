"""qnls benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record --workload <name> --seeds 0-9 [--tiny]

Run from the root of a qnls checkout.  Each run starts one fresh worker
process with the BLAS/OpenMP thread pools pinned to one thread, relays its
output, prints a provenance line and, last, the result JSON.  The full record
(provenance, info, result) goes to .perfbench/results/, spans of traced runs
to .perfbench/spans/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
TMP = OUT / "tmp" / str(os.getpid())  # this run's scratch, removed at exit
REFERENCE = HERE / "reference.json"
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("growth-unstable", "horizon-stable", "certify-flagship",
                  "classify-sweep")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def git_sha() -> str | None:
    """HEAD commit read from .git without running git (the benchmark may run
    in an exported checkout that has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, *,
               tiny: bool = False, record: bool = False,
               reference: Path = REFERENCE) -> tuple[int, list[str], str]:
    """Run one worker; returns (exit code, stdout lines, stderr)."""
    TMP.mkdir(parents=True, exist_ok=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--reference", str(reference), "--scratch", str(TMP),
           "--spans", str(OUT / "spans" / f"{workload}-seed{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    if record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return 124, [], f"worker timed out after {exc.timeout} s"
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def bench(args) -> int:
    code, lines, err = run_worker(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or not lines:
        sys.stderr.write(err)
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    prov = provenance()
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "info": info,
                                  "result": result}, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------

def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(args) -> int:
    """Record reference outputs of the current source for the given seeds."""
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    mode = "tiny" if args.tiny else "full"
    entry = ref.setdefault(args.workload, {}).setdefault(mode, {})
    for seed in parse_seeds(args.seeds):
        code, lines, err = run_worker(args.workload, seed, 0, 0, tiny=args.tiny,
                                      record=True)
        if code != 0:
            sys.stderr.write(err)
            return 1
        value = json.loads(lines[-1])
        if isinstance(value, dict) and set(value) == {"all"}:
            entry["all"] = value["all"]
        else:
            entry[str(seed)] = value
        print(f"recorded {args.workload} {mode} seed {seed}", flush=True)
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def tamper(ref: dict, workload: str) -> None:
    """Corrupt the tiny reference the smoke test's seed-0 run is checked against."""
    tiny = ref[workload]["tiny"]
    if workload == "growth-unstable":
        tiny["0"]["rate"] *= 1.01
    elif workload == "horizon-stable":
        tiny["all"]["samples"] += 1
    elif workload == "certify-flagship":
        tiny["all"]["D2"]["digest"] = "0" * 64
    else:
        tiny["0"] = "0" * 64


def smoke() -> int:
    """Tiny-size self-test of the benchmark itself."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def run(workload, trace, reference=REFERENCE):
        code, lines, err = run_worker(workload, 0, 0, trace, tiny=True,
                                      reference=reference)
        if code != 0:
            problems.append(f"{workload} trace={trace}: exit {code}: {err[-300:]}")
            return None
        return json.loads(lines[-1])

    for workload in WORKLOAD_NAMES:
        for trace, want in ((0, e2e), (1, layer)):
            res = run(workload, trace)
            if res is None:
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metric names/units "
                                f"differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: gate failed on the reference")
            if trace:
                m = {k: v["value"] for k, v in res["metrics"].items()}
                wall = m["trace.wall_s"]
                gap = m["trace.unattributed_s"]
                allowed = max(m["trace.overhead_s"], 0.0) + 0.05 * wall
                if not -1e-3 * wall <= gap <= allowed:
                    problems.append(f"{workload}: self times {wall - gap:.4f} s do not add "
                                    f"up to the traced wall {wall:.4f} s within {allowed:.4f} s")
        bad = json.loads(REFERENCE.read_text())
        tamper(bad, workload)
        tampered = TMP / "tampered-reference.json"
        tampered.write_text(json.dumps(bad))
        res = run(workload, 0, tampered)
        if res is not None and (res["correct"] or res["failed"] < 1):
            problems.append(f"{workload}: a tampered reference did not fail the gate")
        print(f"smoke {workload}: {'ok' if not problems else 'problems so far'}", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "all checks passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-size self-test")
    ap.add_argument("--record", action="store_true",
                    help="record reference outputs of the current source")
    ap.add_argument("--seeds", default="0", help="seed range for --record, e.g. 0-9")
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (with --record)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qnls" / "__init__.py").is_file():
        print(f"error: no qnls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.record:
            return record(args)
        return bench(args)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
