#!/usr/bin/env python3
"""hp-ledger: build and run the per-layer performance ledger.

Run from the repository root.  Three modes:

  python3 bench/ledger/run.py [--seed N] [--reps N] [--out FILE]
      The ledger.  Runs every workload untraced, then traced, one
      bench_ledger process each; prints one line per metric as
      `workload metric value unit [n=.. iqr=..]` and writes a run file
      (hp-ledger-run-v1 JSON with an `env` block) that diff.py compares.
      Exits 1 if any repetition failed a correctness check or a
      workload lost its character.

  python3 bench/ledger/run.py --workload NAME --seed N --seconds T --trace 0|1
      One measured run of one workload for T seconds of repetitions.  The
      last line of standard output is one JSON object:
      {"correct", "attempted", "failed", "metrics"}, where metrics are the
      end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

  python3 bench/ledger/run.py --smoke
      Tiny sizes: the checker's self-test, every workload untraced and
      traced, hp-bench-v1 validation with scripts/check_bench_json.py,
      and a check that the metric names match BENCHMARK.json.

The bench is built from source into .bench_build/ledger (CMake, Release)
on first use; build output goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "ledger"
BINARY = BUILD / "bench_ledger"
WORKLOADS = [
    "replay-torus32",
    "sim-open-fattree8",
    "sim-closed-torus8-flap",
    "control-torus16-flap",
]
# Measured repetitions of a traced ledger run (half of them traced).
TRACED_REPS = {
    "replay-torus32": 6,
    "sim-open-fattree8": 6,
    "sim-closed-torus8-flap": 8,
    "control-torus16-flap": 4,
}
BENCH_TIMEOUT_S = 170


def log(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)


def build() -> None:
    """Configure (once) and build bench_ledger; raise on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "bench_ledger", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_bench(args: list[str], json_path: Path) -> tuple[int, dict]:
    """Run bench_ledger; return (exit code, parsed hp-bench-v1 results)."""
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.unlink(missing_ok=True)
    proc = subprocess.run([str(BINARY), *args, "--json", str(json_path)],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BENCH_TIMEOUT_S, check=False)
    if not json_path.exists():
        raise RuntimeError(f"bench_ledger {' '.join(args)} wrote no result "
                           f"(exit {proc.returncode})")
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    return proc.returncode, {r["name"]: r for r in doc["results"]}


def metric(result: dict) -> dict:
    out = {"value": result["value"], "unit": result["unit"]}
    counters = result.get("counters", {})
    for key in ("n", "q1", "q3", "min", "max"):
        if key in counters:
            out[key] = counters[key]
    return out


def section(results: dict, prefix: str) -> dict:
    return {name[len(prefix):]: metric(r)
            for name, r in results.items() if name.startswith(prefix)}


# --- one run: the benchmark driver's interface ---------------------------


def single(args: argparse.Namespace) -> int:
    build()
    out = BUILD / "out" / f"{args.workload}-trace{args.trace}.json"
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    if args.trace:
        bench_args += ["--traced", str(BUILD / "traces")]
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
    code, results = run_bench(bench_args, out)
    prefix = "layer." if args.trace else "e2e."
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in section(results, prefix).items()}
    failed = int(results["run.failed"]["value"])
    doc = {
        "correct": code == 0 and failed == 0,
        "attempted": int(results["run.attempted"]["value"]),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(doc))
    return 0


# --- the ledger: every workload, untraced then traced ---------------------


def read_cmake_cache() -> dict:
    cache = {}
    path = BUILD / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def compiler_version() -> str:
    for path in sorted((BUILD / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake")):
        fields = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_"):
                parts = line[len("set("):-1].split(" ", 1)
                if len(parts) == 2:
                    fields[parts[0]] = parts[1].strip('"')
        ident = fields.get("CMAKE_CXX_COMPILER_ID", "")
        version = fields.get("CMAKE_CXX_COMPILER_VERSION", "")
        if ident or version:
            return f"{ident} {version}".strip()
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, env=env, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_block(fold_kernel: str) -> dict:
    cache = read_cmake_cache()
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "fold_kernel": fold_kernel,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": Path(cache.get("CMAKE_CXX_COMPILER", "unknown")).name,
        "compiler_version": compiler_version(),
        "git_describe": git_describe(),
    }


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        line = f"{workload} {name} {m['value']:.6g} {m['unit']}"
        if "n" in m and m["n"] > 1:
            iqr = m["q3"] - m["q1"]
            share = f" ({100 * iqr / m['value']:.2f}%)" if m["value"] else ""
            line += f" n={int(m['n'])} iqr={iqr:.4g}{share}"
        print(line, flush=True)


def ledger(args: argparse.Namespace) -> int:
    build()
    started = time.time()
    out_dir = BUILD / "out"
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "hp-ledger-run-v1", "seed": args.seed,
           "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workloads": {}}
    fold_kernel = "unknown"
    ok = True
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", str(args.seed)]
        untraced_reps = ["--reps", str(args.reps)] if args.reps else []
        traced_reps = ["--reps", str(args.reps or TRACED_REPS[workload])]
        code_u, plain = run_bench(base + untraced_reps,
                                  out_dir / f"{workload}-untraced.json")
        code_t, traced = run_bench(
            base + traced_reps + ["--traced", str(trace_dir)],
            out_dir / f"{workload}-traced.json")
        fold_kernel = plain["run.fold_kernel"]["label"]
        entry = {
            "end_to_end": section(plain, "e2e."),
            "per_layer": section(traced, "layer."),
            "counts": {k: m["value"] for k, m in section(plain, "count.").items()},
            "digest": plain["digest"]["label"],
            "traced_digest": traced["digest"]["label"],
            "attempted": int(plain["run.attempted"]["value"]
                             + traced["run.attempted"]["value"]),
            "failed": int(plain["run.failed"]["value"]
                          + traced["run.failed"]["value"]),
            "character": ("ok" if plain["run.character_ok"]["value"] == 1.0
                          else plain["run.character_ok"]["label"]),
        }
        doc["workloads"][workload] = entry
        print_metrics(workload, entry["end_to_end"])
        print_metrics(workload, entry["per_layer"])
        print(f"{workload} digest {entry['digest']} failed "
              f"{entry['failed']}/{entry['attempted']} character "
              f"{entry['character']}", flush=True)
        if (code_u or code_t or entry["failed"] or entry["character"] != "ok"
                or entry["digest"] != entry["traced_digest"]):
            ok = False
    doc["env"] = env_block(fold_kernel)
    doc["seconds"] = round(time.time() - started, 1)
    out = Path(args.out) if args.out else BUILD / "runs" / f"run-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out} in {doc['seconds']} s: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


# --- smoke ----------------------------------------------------------------


def smoke() -> int:
    build()
    ok = subprocess.run([str(BINARY), "--self-test"], stdout=sys.stderr,
                        check=False).returncode == 0
    out_dir = BUILD / "smoke"
    shutil.rmtree(out_dir, ignore_errors=True)
    names: dict[str, set] = {"e2e.": set(), "layer.": set()}
    for workload in WORKLOADS:
        for traced in (False, True):
            extra = ["--traced", str(out_dir)] if traced else []
            began = time.time()
            code, results = run_bench(
                ["--workload", workload, "--smoke", *extra],
                out_dir / f"BENCH_{workload}{'-traced' if traced else ''}.json")
            took = time.time() - began
            for prefix, seen in names.items():
                seen.update(n[len(prefix):] for n in results if n.startswith(prefix))
            good = code == 0 and took < 2.0
            ok = ok and good
            log(f"smoke {workload} {'traced' if traced else 'untraced'}: "
                f"exit {code}, {took:.2f} s{'' if good else '  FAILED'}")
    checker = ROOT / "scripts" / "check_bench_json.py"
    ok = ok and subprocess.run([sys.executable, str(checker), str(out_dir)],
                               stdout=sys.stderr, check=False).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for prefix, key in (("e2e.", "end_to_end"), ("layer.", "per_layer")):
        declared = {m["name"] for m in spec[key]}
        if declared != names[prefix]:
            log(f"BENCHMARK.json {key} differs from the bench: "
                f"missing {sorted(names[prefix] - declared)}, "
                f"extra {sorted(declared - names[prefix])}")
            ok = False
    print(f"smoke: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0,
                        help="ledger: measured repetitions per run "
                             "(default: per workload)")
    parser.add_argument("--out", help="ledger: run file to write")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload:
            return single(args)
        return ledger(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, KeyError, ValueError) as exc:
        log(f"run.py: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
