"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the directory holding ``src/repro``).
Every run measures the serve path, the library sweep and the sharded
Monte Carlo engine (see :mod:`plan` for the sizes), checks every answer,
and prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs a traced pass (spans around every layer, written to
``.perfbench_out/``) followed by an untraced pass, checks both gave the
same answers and that every wrapped function was put back, and reports
the per-layer metrics plus ``trace_overhead_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Variables that would attach an ambient cache to the program; a cold
#: pass must start from nothing.
CACHE_ENV = ("REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_CACHE_MAX_BYTES")

def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def hermetic_env(root: Path, workdir: Path) -> dict:
    for name in CACHE_ENV:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def environment(root: Path) -> dict:
    import numpy

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_pass(plan, workdir: Path, env: dict, checks, recorder=None):
    """Every phase, round by round, then every answer checked.

    With a *recorder*, the layers are wrapped for the rounds only (the
    checks run unwrapped), an Instrumentation is active around the
    library rounds and another is passed to the Monte Carlo engines.
    Returns (phase results, setup_s, program counters, seconds spent in
    the rounds)."""
    import layers
    import phases
    import plan as plan_mod
    from repro.observability import Instrumentation, use_instrumentation

    traced = recorder is not None
    library_instr = Instrumentation() if traced else None

    def library_scope():
        return (use_instrumentation(library_instr) if traced
                else nullcontext())

    mc_instr = Instrumentation() if traced else None
    setups = []
    if traced:
        layers.install(recorder)
    start = time.perf_counter()
    try:
        serve = phases.ServeSession(plan.serve, workdir)
        try:
            library = phases.LibrarySession(plan.library, workdir)
            mc = phases.McSession(plan.mc, mc_instr)
            for r in range(plan.rounds):
                if r % 3 == 0:
                    setups.append(phases.setup_seconds(
                        plan_mod.SETUP[plan.workload], env, workdir))
                # the memory-warm passes are cheap and follow every
                # phase, so their samples span the round
                with library_scope():
                    library.round(r, checks)
                    library.warm(r, checks)
                serve.slice(2 * r)
                with library_scope():
                    library.warm(r, checks)
                mc.round(r, checks)
                with library_scope():
                    library.warm(r, checks)
                serve.slice(2 * r + 1)
                with library_scope():
                    library.warm(r, checks)
        finally:
            serve.stop()
    finally:
        wall = time.perf_counter() - start
        if traced:
            leftovers = recorder.restore()
            checks.check(not leftovers,
                         f"wrapped functions not restored: {leftovers}")
    results = {"serve": serve.result(checks),
               "library": library.result(checks),
               "mc": mc.result(checks)}
    counters = {
        name: dict(instr.metrics.snapshot().counters) if traced else {}
        for name, instr in (("library", library_instr), ("mc", mc_instr))
    }
    return results, statistics.median(setups), counters, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    import plan as plan_mod

    plan = plan_mod.make_plan(args.workload, args.seed, args.seconds)
    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    env = hermetic_env(root, workdir)
    sys.path.insert(0, str(root / "src"))
    units = declared_units(args.trace)
    try:
        import phases

        checks = phases.Checks()
        if args.trace == 0:
            results, setup_s, _, _ = run_pass(plan, workdir, env, checks)
            values = {"setup_s": setup_s}
            for result in results.values():
                values.update(result.metrics)
        else:
            values = traced_run(plan, root, workdir, env, checks)
        info = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "env": environment(root), "problems": checks.problems}
    finally:
        import repro.cache as cache

        cache.configure_cache(directory=None)
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):  # left in place while another run uses it
            workdir.parent.rmdir()
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(set(values) ^ set(units))} do not "
            "match BENCHMARK.json")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def traced_run(plan, root: Path, workdir: Path, env: dict, checks) -> dict:
    """A traced pass, then an untraced one on the same inputs; returns
    the per-layer metrics."""
    import layers
    from spans import SpanRecorder

    recorder = SpanRecorder()
    traced, _, counters, traced_wall = run_pass(plan, workdir, env, checks,
                                                recorder)
    untraced, _, _, untraced_wall = run_pass(plan, workdir, env, checks)
    for phase in traced:
        checks.check(traced[phase].answers == untraced[phase].answers,
                     f"{phase}: untraced answers differ from traced ones")

    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    recorder.write_jsonl(
        out / f"spans-{plan.workload}-seed{plan.seed}.jsonl",
        {"workload": plan.workload, "seed": plan.seed,
         "env": environment(root)},
    )
    values = layers.derive(recorder, traced, counters["library"], counters["mc"])
    values["trace_overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return values


if __name__ == "__main__":
    sys.exit(main())
