"""Self-tests of the benchmark (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench -q

* the amount of work a run does depends on workload and ``--seconds``,
  never on ``--seed``;
* the plan is plain data, and the server receives exactly the requests
  the plan generated;
* two seeds give runs with the same number of checked answers, all
  correct, and a traced run restores every wrapped function and reports
  every per-layer metric.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import plan as plan_mod  # noqa: E402


@pytest.fixture
def workdir(request):
    """A fresh directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_tmp" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", plan_mod.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, plan_mod.BASE_SECONDS])
def test_operation_counts_do_not_depend_on_the_seed(workload, seconds):
    first = plan_mod.make_plan(workload, 1, seconds)
    second = plan_mod.make_plan(workload, 2, seconds)
    assert first.operation_counts() == second.operation_counts()
    # ... while the inputs themselves do depend on it
    assert first.serve.requests != second.serve.requests
    assert first.serve.offsets != second.serve.offsets
    assert first.library.grid != second.library.grid
    assert first.mc.root_seed != second.mc.root_seed


def test_plan_does_not_import_the_program():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import plan; "
        "plan.make_plan('serve_mix', 3, 1); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    out = subprocess.run([sys.executable, "-c", probe, str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_server_receives_only_generated_requests(workdir):
    import phases
    import repro.cache as cache
    import repro.serve.server as server_mod
    from spans import SpanRecorder

    plan = plan_mod.make_plan("serve_mix", 5, 1)
    recorder = SpanRecorder()
    recorder.patch(
        server_mod, "handle_request", "serve.handle_request",
        meta_of=lambda server, method, path, query, chaos=None:
            {"target": f"{path}?{query}"},
    )
    try:
        session = phases.ServeSession(plan.serve, workdir)
        try:
            for s in range(len(plan.serve.requests)):
                session.slice(s)
        finally:
            session.stop()
    finally:
        assert recorder.restore() == []
        cache.configure_cache(directory=None)
    sent = [path for s in range(len(plan.serve.requests))
            for path in plan.serve.sent(s)]
    received = [s.meta["target"].rsplit("&rid=", 1)[0]
                for s in recorder.spans if s.meta["target"].startswith("/v1/")]
    assert sorted(received) == sorted(sent)
    others = {s.meta["target"] for s in recorder.spans
              if not s.meta["target"].startswith("/v1/")}
    assert others == {"/metrics?"}


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_two_seeds_check_the_same_number_of_answers():
    runs = [_run("--workload", "mc_shards", "--seed", str(seed),
                 "--seconds", "1", "--trace", "0") for seed in (1, 2)]
    assert [r["correct"] for r in runs] == [True, True]
    assert runs[0]["attempted"] == runs[1]["attempted"]


def test_traced_run_reports_every_layer_and_restores():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _run("--workload", "serve_mix", "--seed", "1",
                  "--seconds", "1", "--trace", "1")
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_the_program(workdir):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
