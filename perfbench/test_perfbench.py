"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Every workload runs end to end, traced and untraced, and the gate must fail
outputs that were deliberately corrupted, so that a broken program cannot
read as fast.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout's output directory."""
    path = run.OUT / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_end_to_end(name, trace):
    result = run.run_benchmark(name, seed=3, seconds=0, trace=trace, size="tiny")
    errors = [e for r in [result["warm_up"], result["reduced"]] + result["timed"]
              for e in r["errors"]]
    assert result["correct"], errors
    assert result["failed"] == 0 and result["attempted"] >= 5
    section = "per_layer" if trace else "end_to_end"
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in SPEC[section]})
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in result["metrics"])


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = WORKLOADS[name]

    def digest(seed):
        data = wl.generate(seed, "tiny")
        return repr({k: (v.values.tolist() if hasattr(v, "values") else
                         v.tolist() if isinstance(v, np.ndarray) else v)
                     for k, v in data.items()})

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_flat_spectrum_start_gives_the_same_steps_for_every_seed():
    wl = WORKLOADS["lib-hermitian"]
    steps = {wl.call(wl.prepare(wl.generate(seed, "tiny"), None))[0].m for seed in range(4)}
    assert len(steps) == 1


# -----------------------------------------------------------------------------
# The gate fails corrupted outputs

def _lib_run():
    wl = WORKLOADS["lib-hermitian"]
    inp = wl.prepare(wl.generate(5, "tiny"), None)
    return wl, inp, wl.call(inp)


def test_gate_passes_lib_output():
    wl, inp, out = _lib_run()
    assert wl.check(inp, out).errors == []


def test_gate_fails_perturbed_x():
    wl, inp, (fac, diag) = _lib_run()
    x = fac.X.copy()
    x[1, 2] += 1e-7
    bad = dataclasses.replace(fac, X=x)
    errors = wl.check(inp, (bad, diag)).errors
    assert any("projection formula" in e for e in errors)


def test_gate_fails_truncated_u_column():
    wl, inp, (fac, diag) = _lib_run()
    u = fac.U.copy()
    u[u.shape[0] // 2:, -1] = 0.0
    bad = dataclasses.replace(fac, U=u, V=u)
    errors = wl.check(inp, (bad, diag)).errors
    assert any("||Q*Q - I||" in e for e in errors)


def test_gate_fails_non_finite_and_unconverged():
    wl, inp, (fac, diag) = _lib_run()
    x = fac.X.copy()
    x[0, 0] = np.nan
    assert wl.check(inp, (dataclasses.replace(fac, X=x), diag)).errors
    assert "solve did not converge" in wl.check(inp, (dataclasses.replace(fac, converged=False),
                                                      diag)).errors


def test_gate_fails_factor_off_the_dense_reference():
    wl, inp, (fac, _) = _lib_run()
    from funupdate import oracle
    b = inp["b"].reshape(-1, 1)
    ref = oracle.dense_update_reference(inp["a"].to_dense(), b, b, inp["f"])
    assert gate.check_against_reference(fac.densify(), ref, wl.tol) == []
    assert gate.check_against_reference(fac.densify() + 1e-4 * np.eye(ref.shape[0]), ref, wl.tol)


def _cli_run(workdir, name, seed=4):
    wl = WORKLOADS[name]
    data = wl.generate(seed, "tiny")
    inp = wl.prepare(data, workdir)
    rc = wl.call(inp)
    ref = wl.reference(data) if hasattr(wl, "reference") else None
    return wl, inp, rc, ref


def _rewrite_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + [edit(row) for row in lines[1:]]) + "\n")


def test_gate_fails_corrupted_update_files(workdir):
    wl, inp, rc, _ = _cli_run(workdir, "cli-update-general")
    assert wl.check(inp, rc).errors == []
    out = Path(inp["out"])
    x_csv = out / "X.csv"
    original = x_csv.read_text()
    _rewrite_csv(x_csv, lambda row: ",".join(repr(float(v) * (1 + 1e-6)) for v in row.split(",")))
    assert any("projection formula" in e for e in wl.check(inp, rc).errors)
    x_csv.write_text(original)
    _rewrite_csv(out / "U.csv", lambda row: ",".join(row.split(",")[:-1]))
    assert wl.check(inp, rc).errors
    assert wl.check(inp, 3).errors == ["funupdate update exited with 3"]


def test_gate_fails_corrupted_centrality(workdir):
    wl, inp, rc, ref = _cli_run(workdir, "cli-centrality")
    assert wl.check(inp, rc, ref).errors == []
    assert any("dense reference" in e for e in wl.check(inp, rc, ref * (1 + 1e-5)).errors)


# -----------------------------------------------------------------------------
# Tracing

def test_spans_account_for_the_traced_call_and_are_removed_afterwards():
    import funupdate.cli
    import funupdate.krylov
    main_before = funupdate.cli.main
    wl, inp, _ = _lib_run()
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span(spans.ROOT):
        wl.call(inp)
    assert funupdate.cli.main is main_before
    assert "advance" not in vars(funupdate.krylov.LanczosProcess)
    m = spans.layer_metrics(tracer.spans)
    assert abs(spans.unaccounted(m)) < 1e-9
    assert m["sparse.matvec.calls"] > 0 and m["update.checkpoints"] > 0
    assert 0 < m["krylov.advance.self_s"] < m["krylov.advance.s"]
    assert m["update.solve.s"] <= m["trace.wall_s"]


def test_self_time_subtracts_direct_children():
    rows = [["workload", None, 0.0, 10.0, None], ["a", 0, 1.0, 4.0, None],
            ["b", 1, 2.0, 3.0, None], ["c", 0, 5.0, 9.0, None]]
    assert spans.self_times(rows) == [3.0, 2.0, 1.0, 4.0]


def test_run_without_sources_fails_without_a_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lib-hermitian",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
