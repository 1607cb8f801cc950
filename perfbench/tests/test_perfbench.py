"""Tests of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 7


def tiny_run(workload, trace, workdir, reference=None):
    return run.run(workload, SEED, 0.1, trace, sizes_name="tiny", workdir=workdir,
                   reference=reference, setup_probes=1)[1]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_reports_the_declared_metrics(workload, trace, tmp_path):
    result = tiny_run(workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert json.loads((tmp_path / "ops.json").read_text())


def _first_reference_key(workload, workdir):
    if workload == "verify":
        return workloads.verify_ops(SEED, workloads.TINY)[0]["check"]["ref"]
    if workload == "tabulate":
        return workloads.tabulate_ops(SEED, str(workdir), workloads.TINY)[0]["check"]["ref"]
    return workloads.query_joints(SEED, workloads.TINY)[0][0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_digest_fails_an_op(workload, tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    key = _first_reference_key(workload, tmp_path)
    assert key in reference
    reference[key] = "0" * 64
    result = tiny_run(workload, 0, tmp_path, reference)
    assert not result["correct"] and result["failed"] >= 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--preset", "js", "--p", "9/10", "--q", "1/2", "--kmax", "3",
     "--format", "json"],
    ["tabulate", "--kind", "second", "--preset", "q", "--q", "1/2", "--k", "3", "--n", "3"],
])
def test_tracing_leaves_cli_stdout_unchanged(argv, tmp_path):
    def stdout(cmd):
        return subprocess.run(cmd, stdout=subprocess.PIPE, env=run.CHILD_ENV, check=True,
                              timeout=60).stdout

    trace_file = tmp_path / "trace.json"
    plain = stdout([sys.executable, "-m", "rpq.cli", *argv])
    traced = stdout([sys.executable, str(BENCH / "bootstrap.py"), str(trace_file), *argv])
    assert plain and plain == traced
    dump = json.loads(trace_file.read_text())
    assert any(span[0] == "cli" for span in dump["spans"])
    assert dump["counts"]["serialize.bytes_out"] == len(plain)


def test_tracer_wraps_imported_names_and_restores_them():
    run._import_rpq()
    import rpq.cli
    import rpq.identities
    import rpq.sampler

    originals = (rpq.cli.verify_identity, rpq.sampler.joint_pmf, rpq.identities.deformed_binomial)
    with Tracer():
        wrapped = (rpq.cli.verify_identity, rpq.sampler.joint_pmf, rpq.identities.deformed_binomial)
        assert all(w is not o for w, o in zip(wrapped, originals))
    assert (rpq.cli.verify_identity, rpq.sampler.joint_pmf, rpq.identities.deformed_binomial) == originals


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
