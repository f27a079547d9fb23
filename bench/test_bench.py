"""Tests of the benchmark itself (not collected by the main test suite).

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402


def _run(cwd, workload, seed):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _digest(stdout):
    return next(line.split()[1] for line in stdout.splitlines()
                if line.startswith("digest "))


@pytest.mark.parametrize("workload", ["cli_corpus", "fl_breuil",
                                      "witt_sweep"])
def test_two_runs_give_the_same_digest(workload):
    # separate processes, so hash randomization and the thread pool of
    # ``suite split`` differ between the two runs
    first, second = _run(ROOT, workload, 7), _run(ROOT, workload, 7)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert _digest(first.stdout) == _digest(second.stdout)
    result = json.loads(first.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_recorder_wraps_every_binding_and_restores_it():
    from prismalab import breuil_fl, cli, linalg_residue, witt_base

    original = linalg_residue.howell_form
    mul = witt_base.WittElem.__dict__["__mul__"]
    callback = cli.cmd_check.callback
    assert spans.wrapped_attributes() == []
    rec = spans.Recorder().install()
    try:
        assert linalg_residue.howell_form is not original
        assert breuil_fl.howell_form is linalg_residue.howell_form
        assert (witt_base.WittElem.__dict__["__rmul__"]
                is witt_base.WittElem.__dict__["__mul__"])
        assert cli.cmd_check.callback is not callback
        W = witt_base.WittRing(3, 1, 2)
        x = W.gen()
        x * x
        3 * x
        breuil_fl.howell_form([[1, 2], [2, 4]], 3, 1)
        assert rec.calls("witt_base.WittElem.__mul__") == 2
        assert rec.calls("linalg_residue.howell_form") == 1
        assert rec.work == 2 * 2 * 2
        assert "prismalab.breuil_fl.howell_form" in spans.wrapped_attributes()
    finally:
        rec.uninstall()
    assert spans.wrapped_attributes() == []
    assert linalg_residue.howell_form is original
    assert breuil_fl.howell_form is original
    assert witt_base.WittElem.__dict__["__mul__"] is mul
    assert witt_base.WittElem.__dict__["__rmul__"] is mul
    assert cli.cmd_check.callback is callback


def test_corpus_is_a_function_of_the_seed():
    def texts(seed):
        return [(c["name"], c["text"]) for c in corpus.build(seed)]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)
    names = {c["name"].split("/")[0] for c in corpus.build(3)}
    assert {"length", "split", "u_torsion", "zp_shape", "boundary", "height",
            "sharpness", "kernel", "mingens", "malformed", "defect",
            "suite-all"} <= names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _run(tmp_path, "cli_corpus", 1)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
