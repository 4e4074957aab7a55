"""Tests of the benchmark itself: smoke run, traced counts, bare directory,
corpus capture.

Run from the root of a grs checkout with ``python3 -m pytest perfbench``.
They take a few minutes; the package's own suite (``tests/``) does not
collect them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def test_smoke_passes_every_workload_with_every_check():
    # two untraced and two traced passes per workload: the traced counts must repeat
    proc = subprocess.run(RUN + ["--smoke"], cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_two_traced_runs_report_identical_counts():
    counts = []
    for _ in range(2):
        proc = subprocess.run(RUN + ["--workload", "kernel", "--seed", "3", "--seconds", "0",
                                     "--trace", "1"], cwd=ROOT, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["algebra.poly_gcd.calls"] > 0


def test_a_fault_of_the_run_makes_it_incorrect():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    class OneOperation:
        def digest(self, label, result):
            return result

        def check(self, outcomes):
            return {label: None for label, _ in outcomes}

    ledger = run.Ledger(OneOperation())
    ledger.add([("op", 1)])
    assert ledger.verdict()[0]
    ledger.fault("counts differ between traced passes")
    correct, attempted, failed, messages = ledger.verdict()
    assert not correct and (attempted, failed) == (1, 0)
    assert messages == ["counts differ between traced passes"]


def test_refuses_a_directory_without_grs_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(RUN + ["--workload", "kernel", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_two_captures_are_byte_identical(tmp_path):
    outputs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for path in outputs:
        subprocess.run([sys.executable, "perfbench/capture.py", "--output", str(path)],
                       cwd=ROOT, check=True, capture_output=True, timeout=600)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
