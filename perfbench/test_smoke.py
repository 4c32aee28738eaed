"""Smoke tests for the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402
from common import ROOT, SRC, WORK_ROOT  # noqa: E402

sys.path.insert(0, SRC)


def run_bench(workload: str, trace: int, seconds: float = 1.0) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def test_manifest_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert fh.read() == spec.manifest_text()


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, stdout = run_bench(workload, trace, seconds=2.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert f"{m['name']} {entry['value']!r} {m['unit']}" in stdout
    if trace:
        assert 0.0 <= result["metrics"]["gbdt.pairs_useful_frac"]["value"] <= 1.0
        served = result["metrics"]["http.sent"]["value"]
        assert (served > 0) == (workload == "score_pool100")
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert "hardware: " in stdout and "nproc" in stdout


def _notes_value(notes: list[str], key: str) -> str:
    for line in notes:
        for field in line.split():
            if field.startswith(key + "="):
                return field.split("=", 1)[1]
    raise KeyError(key)


def test_corrupted_recorded_digest_is_a_failure():
    import scoring

    first = scoring.run("pool100", 3, 0.0, False, "tiny", None, 0.0)
    recorded = {
        "frm_sha256": _notes_value(first.notes, "frm_sha256"),
        "digest": _notes_value(first.notes, "digest"),
    }
    matching = scoring.run("pool100", 3, 0.0, False, "tiny", recorded, 0.0)
    assert matching.failed == 0 and not matching.gate_failures

    corrupted = dict(recorded, digest="0" * 64)
    bad = scoring.run("pool100", 3, 0.0, False, "tiny", corrupted, 0.0)
    assert bad.failed == 1
    assert bad.gate_failures == ["response digest vs recorded"]


def test_corrupted_recorded_ablation_value_is_a_failure():
    import ablate

    first = ablate.run(3, 0.0, False, "tiny", None, 0.0)
    line = next(n for n in first.notes if n.startswith("record: "))
    record = json.loads(line[len("record: "):])
    assert not ablate.run(3, 0.0, False, "tiny", record, 0.0).gate_failures
    record["frm_sha256"]["UR+EF"] = "0" * 64
    bad = ablate.run(3, 0.0, False, "tiny", record, 0.0)
    assert bad.gate_failures == ["variant UR+EF"]


def test_bare_directory_fails_without_a_result():
    """Only BENCHMARK.json and this directory: no sources, so no result."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(bare, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            fh.write(spec.manifest_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "score_pool100", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
