"""Tests of the benchmark itself, on a tiny sizing of each workload.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_bench(name, seed=3):
    return run.Bench(ROOT, name, seed, 1, tiny=True)


def assert_units(result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [BENCH_DIR.name]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_prints_every_end_to_end_metric(name):
    result = tiny_bench(name).result(trace=False)
    assert_units(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["pass_share"]["value"] == 1


def test_traced_run_prints_every_layer_metric_and_counts_repeat():
    first = tiny_bench("theorem-box").result(trace=True)
    second = tiny_bench("theorem-box").result(trace=True)
    assert_units(first, SPEC["per_layer"])
    assert first["correct"] and second["correct"]
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert "qtorus.mul.eps.term_pairs" in counts
    assert first["metrics"]["qtorus.mul.eps.calls"]["value"] > 0
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def _tamper(monkeypatch, edit):
    real = run.Bench.campaign

    def campaign(self, *, deterministic):
        got = real(self, deterministic=deterministic)
        report = json.loads(got.out)
        edit(report["checks"])
        got.out = json.dumps(report).encode()
        return got

    monkeypatch.setattr(run.Bench, "campaign", campaign)


@pytest.mark.parametrize("edit", [
    lambda recs: recs[-1].update(verdict="FAIL"),
    lambda recs: recs[-1].update(checked=recs[-1]["checked"] + 1),
    lambda recs: recs.pop(),
], ids=["flipped-verdict", "wrong-checked", "missing-record"])
def test_wrong_report_counts_as_failed(monkeypatch, edit):
    _tamper(monkeypatch, edit)
    result = tiny_bench("oracle-a2").result(trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_share"]["value"] < 1


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_config(name, 5) == workloads.make_config(name, 5)
    assert (workloads.make_config("theorem-scatter", 5)
            != workloads.make_config("theorem-scatter", 6))


def test_workload_sizes_and_expected_records():
    box = workloads.make_config("theorem-box", 0)
    scatter = workloads.make_config("theorem-scatter", 0)
    assert workloads.input_properties(box)["vectors"] == 4096
    assert workloads.input_properties(scatter)["batches"] == 188
    assert workloads.input_properties(scatter)["prefix_reuse"] == 0
    theorem = [r for r in workloads.expected_records(box) if r[0] == "theorem"]
    assert {r[2] for r in theorem} == {2 * 4096}


def test_minor_weights_of_a2():
    cartan, word = workloads.CARTAN["A2"], (0, 1, 0)
    assert [workloads.minor_weight(cartan, word, t) for t in range(3)] == \
        [(1, 0), (1, 1), (1, 1)]
    assert workloads.divided_word_count((3, 0)) == 4    # compositions of 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                          "oracle-a2", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
