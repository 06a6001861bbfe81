"""The benchmark pair summary in tools/bench_pairs.py."""
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BOUNDS = {"setup_s": 0.25, "job_ms": 0.25, "peak_rss_mb": 0.05}


def run(seed, job_ms, failed=0, rss=40.0):
    return {"seed": seed, "attempted": 100, "failed": failed,
            "setup_s": 0.05, "job_ms": job_ms, "peak_rss_mb": rss}


def test_reads_the_repository_bounds():
    assert bench_pairs.read_bounds(ROOT) == BOUNDS


def test_bounds_and_failed_share():
    runs = {"parent": [run(1, 2.0), run(2, 2.0), run(3, 2.0)],
            "change": [run(1, 2.4, failed=1), run(2, 2.6), run(3, 2.4,
                                                             rss=43.0)]}
    out = bench_pairs.summarise(runs, BOUNDS)
    assert out["within_bound"] == {"setup_s": True, "job_ms": True,
                                   "peak_rss_mb": True}
    assert out["pairs_won"]["job_ms"] == {"change": 0, "parent": 3}
    assert out["change"]["failed_share"] == pytest.approx(1 / 300, abs=1e-4)
    assert out["parent"]["failed_share"] == 0.0
    runs["change"][0]["job_ms"] = runs["change"][2]["job_ms"] = 2.6
    assert not bench_pairs.summarise(runs, BOUNDS)["within_bound"]["job_ms"]


def test_a_gain_is_shown_by_nine_of_ten_pairs_beyond_the_parent_iqr():
    parent = [2.0, 2.1, 2.0, 2.2, 2.0, 2.1, 2.0, 2.2, 2.0, 2.1]
    change = [1.5] * 9 + [2.1]    # the last pair ties
    runs = {"parent": [run(i, v) for i, v in enumerate(parent)],
            "change": [run(i, v) for i, v in enumerate(change)]}
    out = bench_pairs.summarise(runs, BOUNDS)
    assert out["pairs_won"]["job_ms"] == {"change": 9, "parent": 0}
    assert out["gain_shown"] == {"setup_s": False, "job_ms": True,
                                 "peak_rss_mb": False}
    # 8 of 10 pairs won
    runs["change"][0] = run(0, 2.5)
    assert not bench_pairs.summarise(runs, BOUNDS)["gain_shown"]["job_ms"]
    runs["change"][0] = run(0, 1.5)
    # more operations failed than at the parent
    runs["change"][1] = run(1, 1.5, failed=1)
    assert not bench_pairs.summarise(runs, BOUNDS)["gain_shown"]["job_ms"]
    runs["change"][1] = run(1, 1.5)
    # won every pair, by less than the parent's interquartile range (0.1)
    runs["change"] = [run(i, v - 0.05) for i, v in enumerate(parent)]
    out = bench_pairs.summarise(runs, BOUNDS)
    assert out["pairs_won"]["job_ms"] == {"change": 10, "parent": 0}
    assert not out["gain_shown"]["job_ms"]


def test_a_side_with_no_successful_run_is_recorded():
    runs = {"parent": [run(1, 2.0), run(2, 2.0)],
            "change": [{"seed": 1, "exit": 1}, {"seed": 2, "exit": 1}]}
    out = bench_pairs.summarise(runs, BOUNDS)
    assert out["change"]["job_ms"] is None
    assert out["change"]["nonzero_exit"] == 2
    assert out["change"]["failed_share"] is None
    assert out["within_bound"]["job_ms"] is None
    assert out["gain_shown"]["job_ms"] is None
    assert out["pairs_won"]["job_ms"] == {"change": 0, "parent": 0}
    assert out["parent"]["job_ms"]["median"] == 2.0


def test_a_checkout_with_bytecode_caches_is_refused(tmp_path, monkeypatch,
                                                   capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in ("src/blfqvqe/__pycache__", "bench/__pycache__",
              "tests/__pycache__"):
        (change / d).mkdir(parents=True)
    (parent / "src" / "blfqvqe").mkdir(parents=True)
    cached = [str(change / "bench" / "__pycache__"),
              str(change / "src" / "blfqvqe" / "__pycache__")]
    assert bench_pairs.bytecode_caches(str(parent)) == []
    assert bench_pairs.bytecode_caches(str(change)) == cached
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", str(parent),
                                      str(change), "--out", str(out)])
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main()
    assert exit_info.value.code == 2
    assert ", ".join(cached) in capsys.readouterr().err
    assert not out.exists()
    # refused, not deleted
    assert all(os.path.isdir(c) for c in cached)


def test_traced_runs_alternate_and_report_medians(monkeypatch):
    # each side runs TRACE_RUNS times, first on alternate runs; a side's
    # figures are medians over the runs that exited 0
    calls = []
    cold = {"parent": iter([0.11, 0.59, 0.13]),
            "change": iter([0.58, {"exit": 1}, 0.12])}

    def fake_bench(root, workload, seed, seconds, trace):
        calls.append((root, workload, seed, seconds, trace))
        value = next(cold[root])
        if isinstance(value, dict):
            return {"seed": seed, **value}
        return {"seed": seed, "attempted": 10, "failed": 0,
                "import.cold_s": value, "vqe.solves": 1.0}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    out = bench_pairs.traced({"parent": "parent", "change": "change"},
                             "vqe-exact", 25)
    assert bench_pairs.TRACE_RUNS == 3
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent",
                                     "parent", "change"]
    assert all(c[1:] == ("vqe-exact", bench_pairs.TRACE_SEED, 25, 1)
               for c in calls)
    assert out["parent"] == {"runs": 3, "nonzero_exit": 0, "attempted": 10,
                             "failed": 0, "import.cold_s": 0.13,
                             "vqe.solves": 1.0}
    assert out["change"]["runs"] == 2 and out["change"]["nonzero_exit"] == 1
    assert out["change"]["import.cold_s"] == pytest.approx(0.35)
