"""``tools/bench_pairs.py`` driven with a stubbed runner (no benchmark is run)."""

from __future__ import annotations

import json
import subprocess

import pytest

from tools import bench_pairs

METRICS = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _samples(parent, change, name="run_s"):
    return [
        {"seed": k, "order": ["parent", "change"], "parent": {name: p}, "change": {name: c}}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


def _verdict(parent, change, metric=METRICS[0]):
    (row,) = bench_pairs.summarise(_samples(parent, change, metric["name"]), [metric])
    return row


class TestRunPairs:
    def test_same_seed_per_pair_and_the_order_alternates(self):
        calls = []

        def runner(side, seed):
            calls.append((side, seed))
            return {"run_s": 1.0}

        samples = bench_pairs.run_pairs(runner, 4, 100, log=lambda _: None)
        assert calls == [
            ("parent", 100), ("change", 100), ("change", 101), ("parent", 101),
            ("parent", 102), ("change", 102), ("change", 103), ("parent", 103),
        ]  # fmt: skip
        assert [s["seed"] for s in samples] == [100, 101, 102, 103]
        assert [s["order"][0] for s in samples] == ["parent", "change", "parent", "change"]


class TestVerdict:
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parents_spread(self):
        row = _verdict(self.parent, [p * 0.7 for p in self.parent])
        assert (row["verdict"], row["won"], row["lost"]) == ("gain", 10, 0)
        assert row["ratio"] == pytest.approx(0.7)
        # Lower in every pair, but by less than the parent's quartile distance.
        assert _verdict(self.parent, [p - 0.001 for p in self.parent])["verdict"] == "unchanged"
        # Far lower in eight pairs of ten only.
        change = [p * 0.7 for p in self.parent[:8]] + [p * 1.1 for p in self.parent[8:]]
        row = _verdict(self.parent, change)
        assert (row["verdict"], row["won"]) == ("unchanged", 8)

    def test_ties_count_for_neither_side(self):
        row = _verdict(self.parent, self.parent)
        assert (row["won"], row["lost"], row["verdict"]) == (0, 0, "unchanged")

    def test_regression_is_the_bound_of_benchmark_json(self):
        assert _verdict(self.parent, [p * 1.3 for p in self.parent])["verdict"] == "regression"
        assert _verdict(self.parent, [p * 1.2 for p in self.parent])["verdict"] == "unchanged"

    def test_a_parent_noisier_than_the_bound_is_unresolved(self):
        noisy = [1.0, 2.0, 0.6, 1.8, 0.7, 1.9, 1.0, 0.5, 2.1, 1.2]
        assert _verdict(noisy, [p * 1.05 for p in noisy])["verdict"] == "unresolved"
        # ... unless every run of the change beats every run of the parent
        # (not a gain either: the medians are closer than the parent's spread).
        assert _verdict(noisy, [0.4] * 10)["verdict"] == "unchanged"

    def test_direction_comes_from_the_metric(self):
        rate = [100.0 + k for k in range(10)]
        row = _verdict(rate, [r * 1.5 for r in rate], METRICS[1])
        assert (row["verdict"], row["won"]) == ("gain", 10)
        assert _verdict(rate, [r * 0.5 for r in rate], METRICS[1])["verdict"] == "regression"


class TestMain:
    @pytest.fixture()
    def repo(self, tmp_path):
        spec = {
            "command": ["python3", "bench.py"],
            "run_seconds": 20,
            "workloads": [{"name": "tiny", "why": "test"}],
            "end_to_end": METRICS,
        }
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        return tmp_path

    def test_prints_the_table_and_writes_the_raw_samples(self, repo, capsys):
        def runner(side, seed):
            scale = 1.0 if side == "parent" else 0.5
            return {"run_s": scale * (1.0 + seed / 1000), "rounds_per_s": 100.0 / scale}

        argv = ["--workload", "tiny", "--pairs", "10", "--first-seed", "7", "--repo", str(repo)]
        assert bench_pairs.main(argv, runner=runner) == 0
        out = capsys.readouterr().out
        assert "pair 10/10 seed 16 (change first)" in out
        assert [line.split()[-1] for line in out.splitlines() if "/10" in line and "pair" not in line] == [
            "gain",
            "gain",
        ]
        record = json.loads((repo / "results" / "bench_pairs_tiny.json").read_text())
        assert record["workload"] == "tiny" and record["seconds"] == 20
        assert len(record["samples"]) == 10 and record["samples"][3]["seed"] == 10
        assert [row["verdict"] for row in record["summary"]] == ["gain", "gain"]

    def test_a_regression_fails_the_command(self, repo, capsys):
        def runner(side, seed):
            scale = 1.0 if side == "parent" else 2.0
            return {"run_s": scale, "rounds_per_s": 100.0 / scale}

        argv = ["--workload", "tiny", "--pairs", "3", "--repo", str(repo)]
        assert bench_pairs.main(argv, runner=runner) == 1
        assert "regression" in capsys.readouterr().out

    def test_record_appends_one_compact_record_per_run(self, repo, capsys):
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], check=True)
        for message in ("parent", "change"):
            (repo / "code.txt").write_text(message)
            subprocess.run(git + ["add", "code.txt", "BENCHMARK.json"], check=True)
            subprocess.run(git + ["commit", "-q", "-m", message], check=True)
        shas = [bench_pairs._rev(repo, ref) for ref in ("HEAD~1", "HEAD")]

        def runner(side, seed):
            scale = 1.0 if side == "parent" else 0.5
            return {"run_s": scale * (1.0 + seed / 1000), "rounds_per_s": 100.0 / scale}

        argv = ["--workload", "tiny", "--pairs", "4", "--parent", "HEAD~1", "--repo", str(repo)]
        assert bench_pairs.main(argv + ["--record"], runner=runner) == 0
        subprocess.run(git + ["add", "BENCH_pairs.json"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "trajectory"], check=True)
        # A second record modifies the committed trajectory: not a dirty tree.
        assert bench_pairs.main(argv + ["--record"], runner=runner) == 0
        (repo / "code.txt").write_text("edited after the commit")
        assert bench_pairs.main(argv + ["--record"], runner=runner) == 0
        bench_pairs.main(argv, runner=runner)  # without --record: nothing appended
        assert "recorded in" in capsys.readouterr().out
        records = json.loads((repo / "BENCH_pairs.json").read_text())["records"]
        assert [r["dirty"] for r in records] == [False, False, True]
        assert [r["aa"] for r in records] == [False, False, False]
        record = records[0]
        assert (record["parent"], record["sha"]) == tuple(shas)
        assert (record["workload"], record["pairs"]) == ("tiny", 4)
        assert set(record["host"]) == {"cpu_count", "affinity", "blas_threads"}
        run_s = record["metrics"]["run_s"]
        assert (run_s["won"], run_s["lost"], run_s["verdict"]) == (4, 0, "gain")
        assert run_s["parent"][1] == pytest.approx(1.0425) and len(run_s["change"]) == 3
        assert set(record["metrics"]) == {"run_s", "rounds_per_s"}

    def test_a_record_of_one_tree_on_both_sides_is_marked_aa(self, repo, capsys):
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], check=True)
        for message in ("parent", "change"):
            (repo / "code.txt").write_text(message)
            subprocess.run(git + ["add", "code.txt", "BENCHMARK.json"], check=True)
            subprocess.run(git + ["commit", "-q", "-m", message], check=True)

        def runner(side, seed):
            return {"run_s": 1.0 + seed / 1000, "rounds_per_s": 100.0}

        argv = ["--workload", "tiny", "--pairs", "2", "--repo", str(repo), "--record"]
        for parent in ("HEAD", "HEAD~1"):
            assert bench_pairs.main(argv + ["--parent", parent], runner=runner) == 0
        # An uncommitted edit runs on the change side only.
        (repo / "code.txt").write_text("edited after the commit")
        assert bench_pairs.main(argv + ["--parent", "HEAD"], runner=runner) == 0
        records = json.loads((repo / "BENCH_pairs.json").read_text())["records"]
        aa_dirty = [(r["aa"], r["dirty"]) for r in records]
        assert aa_dirty == [(True, False), (False, False), (False, True)]
        capsys.readouterr()

    def test_both_sides_run_from_exports(self, repo, tmp_path_factory):
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
        subprocess.run(git + ["init", "-q"], check=True)
        (repo / "code.txt").write_text("committed")
        subprocess.run(git + ["add", "code.txt"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "parent"], check=True)
        (repo / "code.txt").write_text("uncommitted edit")
        sides = bench_pairs.export_sides(repo, "HEAD", tmp_path_factory.mktemp("scratch"))
        assert (sides["change"] / "code.txt").read_text() == "uncommitted edit"
        assert (sides["parent"] / "code.txt").read_text() == "committed"
        assert repo not in sides.values() and sides["parent"].parent == sides["change"].parent
        (repo / "src").mkdir()
        (repo / "src" / "new.py").write_text("")
        with pytest.raises(SystemExit, match="src/new.py"):
            bench_pairs.export_sides(repo, "HEAD", tmp_path_factory.mktemp("scratch"))

    def test_unknown_workload_is_refused(self, repo, capsys):
        with pytest.raises(SystemExit):
            bench_pairs.main(["--workload", "nope", "--repo", str(repo)], runner=lambda *_: {})
        assert "BENCHMARK.json has ['tiny']" in capsys.readouterr().err


class TestBenchmarkRunner:
    def test_runs_the_declared_command_in_the_sides_checkout(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run(command, **kwargs):
            seen.update(command=command, **kwargs)
            line = {"correct": True, "attempted": 7, "failed": 0,
                    "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}  # fmt: skip
            return subprocess.CompletedProcess(command, 0, "noise\n" + json.dumps(line) + "\n")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        spec = {"command": ["python3", "benchmarks/airbench/run.py"]}
        runner = bench_pairs.benchmark_runner(
            spec, {"parent": tmp_path / "p", "change": tmp_path / "c"}, "scale_1m", 20
        )
        assert runner("change", 44) == {"run_s": 0.5}
        assert seen["cwd"] == tmp_path / "c"
        assert seen["command"] == [
            "python3", "benchmarks/airbench/run.py", "--workload", "scale_1m",
            "--seed", "44", "--seconds", "20", "--trace", "0",
        ]  # fmt: skip

    def test_a_failed_operation_raises(self, tmp_path, monkeypatch):
        line = {"correct": False, "attempted": 7, "failed": 1, "metrics": {}}
        monkeypatch.setattr(
            bench_pairs.subprocess,
            "run",
            lambda command, **_: subprocess.CompletedProcess(command, 0, json.dumps(line)),
        )
        runner = bench_pairs.benchmark_runner({"command": ["x"]}, {"parent": tmp_path}, "w", 1)
        with pytest.raises(RuntimeError, match="1 of 7 operations failed"):
            runner("parent", 0)


def test_export_commit_extracts_the_committed_files_only(tmp_path):
    repo, target = tmp_path / "repo", tmp_path / "export"
    repo.mkdir()
    target.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "kept.txt").write_text("committed\n")
    subprocess.run(git + ["add", "kept.txt"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "kept.txt").write_text("edited after the commit\n")
    (repo / "untracked.txt").write_text("never committed\n")
    bench_pairs.export_commit(repo, "HEAD", target)
    assert (target / "kept.txt").read_text() == "committed\n"
    assert sorted(p.name for p in target.iterdir()) == ["kept.txt"]
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.export_commit(repo, "no-such-commit", tmp_path)
