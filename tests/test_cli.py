import csv
import json
import os

from epsfc import cli
from epsfc import io as eio
from epsfc.cli import main


def run(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_fhg_random_writes_file(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gen", "--kind", "fhg-random", "--n", 12, "--p", 0.3, "--seed", 7, "--out", out) == 0
        loaded = eio.load_game(out)
        assert loaded.game.n == 12
        assert loaded.provenance["p"] == 0.3

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("gen", "--kind", "anon-sp-random", "--n", 9, "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_p_usage_error(self, tmp_path):
        assert run("gen", "--kind", "fhg-random", "--n", 5, "--p", 1.7, "--out", tmp_path / "g.json") == 2

    def test_extend_pipeline(self, tmp_path):
        base = tmp_path / "base.json"
        ext = tmp_path / "ext.json"
        assert run("gen", "--kind", "anon-sp-random", "--n", 5, "--seed", 1, "--out", base) == 0
        assert run("gen", "--kind", "anon-sp-extend", "--n", 8, "--base", base, "--out", ext) == 0
        loaded = eio.load_game(ext)
        assert loaded.game.n == 8
        assert loaded.sp_ordering == tuple(range(1, 9))

    def test_missing_subcommand_usage(self):
        assert run() == 2


class TestSample:
    def test_zero_samples_empty_file(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "s.jsonl"
        run("gen", "--kind", "fhg-random", "--n", 6, "--p", 0.5, "--out", game)
        assert run("sample", "--game", game, "--m", 0, "--out", out) == 0
        assert out.read_text() == ""

    def test_records_keyed_by_members(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "s.jsonl"
        run("gen", "--kind", "anon-random", "--n", 6, "--seed", 2, "--out", game)
        assert run("sample", "--game", game, "--m", 50, "--seed", 5, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 50
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["S"] == sorted(set(rec["S"])) and 1 <= rec["S"][0] <= rec["S"][-1] <= 6
            assert len(rec["v"]) == len(rec["S"])  # one value per member

    def test_unknown_dist_kind(self, tmp_path):
        game = tmp_path / "g.json"
        run("gen", "--kind", "fhg-random", "--n", 5, "--p", 0.5, "--out", game)
        code = run("sample", "--game", game, "--m", 5, "--dist", '{"kind": "zeta"}', "--out", tmp_path / "s.jsonl")
        assert code == 2

    def test_uniform_empirical_thirds(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "s.jsonl"
        run("gen", "--kind", "fhg-random", "--n", 2, "--p", 1, "--out", game)
        assert run("sample", "--game", game, "--m", 30000, "--seed", 11, "--out", out) == 0
        counts = {}
        for line in out.read_text().splitlines():
            key = tuple(json.loads(line)["S"])
            counts[key] = counts.get(key, 0) + 1
        for key in [(1,), (2,), (1, 2)]:
            assert abs(counts[key] / 30000 - 1 / 3) < 0.02


class TestStabilize:
    def test_complete_graph_grand_block(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        trace = tmp_path / "t.json"
        run("gen", "--kind", "fhg-random", "--n", 12, "--p", 1, "--out", game)
        assert run("stabilize", "--class", "fhg", "--game", game, "--out", out, "--trace", trace) == 0
        partition = eio.load_partition(out, 12)
        assert len(partition) == 1
        assert json.loads(trace.read_text())["branch"] == "clique"

    def test_anon_game_input(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        run("gen", "--kind", "anon-random", "--n", 10, "--seed", 4, "--out", game)
        assert run("stabilize", "--class", "anon", "--game", game, "--eps", 0.2, "--out", out) == 0
        partition = eio.load_partition(out, 10)
        assert len(partition) >= 1

    def test_sp_game_input(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        trace = tmp_path / "t.json"
        run("gen", "--kind", "anon-sp-random", "--n", 10, "--seed", 4, "--out", game)
        assert run("stabilize", "--class", "anon-sp", "--game", game, "--eps", 0.2,
                   "--out", out, "--trace", trace) == 0
        payload = json.loads(trace.read_text())
        assert payload["s_star"] in payload["sizes"]
        assert payload["peaked_at"] is not None

    def test_sample_driven_fhg(self, tmp_path):
        game = tmp_path / "g.json"
        samples = tmp_path / "s.jsonl"
        out = tmp_path / "p.json"
        run("gen", "--kind", "fhg-random", "--n", 8, "--p", 0.4, "--seed", 1, "--out", game)
        run("sample", "--game", game, "--m", 120, "--seed", 2, "--out", samples)
        assert run("stabilize", "--class", "fhg", "--samples", samples, "--n", 8, "--out", out) == 0

    def test_learner_failure_exit_code(self, tmp_path):
        game = tmp_path / "g.json"
        samples = tmp_path / "s.jsonl"
        run("gen", "--kind", "fhg-random", "--n", 8, "--p", 0.4, "--seed", 1, "--out", game)
        run("sample", "--game", game, "--m", 3, "--seed", 2, "--out", samples)
        code = run("stabilize", "--class", "fhg", "--samples", samples, "--n", 8, "--out", tmp_path / "p.json")
        assert code == 4

    def test_malformed_sample_line_is_a_usage_error(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"S":[1],"v":[0.5]}\n{"S":[2,2],"v":[0.5,0.5]}\n')
        code = run("stabilize", "--class", "anon", "--samples", samples, "--n", 4, "--out", tmp_path / "p.json")
        assert code == 2
        assert f"{samples}:2: duplicate agent ids" in capsys.readouterr().err

    def test_game_and_samples_mutually_exclusive(self, tmp_path):
        assert run("stabilize", "--class", "fhg", "--out", tmp_path / "p.json") == 2

    def test_removed_flags_are_usage_errors(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        run("gen", "--kind", "fhg-random", "--n", 6, "--p", 0.5, "--out", game)
        for flag in ("--delta", "--seed"):
            assert run("stabilize", "--class", "fhg", "--game", game, "--out", out, flag, 1) == 2
        assert not out.exists()

    def test_sample_driven_repeat_harness(self, tmp_path):
        # at the guaranteed sample budget the learner-backed run should
        # succeed for nearly every seed
        n, delta = 8, 0.2
        from epsfc import fhg_sample_size

        m = fhg_sample_size(n, delta)
        game = tmp_path / "g.json"
        run("gen", "--kind", "fhg-random", "--n", n, "--p", 0.5, "--seed", 3, "--out", game)
        successes = 0
        for seed in range(10):
            samples = tmp_path / f"s{seed}.jsonl"
            part = tmp_path / f"p{seed}.json"
            run("sample", "--game", game, "--m", m, "--seed", seed, "--out", samples)
            if run("stabilize", "--class", "fhg", "--samples", samples, "--n", n, "--out", part) == 0:
                successes += 1
        assert successes >= 8  # 1 - delta of 10, binomial slack

    def test_anon_tilted_window(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        run("gen", "--kind", "anon-random", "--n", 9, "--seed", 6, "--out", game)
        code = run(
            "stabilize", "--class", "anon", "--game", game,
            "--dist", '{"kind": "size_tilted", "g": [2, 1, 1, 1, 1, 1, 1, 1, 2]}',
            "--eps", 0.3, "--lambda", 2, "--out", out,
        )
        assert code == 0
        assert eio.load_partition(out, 9).n == 9


class TestVerify:
    def _setup(self, tmp_path, n=10, p=0.4):
        game = tmp_path / "g.json"
        part = tmp_path / "p.json"
        run("gen", "--kind", "fhg-random", "--n", n, "--p", p, "--seed", 5, "--out", game)
        run("stabilize", "--class", "fhg", "--game", game, "--out", part)
        return game, part

    def test_exact_csv_row(self, tmp_path):
        import time

        game, part = self._setup(tmp_path)
        csv_path = tmp_path / "rows.csv"
        start = time.perf_counter()
        assert run("verify", "--game", game, "--partition", part, "--csv", csv_path) == 0
        assert time.perf_counter() - start < 1.0  # exact census at n=10
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 1
        assert rows[0]["n"] == "10"
        assert rows[0]["fraction"] != ""

    def test_mc_mode(self, tmp_path):
        game, part = self._setup(tmp_path)
        out = tmp_path / "rep.json"
        assert run("verify", "--game", game, "--partition", part, "--mode", "mc", "--mc", 2000, "--seed", 3, "--out", out) == 0
        rep = json.loads(out.read_text())
        assert rep["row"]["p_hat"] != ""

    def test_mc_within_ci_of_exact(self, tmp_path):
        game, part = self._setup(tmp_path, n=12)
        outs = []
        for mode, out in (("exact", "a.json"), ("mc", "b.json")):
            path = tmp_path / out
            run("verify", "--game", game, "--partition", part, "--mode", mode,
                "--mc", 50000, "--delta", 0.01, "--seed", 9, "--out", path)
            outs.append(json.loads(path.read_text()))
        exact = float(outs[0]["row"]["fraction"])
        p_hat = float(outs[1]["row"]["p_hat"])
        ci = float(outs[1]["row"]["ci"])
        assert abs(p_hat - exact) <= ci

    def test_mismatched_sizes_usage_error(self, tmp_path):
        game, part = self._setup(tmp_path)
        other = tmp_path / "g2.json"
        run("gen", "--kind", "fhg-random", "--n", 6, "--p", 0.5, "--out", other)
        assert run("verify", "--game", other, "--partition", part) == 2

    def test_guard_exit_code(self, tmp_path, monkeypatch):
        game, part = self._setup(tmp_path)
        monkeypatch.setenv("EPSFC_MAX_N", "8")
        assert run("verify", "--game", game, "--partition", part) == 3

    def test_violation_exit_code(self, tmp_path):
        # a mutual pair against singletons blocks 1/3 > eps
        game = tmp_path / "g.json"
        part = tmp_path / "p.json"
        run("gen", "--kind", "fhg-random", "--n", 2, "--p", 1, "--out", game)
        part.write_text('{"blocks": [[1], [2]]}')
        assert run("verify", "--game", game, "--partition", part, "--eps", 0.2) == 5
        assert run("verify", "--game", game, "--partition", part, "--eps", 0.5) == 0


class TestExperiment:
    def _config(self, tmp_path, **over):
        cfg = {
            "class": "fhg",
            "n": [6, 8],
            "p": [0.3, 0.7],
            "seeds": [0, 1],
            "eps": 0.1,
            "mc": 500,
            "seed": 42,
        }
        cfg.update(over)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_grid_rows(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8  # 2 n x 2 p x 2 seeds
        assert all(r["status"] == "ok" for r in rows)

    def test_rerun_identical_and_resumable(self, tmp_path):
        cfg = self._config(tmp_path, n=[6], p=[0.5], seeds=[0, 1])
        out = tmp_path / "grid.csv"
        run("experiment", "--config", cfg, "--out", out)
        first = out.read_bytes()
        run("experiment", "--config", cfg, "--out", out)  # all cells skipped
        assert out.read_bytes() == first
        fresh = tmp_path / "fresh.csv"
        run("experiment", "--config", cfg, "--out", fresh)
        assert fresh.read_bytes() == first

    def test_failed_cell_recorded_not_fatal(self, tmp_path):
        # n beyond the guard fails the exact census inside the cell
        cfg = self._config(tmp_path, n=[6, 30], p=[0.5], seeds=[0], mc=0)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 2
        status = {r["n"]: r["status"] for r in rows}
        assert status["6"] == "ok" and status["30"] == "failed"
        assert "GuardError" in next(r["error"] for r in rows if r["n"] == "30")

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = self._config(tmp_path, n=[6], p=[0.3, 0.7], seeds=[0, 1], mc=200)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert run("experiment", "--config", cfg, "--out", serial) == 0
        assert run("experiment", "--config", cfg, "--out", parallel, "--jobs", 2) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_below_one_usage_error(self, tmp_path):
        cfg = self._config(tmp_path, n=[6], p=[0.5], seeds=[0], mc=0)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out, "--jobs", 0) == 2
        assert not out.exists()

    def test_jobs_clamped_to_cpu_count(self, tmp_path, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = self._config(tmp_path, n=[6], p=[0.5], seeds=[0, 1], mc=0)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out, "--jobs", 10**6) == 0
        assert pools == [2]
        assert len(list(csv.DictReader(out.open()))) == 2

    def test_anon_learn_pipeline_cells(self, tmp_path):
        cfg = self._config(
            tmp_path, **{"class": "anon-sp", "n": [8], "p": None, "seeds": [0],
                         "learn": True, "eps": 0.3, "delta": 0.3, "mc": 0}
        )
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1 and rows[0]["status"] == "ok"
