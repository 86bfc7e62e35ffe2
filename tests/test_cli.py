import csv
import hashlib
import json
import os

import pytest

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

    @pytest.mark.parametrize(
        "kind, n, extra",
        [("anon-random", -2, []), ("anon-sp-random", 0, []), ("fhg-random", 0, ["--p", 0.5])],
    )
    def test_no_agents_usage_error(self, tmp_path, capsys, kind, n, extra):
        out = tmp_path / "g.json"
        assert run("gen", "--kind", kind, "--n", n, *extra, "--out", out) == 2
        assert capsys.readouterr().err == "usage: need at least one agent\n"
        assert not out.exists()


class TestSample:
    def test_zero_samples_empty_file(self, tmp_path):
        game = tmp_path / "g.json"
        out = tmp_path / "s.jsonl"
        run("gen", "--kind", "fhg-random", "--n", 6, "--p", 0.5, "--out", game)
        assert run("sample", "--game", game, "--m", 0, "--out", out) == 0
        assert out.read_text() == ""

    def test_negative_count_usage_error(self, tmp_path, capsys):
        game = tmp_path / "g.json"
        out = tmp_path / "s.jsonl"
        run("gen", "--kind", "fhg-random", "--n", 6, "--p", 0.5, "--out", game)
        assert run("sample", "--game", game, "--m", -3, "--out", out) == 2
        assert "negative number of samples" in capsys.readouterr().err
        assert not out.exists()

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

    def test_sample_agent_past_n_is_a_usage_error(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"S":[1],"v":[0.5]}\n{"S":[2,5],"v":[0.5,0.5]}\n')
        code = run("stabilize", "--class", "anon", "--samples", samples, "--n", 4, "--out", tmp_path / "p.json")
        assert code == 2
        assert f"{samples}:2: agent id 5 is not an integer in [1, 4]" in capsys.readouterr().err

    def _fhg_samples_with(self, tmp_path, value):
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"S":[1,2],"v":[%s,0.5]}\n' % value)
        return samples

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity"])
    def test_infinite_sample_value_is_a_learning_error(self, tmp_path, capsys, value):
        samples = self._fhg_samples_with(tmp_path, value)
        code = run("stabilize", "--class", "fhg", "--n", 4, "--samples", samples, "--out", tmp_path / "p.json")
        assert code == 4
        err = capsys.readouterr().err
        # the sample file numbers this agent 1; the library's message says agent 0
        assert err.startswith(f"learning: agent 1: value {float(value)} of a size-2 coalition")
        assert err.rstrip().endswith("gives no finite neighbor count")

    def test_learning_errors_number_agents_as_the_sample_file(self, tmp_path, capsys):
        samples = tmp_path / "s.jsonl"
        samples.write_text('{"S":[1,2],"v":["1/2","1/2"]}\n{"S":[1,3],"v":["1/2","0"]}\n')
        code = run("stabilize", "--class", "fhg", "--n", 3, "--samples", samples, "--out", tmp_path / "p.json")
        assert code == 4
        assert capsys.readouterr().err == "learning: underdetermined agents: [2, 3]\n"
        samples.write_text('{"S":[1,2],"v":[0.5,0.5]}\n{"S":[1,3],"v":[0.25,0.5]}\n')
        code = run("stabilize", "--class", "anon", "--n", 3, "--samples", samples, "--out", tmp_path / "p.json")
        assert code == 4
        assert capsys.readouterr().err == "learning: agent 1 reported 0.5 and 0.25 for size 2\n"

    def test_nan_sample_value_is_a_usage_error_naming_the_line(self, tmp_path, capsys):
        samples = self._fhg_samples_with(tmp_path, "NaN")
        code = run("stabilize", "--class", "fhg", "--n", 4, "--samples", samples, "--out", tmp_path / "p.json")
        assert code == 2
        assert f"usage: {samples}:1: not a sample record: ValueError('NaN is not a sample value')" in capsys.readouterr().err

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


    @pytest.mark.parametrize("ordering", ["[1]", "3", "[1, 2, 2, 4, 5, 6, 7, 8]", "[1, 2"])
    def test_ordering_not_a_permutation_is_a_usage_error(self, tmp_path, capsys, ordering):
        game = tmp_path / "g.json"
        samples = tmp_path / "s.jsonl"
        out = tmp_path / "p.json"
        run("gen", "--kind", "anon-sp-random", "--n", 8, "--seed", 2, "--out", game)
        run("sample", "--game", game, "--m", 2000, "--seed", 1, "--out", samples)
        capsys.readouterr()
        for source in (["--samples", samples, "--n", 8], ["--game", game]):
            code = run("stabilize", "--class", "anon-sp", *source, "--eps", 0.5,
                       "--ordering", ordering, "--out", out)
            assert code == 2
            err = capsys.readouterr().err
            assert f"--ordering {ordering!r}" in err and "1..8" in err
        assert not out.exists()

    def test_game_not_single_peaked_names_agent_and_positions(self, tmp_path, capsys):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        run("gen", "--kind", "anon-random", "--n", 12, "--seed", 3, "--out", game)
        capsys.readouterr()
        assert run("stabilize", "--class", "anon-sp", "--game", game, "--eps", 0.5, "--out", out) == 2
        err = capsys.readouterr().err
        # the game file numbers this agent 1; the library's message says agent 0
        assert err.startswith("usage: not single-peaked: agent 1's value along the ordering (1, 2,")
        assert "agent 0" not in err
        assert err.rstrip().endswith("from position 3 to 4") and not out.exists()

    def test_not_single_peaked_agent_is_the_file_row(self, tmp_path, capsys):
        game = tmp_path / "g.json"
        out = tmp_path / "p.json"
        game.write_text('{"kind":"anon","vals":[[1,2,3],[3,2,1],[2,1,2]]}')
        assert run("stabilize", "--class", "anon-sp", "--game", game, "--eps", 0.5, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == ("usage: not single-peaked: agent 3's value along the ordering (1, 2, 3) "
                       "falls and then rises from position 2 to 3\n")
        assert not out.exists()

    def test_ordering_permutation_accepted(self, tmp_path):
        game = tmp_path / "g.json"
        samples = tmp_path / "s.jsonl"
        out = tmp_path / "p.json"
        run("gen", "--kind", "anon-sp-random", "--n", 8, "--seed", 2, "--out", game)
        run("sample", "--game", game, "--m", 2000, "--seed", 1, "--out", samples)
        ordering = json.dumps(list(range(1, 9)))
        assert run("stabilize", "--class", "anon-sp", "--samples", samples, "--n", 8,
                   "--eps", 0.5, "--ordering", ordering, "--out", out) == 0
        assert eio.load_partition(out, 8).n == 8


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

    @pytest.mark.parametrize("delta", [0, 3, 1.5])
    def test_mc_delta_outside_the_unit_interval_usage_error(self, tmp_path, capsys, delta):
        game, part = self._setup(tmp_path)
        capsys.readouterr()
        code = run("verify", "--game", game, "--partition", part, "--mode", "mc", "--delta", delta)
        assert code == 2
        assert capsys.readouterr().err == "usage: delta must lie in (0, 1)\n"

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

    def test_csv_with_another_header_refused_untouched(self, tmp_path, capsys):
        game, part = self._setup(tmp_path, n=6)
        grid = tmp_path / "grid.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"class": "fhg", "n": 6, "p": 0.5, "mc": 0}))
        assert run("experiment", "--config", cfg, "--out", grid) == 0
        before = grid.read_bytes()
        capsys.readouterr()
        assert run("verify", "--game", game, "--partition", part, "--csv", grid) == 2
        err = capsys.readouterr().err
        assert str(grid) in err and "'cell'" in err and "'wall_ms'" in err
        assert grid.read_bytes() == before

    def test_csv_appends_under_its_header(self, tmp_path):
        game, part = self._setup(tmp_path, n=6)
        csv_path = tmp_path / "rows.csv"
        for seed in (1, 2):
            assert run("verify", "--game", game, "--partition", part, "--seed", seed,
                       "--csv", csv_path) == 0
        rows = list(csv.DictReader(csv_path.open()))
        assert [r["seed"] for r in rows] == ["1", "2"]

    @pytest.mark.parametrize(
        "kind, klass, needs",
        [("anon-random", "fhg", "a fractional"), ("fhg-random", "anon", "an anonymous")],
    )
    def test_class_must_match_the_game(self, tmp_path, capsys, kind, klass, needs):
        game = tmp_path / "g.json"
        part = tmp_path / "p.json"
        run("gen", "--kind", kind, "--n", 6, "--p", 0.5, "--seed", 1, "--out", game)
        part.write_text('{"blocks": [[1, 2, 3, 4, 5, 6]]}')
        message = f"--class {klass} needs {needs} game file"
        for command in (("verify", "--partition", part), ("stabilize", "--out", part)):
            capsys.readouterr()
            assert run(*command, "--game", game, "--class", klass) == 2
            assert message in capsys.readouterr().err

    def test_violation_exit_code(self, tmp_path):
        # a mutual pair against singletons blocks 1/3 > eps
        game = tmp_path / "g.json"
        part = tmp_path / "p.json"
        run("gen", "--kind", "fhg-random", "--n", 2, "--p", 1, "--out", game)
        part.write_text('{"blocks": [[1], [2]]}')
        assert run("verify", "--game", game, "--partition", part, "--eps", 0.2) == 5
        assert run("verify", "--game", game, "--partition", part, "--eps", 0.5) == 0


MALFORMED = "is missing or malformed: "


class TestMalformedFiles:
    VALID = {
        "game": '{"kind":"anon","vals":[[0.1,0.2,0.3],[0.3,0.2,0.1],[0.2,0.3,0.1]]}',
        "partition": '{"blocks":[[1,2,3]]}',
        "dist": '{"kind":"uniform"}',
    }

    @pytest.mark.parametrize(
        "role, text, field",
        [
            ("game", '{"kind":"anon","vals":[[null]]}', '"vals"'),
            ("game", '{"kind":"fhg","adj":5}', '"adj"'),
            ("game", '{"kind":"fhg","adj":[[null,1],[true,0]]}', '"adj"'),
            ("game", '{"kind":"anon","vals":[["0.5",1],[1,0]]}', '"vals"'),
            ("game", '{"kind":"anon","vals":[[true,1],[1,0]]}', '"vals"'),
            ("game", '{"kind":"anon","vals":[["nan",1],[1,0]]}', '"vals"'),
            ("game", "[1]", '"kind"'),
            ("game", '{"kind":"anon","vals":[[0,1,0],[0,1,0],[0,1,0]],"sp_ordering":5}', '"sp_ordering"'),
            ("partition", '{"blocks":5}', '"blocks"'),
            ("partition", '{"blocks":[5]}', '"blocks"'),
            ("partition", "[1]", '"blocks"'),
            ("dist", '{"kind":"size_tilted","g":[null,1,1]}', '"g"'),
            ("dist", '{"kind":"size_tilted","g":[1,"1/0",1]}', '"g"'),
            ("dist", '{"kind":"adversarial","family":[[1]],"lambda":null}', '"lambda"'),
            ("dist", '{"kind":"size_tilted","g":[true,1,1]}', '"g"'),
            ("dist", '{"kind":"adversarial","family":[[1]],"lambda":true}', '"lambda"'),
            ("dist", '{"kind":"family","support":5}', '"support"'),
            # constructor errors name their field too
            ("game", '{"kind":"fhg","adj":[[0,1]]}', '"adj"'),
            ("game", '{"kind":"anon","vals":[[0.5],[0.1,0.2]]}', '"vals"'),
            ("dist", '{"kind":"size_tilted","g":[1,1]}', '"g"'),
            ("dist", '{"kind":"adversarial","family":[[1]],"lambda":"1/2"}', '"lambda"'),
            ("dist", '{"kind":"adversarial","family":[[1],[1]],"lambda":2}', '"family"'),
            ("dist", '{"kind":"family","support":[]}', '"support"'),
            # a partition must cover agents 1..n once each, and its errors say so 1-based
            ("partition", '{"blocks":[[1,2],[2,3]]}', f'"blocks" {MALFORMED}agent 2 is in two blocks'),
            ("partition", '{"blocks":[[1,2]]}', f'"blocks" {MALFORMED}agent 3 is in no block'),
            ("partition", '{"blocks":[[1,2,3],[]]}', f'"blocks" {MALFORMED}a block is empty'),
            # a self-loop names its agent 1-based, as the file does
            ("game", '{"kind":"fhg","adj":[[1]]}', f'"adj" {MALFORMED}agent 1 points to itself'),
            ("game", '{"kind":"fhg","adj":[[0,1,0],[1,0,0],[0,1,1]]}',
             f'"adj" {MALFORMED}agent 3 points to itself'),
        ],
    )
    def test_wrong_json_shape_is_a_usage_error(self, tmp_path, capsys, role, text, field):
        paths = {}
        for name, valid in self.VALID.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text if name == role else valid)
        # every command that reads the malformed file refuses it
        commands = [("verify", "--partition", paths["partition"])]
        if role != "partition":
            commands.append(("stabilize", "--class", "anon-sp", "--out", tmp_path / "out.json"))
        for command in commands:
            capsys.readouterr()
            assert run(*command, "--game", paths["game"], "--dist", paths["dist"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: {'distribution' if role == 'dist' else role}: {field}")


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

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_interrupted_grid_keeps_finished_rows_and_resumes(self, tmp_path, monkeypatch, k):
        cfg = self._config(tmp_path, n=[6], p=[0.3, 0.7], seeds=[0, 1], mc=100)
        fresh = tmp_path / "fresh.csv"
        assert run("experiment", "--config", cfg, "--out", fresh) == 0
        run_cell = cli._run_cell
        out = tmp_path / "grid.csv"
        on_disk = []

        def interrupted(config, cell):
            if cell[0] == k:
                # every finished row is already on disk when the next cell starts
                on_disk.append(len(list(csv.DictReader(out.open()))))
                raise KeyboardInterrupt
            return run_cell(config, cell)

        monkeypatch.setattr(cli, "_run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run("experiment", "--config", cfg, "--out", out)
        rows = list(csv.DictReader(out.open()))
        assert on_disk == [k] and [int(r["cell"]) for r in rows] == list(range(k))
        ran = []

        def recorded(config, cell):
            ran.append(cell[0])
            return run_cell(config, cell)

        monkeypatch.setattr(cli, "_run_cell", recorded)
        assert run("experiment", "--config", cfg, "--out", out) == 0
        assert ran == list(range(k, 4))
        assert out.read_bytes() == fresh.read_bytes()

    def test_every_row_names_its_config(self, tmp_path):
        cfg = self._config(tmp_path, n=[6], p=[0.5], seeds=[0, 1], mc=0)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out) == 0
        text = json.dumps(cli._read_config(cfg), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert [r["config"] for r in csv.DictReader(out.open())] == [digest, digest]

    @pytest.mark.parametrize("edit", [{"n": [8]}, {"seed": 43}, {"mc": 100}])
    def test_csv_of_another_config_refused_untouched(self, tmp_path, monkeypatch, capsys, edit):
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", self._config(tmp_path, n=[6], p=[0.5]), "--out", out) == 0
        before = out.read_bytes()
        old = next(csv.DictReader(out.open()))["config"]
        cfg = self._config(tmp_path, **{"n": [6], "p": [0.5], **edit})
        text = json.dumps(cli._read_config(cfg), sort_keys=True)
        new = hashlib.sha256(text.encode()).hexdigest()[:16]
        monkeypatch.setattr(cli, "_run_cell", lambda config, cell: pytest.fail("a cell ran"))
        capsys.readouterr()
        for jobs in (1, 2):
            assert run("experiment", "--config", cfg, "--out", out, "--jobs", jobs) == 2
            err = capsys.readouterr().err
            assert f"usage: {out}: cell 0 ran under config {old}, not {new}" in err
        assert out.read_bytes() == before

    def test_seed_flag_is_gone(self, tmp_path):
        cfg = self._config(tmp_path, n=[6], p=[0.5], seeds=[0], mc=0)
        out = tmp_path / "grid.csv"
        assert run("experiment", "--config", cfg, "--out", out, "--seed", 1) == 2
        assert not out.exists()

    def test_csv_with_another_header_refused_before_any_cell(self, tmp_path, monkeypatch):
        out = tmp_path / "grid.csv"
        out.write_text("n,class,eps_floor\r\n6,fhg,1\r\n")
        before = out.read_bytes()
        monkeypatch.setattr(cli, "_run_cell", lambda config, cell: pytest.fail("a cell ran"))
        cfg = self._config(tmp_path, n=[6], p=[0.5], seeds=[0], mc=0)
        for jobs in (1, 2):
            assert run("experiment", "--config", cfg, "--out", out, "--jobs", jobs) == 2
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "text, names",
        [
            ("[1]", "JSON object"),
            ('{"n":"abc"}', "'n' is 'abc'"),
            ('{"eps":"x","class":"anon"}', "'eps' is 'x'"),
            ('{"mc":"5"}', "'mc' is '5'"),
            ('{"sed":3}', "unknown keys ['sed']"),
            ('{"class":["fhg","anon"]}', "'class' is ['fhg', 'anon']"),
            ('{"class":"anon-random"}', "'class' is 'anon-random'"),
        ],
    )
    def test_bad_config_refused_before_any_cell(self, tmp_path, monkeypatch, capsys, text, names):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "grid.csv"
        monkeypatch.setattr(cli, "_run_cell", lambda config, cell: pytest.fail("a cell ran"))
        assert run("experiment", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {cfg}: ") and names in err
        assert not out.exists()

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
