import json
from fractions import Fraction

import pytest

from epsfc import (
    Coalition,
    Partition,
    SampleRecord,
    UniformCoalitions,
    adversarial_bounded,
    draw_samples,
)
from epsfc import io as eio
from epsfc.instances import random_anon_sp, random_fhg, random_partition
import random


class TestGameRoundtrip:
    def test_fhg(self, tmp_path):
        g = random_fhg(7, 0.5, 3)
        path = tmp_path / "g.json"
        eio.save_game(path, g, provenance={"kind": "fhg-random", "seed": 3})
        loaded = eio.load_game(path)
        assert loaded.game == g
        assert loaded.provenance["seed"] == 3

    def test_anonymous_values_bit_exact(self, tmp_path):
        g, cert = random_anon_sp(6, 9)
        path = tmp_path / "g.json"
        eio.save_game(path, g, sp_ordering=cert.ordering)
        loaded = eio.load_game(path)
        assert loaded.game == g  # exact float round-trip through repr
        assert loaded.sp_ordering == cert.ordering

    def test_layout_matches_format(self, tmp_path):
        g = random_fhg(3, 1.0, 0)
        path = tmp_path / "g.json"
        eio.save_game(path, g)
        raw = json.loads(path.read_text())
        assert raw["kind"] == "fhg" and raw["n"] == 3
        assert raw["adj"][0][0] == 0 and raw["adj"][0][1] == 1

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"kind": "nope", "n": 2}')
        with pytest.raises(ValueError):
            eio.load_game(path)


class TestPartitionRoundtrip:
    def test_one_based_blocks(self, tmp_path):
        p = Partition.from_blocks([[0, 2], [1]], 3)
        path = tmp_path / "p.json"
        eio.save_partition(path, p)
        raw = json.loads(path.read_text())
        assert sorted(map(sorted, raw["blocks"])) == [[1, 3], [2]]
        assert eio.load_partition(path, 3) == p

    def test_random_roundtrip(self, tmp_path):
        for seed in range(10):
            p = random_partition(8, seed)
            path = tmp_path / f"p{seed}.json"
            eio.save_partition(path, p)
            assert eio.load_partition(path, 8) == p


class TestDistributionSpecs:
    def test_uniform(self):
        d = eio.distribution_from_dict({"kind": "uniform"}, 5)
        assert d.n == 5 and d.lambda_bound() == 1

    def test_size_tilted(self):
        d = eio.distribution_from_dict({"kind": "size_tilted", "g": [2, 1, 1]}, 3)
        assert d.lambda_bound() == 2
        assert eio.distribution_from_dict(d.spec(), 3).g == d.g

    def test_fraction_parameters_roundtrip_exactly(self):
        tilted = eio.distribution_from_dict(
            {"kind": "size_tilted", "g": ["1/3", 1, 1, 1]}, 4
        )
        assert tilted.g == (Fraction(1, 3), 1, 1, 1)
        assert tilted.spec()["g"] == ["1/3", 1, 1, 1]
        back = eio.distribution_from_dict(json.loads(json.dumps(tilted.spec())), 4)
        assert back.g == tilted.g
        assert back.lambda_bound() == 3
        adv = adversarial_bounded([Coalition.of(0)], 4, Fraction(7, 3))
        assert adv.spec()["lambda"] == "7/3"
        back = eio.distribution_from_dict(json.loads(json.dumps(adv.spec())), 4)
        assert (back.lam, back.p, back.family) == (adv.lam, adv.p, adv.family)

    def test_plain_numbers_still_read(self):
        d = eio.distribution_from_dict({"kind": "size_tilted", "g": [0.5, 1, 2]}, 3)
        assert d.g == (Fraction(1, 2), 1, 2)

    def test_family_one_based(self):
        d = eio.distribution_from_dict({"kind": "family", "support": [[1], [2, 3]]}, 3)
        assert {c.mask for c in d.support} == {0b001, 0b110}
        assert d.spec()["support"] == [[1], [2, 3]]

    def test_adversarial(self):
        spec = {"kind": "adversarial", "family": [[1], [1, 2]], "lambda": 3}
        d = eio.distribution_from_dict(spec, 4)
        assert d.lam == 3
        assert d.p == Fraction(3, 2 * 2 + 2**4 - 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            eio.distribution_from_dict({"kind": "gaussian"}, 3)


class TestSamples:
    def test_jsonl_roundtrip_fhg_values_recoverable(self, tmp_path):
        g = random_fhg(8, 0.5, 5)
        rng = random.Random(2)
        records = draw_samples(g, UniformCoalitions(8), 40, rng)
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, records)
        loaded = eio.read_samples(path)
        assert len(loaded) == 40
        for orig, back in zip(records, loaded):
            assert back.coalition == orig.coalition
            for i, v in orig.member_values.items():
                assert back.member_values[i] == v

    def test_float_file_from_older_writer_still_loads(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S": [1, 3], "v": {"1": 0.5, "3": 0.3333333333333333}}\n')
        (rec,) = eio.read_samples(path)
        assert rec.coalition == Coalition.of(0, 2)
        assert rec.member_values == {0: 0.5, 2: 0.3333333333333333}
        assert all(type(v) is float for v in rec.member_values.values())

    def test_fraction_values_written_exactly(self, tmp_path):
        rec = SampleRecord(Coalition.of(0, 1, 2), {0: Fraction(1, 3), 1: Fraction(0), 2: 0.25})
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, [rec])
        assert json.loads(path.read_text())["v"] == {"1": "1/3", "2": "0", "3": 0.25}
        assert eio.read_samples(path)[0].member_values == rec.member_values

    def test_one_based_agents_in_file(self, tmp_path):
        rec = SampleRecord(Coalition.of(0, 4), {0: 0.5, 4: 0.0})
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, [rec])
        raw = json.loads(path.read_text().strip())
        assert raw["S"] == [1, 5]
        assert set(raw["v"]) == {"1", "5"}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, [])
        assert path.read_text() == ""
        assert eio.read_samples(path) == []


class TestJsonable:
    def test_fraction_and_coalition(self):
        out = eio.to_jsonable({"f": Fraction(1, 3), "c": Coalition.of(0, 2)})
        assert out["f"] == {"num": 1, "den": 3, "float": 1 / 3}
        assert out["c"] == [1, 3]

    def test_dataclass_tree(self, tmp_path):
        from epsfc import exact_blocking
        from epsfc.instances import random_fhg

        g = random_fhg(5, 0.5, 1)
        report = exact_blocking(g, Partition.singletons(5))
        path = tmp_path / "r.json"
        eio.save_json(path, report)
        raw = json.loads(path.read_text())
        assert raw["blocking_count"] == report.blocking_count
        assert raw["fraction"]["den"] == 31
