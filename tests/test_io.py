import json
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsfc import (
    Coalition,
    Partition,
    SampleRecord,
    UniformCoalitions,
    adversarial_bounded,
    draw_samples,
    learn_anonymous,
)
from epsfc import io as eio
from epsfc.instances import random_anon, random_anon_sp, random_fhg, random_partition
from oracles import dict_keyed_sample_lines, members_of, read_dict_keyed_samples


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
        assert json.loads(path.read_text())["v"] == ["1/3", "0", 0.25]
        assert eio.read_samples(path)[0].member_values == rec.member_values

    def test_one_based_agents_in_file(self, tmp_path):
        rec = SampleRecord(Coalition.of(0, 4), {0: 0.5, 4: 0.0})
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, [rec])
        raw = json.loads(path.read_text().strip())
        assert raw["S"] == [1, 5]
        assert raw["v"] == [0.5, 0.0]  # one value per member, in the order of "S"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        assert eio.write_samples(path, []) == 0
        assert path.read_text() == ""
        assert eio.read_samples(path) == []

    def test_compact_member_order_lines(self, tmp_path):
        rec = SampleRecord(Coalition.of(4, 0, 2), {4: 0.5, 0: Fraction(2, 3), 2: 3})
        path = tmp_path / "s.jsonl"
        assert eio.write_samples(path, iter([rec, rec])) == 2
        assert path.read_text() == '{"S":[1,3,5],"v":["2/3",3,0.5]}\n' * 2

    def test_zeros_keep_their_sign(self, tmp_path):
        records = [SampleRecord(Coalition.of(0, 1), {0: 0.0, 1: -0.0})] * 2
        records.append(SampleRecord(Coalition.of(0, 1), {0: -0.0, 1: 0.0}))
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, records)
        assert path.read_text().splitlines() == [
            '{"S":[1,2],"v":[0.0,-0.0]}',
            '{"S":[1,2],"v":[0.0,-0.0]}',
            '{"S":[1,2],"v":[-0.0,0.0]}',
        ]
        assert [_signature(r) for r in eio.read_samples(path)] == [_signature(r) for r in records]

    def test_memo_stops_growing_at_its_cap(self):
        made = []
        memo = eio._Memo(lambda x: made.append(x) or str(x))
        with mock.patch.object(eio, "MEMO_CAP", 3):
            texts = [memo[float(x)] for x in (1, 2, 3, 4, 5, 1, 4, 0)]
        assert texts == ["1.0", "2.0", "3.0", "4.0", "5.0", "1.0", "4.0", "0.0"]
        assert sorted(memo) == [1.0, 2.0, 3.0]
        assert made == [1.0, 2.0, 3.0, 4.0, 5.0, 4.0, 0.0]

    def test_stream_is_lazy_and_read_is_a_list(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S":[1],"v":[0.5]}\n{"S":[],"v":[]}\n')
        stream = eio.stream_samples(path)
        assert next(stream).member_values == {0: 0.5}
        with pytest.raises(ValueError):
            next(stream)
        path.write_text('{"S":[1],"v":[0.5]}\n\n{"S":[2],"v":[1]}\n')
        records = eio.read_samples(path)
        assert isinstance(records, list) and len(records) == 2
        assert records[1].member_values == {1: 1.0}


def _pair_signature(mask, values):
    """Coalition and values with each value's type and exact text, so that
    1/2 and 0.5, or 0.0 and -0.0, do not compare equal."""
    return mask, sorted((i, type(v).__name__, repr(v)) for i, v in values.items())


def _signature(rec):
    return _pair_signature(rec.coalition.mask, rec.member_values)


class TestMalformedSampleLines:
    GOOD = '{"S":[1,2],"v":[0.5,0.25]}\n'

    @pytest.mark.parametrize(
        "line, words",
        [
            ('{"S":[],"v":[]}', "empty coalition"),
            ('{"S": [], "v": {}}', "empty coalition"),
            ('{"S":[1,1],"v":[0.5,0.5]}', "duplicate agent ids"),
            ('{"S":[2,3,2],"v":[0.5,0.5,0.5]}', "duplicate agent ids"),
            ('{"S":[0,2],"v":[0.5,0.5]}', "agent id 0"),
            ('{"S":[-1],"v":[0.5]}', "agent id -1"),
            ('{"S":[1.0],"v":[0.5]}', "agent id 1.0"),
            ('{"S":["1"],"v":[0.5]}', "agent id '1'"),
            ('{"S":[1,2],"v":[0.5]}', "1 values for 2 agents"),
            ('{"S":[1],"v":[0.5,0.5]}', "2 values for 1 agents"),
            ('{"S": [1, 2], "v": {"1": 0.5}}', "keyed exactly by the coalition members"),
            ('{"S":[1],"v":[0.5]', "not a sample record"),
            ('{"S":[1]}', "not a sample record: KeyError('v')"),
            ("[1, 2]", "not a sample record"),
        ],
    )
    def test_names_file_and_line(self, tmp_path, line, words):
        path = tmp_path / "s.jsonl"
        path.write_text(self.GOOD + line + "\n" + self.GOOD)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: ") as info:
            eio.read_samples(path)
        assert words in str(info.value)

    def test_empty_coalition_is_not_counted_as_a_sample(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S":[],"v":[]}\n{"S":[1],"v":[0.5]}\n{"S":[2],"v":[0.5]}\n')
        with pytest.raises(ValueError, match=":1: empty coalition"):
            learn_anonymous(2, eio.stream_samples(path))


_values = st.one_of(
    st.fractions(max_denominator=10**6),
    st.floats(),
    st.integers(-(10**9), 10**9),
    st.sampled_from([0.0, -0.0, 0, Fraction(0)]),
)


@st.composite
def _sample_sets(draw):
    """Anonymous draws, fractional draws, or records over a small value pool
    (so values repeat across records)."""
    kind = draw(st.sampled_from(["anon", "fhg", "pool"]))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**16))
    if kind == "anon":
        return draw_samples(random_anon(n, seed), UniformCoalitions(n), m, random.Random(seed))
    if kind == "fhg":
        return draw_samples(random_fhg(n, 0.5, seed), UniformCoalitions(n), m, random.Random(seed))
    pool = draw(st.lists(_values, min_size=1, max_size=5))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=m))
    return [
        SampleRecord(Coalition(mask), {i: draw(st.sampled_from(pool)) for i in members_of(mask)})
        for mask in masks
    ]


def _read_back(v):
    """What a sample file gives back for a written value: a Fraction stays
    exact, every other number comes back as a float."""
    return v if isinstance(v, Fraction) else float(v)


class TestSampleRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(_sample_sets(), st.integers(1, 4))
    def test_compact_layout_round_trips(self, tmp_path_factory, records, cap):
        path = tmp_path_factory.mktemp("rt") / "s.jsonl"
        # A tiny cap drives the memo past its limit on almost every example.
        with mock.patch.object(eio, "MEMO_CAP", cap):
            assert eio.write_samples(path, iter(records)) == len(records)
            back = list(eio.stream_samples(path))
        expected = [
            _pair_signature(r.coalition.mask, {i: _read_back(v) for i, v in r.member_values.items()})
            for r in records
        ]
        assert [_signature(r) for r in back] == expected

    @settings(max_examples=150, deadline=None)
    @given(_sample_sets(), st.integers(1, 4))
    def test_dict_keyed_layout_reads_as_before(self, tmp_path_factory, records, cap):
        text = dict_keyed_sample_lines((r.coalition.mask, r.member_values) for r in records)
        path = tmp_path_factory.mktemp("old") / "s.jsonl"
        path.write_text(text)
        with mock.patch.object(eio, "MEMO_CAP", cap):
            back = eio.read_samples(path)
        assert [_signature(r) for r in back] == [
            _pair_signature(mask, values) for mask, values in read_dict_keyed_samples(text)
        ]

    def test_more_distinct_floats_than_the_cap(self, tmp_path):
        rng = random.Random(4)
        records = [
            SampleRecord(Coalition.of(0, 1, 2), {i: rng.random() for i in range(3)})
            for _ in range(3000)
        ]
        records += records[:50]  # repeats after the memo has filled
        path = tmp_path / "s.jsonl"
        with mock.patch.object(eio, "MEMO_CAP", 256):
            eio.write_samples(path, records)
            back = eio.read_samples(path)
        assert [_signature(r) for r in back] == [_signature(r) for r in records]


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
