import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsfc import (
    AdversarialBounded,
    AnonymousHG,
    Coalition,
    FamilyUniform,
    Partition,
    SampleRecord,
    SizeTilted,
    UniformCoalitions,
    draw_samples,
    learn_anonymous,
)
from epsfc import io as eio
from epsfc.instances import random_anon, random_anon_sp, random_fhg, random_partition
from oracles import members_of, reference_write_samples


class TestGameRoundtrip:
    def test_fhg(self, tmp_path):
        g = random_fhg(7, 0.5, 3)
        path = tmp_path / "g.json"
        eio.save_game(path, g, provenance={"kind": "fhg-random", "seed": 3})
        loaded = eio.load_game(path)
        assert loaded.game == g
        assert loaded.provenance["seed"] == 3

    def test_anonymous_values_bit_exact(self, tmp_path):
        g, ordering = random_anon_sp(6, 9)
        path = tmp_path / "g.json"
        eio.save_game(path, g, sp_ordering=ordering)
        loaded = eio.load_game(path)
        assert loaded.game == g  # exact float round-trip through repr
        assert loaded.sp_ordering == ordering

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
        p = Partition([[0, 2], [1]], 3)
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

    @pytest.mark.parametrize("block", [[1, 4], [0, 1], [1, 10**7], [1.0, 2], [1, 1]])
    def test_ids_outside_one_to_n_rejected(self, block):
        others = [i for i in (1, 2, 3) if i not in block]
        repeat = block == [1, 1]
        words = r"ids \[1, 1\] repeat" if repeat else r"id .* is not an integer in \[1, 3\]"
        with pytest.raises(ValueError, match=f'^partition: "blocks" .*: agent {words}'):
            eio.partition_from_dict({"blocks": [block, others]}, 3)


class TestDistributionSpecs:
    def test_uniform(self):
        d = eio.distribution_from_dict({"kind": "uniform"}, 5)
        assert d.n == 5 and d.lambda_bound() == 1

    def test_size_tilted(self):
        d = eio.distribution_from_dict({"kind": "size_tilted", "g": [2, 1, 1]}, 3)
        assert d.lambda_bound() == 2
        assert eio.distribution_from_dict(eio.distribution_to_dict(d), 3).g == d.g

    def test_fraction_parameters_roundtrip_exactly(self):
        tilted = eio.distribution_from_dict(
            {"kind": "size_tilted", "g": ["1/3", 1, 1, 1]}, 4
        )
        assert tilted.g == (Fraction(1, 3), 1, 1, 1)
        assert eio.distribution_to_dict(tilted)["g"] == ["1/3", 1, 1, 1]
        spec = json.loads(json.dumps(eio.distribution_to_dict(tilted)))
        back = eio.distribution_from_dict(spec, 4)
        assert back.g == tilted.g
        assert back.lambda_bound() == 3
        adv = AdversarialBounded([Coalition.of(0)], 4, Fraction(7, 3))
        assert eio.distribution_to_dict(adv)["lambda"] == "7/3"
        spec = json.loads(json.dumps(eio.distribution_to_dict(adv)))
        back = eio.distribution_from_dict(spec, 4)
        assert (back.lam, back.family_mass, back.family) == (adv.lam, adv.family_mass, adv.family)

    def test_plain_numbers_still_read(self):
        d = eio.distribution_from_dict({"kind": "size_tilted", "g": [0.5, 1, 2]}, 3)
        assert d.g == (Fraction(1, 2), 1, 2)

    def test_family_one_based(self):
        d = eio.distribution_from_dict({"kind": "family", "support": [[1], [2, 3]]}, 3)
        assert {c.mask for c in d.family} == {0b001, 0b110}
        assert eio.distribution_to_dict(d)["support"] == [[1], [2, 3]]

    def test_adversarial(self):
        spec = {"kind": "adversarial", "family": [[1], [1, 2]], "lambda": 3}
        d = eio.distribution_from_dict(spec, 4)
        assert d.lam == 3
        assert d.family_mass == Fraction(3, 2 * 2 + 2**4 - 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            eio.distribution_from_dict({"kind": "gaussian"}, 3)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "family", "support": [[1], [2, 4]]},
            {"kind": "family", "support": [[10**7]]},
            {"kind": "adversarial", "family": [[0]], "lambda": 2},
            {"kind": "adversarial", "family": [[1, 4]], "lambda": 2},
            {"kind": "family", "support": [[1, 1], [2]]},
        ],
    )
    def test_ids_outside_one_to_n_rejected(self, spec):
        repeat = spec["kind"] == "family" and spec["support"][0] == [1, 1]
        words = r"ids \[1, 1\] repeat" if repeat else r"id .* is not an integer in \[1, 3\]"
        with pytest.raises(ValueError, match=f"agent {words}"):
            eio.distribution_from_dict(spec, 3)

    @pytest.mark.parametrize(
        "dist",
        [
            UniformCoalitions(4),
            SizeTilted(4, ["1/3", 1, 2.5, 1]),
            FamilyUniform([[0], [1, 3], [0, 1, 2, 3]], 4),
            AdversarialBounded([[0, 2], [3]], 4, Fraction(7, 3)),
        ],
        ids=repr,
    )
    def test_spec_round_trips_through_json(self, dist):
        text = json.dumps(eio.distribution_to_dict(dist))
        back = eio.distribution_from_dict(json.loads(text), 4)
        assert type(back) is type(dist)
        assert back.size_pmf() == dist.size_pmf()
        assert back.family == dist.family


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
            assert back.values == orig.values

    def test_fraction_values_written_exactly(self, tmp_path):
        rec = SampleRecord(Coalition.of(0, 1, 2), (Fraction(1, 3), Fraction(0), 0.25))
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, [rec])
        assert json.loads(path.read_text())["v"] == ["1/3", "0", 0.25]
        assert eio.read_samples(path)[0].values == rec.values

    def test_one_based_agents_in_file(self, tmp_path):
        rec = SampleRecord(Coalition.of(0, 4), (0.5, 0.0))
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
        rec = SampleRecord(Coalition.of(4, 0, 2), (Fraction(2, 3), 3, 0.5))
        path = tmp_path / "s.jsonl"
        assert eio.write_samples(path, iter([rec, rec])) == 2
        assert path.read_text() == '{"S":[1,3,5],"v":["2/3",3,0.5]}\n' * 2

    def test_zeros_keep_their_sign(self, tmp_path):
        records = [SampleRecord(Coalition.of(0, 1), (0.0, -0.0))] * 2
        records.append(SampleRecord(Coalition.of(0, 1), (-0.0, 0.0)))
        path = tmp_path / "s.jsonl"
        eio.write_samples(path, records)
        assert path.read_text().splitlines() == [
            '{"S":[1,2],"v":[0.0,-0.0]}',
            '{"S":[1,2],"v":[0.0,-0.0]}',
            '{"S":[1,2],"v":[-0.0,0.0]}',
        ]
        assert [_signature(r) for r in eio.read_samples(path)] == [_signature(r) for r in records]

    def test_nan_value_is_refused_by_the_writer(self, tmp_path):
        game = AnonymousHG([[math.nan, 0.5], [0.3, 0.7]])
        c = Coalition(0b01)
        path = tmp_path / "s.jsonl"
        with pytest.raises(ValueError, match=r"^record 1: agent 1's value is NaN"):
            eio.write_samples(path, [SampleRecord(c, game.values_of(c))])
        good = SampleRecord(Coalition.of(0, 1), (0.5, 0.25))
        bad = SampleRecord(Coalition.of(0, 2, 3), (0.5, Fraction(1, 3), math.nan))
        with pytest.raises(ValueError, match=r"^record 3: agent 4's value is NaN"):
            eio.write_samples(path, [good, good, bad])

    def test_infinities_are_written_and_read_back(self, tmp_path):
        rec = SampleRecord(Coalition.of(0, 1), (math.inf, -math.inf))
        path = tmp_path / "s.jsonl"
        assert eio.write_samples(path, [rec, rec]) == 2
        assert path.read_text() == '{"S":[1,2],"v":[Infinity,-Infinity]}\n' * 2
        assert [r.values for r in eio.read_samples(path)] == [rec.values] * 2

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
        assert next(stream).values == (0.5,)
        with pytest.raises(ValueError):
            next(stream)
        path.write_text('{"S":[1],"v":[0.5]}\n\n{"S":[2],"v":[1]}\n')
        records = eio.read_samples(path)
        assert isinstance(records, list) and len(records) == 2
        assert records[1] == SampleRecord(Coalition.of(1), (1.0,))


def _pair_signature(mask, values):
    """Coalition and values with each value's type and exact text, so that
    1/2 and 0.5, or 0.0 and -0.0, do not compare equal."""
    return mask, [(type(v).__name__, repr(v)) for v in values]


def _signature(rec):
    return _pair_signature(rec.coalition.mask, rec.values)


class TestMalformedSampleLines:
    GOOD = '{"S":[1,2],"v":[0.5,0.25]}\n'

    @pytest.mark.parametrize(
        "line, words",
        [
            ('{"S":[],"v":[]}', "empty coalition"),
            ('{"S": [], "v": {}}', '"S" and "v" must be lists'),
            ('{"S":0,"v":[]}', '"S" and "v" must be lists'),
            ('{"S":{},"v":[]}', '"S" and "v" must be lists'),
            ('{"S":[1,1],"v":[0.5,0.5]}', "duplicate agent ids"),
            ('{"S":[2,3,2],"v":[0.5,0.5,0.5]}', "duplicate agent ids"),
            ('{"S":[0,2],"v":[0.5,0.5]}', "agent id 0"),
            ('{"S":[-1],"v":[0.5]}', "agent id -1"),
            ('{"S":[1.0],"v":[0.5]}', "agent id 1.0"),
            ('{"S":["1"],"v":[0.5]}', "agent id '1'"),
            ('{"S":[1,2],"v":[0.5]}', "1 values for 2 agents"),
            ('{"S":[1],"v":[0.5,0.5]}', "2 values for 1 agents"),
            ('{"S": [1, 2], "v": {"1": 0.5}}', '"S" and "v" must be lists'),
            ('{"S":[1],"v":[0.5]', "not a sample record"),
            ('{"S":[1]}', "not a sample record: KeyError('v')"),
            ("[1, 2]", "not a sample record"),
            ('{"S":5,"v":[0.5]}', '"S" and "v" must be lists'),
            ('{"S":[1],"v":5}', '"S" and "v" must be lists'),
            ('{"S":[1],"v":[null]}', "not every value in [None] is a number"),
            ('{"S":[1],"v":[[1]]}', "not every value in [[1]] is a number"),
            ('{"S":[1],"v":[{}]}', "not every value in [{}] is a number"),
            ('{"S":[1],"v":[true]}', "not every value in [True] is a number"),
            ('{"S":[1,2],"v":[0.5,"1/0"]}', "not every value in [0.5, '1/0'] is a number"),
            ('{"S":[1],"v":["abc"]}', "not every value in ['abc'] is a number"),
            ('{"S":[1,2],"v":[NaN,0.5]}', "not a sample record: ValueError('NaN is not a sample value')"),
        ],
    )
    def test_names_file_and_line(self, tmp_path, line, words):
        path = tmp_path / "s.jsonl"
        path.write_text(self.GOOD + line + "\n" + self.GOOD)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: ") as info:
            eio.read_samples(path)
        assert words in str(info.value)

    def test_unordered_agents_keep_their_own_values(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S":[3,1],"v":[0.5,0.25]}\n')
        learned = learn_anonymous(3, eio.stream_samples(path))
        assert (learned.value_of_size(0, 2), learned.value_of_size(2, 2)) == (0.25, 0.5)
        back = tmp_path / "back.jsonl"
        eio.write_samples(back, eio.stream_samples(path))
        assert back.read_text() == '{"S":[1,3],"v":[0.25,0.5]}\n'

    def test_unordered_line_reads_in_member_order(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S":[5,2,4],"v":["1/3",0.5,2]}\n{"S":[1,2],"v":[0.5,"1/4"]}\n')
        assert eio.read_samples(path) == [
            SampleRecord(Coalition.of(1, 3, 4), (0.5, 2.0, Fraction(1, 3))),
            SampleRecord(Coalition.of(0, 1), (0.5, Fraction(1, 4))),
        ]

    def test_infinities_read_as_floats(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S":[1,2],"v":[Infinity,-Infinity]}\n')
        (rec,) = eio.read_samples(path)
        assert rec.values == (math.inf, -math.inf)

    @pytest.mark.parametrize("agent", [4, 10**7])
    def test_agent_past_n_rejected_before_it_is_shifted(self, tmp_path, agent):
        path = tmp_path / "s.jsonl"
        path.write_text(self.GOOD + '{"S":[1,%d],"v":[0.5,0.5]}\n' % agent)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: agent id {agent} "):
                eio.read_samples(path, n=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000  # a mask with bit 10**7 set alone takes 1.25 MB
        assert len(eio.read_samples(path, n=agent)) == 2

    def test_empty_coalition_is_not_counted_as_a_sample(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"S":[],"v":[]}\n{"S":[1],"v":[0.5]}\n{"S":[2],"v":[0.5]}\n')
        with pytest.raises(ValueError, match=":1: empty coalition"):
            learn_anonymous(2, eio.stream_samples(path))


# Every value a sample file holds; the writer refuses NaN.
_values = st.one_of(
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False),
    st.integers(-(10**9), 10**9),
    st.sampled_from([0.0, -0.0, 0, Fraction(0), math.inf, -math.inf]),
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
        SampleRecord(Coalition(mask), tuple(draw(st.sampled_from(pool)) for _ in members_of(mask)))
        for mask in masks
    ]


def _read_back(v):
    """What a sample file gives back for a written value: a Fraction stays
    exact, every other number comes back as a float."""
    return v if isinstance(v, Fraction) else float(v)


_LEADS = st.sampled_from(["", "", " ", "\t", "x"])
_TRAILS = st.sampled_from(["", "", " ", " \t", "x", " 1", "}", "\r"])
_ENDS = st.sampled_from(["\n", "\n", "\r\n"])


def _stream_outcome(path):
    """The records ``stream_samples`` yields, and its message if it stops on a line."""
    records = []
    try:
        for rec in eio.stream_samples(path):
            records.append(_signature(rec))
    except ValueError as exc:
        return records, str(exc)
    return records, None


def _decode_outcome(path):
    """The same, with each line decoded whole by ``JSONDecoder.decode``. Every
    line holds a record the writer wrote, so a line decodes exactly when the
    reader should take it."""
    decode = json.JSONDecoder(parse_constant=eio._sample_constant).decode
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                d = decode(line)
            except ValueError as exc:
                return records, f"{path}:{lineno}: not a sample record: {exc!r}"
            pairs = sorted(zip(d["S"], d["v"]))
            values = [Fraction(x) if type(x) is str else float(x) for _, x in pairs]
            records.append(_pair_signature(sum(1 << a - 1 for a in d["S"]), values))
    return records, None


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
            _pair_signature(r.coalition.mask, map(_read_back, r.values))
            for r in records
        ]
        assert [_signature(r) for r in back] == expected

    @settings(max_examples=150, deadline=None)
    @given(_sample_sets(), st.sampled_from([1, 3, eio.MEMO_CAP]))
    def test_writer_bytes_match_the_reference_writer(self, tmp_path_factory, records, cap):
        folder = tmp_path_factory.mktemp("wb")
        with mock.patch.object(eio, "MEMO_CAP", cap):
            assert eio.write_samples(folder / "a.jsonl", iter(records)) == len(records)
        assert reference_write_samples(folder / "b.jsonl", records) == len(records)
        assert (folder / "a.jsonl").read_bytes() == (folder / "b.jsonl").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(_sample_sets(), st.data())
    def test_edge_lines_read_as_a_full_decode_reads_them(self, tmp_path_factory, records, data):
        folder = tmp_path_factory.mktemp("edge")
        eio.write_samples(folder / "clean.jsonl", records)
        lines = [*(folder / "clean.jsonl").read_text().splitlines(), '{"S":[1],"v":["1/2"]}']
        text = "".join(
            data.draw(_LEADS) + line + data.draw(_TRAILS) + data.draw(_ENDS) for line in lines
        )
        if data.draw(st.booleans()):
            text = text.rstrip("\n")  # a last line with no newline
        path = folder / "edge.jsonl"
        path.write_bytes(text.encode())
        assert _stream_outcome(path) == _decode_outcome(path)

    def test_more_distinct_floats_than_the_cap(self, tmp_path):
        rng = random.Random(4)
        records = [
            SampleRecord(Coalition.of(0, 1, 2), (rng.random(), rng.random(), rng.random()))
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
