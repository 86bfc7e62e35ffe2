"""JSON interchange for games, partitions, distributions, samples, reports.

Agents and sizes are 1-based in every file format (matching the usual
human-facing convention) and 0-based in memory; the readers and writers here
shift them, and ``cli`` shifts the agent a learning or single-peaked error
names. Each input has one accepted shape, and a reader refuses any other
with a ValueError naming the field (or, for samples, ``path:line``).

Sample files are JSON-lines, one record per line:
``{"S":[1,3,5],"v":["1/3","2/3",0.5]}`` lists the coalition's agents in
ascending order and then each member's value in that order. A record in
memory is that line: the coalition and the tuple of its values in ascending
member order. A line whose "S" is not ascending is still read, each value
paired with its own agent. Exact rationals are "p/q" strings and read back
as the same Fractions; floats are JSON numbers and read back bit for bit;
the writer refuses NaN, which the reader refuses too, and writes Infinity.
Samples stream both ways: the writer consumes any iterable and the reader
yields one record per line. Both build a repeated value (a float's or an
agent id's text, a parsed float or Fraction) once per call, in a memo of
bounded size. The reader scans each line with the JSON decoder's scanner
directly and falls back to the full decode for any line that is not one
value followed by its newline, so both routes accept the same lines with the
same values and refuse the rest with the same messages.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .distributions import AdversarialBounded, FamilyUniform, SizeTilted, UniformCoalitions
from .games import AnonymousHG, Coalition, Partition, SimpleFHG, mask_of
from .learning import SampleRecord

__all__ = [
    "GameFile",
    "game_to_dict",
    "game_from_dict",
    "save_game",
    "load_game",
    "partition_to_dict",
    "partition_from_dict",
    "save_partition",
    "load_partition",
    "distribution_to_dict",
    "distribution_from_dict",
    "load_distribution",
    "write_samples",
    "stream_samples",
    "read_samples",
    "to_jsonable",
    "save_json",
]


@dataclasses.dataclass(frozen=True)
class GameFile:
    """A deserialized game plus optional side information from the file."""

    game: SimpleFHG | AnonymousHG
    sp_ordering: tuple[int, ...] | None = None
    provenance: dict | None = None


def _field(d, key: str, what: str, build=None):
    """``build(d[key])``, or ``d[key]`` with no ``build``; a missing field or a
    value ``build`` cannot take (a TypeError, "1/0", a ValueError from a
    constructor) is a ValueError naming it."""
    try:
        return d[key] if build is None else build(d[key])
    except (KeyError, TypeError, ArithmeticError, ValueError) as exc:
        raise ValueError(f'{what}: "{key}" is missing or malformed: {exc}') from None


# What one number of a file may be: a test on the JSON value, and its name.
_BIT = (lambda v: type(v) is int and v in (0, 1), "the int 0 or 1")
_REAL = (lambda v: type(v) in (int, float) and v == v, "an int or a float other than NaN")
_RATIO = (lambda v: type(v) is not bool, 'a number or a "p/q" string')


def _each(values, ok, kinds: str):
    """``values`` if ``ok`` holds for each, else a TypeError for ``_field`` to report."""
    for v in values:
        if not ok(v):
            raise TypeError(f"{v!r} is not {kinds}")
    return values


def _adjacency_rows(rows):
    """``rows`` once each is 0/1 with a 0 on the diagonal; a self-loop names its 1-based agent."""
    for i, row in enumerate(rows):
        if _each(row, *_BIT)[i : i + 1] == [1]:
            raise ValueError(f"agent {i + 1} points to itself")
    return rows


def _fraction_to_json(x: Fraction):
    """A JSON value that ``Fraction`` reads back as ``x``: an int or "p/q"."""
    return x.numerator if x.denominator == 1 else str(x)


def game_to_dict(game, sp_ordering=None, provenance=None) -> dict:
    if isinstance(game, SimpleFHG):
        d = {"kind": "fhg", "n": game.n, "adj": game.matrix()}
    elif isinstance(game, AnonymousHG):
        d = {"kind": "anon", "n": game.n, "vals": game.table()}
    else:
        raise TypeError(f"cannot serialize {type(game).__name__}")
    if sp_ordering is not None:
        d["sp_ordering"] = list(sp_ordering)
    if provenance is not None:
        d["provenance"] = provenance
    return d


def game_from_dict(d: dict) -> GameFile:
    kind = _field(d, "kind", "game")
    if kind == "fhg":
        game = _field(d, "adj", "game", lambda rows: SimpleFHG.from_matrix(_adjacency_rows(rows)))
    elif kind == "anon":
        game = _field(d, "vals", "game", lambda rows: AnonymousHG([_each(r, *_REAL) for r in rows]))
    else:
        raise ValueError(f"unknown game kind {kind!r}")
    n = d.get("n")
    if n is not None and game.n != n:
        raise ValueError(f"declared n={n} but found {game.n} rows")
    return GameFile(
        game=game,
        sp_ordering=_field(d, "sp_ordering", "game", tuple) if "sp_ordering" in d else None,
        provenance=d.get("provenance"),
    )


def save_game(path, game, sp_ordering=None, provenance=None) -> None:
    Path(path).write_text(
        json.dumps(game_to_dict(game, sp_ordering, provenance), indent=2) + "\n"
    )


def load_game(path) -> GameFile:
    return game_from_dict(json.loads(Path(path).read_text()))


def partition_to_dict(partition: Partition) -> dict:
    return {"blocks": [[i + 1 for i in block.members()] for block in partition.blocks]}


def _agents(lists, n: int) -> list[list[int]]:
    """The 0-based agents of each list of 1-based ids; every id is checked to
    lie in [1, n] before any mask is built from it, and none to repeat."""
    for ids in lists:
        for a in ids:
            if type(a) is not int or not 1 <= a <= n:
                raise ValueError(f"agent id {a!r} is not an integer in [1, {n}]")
        if len(set(ids)) != len(ids):
            raise ValueError(f"agent ids {ids} repeat an agent")
    return [[a - 1 for a in ids] for ids in lists]


def _cover(blocks: list[list[int]], n: int) -> list[list[int]]:
    """``blocks`` once they cover agents [0, n) once each; errors name agents 1-based."""
    seen = 0
    for mask in map(mask_of, blocks):
        if not mask:
            raise ValueError("a block is empty")
        if seen & mask:
            raise ValueError(f"agent {(seen & mask).bit_length()} is in two blocks")
        seen |= mask
    if seen != (1 << n) - 1:
        raise ValueError(f"agent {(~seen & seen + 1).bit_length()} is in no block")
    return blocks


def partition_from_dict(d: dict, n: int) -> Partition:
    return Partition(_field(d, "blocks", "partition", lambda b: _cover(_agents(b, n), n)), n)


def save_partition(path, partition: Partition) -> None:
    Path(path).write_text(json.dumps(partition_to_dict(partition)) + "\n")


def load_partition(path, n: int) -> Partition:
    return partition_from_dict(json.loads(Path(path).read_text()), n)


def distribution_to_dict(dist) -> dict:
    """The spec that ``distribution_from_dict`` reads back as ``dist``."""
    if isinstance(dist, UniformCoalitions):
        return {"kind": "uniform"}
    if isinstance(dist, SizeTilted):
        return {"kind": "size_tilted", "g": [_fraction_to_json(w) for w in dist.g]}
    if not isinstance(dist, (FamilyUniform, AdversarialBounded)):
        raise TypeError(f"cannot serialize {type(dist).__name__}")
    family = [[i + 1 for i in c.members()] for c in dist.family]
    if isinstance(dist, FamilyUniform):
        return {"kind": "family", "support": family}
    return {"kind": "adversarial", "family": family, "lambda": _fraction_to_json(dist.lam)}


def distribution_from_dict(d: dict, n: int):
    """Bind a distribution spec to an agent count and build it."""
    kind = _field(d, "kind", "distribution")
    if kind == "uniform":
        return UniformCoalitions(n)
    if kind == "size_tilted":
        return _field(d, "g", "distribution", lambda g: SizeTilted(n, _each(g, *_RATIO)))
    if kind == "family":
        return _field(d, "support", "distribution", lambda f: FamilyUniform(_agents(f, n), n))
    if kind == "adversarial":
        # the family is checked under a ratio bound of 1, so only its own faults name it
        family = _field(d, "family", "distribution",
                        lambda f: AdversarialBounded(_agents(f, n), n, 1).family)
        return _field(d, "lambda", "distribution",
                      lambda lam: AdversarialBounded(family, n, *_each([lam], *_RATIO)))
    raise ValueError(f"unknown distribution kind {kind!r}")


def load_distribution(path, n: int):
    return distribution_from_dict(json.loads(Path(path).read_text()), n)


MEMO_CAP = 1 << 16


class _Memo(dict):
    """A per-call cache of ``make(key)`` that stops growing at MEMO_CAP keys,
    so memory stays bounded on files whose values never repeat."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        # A float zero is never kept: 0.0 == -0.0, but they print differently.
        if (key or type(key) is not float) and len(self) < MEMO_CAP:
            self[key] = value
        return value


def write_samples(path, records) -> int:
    """Write records as JSON lines; returns how many were written.

    Each line is ``{"S":[agents],"v":[values]}``: 1-based agents ascending,
    then the record's ``values`` as they stand. A float is written as
    ``json.dumps`` writes it, its text built once per distinct value; a
    Fraction is a "p/q" string; any other value is written as ``json.dumps``
    writes it with ``default=str``. An agent's text is built once per call.
    A NaN value is refused with a ValueError naming its record (counted
    from 1) and its 1-based agent, since no reader takes NaN back; the
    records before it are already written.
    """
    encode = json.JSONEncoder(default=str).encode
    floats = _Memo(encode)
    ids = _Memo(lambda i: str(i + 1))
    count = 0
    with open(path, "w") as fh:
        for count, rec in enumerate(records, 1):
            members = rec.coalition.members()
            texts = [
                floats[v] if type(v) is float else f'"{v}"' if type(v) is Fraction else encode(v)
                for v in rec.values
            ]
            if "NaN" in texts:  # only a float NaN encodes to a bare NaN
                raise ValueError(
                    f"record {count}: agent {members[texts.index('NaN')] + 1}'s value is NaN, "
                    "which a sample file cannot hold"
                )
            fh.write(
                '{"S":[%s],"v":[%s]}\n'
                % (",".join(map(ids.__getitem__, members)), ",".join(texts))
            )
    return count


def _sample_constant(name: str) -> float:
    if name == "NaN":
        raise ValueError("NaN is not a sample value")
    return float(name)


def stream_samples(path, *, n: int | None = None) -> Iterator[SampleRecord]:
    """Yield the records of a sample file one line at a time.

    A "p/q" string reads back as an exact Fraction and every other JSON
    number as a float, and the values come in ascending member order.
    Raises ValueError naming ``path:line`` for a line that is not a JSON
    object with "S" and "v", an "S" or "v" that is not a list, an "S" that
    is empty or repeats an agent, an agent id below 1 (or above ``n``, when
    given: the id is checked before it is shifted into a mask), a "v" not as
    long as "S", a NaN, or a value that is not a number or
    a "p/q" string (null, true, a list, "1/0"). Infinity and -Infinity read
    as floats.
    """
    top = math.inf if n is None else n
    span = ">= 1" if n is None else f"in [1, {n}]"
    floats = _Memo(float)
    decoder = json.JSONDecoder(parse_float=floats.__getitem__, parse_constant=_sample_constant)
    scan, decode = decoder.scan_once, decoder.decode
    fractions = _Memo(Fraction)
    parse = {str: fractions.__getitem__, int: float}  # by JSON type; no null, true, list
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                # The scan alone decides a line that is one JSON value and its
                # newline, and raises what the full decode would on a line that
                # starts a malformed value; any other line gets the full
                # decode, which accepts or refuses it with its own message.
                try:
                    d, end = scan(line, 0)
                except StopIteration:
                    d = decode(line)
                else:
                    if line[end:] not in ("\n", ""):
                        d = decode(line)
                ids, raw = d["S"], d["v"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: not a sample record: {exc!r}") from None
            if type(ids) is not list or type(raw) is not list:
                raise ValueError(f'{path}:{lineno}: "S" and "v" must be lists')
            if not ids:
                raise ValueError(f"{path}:{lineno}: empty coalition")
            mask = 0
            for a in ids:
                if type(a) is not int or a < 1 or a > top:
                    raise ValueError(f"{path}:{lineno}: agent id {a!r} is not an integer {span}")
                mask |= 1 << a - 1
            if mask.bit_count() != len(ids):
                raise ValueError(f"{path}:{lineno}: duplicate agent ids in {ids}")
            if len(raw) != len(ids):
                raise ValueError(f"{path}:{lineno}: {len(raw)} values for {len(ids)} agents")
            try:
                values = tuple([x if type(x) is float else parse[type(x)](x) for x in raw])
            except (KeyError, ValueError, ArithmeticError):
                raise ValueError(f"{path}:{lineno}: not every value in {raw} is a number") from None
            if ids != sorted(ids):  # pair each value with its agent, in member order
                values = tuple([x for _, x in sorted(zip(ids, values))])
            yield SampleRecord(Coalition(mask), values)


def read_samples(path, *, n: int | None = None) -> list[SampleRecord]:
    return list(stream_samples(path, n=n))


def to_jsonable(obj):
    """Best-effort conversion of report/trace objects to JSON-safe values."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator, "float": float(obj)}
    if isinstance(obj, Coalition):
        return [i + 1 for i in obj.members()]
    if isinstance(obj, Partition):
        return partition_to_dict(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return obj


def save_json(path, obj) -> None:
    Path(path).write_text(json.dumps(to_jsonable(obj), indent=2) + "\n")
