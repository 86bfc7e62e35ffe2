"""JSON interchange for games, partitions, distributions, samples, reports.

Agents and sizes are 1-based in every file format (matching the usual
human-facing convention) and 0-based in memory; the shift happens here and
nowhere else.

Sample files are JSON-lines, one record per line:
``{"S":[1,3,5],"v":["1/3","2/3",0.5]}`` lists the coalition's agents in
ascending order and then each member's value in that order. Exact rationals
are "p/q" strings and read back as the same Fractions; floats are JSON
numbers and read back bit for bit. The older layout, with values keyed by
agent (``"v": {"1": ...}``), still reads. Samples stream both ways: the
writer consumes any iterable and the reader yields one record per line.
Both build a repeated value (a float's text, a parsed float or Fraction)
once per call, in a memo of bounded size.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .distributions import (
    AdversarialBounded,
    FamilyUniform,
    SizeTilted,
    UniformCoalitions,
    _as_fraction,
)
from .games import AnonymousHG, Coalition, Partition, SimpleFHG
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
    kind = d.get("kind")
    n = d.get("n")
    if kind == "fhg":
        game = SimpleFHG.from_matrix(d["adj"])
    elif kind == "anon":
        game = AnonymousHG(d["vals"])
    else:
        raise ValueError(f"unknown game kind {kind!r}")
    if n is not None and game.n != n:
        raise ValueError(f"declared n={n} but found {game.n} rows")
    ordering = d.get("sp_ordering")
    return GameFile(
        game=game,
        sp_ordering=None if ordering is None else tuple(ordering),
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


def partition_from_dict(d: dict, n: int) -> Partition:
    return Partition.from_blocks(
        [[i - 1 for i in block] for block in d["blocks"]], n
    )


def save_partition(path, partition: Partition) -> None:
    Path(path).write_text(json.dumps(partition_to_dict(partition)) + "\n")


def load_partition(path, n: int) -> Partition:
    return partition_from_dict(json.loads(Path(path).read_text()), n)


def distribution_from_dict(d: dict, n: int):
    """Bind a distribution spec to an agent count and build it."""
    kind = d.get("kind")
    if kind == "uniform":
        return UniformCoalitions(n)
    if kind == "size_tilted":
        return SizeTilted(n, d["g"])
    if kind == "family":
        support = [Coalition.from_members(i - 1 for i in c) for c in d["support"]]
        return FamilyUniform(support, n=n)
    if kind == "adversarial":
        family = [Coalition.from_members(i - 1 for i in c) for c in d["family"]]
        return AdversarialBounded(family, n, d["lambda"])
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
        # A zero is never kept: 0.0 == -0.0, but they print differently.
        if key and len(self) < MEMO_CAP:
            self[key] = value
        return value


def write_samples(path, records) -> int:
    """Write records as JSON lines; returns how many were written.

    Each line is ``{"S":[agents],"v":[values]}``: 1-based agents ascending,
    then each member's value in the same order. A float is written as
    ``json.dumps`` writes it, its text built once per distinct value; a
    Fraction is a "p/q" string; any other value is written as ``json.dumps``
    writes it with ``default=str``.
    """
    encode = json.JSONEncoder(default=str).encode
    floats = _Memo(encode)
    count = 0
    with open(path, "w") as fh:
        for rec in records:
            members = rec.coalition.members()
            texts = [
                floats[v] if type(v) is float else f'"{v}"' if type(v) is Fraction else encode(v)
                for v in map(rec.member_values.__getitem__, members)
            ]
            fh.write(
                '{"S":[%s],"v":[%s]}\n'
                % (",".join([str(i + 1) for i in members]), ",".join(texts))
            )
            count += 1
    return count


def stream_samples(path) -> Iterator[SampleRecord]:
    """Yield the records of a sample file one line at a time.

    Reads both line layouts: values listed in member order, and the older
    ``"v": {"agent": value}`` objects. A "p/q" string reads back as an exact
    Fraction and every other number as a float. Raises ValueError naming
    ``path:line`` for a line that is not a JSON object with "S" and "v", an
    empty or duplicated agent list, an agent id below 1, or a value list
    whose length differs from the agent list.
    """
    floats = _Memo(float)
    decode = json.JSONDecoder(parse_float=floats.__getitem__).decode
    fractions = _Memo(_as_fraction)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                d = decode(line)
                ids, raw = d["S"], d["v"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: not a sample record: {exc!r}") from None
            if not ids:
                raise ValueError(f"{path}:{lineno}: empty coalition")
            mask = 0
            for a in ids:
                if type(a) is not int or a < 1:
                    raise ValueError(f"{path}:{lineno}: agent id {a!r} is not an integer >= 1")
                mask |= 1 << a - 1
            if mask.bit_count() != len(ids):
                raise ValueError(f"{path}:{lineno}: duplicate agent ids in {ids}")
            if type(raw) is dict:
                items = ((int(k), x) for k, x in raw.items())
            elif len(raw) != len(ids):
                raise ValueError(
                    f"{path}:{lineno}: {len(raw)} values for {len(ids)} agents"
                )
            else:
                items = zip(ids, raw)
            values = {
                a - 1: x if type(x) is float else fractions[x] if type(x) is str else float(x)
                for a, x in items
            }
            try:
                record = SampleRecord(Coalition(mask), values)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield record


def read_samples(path) -> list[SampleRecord]:
    return list(stream_samples(path))


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
