"""JSON interchange for games, partitions, distributions, samples, reports.

Agents and sizes are 1-based in every file format (matching the usual
human-facing convention) and 0-based in memory; the shift happens here and
nowhere else. Sample files are JSON-lines: one record per line with the
coalition and each member's value, exact rationals as "p/q" strings and
float values as JSON numbers.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

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


def write_samples(path, records) -> None:
    encode = json.JSONEncoder(default=str).encode  # a Fraction becomes "p/q"
    with open(path, "w") as fh:
        for rec in records:
            line = {
                "S": [i + 1 for i in rec.coalition.members()],
                "v": {str(i + 1): v for i, v in rec.member_values.items()},
            }
            fh.write(encode(line) + "\n")


def read_samples(path) -> list[SampleRecord]:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            coalition = Coalition.from_members(i - 1 for i in d["S"])
            values = {
                int(k) - 1: _as_fraction(v) if isinstance(v, str) else float(v)
                for k, v in d["v"].items()
            }
            records.append(SampleRecord(coalition, values))
    return records


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
