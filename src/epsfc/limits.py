"""Size guards for exhaustive enumeration.

Subset enumeration costs O(2^n) and set-partition enumeration grows with the
Bell numbers, so both sit behind explicit limits. Setting the environment
variable ``EPSFC_MAX_N`` overrides both limits at once; the defaults are 24
for subsets and 12 for set partitions.
"""

import os

from .errors import GuardError

ENV_VAR = "EPSFC_MAX_N"
DEFAULT_SUBSET_GUARD = 24
DEFAULT_BELL_GUARD = 12


def _check_guard(n: int, default: int, what: str) -> None:
    raw = os.environ.get(ENV_VAR)
    try:
        limit = default if raw is None else int(raw)
    except ValueError as exc:
        raise GuardError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if n > limit:
        raise GuardError(f"{what} needs n <= {limit}, got n = {n} (set {ENV_VAR} to raise)")


def check_subset_guard(n: int, what: str = "coalition enumeration") -> None:
    _check_guard(n, DEFAULT_SUBSET_GUARD, what)


def check_bell_guard(n: int, what: str = "set-partition enumeration") -> None:
    _check_guard(n, DEFAULT_BELL_GUARD, what)
