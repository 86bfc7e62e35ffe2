"""Epsilon-fractional core stability for hedonic games.

A partition is epsilon-fractionally core-stable when at most an epsilon
fraction of all coalitions (or epsilon probability mass under a sampling
distribution) would core-block it. This package provides the two game models
the notion is studied on, ratio-bounded coalition distributions, exact
learning of valuations from sampled coalitions, partition constructions with
quantified blocking floors, and exact plus Monte-Carlo verification.
"""

from .distributions import (
    AdversarialBounded,
    FamilyUniform,
    SizeInterval,
    SizeTilted,
    UniformCoalitions,
    bartlett_bounds,
    delta_bound,
    mean_size,
    mean_size_bounds,
    size_interval,
)
from .errors import (
    EmptyIntervalError,
    EpsfcError,
    GuardError,
    InconsistentSampleError,
    LearningError,
    PartitionError,
    UnboundedLambdaError,
    UnderdeterminedError,
)
from .games import (
    AnonymousHG,
    Coalition,
    Partition,
    SimpleFHG,
    check_ordering,
    check_single_peaked,
)
from .instances import (
    EmptyCoreSearch,
    adversarial_family,
    extend_anon_sp,
    extend_fhg,
    find_empty_core_sp,
    random_anon,
    random_anon_sp,
    random_fhg,
    random_partition,
)
from .learning import (
    LearnedAnonymous,
    SampleRecord,
    anon_sample_size,
    default_alpha,
    draw_samples,
    estimate_interval,
    fhg_sample_size,
    iter_samples,
    learn_anonymous,
    learn_fhg,
    mean_confidence_m,
)
from .stabilizers import (
    AnonStabilizerTrace,
    FhgStabilizerTrace,
    FhgThresholds,
    choose_epsilon_floor,
    stabilize_anonymous,
    stabilize_fhg,
    stabilize_single_peaked,
)
from .verification import (
    BlockingReport,
    McEstimate,
    SpLemmaReport,
    audit_green_anonymous,
    certify_empty_core,
    check_sp_lemmas,
    exact_blocking,
    exact_blocking_mass,
    find_core_stable_partition,
    gr_decomposition,
    has_blocker,
    is_individually_rational,
    iter_set_partitions,
    mc_blocking,
)

__version__ = "0.1.0"
