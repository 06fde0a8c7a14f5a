"""Performance assessment toolkit for bi-objective black-box optimizers.

The package measures optimizer performance on two-objective minimization
problems: each run maintains an archive of non-dominated solutions, the
archive is scored by a hypervolume/distance quality indicator in a
normalized objective space, and runtimes (evaluation counts) to a grid of
reference-based targets feed empirical cumulative distribution functions.
"""

from bibench.archive import Archive, InsertOutcome, recompute_from_scratch
from bibench.core import (
    NormalizedObjectives,
    ObjectiveVector,
    ProblemSpec,
    normalize,
    ulp_distance,
)
from bibench.indicator import Branch, IndicatorValue
from bibench.refset import ReferenceSet
from bibench.targets import RuntimeRecord, absolute_targets, precision_grid

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "Branch",
    "IndicatorValue",
    "InsertOutcome",
    "NormalizedObjectives",
    "ObjectiveVector",
    "ProblemSpec",
    "ReferenceSet",
    "RuntimeRecord",
    "absolute_targets",
    "normalize",
    "precision_grid",
    "recompute_from_scratch",
    "ulp_distance",
    "__version__",
]
