"""gaplab: a numerical laboratory for discrepancy lower bounds.

Computes both sides of the universal bound relating the norm of a
group-averaging operator on zero-mean functions (the discrepancy of a
measure-preserving action) to the regular-representation norm of the
averaged measure, and turns the constructive machinery behind the bound
(moderate-growth set sequences, companion sets, Rayleigh quotients,
separated nets) into executable certificates on discretized examples.
"""

from .actions import (
    ActionSpace,
    GridTranslationSpace,
    build_action,
    continued_fraction_convergent,
)
from .certificates import (
    ModerateGrowthSequence,
    build_companion_set,
    orbit_neighborhood_sequence,
    run_certificate,
)
from .errors import (
    ConstructionError,
    DescriptorMismatchError,
    GaplabError,
    GridResolutionError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedKindError,
)
from .groups import GroupDescriptor, inverse_set, power_set, product_set
from .koopman import (
    DiscrepancyResult,
    character_line_scan,
    character_norm,
    discrepancy,
    verify_lower_bound,
)
from .measures import (
    GroupMeasure,
    convolve,
    involute,
    symmetrize,
)
from .nets import greedy_maximal_net, net_ratio_study, verify_net_bounds
from .regular_norm import (
    amenable_norm,
    berg_christensen_estimate,
    free_group_radial_return,
    regular_norm,
)

__version__ = "0.1.0"
