"""gaplab: a numerical laboratory for discrepancy lower bounds.

Computes both sides of the universal bound relating the norm of a
group-averaging operator on zero-mean functions (the discrepancy of a
measure-preserving action) to the regular-representation norm of the
averaged measure, and turns the constructive machinery behind the bound
(moderate-growth set sequences, companion sets, Rayleigh chains,
separated nets) into executable certificates on discretized examples.
"""

from .actions import (
    ActionSpace,
    GridTranslationSpace,
    build_action,
    continued_fraction_convergent,
)
from .certificates import (
    CertificateReport,
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
    InternalConsistencyError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedKindError,
)
from .groups import GroupDescriptor, inverse_set, power_set, product_set
from .koopman import (
    DiscrepancyResult,
    VerifyReport,
    character_line_scan,
    character_norm,
    discrepancy,
    verify_lower_bound,
)
from .measures import (
    GroupMeasure,
    convolution_power,
    convolve,
    involute,
    mass_on_set,
    measure_from_text,
    measure_to_text,
    regularize,
    symmetrize,
    truncate,
)
from .nets import (
    NetInstance,
    covering_witness,
    greedy_maximal_net,
    net_ratio_study,
    verify_net_bounds,
)
from .regular_norm import (
    NormEstimate,
    amenable_norm,
    berg_christensen_estimate,
    fourier_norm_abelian,
    free_group_radial_return,
)

__version__ = "0.1.0"
