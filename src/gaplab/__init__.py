"""gaplab: a numerical laboratory for discrepancy lower bounds.

Computes both sides of the universal bound relating the norm of a
group-averaging operator on zero-mean functions (the discrepancy of a
measure-preserving action) to the regular-representation norm of the
averaged measure, and turns the constructive machinery behind the bound
(moderate-growth set sequences, companion sets, Rayleigh quotients,
separated nets) into executable certificates on discretized examples.

The submodules load on first use: ``gaplab.discrepancy`` (or ``from
gaplab import discrepancy``) loads ``gaplab.koopman`` and what it imports.
"""

from importlib import import_module as _import_module

# ``regular_norm`` names a submodule and the function it exports, and the
# function is the package's.  The import system binds a submodule over the
# package attribute of its name when it first loads it, so this one loads
# with the package (with the errors, groups and measures it imports).
from .regular_norm import regular_norm

#: the names the package exports, by the submodule that defines them
_EXPORTS = {
    "actions": ("ActionSpace", "GridTranslationSpace", "build_action",
                "continued_fraction_convergent"),
    "certificates": ("run_certificate",),
    "errors": ("ConstructionError", "DescriptorMismatchError", "GaplabError",
               "GridResolutionError", "PreconditionError", "ResourceLimitError",
               "UnsupportedKindError"),
    "groups": ("GroupDescriptor", "inverse_set", "power_set", "product_set"),
    "koopman": ("DiscrepancyResult", "character_line_scan", "character_norm",
                "discrepancy", "verify_lower_bound"),
    "measures": ("GroupMeasure", "convolve", "involute", "symmetrize"),
    "nets": ("greedy_maximal_net", "net_ratio_study", "verify_net_bounds"),
    "regular_norm": ("amenable_norm", "berg_christensen_estimate", "regular_norm"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodule names too, as the package namespace held them once imported
__all__ = [*_OWNER, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind an exported name on first access."""
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
