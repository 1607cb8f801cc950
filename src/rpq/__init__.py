"""Deformed combinatorial calculus and multivariate occupancy distributions.

Two-parameter deformed numbers, factorials and binomial coefficients; the
capacity-one (Fermi-Dirac) and unlimited-capacity (Bose-Einstein)
multivariate occupancy laws built from them; and an exact brute-force
enumeration oracle that cross-checks every closed-form identity, normalizer
and moment at desk scale.

`import rpq` loads no submodule.  A public name, or a submodule read as an
attribute (`rpq.second_kind`), is imported on first use (PEP 562), so a
command line that needs a few modules pays for those alone.  Each read of a
public name looks it up in its submodule; nothing is bound here, so a
wrapper installed in the submodule and later removed leaves no trace.
"""

from importlib import import_module

_EXPORTS = {
    "algebra": (
        "AlgebraSpec",
        "MonomialFit",
        "TriangularRecurrenceReport",
        "arik_coon",
        "chakrabarty_jagannathan",
        "check_triangular_recurrence",
        "classical_algebra",
        "compositions",
        "custom_algebra",
        "deformed_binomial",
        "deformed_factorial",
        "deformed_falling_factorial",
        "deformed_number",
        "fit_monomial",
        "inverse_algebra",
        "jagannathan_srinivasa",
        "load_algebra_config",
        "make_preset",
        "q_deformation",
        "quesne",
    ),
    "errors": (
        "CapacityError",
        "ModeMixError",
        "RpqError",
        "ValidationError",
        "ZeroProbabilityEventError",
    ),
    "first_kind": ("ConstructionReport", "FirstKindParams", "GroupingScheme"),
    "identities": (
        "IdentityReport",
        "cauchy_lhs",
        "hs1_lhs",
        "hs2_lhs",
        "hsa_lhs",
        "hsb_lhs",
        "verify_identity",
    ),
    "lattice": ("ConstraintSet", "count_points", "enumerate_points", "weighted_sum"),
    "pmf": ("ClosedFormCheck", "MomentReport", "PmfTable", "oracle_expectation"),
    "sampler": ("SampleBatch", "SplitMix64", "path_probabilities", "sample", "sequential_sample"),
    "second_kind": ("SecondKindParams",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset(_EXPORTS) | {"cli", "scalars", "serialize"}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
