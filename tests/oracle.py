"""References that tests compare the package's public results with, and the
desk-scale grid they compare them on.

`joint_table` is the joint law by the per-point route: the points of
`enumerate_points`, each weighed by `joint_weight`, normalized by
`make_table` from those weights.  The package normalizes a
joint once, from its area-class counts (`occupancy.joint_stream`, which
`joint_pmf` also reads), so this table shares no step of that
normalization.
"""

from conftest import ALL_PRESETS
from rpq import first_kind, jagannathan_srinivasa, occupancy, second_kind
from rpq.first_kind import FirstKindParams
from rpq.lattice import enumerate_points
from rpq.pmf import make_table
from rpq.second_kind import SecondKindParams

PRESETS = ALL_PRESETS + (jagannathan_srinivasa(0.9, 0.5),)

KINDS = [(first_kind, alg) for alg in PRESETS] + [(second_kind, alg) for alg in PRESETS]


def kind_id(case):
    module, alg = case
    return f"{module.KIND}-{alg.name}-{'exact' if alg.exact else 'approx'}"


def grid(module, alg, first_k, second_k, second_n):
    """The params of every k <= first_k and every n for the first kind, of
    k <= second_k and n <= second_n for the second."""
    if module is first_kind:
        return [FirstKindParams(alg, k, n) for k in range(1, first_k + 1) for n in range(k + 2)]
    return [SecondKindParams(alg, k, n) for k in range(1, second_k + 1) for n in range(second_n + 1)]


def in_order(values):
    """The values added left to right."""
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


def joint_table(params):
    """The joint law of `params` as a table normalized point by point, with
    the closed normalizer and fit bound of the kind; its checks run in the
    order of the package's joint: guards, weights, closed normalizer."""
    support = enumerate_points(occupancy.support_constraints(params))
    weights = [occupancy.joint_weight(params, x) for x in support]
    return make_table(
        kind=params.kind,
        params=params.describe(),
        coord_labels=[f"x{j}" for j in range(1, params.k + 1)],
        support=support,
        weights=weights,
        alg=params.alg,
        z_closed_form=params.normalizer(params.alg, params.k, params.n),
        fit_bound=params.fit_bound(),
    )
