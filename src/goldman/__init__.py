"""Exact-arithmetic Goldman Lie algebra of an abelian group.

The package builds the Lie algebra Q[H] of a finitely generated abelian
group H equipped with an alternating integer form, together with its
graded Chevalley-Eilenberg chain complexes on truncated supports, and
certifies homology statements about them with explicit re-verified
witnesses.  All arithmetic is exact (integers and Fractions); there is
no floating point anywhere.
"""

from goldman.groups import (
    GroupSpec,
    GroupElement,
    smith_normal_form,
    surface_presentation,
)
from goldman.algebra import (
    AlgebraVector,
    bracket,
    k_map,
    in_gk,
)
from goldman.complexes import (
    Wedge,
    WedgeChain,
    Cochain,
    wedge_chain,
    boundary,
    coboundary,
    enumerate_basis,
    box_support,
    box_by_weight,
    project_derived,
)
from goldman.verify import (
    CERTIFIED,
    REFUTED,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    CheckResult,
    QuotientTensorSpace,
    f_map,
    g_map,
    ideal_membership,
    ContractingHomotopy,
    contracting_homotopy,
    inner_h2_certify,
    outer_h2_certify,
    main_theorem_check,
    gk_cycle_check,
    surface_generator_check,
    linear_extension_check,
    omega_cocycle,
    omega_check,
    h1_check,
)

__all__ = [
    "GroupSpec",
    "GroupElement",
    "smith_normal_form",
    "surface_presentation",
    "AlgebraVector",
    "bracket",
    "k_map",
    "in_gk",
    "Wedge",
    "WedgeChain",
    "Cochain",
    "wedge_chain",
    "boundary",
    "coboundary",
    "enumerate_basis",
    "box_support",
    "box_by_weight",
    "project_derived",
    "CERTIFIED",
    "REFUTED",
    "INCONCLUSIVE",
    "NOT_APPLICABLE",
    "CheckResult",
    "QuotientTensorSpace",
    "f_map",
    "g_map",
    "ideal_membership",
    "ContractingHomotopy",
    "contracting_homotopy",
    "inner_h2_certify",
    "outer_h2_certify",
    "main_theorem_check",
    "gk_cycle_check",
    "surface_generator_check",
    "linear_extension_check",
    "omega_cocycle",
    "omega_check",
    "h1_check",
]
