"""Exact computation and verification of graded rings attached to
twisted-form motives: Chow presentations, connective Morava modules, the
geometric filtration, product decompositions, and a theorem verifier."""

__version__ = "0.1.0"

from .catalog import CATALOG_IDS, CatalogObject, catalog_build
from .exact_linalg import PLocalMatrix, kernel_basis, membership, snf_p_local
from .graded import (
    GradedFPModule,
    GradedMap,
    NormalForm,
    direct_sum,
    gr_ps,
    iso_equal,
    normalize,
    quotient,
    tensor_normal_form,
    tensor_product,
)
from .km import KmPresentation, gr_geometric, localize_v, to_chow, v_torsion_generators
from .kunneth import (
    THEOREM_IDS,
    c_decomposition,
    default_grid,
    j_ideal,
    kunneth_map,
    star_star_check,
    verify_theorem,
)
from .omega import (
    OmegaImageModel,
    PresentedRing,
    chow_collapse,
    ideal_power_witness,
    torsion_ideal,
)
from .report import TheoremReport

__all__ = [
    "CATALOG_IDS",
    "CatalogObject",
    "GradedFPModule",
    "GradedMap",
    "KmPresentation",
    "NormalForm",
    "OmegaImageModel",
    "PLocalMatrix",
    "PresentedRing",
    "THEOREM_IDS",
    "TheoremReport",
    "c_decomposition",
    "catalog_build",
    "chow_collapse",
    "default_grid",
    "direct_sum",
    "gr_geometric",
    "gr_ps",
    "ideal_power_witness",
    "iso_equal",
    "j_ideal",
    "kernel_basis",
    "kunneth_map",
    "localize_v",
    "membership",
    "normalize",
    "quotient",
    "snf_p_local",
    "star_star_check",
    "tensor_normal_form",
    "tensor_product",
    "to_chow",
    "torsion_ideal",
    "v_torsion_generators",
    "verify_theorem",
    "__version__",
]
