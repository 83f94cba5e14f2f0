"""Exact-arithmetic McKay graphs of small finite groups.

The F_p matrix products (`modp.mul_mod`) run in float64 BLAS, exact below
2^53, at sizes where OpenBLAS's thread pool costs more than it saves, so the
package asks for one BLAS thread before numpy is imported.  A caller that set
OPENBLAS_NUM_THREADS keeps its value; one that imported numpy first keeps
numpy's threads, and its products are as exact, only slower.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .chartable import (
    CharacterTable,
    CharVector,
    FaithfulSelfDualMinDim,
    Irrep,
    Rho,
    compute_character_table,
    is_faithful,
    is_self_dual,
    kernel_of_character,
    resolve_rho,
)
from .catalog import build_group
from .cyclotomic import cyclotomic_polynomial, euler_phi
from .graphs import (
    McKayGraph,
    build_mckay_graph,
    decompose_components,
    dual_check,
    graph_isomorphic,
    principal_component_isomorphism_check,
)
from .groups import (
    BinaryDihedral,
    BinaryPoly,
    Cyclic,
    Dihedral,
    ElemAb,
    Extraspecial2,
    FiniteGroup,
    Heisenberg,
    Product,
    Semidirect,
    conjugacy,
    quotient_group,
    subgroup_from_elements,
)
from .modp import SplitIncomplete, simultaneous_split
from .shapes import (
    ShapeLabel,
    bipartition,
    circuit_count,
    classify_component,
    pf_integer_vector_check,
)
from .verify import VerificationReport, run_suite

__all__ = [
    "BinaryDihedral",
    "BinaryPoly",
    "CharacterTable",
    "CharVector",
    "Cyclic",
    "Dihedral",
    "ElemAb",
    "Extraspecial2",
    "FaithfulSelfDualMinDim",
    "FiniteGroup",
    "Heisenberg",
    "Irrep",
    "McKayGraph",
    "Product",
    "Rho",
    "Semidirect",
    "ShapeLabel",
    "SplitIncomplete",
    "VerificationReport",
    "bipartition",
    "build_group",
    "build_mckay_graph",
    "circuit_count",
    "classify_component",
    "compute_character_table",
    "conjugacy",
    "cyclotomic_polynomial",
    "decompose_components",
    "dual_check",
    "euler_phi",
    "graph_isomorphic",
    "is_faithful",
    "is_self_dual",
    "kernel_of_character",
    "pf_integer_vector_check",
    "principal_component_isomorphism_check",
    "quotient_group",
    "resolve_rho",
    "run_suite",
    "simultaneous_split",
    "subgroup_from_elements",
]
