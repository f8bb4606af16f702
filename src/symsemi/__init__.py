"""Exact tools for symplectic semi-characteristics.

Mapping-cone cohomology of finite cochain models, the mod-2 count of
vector-field zeros it predicts, and exact verification of the Clifford and
harmonic-oscillator identities behind that count.
"""

__version__ = "0.1.0"

from .qlinalg import SparseMat, rref, rank, kernel_basis, skew_kernel_parity
from .complexes import (GradedComplex, OmegaMap, BettiVector, cone, betti,
                        euler_characteristic, semi_characteristic,
                        cone_adjoint, harmonic_dimensions)
from .models import (CDGAModel, Element, ce_complex, tensor_product,
                     multiplication_matrix, check_symplectic, builtin)
from .census import Zero, ZeroCensus, counting_check, euler_cross_check
from .cliffordlab import (clifford, hodge_star, dvol_action, verify_car,
                          verify_volume_star, verify_volume_omega,
                          verify_complex_structure, model_L,
                          kernel_and_parity, spectrum_scaling, eta_scaling)
from .modelio import load_model, load_census, load_matrix_rows

__all__ = [
    "SparseMat", "rref", "rank", "kernel_basis", "skew_kernel_parity",
    "GradedComplex", "OmegaMap", "BettiVector", "cone", "betti",
    "euler_characteristic", "semi_characteristic", "cone_adjoint",
    "harmonic_dimensions",
    "CDGAModel", "Element", "ce_complex", "tensor_product",
    "multiplication_matrix", "check_symplectic", "builtin",
    "Zero", "ZeroCensus", "counting_check", "euler_cross_check",
    "clifford", "hodge_star", "dvol_action", "verify_car",
    "verify_volume_star", "verify_volume_omega", "verify_complex_structure",
    "model_L", "kernel_and_parity", "spectrum_scaling", "eta_scaling",
    "load_model", "load_census", "load_matrix_rows",
]
