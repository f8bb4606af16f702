"""Exact tools for symplectic semi-characteristics.

Mapping-cone cohomology of finite cochain models, the mod-2 count of
vector-field zeros it predicts, and exact verification of the Clifford and
harmonic-oscillator identities behind that count.

The names in ``__all__`` resolve on first access (PEP 562), so importing
the package, or one of its modules, loads only what is used.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "qlinalg": "SparseMat rref rank kernel_basis",
    "complexes": "GradedComplex OmegaMap BettiVector cone betti "
                 "euler_characteristic semi_characteristic",
    "models": "CDGAModel Element multiplication_matrix check_symplectic",
    "builders": "ce_complex tensor_product builtin",
    "census": "Zero ZeroCensus counting_check euler_cross_check load_census",
    "clifford": "verify_car verify_volume_star verify_volume_omega "
                "verify_complex_structure",
    "cliffordlab": "model_L kernel_and_parity spectrum_scaling eta_scaling",
    "modelio": "load_model", "matrixio": "load_matrix_rows",
    "suite": "harmonic_dimensions skew_kernel_parity",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
