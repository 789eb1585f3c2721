"""Tomographic probability symbols for finite-dimensional quantum states.

Spin and unitary tomograms, quantizer/dequantizer pairs and reconstruction,
star-product kernels and composition, simplex-image geometry, Kraus channels
with tomographic propagators, and symbol entropies.

The namespace is lazy (PEP 562): ``import spintomo`` loads no submodule.  The
first access to an exported name imports its home module in ``_EXPORTS`` and
stores the value here, so later lookups are plain attribute reads and every
name is the same object as in its home module.
"""

from importlib import import_module

# home module -> the names it exports at the package level
_EXPORTS = {
    "channels": (
        "KrausChannel",
        "amplitude_damping",
        "apply_kraus",
        "build_channel",
        "channel_frame",
        "channel_initial_state",
        "channel_propagator",
        "channel_tomogram_closed_form",
        "choi_matrix",
        "depolarizing",
        "kraus_to_superoperator",
        "phase_damping",
    ),
    "dynamics": (
        "Povm",
        "evolve_state",
        "evolve_tomogram",
        "measure_update",
        "measurement_probabilities",
        "measurement_star_map",
        "povm_validate",
    ),
    "entropy": (
        "EntropyReport",
        "integral_entropy",
        "min_entropy_over_group",
        "quantum_renyi",
        "relative_q_entropy",
        "renyi_entropy",
        "strong_subadditivity_check",
        "subadditivity_check",
        "symbol_entropy",
        "tsallis_entropy",
        "von_neumann",
    ),
    "errors": (
        "DegeneratePointError",
        "InformationallyIncompleteError",
        "InvalidChannelError",
        "ZeroProbabilityError",
    ),
    "halfint": ("HalfInt", "spin_range"),
    "linalg": (
        "DensityMatrix",
        "eig_hermitian",
        "expm_hermitian_times",
        "haar_unitaries",
        "haar_unitary",
        "partial_trace",
        "partial_transpose",
        "random_density",
    ),
    "quadrature": ("GROUP_VOLUME", "QuadratureGrid", "make_grid"),
    "reconstruction": (
        "duality_residual",
        "intertwine",
        "reconstruct_from_unitary_frame",
        "reconstruct_operator",
        "reconstruction_residual",
    ),
    "simplex": (
        "GroupSpec",
        "SimplexSample",
        "eigenvalue_bounds_check",
        "entangled_ray_check",
        "factorized_surface_residual",
        "image_dimension",
        "image_dimension_report",
        "image_sample",
        "peres_scan",
    ),
    "star": (
        "kernel_closed_form",
        "kernel_trace_form",
        "star_compose",
        "star_grid",
        "symbol_trace",
        "trace_power",
        "trace_product",
    ),
    "su2": (
        "clebsch_gordan",
        "rotation_matrix",
        "wigner_3j",
        "wigner_6j",
        "wigner_D",
        "wigner_d_matrix",
        "wigner_d_stack",
        "wigner_small_d",
    ),
    "symbols": (
        "EulerAngles",
        "QuantizerPair",
        "SpinFrames",
        "SpinTransform",
        "Tomogram",
        "UnitaryFrames",
        "dequantizer_U",
        "grid_frames",
        "quantizer_D",
        "spin_tomogram",
        "tomogram_marginal",
        "unitary_tomogram",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
