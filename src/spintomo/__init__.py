"""Tomographic probability symbols for finite-dimensional quantum states.

Spin and unitary tomograms, quantizer/dequantizer pairs and reconstruction,
star-product kernels and composition, simplex-image geometry, Kraus channels
with tomographic propagators, and symbol entropies.
"""

from .channels import (
    KrausChannel,
    amplitude_damping,
    apply_kraus,
    build_channel,
    channel_frame,
    channel_initial_state,
    channel_propagator,
    channel_tomogram_closed_form,
    choi_matrix,
    depolarizing,
    kraus_to_superoperator,
    phase_damping,
)
from .dynamics import (
    Povm,
    evolve_state,
    evolve_tomogram,
    measure_update,
    measurement_probabilities,
    measurement_star_map,
    povm_validate,
)
from .entropy import (
    EntropyReport,
    integral_entropy,
    min_entropy_over_group,
    quantum_renyi,
    relative_q_entropy,
    renyi_entropy,
    strong_subadditivity_check,
    subadditivity_check,
    symbol_entropy,
    tsallis_entropy,
    von_neumann,
)
from .errors import (
    DegeneratePointError,
    InformationallyIncompleteError,
    InvalidChannelError,
    ZeroProbabilityError,
)
from .halfint import HalfInt, spin_range
from .linalg import (
    DensityMatrix,
    eig_hermitian,
    expm_hermitian_times,
    haar_unitaries,
    haar_unitary,
    partial_trace,
    partial_transpose,
    random_density,
)
from .quadrature import GROUP_VOLUME, QuadratureGrid, make_grid
from .reconstruction import (
    duality_residual,
    intertwine,
    reconstruct_from_unitary_frame,
    reconstruct_operator,
    reconstruction_residual,
)
from .simplex import (
    GroupSpec,
    SimplexSample,
    eigenvalue_bounds_check,
    entangled_ray_check,
    factorized_surface_residual,
    image_dimension,
    image_dimension_report,
    image_sample,
    peres_scan,
)
from .star import (
    kernel_closed_form,
    kernel_trace_form,
    star_compose,
    star_grid,
    symbol_trace,
    trace_power,
    trace_product,
)
from .su2 import (
    clebsch_gordan,
    rotation_matrix,
    wigner_3j,
    wigner_6j,
    wigner_D,
    wigner_d_matrix,
    wigner_d_stack,
    wigner_small_d,
)
from .symbols import (
    EulerAngles,
    QuantizerPair,
    SpinFrames,
    SpinTransform,
    Tomogram,
    UnitaryFrames,
    dequantizer_U,
    grid_frames,
    quantizer_D,
    spin_tomogram,
    tomogram_marginal,
    unitary_tomogram,
)

__version__ = "0.1.0"
