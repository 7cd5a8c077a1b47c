"""Groupoid of bit-flip transitions on a qubit chain, at finite truncation.

Measures on the outcome space, the modular machinery of the convolution
algebra, the finite matrix bridge, additive transition functionals with
their cohomology, and the induced phase dynamics.  Everything is computed
on depth-D truncations with exhaustive or seeded randomized verification.
"""

from .algebra import (
    AlgebraElement,
    canonical_weight,
    convolve,
    hahn_norm,
    inner_product,
    involution,
    l2_norm,
    max_abs_diff,
    modular_conjugation,
    modular_operator_pow,
    pukanszky_L,
    pukanszky_V,
    unit,
)
from .dfs import (
    Cochain,
    DfsTable,
    coboundary,
    cochain_delta,
    dfs_build,
    dfs_check,
    dfs_from_json,
    dfs_seed_extend,
    dfs_to_cochain,
    dfs_to_json,
    is_exact,
)
from .errors import (
    DegenerateSpectrum,
    DepthTooSmall,
    FlipchainError,
    HorizonOverflow,
    InvalidSpec,
    InvariantViolation,
    OrderUnsupported,
    SiteOutOfRange,
)
from .groupoid import (
    DEPTH_CAP,
    EMPTY_WORD,
    FlipWord,
    axioms_report,
    check_depth,
    e,
    enumerate_gamma,
)
from .ising import (
    NonCocyclePerturbation,
    attained_spectrum,
    heisenberg_equivalence_check,
    modular_spectrum_points,
    tt_evolve,
)
from .matrices import (
    PauliWord,
    glimm_map,
    gns_deviations,
    pauli_operator,
    powers_state,
    random_pauli_word,
)
from .measures import (
    Bernoulli,
    CylinderFunction,
    IsingBoltzmann,
    MeasureSpec,
    integrate,
    ising_bond_coefficients,
    ising_energy_table,
    parse_lambda,
    partition_function,
    partition_function_brute,
    partition_function_closed_form,
    partition_report,
    pushforward_projection_check,
    translation_covariance_check,
)
from .sampling import (
    random_algebra_element,
    random_cylinder,
    random_word,
    rng_for,
    trial_seed,
)

__version__ = "0.1.0"
