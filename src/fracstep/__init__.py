"""Discrete Caputo derivatives on nonuniform time meshes.

Kernel tables for the L1, fast L1, offset piecewise-quadratic (L2-1-sigma
style) and BDF2-like schemes, the complementary kernels that invert them,
discrete fractional Gronwall bounds, and fully discrete solvers for linear
reaction-subdiffusion, each shipped with machine-checkable certificates.
"""

from .complementary import (
    ComplementaryTable,
    ZeroDiagonalError,
    build_complementary,
    check_lemma21,
    check_lemma22_23,
    identity_residual,
)
from .gronwall import (
    GronwallCertificate,
    GronwallProblem,
    StepRestrictionViolatedError,
    check_step_restriction,
    exchange_identity_residual,
    gronwall_bound,
    step_restriction_threshold,
    verify_gronwall_linear,
    verify_gronwall_quadratic,
)
from .kernels import (
    AssumptionReport,
    KernelTable,
    NonUniformMeshError,
    alikhanov_kernel,
    apply_discrete_derivative,
    bdf2_kernel,
    bdf2_recombine,
    build_table,
    fast_l1_kernel,
    l1_kernel,
    verify_assumptions,
)
from .mesh import (
    InvalidMeshError,
    MeshReport,
    TimeMesh,
    check_A3,
    graded_mesh,
    mesh_from_nodes,
    random_mesh,
    uniform_mesh,
)
from .soe import (
    OutOfWindowError,
    SOEApprox,
    SOENotCertifiedError,
    ToleranceUnreachableError,
    build_soe,
    soe_eval,
)
from .solver import (
    EnergyReport,
    FDProblem1D,
    SingleModeProblem,
    SingularSystemError,
    caputo_of_power,
    check_energy_lemmas,
    check_stability_envelope,
    estimate_order,
    singular_study,
    smooth_study,
    solve_fd1d,
    solve_single_mode,
    solve_single_mode_fast,
)
from .specialfn import (
    NonConvergenceError,
    log_mittag_leffler,
    mittag_leffler,
    omega,
)

__version__ = "0.1.0"
