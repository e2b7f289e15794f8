"""Certified regularization paths for nuclear-norm-constrained H2 model
reduction of discrete-time SISO systems.

The package solves

    minimize ||t*g - g_o||_2^2   subject to   ||H(g)||_* <= 1

over the whole constraint range t in [0, ||H(g_o)||_*], re-solving exactly
only where a computable gap certificate reaches a user tolerance eps, and
reports the Hankel singular values of every exact solution so a reduced model
order can be read off the path.
"""

from .hankel import (
    HankelMatrix,
    ImpulseResponse,
    as_impulse,
    compute_t_max,
    hankel_adjoint,
    hankel_embed,
    hankel_singular_values,
    multiplicities,
    read_impulse_csv,
    read_impulse_json,
    write_impulse_csv,
    write_impulse_json,
)
from .solver import (
    SolveResult,
    SolverOptions,
    project_nuclear_ball,
    project_simplex_l1,
    solve_constrained,
)
from .certificates import (
    DegenerateCertificateError,
    GapCertificate,
    approx_objective,
    dual_bounds,
    duality_gap,
    next_breakpoint,
    subgradient_vector,
)
from .path import (
    PathAborted,
    PathResult,
    bootstrap_gap,
    compute_path,
    segment_owner,
)
from .systems import (
    SplitMix64,
    SystemSpec,
    check_truncation,
    impulse_response,
    random_system,
    read_system_json,
    tail_energy,
    write_system_json,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateCertificateError",
    "GapCertificate",
    "HankelMatrix",
    "ImpulseResponse",
    "PathAborted",
    "PathResult",
    "SolveResult",
    "SolverOptions",
    "SplitMix64",
    "SystemSpec",
    "approx_objective",
    "as_impulse",
    "bootstrap_gap",
    "check_truncation",
    "compute_path",
    "compute_t_max",
    "dual_bounds",
    "duality_gap",
    "hankel_adjoint",
    "hankel_embed",
    "hankel_singular_values",
    "impulse_response",
    "multiplicities",
    "next_breakpoint",
    "project_nuclear_ball",
    "project_simplex_l1",
    "random_system",
    "read_impulse_csv",
    "read_impulse_json",
    "read_system_json",
    "segment_owner",
    "solve_constrained",
    "subgradient_vector",
    "tail_energy",
    "write_impulse_csv",
    "write_impulse_json",
    "write_system_json",
]
