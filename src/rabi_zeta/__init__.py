"""Spectral zeta special values for quantum Rabi models and the
non-commutative harmonic oscillator, with Apery-like numbers and
Beukers-type integrals."""

from .apery import (
    AperyCoefficients,
    ExactApery,
    apery_ab_delta,
    apery_ab_flat,
    apery_classic,
    beukers_residual,
    j_delta,
    j_flat,
    partial_fraction_residual,
)
from .errors import (
    DomainError,
    HalfIntegerPole,
    InvalidDimension,
    LengthMismatch,
    NearPole,
    NoConvergence,
    NodeSingularity,
    PoleError,
    RabiZetaError,
    RadiusExceeded,
    SingularOperator,
)
from .operator_oracle import (
    BergmanNu,
    Ncho,
    OnePhoton,
    TridiagonalOperator,
    TwoPhoton,
    build_component_operator,
    dn_r_m_operator,
    r_m_operator,
    zeta_eigen_oracle,
)
from .quadrature import (
    QuadratureSpec,
    gauss_legendre_nodes,
    integrate_monte_carlo,
    integrate_tensor,
    tanh_sinh_nodes,
)
from .specfun import (
    SeriesValue,
    alternating_zeta_sum,
    binomial,
    hurwitz_zeta,
    hypergeometric_pfq,
    pochhammer,
)
from .trace_terms import (
    FLAT,
    MINUS,
    PLUS,
    Flat,
    Minus,
    Nu,
    Plus,
    dn_r_m_integral,
    phi,
    psi,
    r_1_hypergeometric,
    r_1_series,
    r_m_integral,
)
from .zeta_values import (
    ZetaRequest,
    ZetaResult,
    confluence_scan,
    convergence_radius,
    parity_difference,
    zeta_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
