"""Pseudospectral toolkit for boosted ground states of dispersion-generalized
NLS equations: spectral fields, Fourier multipliers, rearrangement operators,
a stabilized fixed-point solver, and symmetry verification, including the
residual of the profile equation."""

from .errors import (
    ConfigError,
    DisconnectedSupportError,
    GnfFormatError,
    HypothesisViolatedError,
    ZeroFieldError,
)
from .fields import (
    Field,
    Grid,
    NegativeWeightWarning,
    energy_mass,
    norm_l2,
    norm_lp,
    quad_form,
    read_gnf,
    write_gnf,
)
from .rearrange import fourier_rearrange, steiner_array
from .solver import (
    Problem,
    SolveOptions,
    SolveReport,
    canonicalize,
    centroid,
    gaussian_init,
    minimize,
    sigma_star,
    unit_residual,
    weinstein,
)
from .symbols import (
    BoostedSymbol,
    Symbol,
    biharmonic,
    dispersion_floor,
    fractional,
    half_wave,
    sqrt_klein_gordon,
)
from .verify import (
    PhaseFit,
    SupportSet,
    SymmetryReport,
    is_connected,
    phase_affinity,
    support_set,
    symmetry_report,
)

__version__ = "0.1.0"
