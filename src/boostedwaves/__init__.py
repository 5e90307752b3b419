"""Pseudospectral toolkit for boosted ground states of dispersion-generalized
NLS equations: spectral fields, Fourier multipliers, rearrangement operators,
a stabilized fixed-point solver, and symmetry verification, including the
residual of the profile equation.

Only the command-line entry :func:`boostedwaves.cli.main` fixes glibc's heap
thresholds.  Called in-process outside it, :func:`minimize`,
:func:`symmetry_report` and :func:`phase_affinity` run under glibc's
default thresholds, which map temporaries above 128 KiB afresh and fault
their pages in.  A 256^2 symmetry report then runs at half to two thirds of
the CLI's speed, whether its field was read from a file or solved in the same
process (see ``cli._fix_heap_thresholds``).  A script that calls them
repeatedly gets the CLI's speed by calling
``boostedwaves.cli._fix_heap_thresholds()`` once first (on glibc; elsewhere
it does nothing)."""

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
    energy_mass,
    read_gnf,
    write_gnf,
)
from .rearrange import fourier_rearrange
from .solver import (
    Problem,
    SolveOptions,
    SolveReport,
    canonicalize,
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
