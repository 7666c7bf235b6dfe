"""High-precision DtN spectra and Born reconstructions for radial coefficients."""

from .profiles import (
    AnalyticProfile,
    PiecewiseProfile,
    ProfileFormatError,
    ProfileKind,
    parse_profile,
    project_midpoint,
    serialize_profile,
)
from .forward import (
    DirichletCollisionError,
    DtnSpectrum,
    TransferDenominatorError,
    conductivity_spectrum,
    potential_spectrum,
    spectrum_of,
    transfer_radius,
    untransfer_radius,
)
from .born import (
    FourierSamples,
    born_conductivity_fourier,
    born_potential_fourier,
    eval_series_L,
    eval_series_L_grid,
    moment_sequence_exact,
    series_coefficients,
)
from .fourier import (
    GridMismatchError,
    RadialSamples,
    default_xi_grid,
    forward_radial_ft,
    inverse_radial_ft,
)
from .reconstruct import (
    DepthErrorCurve,
    IterationTrace,
    SolverParams,
    born_samples,
    ensemble_depth_profile,
    error_norms,
    iterate_born,
    support_radius_estimate,
)
from .cache import cached_spectrum_of, load_spectrum, spectrum_key, store_spectrum
from .experiments import experiment_config, run_experiment

__version__ = "0.1.0"
