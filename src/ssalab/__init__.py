"""Singular spectrum analysis, subspace estimation, and a Monte-Carlo error lab."""

from .core import (
    EigentripleSet,
    as_series,
    center,
    decompose,
    decompose_toeplitz,
    diagonal_counts,
    embed,
    group_matrix,
    hankelize,
    lag_covariance_matrix,
    leading_triples,
    rank_reconstruction,
)
from .errors import SsaError
from .estimate import (
    esprit_ls,
    esprit_tls,
    find_peaks,
    pair_frequencies,
    poles_to_params,
    pseudospectrum_minnorm,
    pseudospectrum_music,
    root_min_norm,
    root_music,
)
from .forecast import characteristic_roots, min_norm_lrf, recurrent_forecast
from .signals import (
    SignalSpec,
    exact_basis,
    exact_rank,
    gen_series,
    red_noise,
    signal_values,
    true_frequencies,
    true_poles,
)
from .simlab import (
    ConvergenceReport,
    ErrorSurface,
    ExperimentConfig,
    ForecastErrorSplit,
    asymptotic_variance,
    convergence_ratio,
    derive_seed,
    forecast_error_split,
    mc_error_surface,
    mc_point_errors,
    red_noise_projector_bound,
    run_experiment,
    window_for_policy,
)
from .subspace import (
    noise_complement,
    signal_basis,
    subspace_distance,
)

__version__ = "0.1.0"
