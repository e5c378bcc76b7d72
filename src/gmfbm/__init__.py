"""Simulation and numerical verification toolkit for generalized mixed
fractional Brownian motion run on a random clock (tempered stable or Gamma
subordinator): exact samplers, semi-analytic covariance oracles, asymptotic
formula evaluators, and Monte Carlo estimators with error control.
"""

from gmfbm.randkit import (
    RngStream,
    derive_stream,
    derive_substream,
    sample_gamma,
    sample_tempered_stable_increment,
)
from gmfbm.fbm import (
    ConditioningError,
    fbm_cov_matrix,
    power_variance,
    sample_fbm_pair,
    sample_fgn_regular,
)
from gmfbm.subordinators import (
    GammaParams,
    QuadratureError,
    SubordinatorSpec,
    TssParams,
    gamma_moment,
    sample_path,
    subordinator_moment,
    subordinator_moment_asymptotic,
    tss_moment,
)
from gmfbm.process import (
    CancellationError,
    GmfbmParams,
    TimeChangedSpec,
    corr_curve_oracle,
    exact_cov_oracle,
    exact_increment_second_moment,
    exact_var_oracle,
    sample_timechanged_pair,
    sample_timechanged_path,
)
from gmfbm.theory import (
    DecayPrediction,
    corr_decay_prediction,
    cov_asymptotic,
    is_lrd,
)
from gmfbm.mclab import (
    DecayFit,
    LrdReport,
    MomentEstimate,
    estimate_corr,
    estimate_cov,
    estimate_increment_sm,
    fit_decay,
    lrd_report,
)

__version__ = "0.1.0"
