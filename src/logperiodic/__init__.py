"""Bubble-signature detection for price series.

Calibrates the log-periodic power law singularity model over shrinking
windows, computes positive/negative confidence indicators, and classifies
crashes as endogenous or exogenous from the peak indicator.
"""

from .calibrate import FitResult, SearchConfig, Window, cost, fit, linear_solve
from .classify import (
    CrashAssessment,
    CrashStats,
    CrashType,
    assess,
    classify,
    crash_stats,
    peak_ci,
)
from .errors import (
    DegenerateBasisError,
    DomainError,
    FitFailedError,
    InsufficientHistoryError,
    LogPeriodicError,
    ValidationError,
)
from .indicator import (
    IndicatorPoint,
    WindowOutcome,
    WindowScheme,
    confidence_at,
    scan,
    window_seed,
    windows_for,
)
from .model import LpplsParams, damping, evaluate, phase_amplitude
from .qualify import (
    BubbleSign,
    FilterConfig,
    QualificationReport,
    ar1_test,
    detrended_residual,
    lomb_test,
    max_relative_error,
    oscillation_count,
    ou_test,
    qualify,
)
from .series import PriceSeries, emit_csv, ingest, resample
from .synth import SynthSpec, generate, trading_dates

__version__ = "0.1.0"
