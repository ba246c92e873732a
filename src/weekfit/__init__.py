"""Weekly network-traffic forecasting from Gaussian activity components."""

from .baselines import BaselineKind, baseline_predict
from .dataio import (
    Readings,
    SplitSpec,
    aggregate_hourly,
    bundled_model,
    load_csv,
    load_model,
    save_model,
    split,
    training_window,
    write_series_csv,
    write_timestamp_csv,
    write_trace_csv,
)
from .errors import (
    ConstantActualError,
    CsvFormatError,
    GapError,
    ModelFormatError,
    SeriesTooShortError,
    WeekfitError,
)
from .estimator import (
    FitConfig,
    FitReport,
    fit,
    gradient,
    init_heuristic,
    objective,
)
from .metrics import EvalReport, mae, mse, r2, rmse
from .model import (
    ComponentId,
    ComponentParams,
    DayCategory,
    DayPeriod,
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    TrafficSeries,
    WeekClock,
    WeeklyModel,
    generate_synthetic,
    predict_series,
    sigma_interval,
    week_clock_at,
    weekly_value,
)

__version__ = "0.1.0"
