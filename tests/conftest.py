import csv

import numpy as np
import pytest

from weekfit import (
    ComponentId,
    ComponentParams,
    TrafficSeries,
    WeeklyModel,
    bundled_model,
    write_series_csv,
)


@pytest.fixture(scope="session")
def guangzhou() -> WeeklyModel:
    return bundled_model("guangzhou")


@pytest.fixture(scope="session")
def milan() -> WeeklyModel:
    return bundled_model("milan")


def random_model(rng: np.random.Generator) -> WeeklyModel:
    """Random valid model at normalized scale (rates O(1))."""
    return WeeklyModel(
        {
            comp: ComponentParams(
                peak_rate=rng.uniform(0.2, 4.0),
                peak_time=rng.uniform(0.5, 23.5),
                variance=rng.uniform(0.5, 16.0),
            )
            for comp in ComponentId
        }
    )


def random_series(rng: np.random.Generator, n_hours: int = 168, start: int = 0) -> TrafficSeries:
    return TrafficSeries(rng.uniform(0.0, 3.0, n_hours), start)


def series_csv_clocks(series: TrafficSeries, path) -> list[tuple[int, int, int]]:
    """(week, day_k, hour) of each row ``write_series_csv`` writes to ``path``, read back."""
    write_series_csv(series, path)
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["week", "day_k", "hour", "value"]
    return [(int(week), int(day), int(hour)) for week, day, hour, _ in rows]


def perturbed(model: WeeklyModel, rng: np.random.Generator, fraction: float = 0.1) -> WeeklyModel:
    """Every parameter moved by at most ``fraction`` relative (times capped below 24)."""
    components = {}
    for comp in ComponentId:
        p = model[comp]
        components[comp] = ComponentParams(
            peak_rate=p.peak_rate * (1.0 + rng.uniform(-fraction, fraction)),
            peak_time=min(p.peak_time * (1.0 + rng.uniform(-fraction, fraction)), 23.9),
            variance=p.variance * (1.0 + rng.uniform(-fraction, fraction)),
        )
    return WeeklyModel(components)


def recovery_model() -> WeeklyModel:
    """Well-identified truth used by the noisy recovery checks.

    Every component clears the 5%-of-peak noise floor and the bumps stay
    inside their day, so the peak times are statistically pinned to a few
    hundredths of an hour over two weeks of data.
    """
    C = ComponentId
    return WeeklyModel(
        {
            C.MW: ComponentParams(4200.0, 8.8, 1.6),
            C.AW: ComponentParams(4000.0, 14.8, 1.8),
            C.EW: ComponentParams(3600.0, 20.2, 1.5),
            C.MSA: ComponentParams(3900.0, 9.6, 1.7),
            C.ASA: ComponentParams(3700.0, 15.4, 1.9),
            C.ESA: ComponentParams(3400.0, 20.6, 1.6),
            C.MSU: ComponentParams(3800.0, 9.2, 1.5),
            C.ASU: ComponentParams(3600.0, 15.1, 1.8),
            C.ESU: ComponentParams(3300.0, 20.4, 1.7),
        }
    )
