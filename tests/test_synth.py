import math

import pytest

from pantryplan.errors import ConfigError
from pantryplan.synth import SynthParams, generate


def test_two_blobs_of_five_gives_ten_rows():
    households = generate(SynthParams(clusters=2, points_per_cluster=5, seed=1))
    assert len(households) == 10
    assert [h.city for h in households] == ["blob0"] * 5 + ["blob1"] * 5
    assert len({h.id for h in households}) == 10


def test_fixed_seed_reproducible():
    a = generate(SynthParams(clusters=3, points_per_cluster=20, seed=42))
    b = generate(SynthParams(clusters=3, points_per_cluster=20, seed=42))
    assert a == b
    c = generate(SynthParams(clusters=3, points_per_cluster=20, seed=43))
    assert a != c


def test_incomes_always_positive():
    households = generate(SynthParams(clusters=4, points_per_cluster=2500, seed=7))
    assert len(households) == 10_000
    assert all(h.income is not None and h.income > 0 for h in households)


def test_coordinates_in_range():
    households = generate(SynthParams(clusters=3, points_per_cluster=200, spread_deg=2.0, seed=9))
    for h in households:
        assert -90 <= h.location.lat <= 90
        assert -180 <= h.location.lon <= 180


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        SynthParams(clusters=0)
    with pytest.raises(ConfigError):
        SynthParams(points_per_cluster=0)
    with pytest.raises(ConfigError):
        SynthParams(spread_deg=0.0)


@pytest.mark.parametrize("name", ["spread_deg", "extent_deg", "center_lat", "center_lon", "income_log_mean",
                                  "income_log_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_params_rejected(name, value):
    # a NaN spread passed the positivity test and put every household at (-90, -180)
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        SynthParams(**{name: value})
