"""Synthetic household datasets: Gaussian blobs with lognormal incomes.

Stands in for real residence files so the whole pipeline can run and be
tested offline. Deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

from .distance import MAX_LAT, MAX_LON, GeoPoint
from .errors import ConfigError, require_fields, require_int, require_real
from .ingest import Household


@dataclass(frozen=True)
class SynthParams:
    clusters: int = 3
    points_per_cluster: int = 100
    spread_deg: float = 0.05  # stddev of each blob, degrees
    center_lat: float = 39.0
    center_lon: float = -86.5
    extent_deg: float = 1.5  # blob centers drawn inside +/- extent
    income_log_mean: float = 10.3  # lognormal params, log-dollars
    income_log_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require_fields(self, require_int, ConfigError, "clusters", "points_per_cluster", "seed")
        if self.clusters < 1 or self.points_per_cluster < 1:
            raise ConfigError("clusters and points_per_cluster must be positive")
        for name in ("spread_deg", "extent_deg", "center_lat", "center_lon", "income_log_mean", "income_log_sigma"):
            require_fields(self, require_real, ConfigError, name)
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.spread_deg <= 0 or self.extent_deg <= 0:
            raise ConfigError("spread_deg and extent_deg must be positive")


def generate(params: SynthParams) -> list[Household]:
    """Blob households with ids c<cluster>-p<point> and city tag blob<cluster>."""
    rng = random.Random(operator.index(params.seed))  # Random refuses a numpy integer
    centers = [
        (
            params.center_lat + rng.uniform(-params.extent_deg, params.extent_deg),
            params.center_lon + rng.uniform(-params.extent_deg, params.extent_deg),
        )
        for _ in range(params.clusters)
    ]
    households = []
    for c, (clat, clon) in enumerate(centers):
        for p in range(params.points_per_cluster):
            lat = min(MAX_LAT, max(-MAX_LAT, rng.gauss(clat, params.spread_deg)))
            lon = min(MAX_LON, max(-MAX_LON, rng.gauss(clon, params.spread_deg)))
            income = rng.lognormvariate(params.income_log_mean, params.income_log_sigma)
            households.append(
                Household(
                    id=f"c{c}-p{p}",
                    location=GeoPoint(lat, lon),
                    income=income,
                    city=f"blob{c}",
                )
            )
    return households
