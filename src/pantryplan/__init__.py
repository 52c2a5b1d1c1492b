"""Two-level K-Medoids siting of food banks and pantries over real road
distances, with income-derived demand weighting and baseline comparisons."""

from .distance import DistanceMatrix, GeoPoint, ProviderSpec, build_matrix, great_circle, load_matrix, save_matrix
from .evaluate import EvaluationReport, FacilitySet, compare, nearest_facility_stats, penalty_report
from .hierarchy import HierarchyParams, PlacementPlan, allocate_pantry_counts, place_two_level
from .ingest import Household, IngestConfig, compute_weight, duplicate_by_weight, filter_by_income, load_households, sample
from .kmedoids import Clustering, SolveParams, assign, brute_force_solve, initialize, solve

__version__ = "0.1.0"
