"""Quantitative statistics over realizations: determinant-regularity windows,
close-pair counts and their scaling, separated subsets and density of good
levels, and grid-based Lebesgue estimates."""

from .detwindow import DetWindowReport, det_window_report, det_window_reports
from .pairs import (TransversalityFit, DensityReport,
                    pair_counts, separated_subset, separated_subsets,
                    transversality_scaling, density_sweep, density_sweeps)
from .coverage import (CoverageGrid, CoverageReport, AttractorMeasureReport,
                       coverage_estimate, coverage_estimates, attractor_measure_estimate)

__all__ = [
    "DetWindowReport", "det_window_report", "det_window_reports",
    "TransversalityFit", "DensityReport",
    "pair_counts", "separated_subset", "separated_subsets", "transversality_scaling",
    "density_sweep", "density_sweeps",
    "CoverageGrid", "CoverageReport", "AttractorMeasureReport",
    "coverage_estimate", "coverage_estimates", "attractor_measure_estimate",
]
