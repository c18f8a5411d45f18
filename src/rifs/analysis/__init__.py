"""Quantitative statistics over realizations: determinant-regularity windows,
close-pair counts and their scaling, separated subsets and density of good
levels, divergence heuristics, and grid-based Lebesgue estimates."""

from .detwindow import DetWindowReport, det_window_report, det_window_reports
from .pairs import (PairCountResult, TransversalityFit, DensityReport,
                    close_pair_count, separated_subset, transversality_scaling,
                    density_sweep, density_sweeps)
from .coverage import (CoverageGrid, CoverageReport, AttractorMeasureReport,
                       coverage_estimate, coverage_estimates, attractor_measure_estimate)
from .divergence import (GDivergenceVerdict, PsiEquivalence, g_divergence_heuristic,
                         psi_from_mg, psi_equivalence_check)

__all__ = [
    "DetWindowReport", "det_window_report", "det_window_reports",
    "PairCountResult", "TransversalityFit", "DensityReport",
    "close_pair_count", "separated_subset", "transversality_scaling",
    "density_sweep", "density_sweeps",
    "CoverageGrid", "CoverageReport", "AttractorMeasureReport",
    "coverage_estimate", "coverage_estimates", "attractor_measure_estimate",
    "GDivergenceVerdict", "PsiEquivalence", "g_divergence_heuristic",
    "psi_from_mg", "psi_equivalence_check",
]
