"""rifs: Monte Carlo toolkit for random recursive iterated function systems.

Layers, bottom up: :mod:`rifs.symbolic` (alphabets, measures, level sets),
:mod:`rifs.random_model` (keyed matrix distributions and moments),
:mod:`rifs.attractor` (enclosed projections from one cylinder-tree walk),
:mod:`rifs.analysis` (window/pair/coverage statistics), and
:mod:`rifs.experiments` (configs, presets, report files) with a CLI on top.
"""

from .errors import BudgetError, InputError, InvariantError
from .symbolic import (Alphabet, BernoulliMeasure, LevelSet, MarkovMeasure,
                       SymbolicMeasure, TailSequence, cylinder_measure, entropy,
                       entropy_estimate, is_prefix_free, level_set, level_sets,
                       restricted_level_set, slow_decay_constant, word_from_string,
                       word_to_string, write_levelset_csv)
from .random_model import (AffineSpec, MatrixFamily, MomentReport, Realization,
                           SimilaritySpec, cramer_moment, lyapunov_exponent,
                           lyapunov_prime, mc_cramer_moment, mc_lyapunov_prime,
                           moment_report)
from .attractor import (PointCloud, ProjectedPoint, bounding_ball, points_to_arrays,
                        project, project_level, project_levels, write_points_csv,
                        write_svg_scatter)
from .analysis import (AttractorMeasureReport, CoverageGrid, CoverageReport,
                       DensityReport, DetWindowReport, GDivergenceVerdict,
                       PairCountResult, PsiEquivalence, TransversalityFit,
                       attractor_measure_estimate, close_pair_count,
                       coverage_estimate, density_sweep, det_window_report,
                       det_window_reports, g_divergence_heuristic,
                       psi_equivalence_check, psi_from_mg, separated_subset,
                       transversality_scaling)
from .experiments import ExperimentConfig, Gauge, preset, run

__version__ = "0.1.0"
