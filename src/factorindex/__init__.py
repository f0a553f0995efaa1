"""Factor models, composite-index rankings, and two-group comparisons
for cases-by-indicators tables."""

__version__ = "0.1.0"

from .dataset import (IndicatorDataset, StandardizedMatrix, load_csv,
                      select_variables, standardize)
from .errors import DegenerateDataError, NumericalError, ValidationError
from .factors import (FactorModel, FactorScores, build_factor_model,
                      correlation_matrix, extract_pca, factor_scores, kmo,
                      kmo_label, score_coefficients, varimax)
from .inference import (GroupComparisonReport, GroupDescriptives, LeveneResult,
                        TTestResult, compare_groups, group_descriptives,
                        levene_test, t_test_pooled, t_test_welch)
from .numkernel import (EigenDecomposition, f_tail_p, invert_spd,
                        reg_incomplete_beta, sym_eigen, t_quantile,
                        t_two_tailed_p)
from .ranking import RankedIndex, rank_by_factor, with_groups
from .config import PipelineConfig, config_from_dict, load_config
from .pipeline import PipelineResult, run_pipeline

__all__ = [
    "__version__",
    "IndicatorDataset", "StandardizedMatrix", "load_csv",
    "select_variables", "standardize",
    "DegenerateDataError", "NumericalError", "ValidationError",
    "FactorModel", "FactorScores", "build_factor_model", "correlation_matrix",
    "extract_pca", "factor_scores", "kmo", "kmo_label", "score_coefficients",
    "varimax",
    "GroupComparisonReport", "GroupDescriptives", "LeveneResult", "TTestResult",
    "compare_groups", "group_descriptives", "levene_test", "t_test_pooled",
    "t_test_welch",
    "EigenDecomposition", "f_tail_p", "invert_spd", "reg_incomplete_beta",
    "sym_eigen", "t_quantile", "t_two_tailed_p",
    "RankedIndex", "rank_by_factor", "with_groups",
    "PipelineConfig", "config_from_dict", "load_config",
    "PipelineResult", "run_pipeline",
]
