"""Margin-preserving feature selection for linear SVMs.

Select a small number of feature columns — deterministically via
barrier-potential spectral sparsification, randomly via leverage-score
sampling, or through a Gaussian-sketch front end — so that the SVM margin,
the enclosing-ball radius, and their ratio provably survive the selection,
with every bound checkable from measured quantities.
"""

from .errors import DataError, NumericalError
from .linalg import (ThinSvd, orthonormality_defect, row_norms_sq, spectral_error,
                     thin_svd)
from .operators import SamplingOperator
from .bss import BssDiagnostics, bss_select
from .leverage import leverage_scores, leverage_select
from .sketch import approx_bss_select, gaussian_sketch
from .svm import SvmModel, error_rate, predict, solve_dual
from .geometry import EnclosingBall, meb_radius
from .data import (FoldPlan, LabeledDataset, apply_fold, gen_synthetic,
                   load_dataset, make_folds, parse_csv, parse_svmlight,
                   write_svmlight)
from .pipelines import (BoundCheck, BoundReport, CvCell, SelectionReport,
                        cv_experiment, feature_frequencies, rfe_select,
                        rrqr_select, select_geometry, summarize_cv,
                        supervised_select, uniform_select, unsupervised_select,
                        verify_margin_bound)

__version__ = "0.1.0"

__all__ = [
    "DataError", "NumericalError",
    "ThinSvd", "thin_svd", "spectral_error", "row_norms_sq",
    "orthonormality_defect",
    "SamplingOperator",
    "BssDiagnostics", "bss_select",
    "leverage_scores", "leverage_select",
    "gaussian_sketch", "approx_bss_select",
    "SvmModel", "solve_dual", "predict", "error_rate",
    "EnclosingBall", "meb_radius",
    "LabeledDataset", "FoldPlan", "parse_svmlight", "write_svmlight", "parse_csv",
    "load_dataset", "gen_synthetic", "make_folds", "apply_fold",
    "SelectionReport", "BoundReport", "BoundCheck", "CvCell", "supervised_select",
    "unsupervised_select", "select_geometry", "verify_margin_bound", "uniform_select", "rrqr_select",
    "rfe_select", "cv_experiment", "summarize_cv", "feature_frequencies",
]
