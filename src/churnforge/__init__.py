"""churnforge: telco churn and win-back prediction at desk scale.

Generate (or ingest) a relational telco dataset, compute 3-month windowed
features per billing account, correct class imbalance by sampling, train
and compare tree-family classifiers under stratified cross-validation, and
emit ranked predictions, per-class precision reports, and interpretable
alternating-decision-tree models.
"""

from .data import (BillingMonthRecord, DatasetFormatError, ServiceRequestRecord,
                   SubscriberRecord, TelcoDataset, UsageMonthRecord, check_integrity,
                   read_tables, write_tables)
from .evaluation import (ConfusionMatrix, EvalReport, compare_learners, confusion,
                         rank_features, select_best, stratified_kfold)
from .features import (FeatureMatrix, WindowSpec, derive, extract_churn, extract_winback,
                       is_missing, read_matrix, standard_windows, write_matrix)
from .generator import GeneratorConfig, generate
from .learners import (ALGORITHMS, ADTreeModel, BayesModel, EnsembleModel,
                       LearnerSpec, SplitCondition, TreeModel, predict_matrix, train,
                       train_adaboost, train_adtree, train_bagging, train_bayes,
                       train_cart, train_forest, train_stump)
from .model_io import (HEADER, ModelFormatError, load_model, parse_adtree,
                       print_adtree, save_model)
from .months import Month, month_range
from .rebalance import oversample, undersample
from .tasks import TASKS, PipelineConfig, TaskSpec, filter_dataset

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ADTreeModel", "BayesModel", "BillingMonthRecord", "ConfusionMatrix",
    "DatasetFormatError", "EnsembleModel", "EvalReport", "FeatureMatrix",
    "GeneratorConfig", "HEADER", "LearnerSpec", "ModelFormatError", "Month",
    "PipelineConfig", "ServiceRequestRecord", "SplitCondition",
    "SubscriberRecord", "TASKS", "TaskSpec", "TelcoDataset", "TreeModel",
    "UsageMonthRecord", "WindowSpec", "check_integrity", "compare_learners",
    "confusion", "derive", "extract_churn", "extract_winback", "filter_dataset",
    "generate", "is_missing", "load_model", "month_range",
    "oversample", "parse_adtree", "predict_matrix", "print_adtree",
    "rank_features", "read_matrix", "read_tables", "save_model", "select_best",
    "standard_windows", "stratified_kfold", "train", "train_adaboost",
    "train_adtree", "train_bagging", "train_bayes", "train_cart", "train_forest",
    "train_stump", "undersample", "write_matrix", "write_tables",
]
