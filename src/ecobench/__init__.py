"""From-scratch supervised classifiers with a reproducible benchmark harness.

Eight classifiers (decision tree, random forest, feed-forward network, SVM,
discriminant analysis, k-NN, logistic regression, naive Bayes) share one
dataset model and one metric suite, and are compared under resubstitution,
holdout and k-fold cross-validation.

`import ecobench` imports none of its modules: each is imported the first
time one of its names is read (PEP 562), so a script that only builds or
reads a table loads `ecobench.dataset` and numpy, not the classifiers.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it
_EXPORTS = {
    "dataset": """
        ECO_FEATURE_NAMES ECO_LABEL_COLUMN Dataset FoldPlan ScalingParams
        SyntheticSpec generate_ecological k_fold load_csv save_csv standardize
        train_test_split""",
    "evaluation": """
        ALGORITHM_ORDER PROCESS_CV PROCESS_HOLDOUT PROCESS_ORDER
        PROCESS_RESUBSTITUTION AlgorithmSpec BenchmarkReport ProcessKind
        ReportRow derive_seed make_algorithm parse_algorithms parse_processes
        rank_algorithms run_benchmark run_process""",
    "linear_prob": """
        LdaModel LogisticModel NaiveBayesModel discriminant_table fisher_score
        fit_lda fit_logistic fit_naive_bayes lda_score
        logistic_loss_and_gradient mahalanobis_sq nb_posterior predict_lda
        predict_logistic predict_logistic_proba predict_nb""",
    "margin_instance": """
        KernelSpec KnnModel SvmBinaryModel SvmMulticlassModel default_gamma
        describe_svm fit_knn fit_svm_binary fit_svm_multiclass kernel_eval
        kernel_matrix knn_predict predict_svm svm_decision_value""",
    "metrics": """
        BinaryAggregates ConfusionMatrix MeasureSet confusion_matrix
        macro_aggregate measures one_vs_rest""",
    "model_io": "ModelBundle load_model save_model",
    "neural": """
        MlpModel TrainTrace fit_mlp forward mlp_gradients mlp_loss predict_mlp
        sigmoid trace_csv""",
    "trees": """
        DecisionTreeModel ForestModel conditional_entropy entropy
        fit_decision_tree fit_random_forest forest_error_trace forest_votes
        gini_impurity information_gain predict_forest predict_tree""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module behind `name` on its first read and keep the value."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
