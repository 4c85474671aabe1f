"""From-scratch supervised classifiers with a reproducible benchmark harness.

Eight classifiers (decision tree, random forest, feed-forward network, SVM,
discriminant analysis, k-NN, logistic regression, naive Bayes) share one
dataset model and one metric suite, and are compared under resubstitution,
holdout and k-fold cross-validation.
"""

from .dataset import (
    ECO_FEATURE_NAMES,
    ECO_LABEL_COLUMN,
    Dataset,
    FoldPlan,
    ScalingParams,
    SyntheticSpec,
    generate_ecological,
    k_fold,
    load_csv,
    save_csv,
    standardize,
    train_test_split,
)
from .evaluation import (
    ALGORITHM_ORDER,
    PROCESS_CV,
    PROCESS_HOLDOUT,
    PROCESS_ORDER,
    PROCESS_RESUBSTITUTION,
    AlgorithmSpec,
    BenchmarkReport,
    ProcessKind,
    ReportRow,
    derive_seed,
    make_algorithm,
    parse_algorithms,
    parse_processes,
    rank_algorithms,
    run_benchmark,
    run_process,
)
from .linear_prob import (
    LdaModel,
    LogisticModel,
    NaiveBayesModel,
    discriminant_table,
    fisher_score,
    fit_lda,
    fit_logistic,
    fit_naive_bayes,
    lda_score,
    logistic_loss_and_gradient,
    mahalanobis_sq,
    nb_posterior,
    predict_lda,
    predict_logistic,
    predict_logistic_proba,
    predict_nb,
)
from .margin_instance import (
    KernelSpec,
    KnnModel,
    SvmBinaryModel,
    SvmMulticlassModel,
    default_gamma,
    describe_svm,
    fit_knn,
    fit_svm_binary,
    fit_svm_multiclass,
    kernel_eval,
    kernel_matrix,
    knn_predict,
    predict_svm,
    svm_decision_value,
)
from .metrics import (
    BinaryAggregates,
    ConfusionMatrix,
    MeasureSet,
    confusion_matrix,
    macro_aggregate,
    measures,
    one_vs_rest,
)
from .model_io import ModelBundle, load_model, save_model
from .neural import (
    MlpModel,
    TrainTrace,
    fit_mlp,
    forward,
    mlp_gradients,
    mlp_loss,
    predict_mlp,
    sigmoid,
    trace_csv,
)
from .trees import (
    DecisionTreeModel,
    ForestModel,
    conditional_entropy,
    entropy,
    fit_decision_tree,
    fit_random_forest,
    forest_error_trace,
    forest_votes,
    gini_impurity,
    information_gain,
    predict_forest,
    predict_tree,
)

__version__ = "0.1.0"
