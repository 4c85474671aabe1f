"""The package namespace: `import ecobench` loads a module on first use of one of its names."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecobench

# Every public name, by the module that defines it
_EXPORTS = {
    "dataset": [
        "ECO_FEATURE_NAMES", "ECO_LABEL_COLUMN", "Dataset", "FoldPlan", "ScalingParams",
        "SyntheticSpec", "generate_ecological", "k_fold", "load_csv", "save_csv",
        "standardize", "train_test_split",
    ],
    "evaluation": [
        "ALGORITHM_ORDER", "PROCESS_CV", "PROCESS_HOLDOUT", "PROCESS_ORDER",
        "PROCESS_RESUBSTITUTION", "AlgorithmSpec", "BenchmarkReport", "ProcessKind",
        "ReportRow", "derive_seed", "make_algorithm", "parse_algorithms", "parse_processes",
        "rank_algorithms", "run_benchmark", "run_process",
    ],
    "linear_prob": [
        "LdaModel", "LogisticModel", "NaiveBayesModel", "discriminant_table", "fisher_score",
        "fit_lda", "fit_logistic", "fit_naive_bayes", "lda_score",
        "logistic_loss_and_gradient", "mahalanobis_sq", "nb_posterior", "predict_lda",
        "predict_logistic", "predict_logistic_proba", "predict_nb",
    ],
    "margin_instance": [
        "KernelSpec", "KnnModel", "SvmBinaryModel", "SvmMulticlassModel", "default_gamma",
        "describe_svm", "fit_knn", "fit_svm_binary", "fit_svm_multiclass", "kernel_eval",
        "kernel_matrix", "knn_predict", "predict_svm", "svm_decision_value",
    ],
    "metrics": [
        "BinaryAggregates", "ConfusionMatrix", "MeasureSet", "confusion_matrix",
        "macro_aggregate", "measures", "one_vs_rest",
    ],
    "model_io": ["ModelBundle", "load_model", "save_model"],
    "neural": [
        "MlpModel", "TrainTrace", "fit_mlp", "forward", "mlp_gradients", "mlp_loss",
        "predict_mlp", "sigmoid", "trace_csv",
    ],
    "trees": [
        "DecisionTreeModel", "ForestModel", "conditional_entropy", "entropy",
        "fit_decision_tree", "fit_random_forest", "forest_error_trace", "forest_votes",
        "gini_impurity", "information_gain", "predict_forest", "predict_tree",
    ],
}


def test_all_holds_the_89_public_names_each_the_object_its_module_defines():
    names = [name for module_names in _EXPORTS.values() for name in module_names]
    assert len(names) == 89
    assert sorted(ecobench.__all__) == sorted(names)
    assert len(set(ecobench.__all__)) == len(ecobench.__all__)
    for module, module_names in _EXPORTS.items():
        defined_in = importlib.import_module(f"ecobench.{module}")
        for name in module_names:
            assert getattr(ecobench, name) is getattr(defined_in, name), name
    assert set(ecobench.__all__) <= set(dir(ecobench))


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as caught:
        ecobench.no_such_name  # noqa: B018
    assert str(caught.value) == "module 'ecobench' has no attribute 'no_such_name'"
    assert not hasattr(ecobench, "no_such_name")
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from ecobench import no_such_name  # noqa: F401


def test_import_loads_no_module_until_a_name_of_it_is_read():
    # a fresh interpreter, so that no test has imported a module already
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = (
        "import json, sys\n"
        "def ours(): return {m for m in sys.modules if m.startswith('ecobench.')}\n"
        "import ecobench\n"
        "bare = sorted(ours()), 'numpy' in sys.modules\n"
        # the names the set-up of a benchmark run reads, to build and write its tables
        "ecobench.generate_ecological, ecobench.SyntheticSpec, ecobench.save_csv\n"
        "ecobench.ECO_LABEL_COLUMN\n"
        "table = sorted(ours())\n"
        "trees = ecobench.trees is sys.modules['ecobench.trees']\n"
        "namespace = {}\n"
        "exec('from ecobench import *', namespace)\n"
        "star = sorted(name for name in namespace if name != '__builtins__')\n"
        "same = all(namespace[name] is getattr(ecobench, name) for name in star)\n"
        "print(json.dumps([bare, table, trees, star, same]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    bare, table, trees, star, same = json.loads(done.stdout)
    assert bare == [[], False]
    assert table == ["ecobench.dataset"]
    assert trees
    assert star == sorted(name for names in _EXPORTS.values() for name in names)
    assert same
