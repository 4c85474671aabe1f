"""Kernel machines solved in the dual, and brute-force nearest neighbors."""

import re

import numpy as np
import pytest

from ecobench import (
    Dataset,
    KernelSpec,
    SvmBinaryModel,
    SvmMulticlassModel,
    SyntheticSpec,
    default_gamma,
    describe_svm,
    fit_knn,
    fit_svm_binary,
    fit_svm_multiclass,
    generate_ecological,
    kernel_eval,
    kernel_matrix,
    knn_predict,
    predict_svm,
    svm_decision_value,
)
from ecobench import margin_instance


def _names(p):
    return tuple(f"f{j}" for j in range(p))


def _two_class_blobs(seed, n_per=30, p=3, gap=3.0):
    rng = np.random.default_rng(seed)
    features = np.vstack(
        [rng.normal(0.0, 1.0, size=(n_per, p)), rng.normal(gap, 1.0, size=(n_per, p))]
    )
    labels = np.repeat([0, 1], n_per)
    return Dataset(features, labels, _names(p), ("neg", "pos"))


# ---------------------------------------------------------------- kernels


def test_default_gamma_is_reciprocal_feature_count():
    assert default_gamma(8) == 0.125
    assert default_gamma(4) == 0.25
    with pytest.raises(ValueError, match="at least 1"):
        default_gamma(0)


def test_kernel_eval_formulas():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    assert kernel_eval(KernelSpec("linear"), x, y) == pytest.approx(1.0)
    rbf = KernelSpec("rbf", gamma=0.5)
    assert kernel_eval(rbf, x, y) == pytest.approx(np.exp(-0.5 * 13.0))
    assert kernel_eval(rbf, x, x) == 1.0


def test_kernel_matrix_matches_pairwise_eval():
    rng = np.random.default_rng(29)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(5, 3))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)):
        full = kernel_matrix(spec, a, b)
        assert full.shape == (7, 5)
        for i in range(7):
            for j in range(5):
                assert full[i, j] == pytest.approx(kernel_eval(spec, a[i], b[j]))
    gram = kernel_matrix(KernelSpec("rbf", gamma=0.7), a, a)
    assert np.allclose(gram, gram.T)
    assert np.allclose(np.diag(gram), 1.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="linear' or 'rbf"):
        KernelSpec("poly")
    with pytest.raises(ValueError, match="gamma > 0"):
        KernelSpec("rbf")
    with pytest.raises(ValueError, match="no gamma"):
        KernelSpec("linear", gamma=1.0)
    assert KernelSpec("rbf", 0.125).display_name == "radial"
    with pytest.raises(ValueError, match="dimension"):
        kernel_eval(KernelSpec("linear"), [1.0], [1.0, 2.0])


# ---------------------------------------------------------------- binary SVM


def test_two_point_linear_problem_is_solved_exactly():
    ds = Dataset([[0.0], [2.0]], [0, 1], ("a",), ("neg", "pos"))
    model = fit_svm_binary(ds, kernel=KernelSpec("linear"))
    assert model.converged
    assert np.allclose(model.dual_weights, [0.5, -0.5])
    assert model.bias == pytest.approx(1.0, abs=1e-12)
    assert svm_decision_value(model, [1.0]) == pytest.approx(0.0, abs=1e-12)
    assert svm_decision_value(model, [0.0]) > 0
    assert svm_decision_value(model, [2.0]) < 0


def test_two_point_rbf_boundary_sits_at_the_midpoint():
    a = np.array([0.0, 0.0])
    b = np.array([2.0, 2.0])
    ds = Dataset(np.vstack([a, b]), [0, 1], ("x", "y"), ("neg", "pos"))
    model = fit_svm_binary(ds)
    assert model.kernel.gamma == 0.5
    assert abs(svm_decision_value(model, (a + b) / 2)) < 1e-9

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if svm_decision_value(model, a + mid * (b - a)) > 0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2 - 0.5) < 1e-6


def _per_point_kkt_violation(model, ds):
    """Largest complementary-slackness violation over the training rows."""
    y = np.where(ds.labels == 0, 1.0, -1.0)
    alpha_of = {}
    for row, weight in zip(model.support_vectors, model.dual_weights):
        alpha_of[tuple(row)] = abs(weight)
    worst = 0.0
    for x, y_i in zip(ds.features, y):
        alpha = alpha_of.get(tuple(x), 0.0)
        margin = y_i * svm_decision_value(model, x)
        if alpha <= 1e-8:
            violation = max(0.0, 1.0 - margin)
        elif alpha >= model.cost - 1e-8:
            violation = max(0.0, margin - 1.0)
        else:
            violation = abs(margin - 1.0)
        worst = max(worst, violation)
    return worst


def test_converged_models_are_dual_feasible():
    for seed in (101, 102, 103):
        for cost in (0.5, 1.0, 10.0):
            ds = _two_class_blobs(seed, n_per=30, gap=2.5)
            model = fit_svm_binary(ds, cost=cost)
            assert model.converged
            assert np.all(np.abs(model.dual_weights) <= cost * (1 + 1e-12))
            assert abs(model.dual_weights.sum()) < 1e-6
            assert model.kkt_residual < 1e-3
            assert _per_point_kkt_violation(model, ds) < 1e-3


def test_overlapping_data_clips_dual_weights_to_the_box():
    ds = _two_class_blobs(31, n_per=25, gap=0.5)
    model = fit_svm_binary(ds, cost=1.0)
    assert np.any(np.abs(model.dual_weights) == 1.0)
    assert np.all(np.abs(model.dual_weights) <= 1.0)


def test_iteration_cap_flags_nonconvergence():
    ds = _two_class_blobs(37, n_per=25, gap=0.5)
    model = fit_svm_binary(ds, max_iter=1)
    assert not model.converged
    assert model.kkt_residual >= 1e-3
    assert model.iterations == 1


def test_binary_fit_validation():
    ds = _two_class_blobs(41)
    with pytest.raises(ValueError, match="cost"):
        fit_svm_binary(ds, cost=0.0)
    lopsided = Dataset(np.eye(3), [0, 0, 0], _names(3), ("neg", "pos"))
    with pytest.raises(ValueError, match="exactly 2 classes"):
        fit_svm_binary(lopsided)


# ---------------------------------------------------------------- multiclass


def test_multiclass_builds_one_machine_per_pair():
    ds = generate_ecological(SyntheticSpec(seed=2))
    model = fit_svm_multiclass(ds)
    assert len(model.machines) == 3
    assert model.class_pairs == ((0, 1), (0, 2), (1, 2))
    assert model.cost == 1.0
    assert model.kernel.kind == "rbf"
    assert model.kernel.gamma == 0.125
    for machine in model.machines:
        assert machine.kernel == model.kernel


def test_describe_svm_field_shape():
    ds = generate_ecological(SyntheticSpec(seed=2))
    text = describe_svm(fit_svm_multiclass(ds))
    lines = text.strip().splitlines()
    assert lines[0] == "SVM-Type: C-classification"
    assert lines[1] == "SVM-Kernel: radial"
    assert lines[2] == "Cost: 1"
    assert lines[3] == "Gamma: 0.125"
    assert re.fullmatch(r"Number of Support Vectors: \d+ \(\d+ distinct rows\)", lines[4])
    assert lines[5] == "Number of Classes: 3"
    assert lines[6] == "Levels: C G S"


def _stub_machine(bias):
    return SvmBinaryModel(
        support_vectors=np.zeros((0, 2)),
        dual_weights=np.zeros(0),
        bias=bias,
        cost=1.0,
        kernel=KernelSpec("linear"),
        converged=True,
        kkt_residual=0.0,
        iterations=0,
    )


def test_predict_svm_vote_and_tie_rules():
    def model_with(biases):
        return SvmMulticlassModel(
            machines=tuple(_stub_machine(b) for b in biases),
            class_pairs=((0, 1), (0, 2), (1, 2)),
            n_classes=3,
            n_features=2,
            cost=1.0,
            kernel=KernelSpec("linear"),
            class_names=("A", "B", "C"),
        )

    # class 0 beats 1 and 2 outright
    assert predict_svm(model_with([1.0, 1.0, 1.0]), [0.0, 0.0]) == 0
    # one win each; class 2 carries the largest decision magnitude
    assert predict_svm(model_with([1.0, -2.0, 0.5]), [0.0, 0.0]) == 2
    # one win each with equal magnitudes; the lowest class index wins
    assert predict_svm(model_with([1.0, -1.0, 1.0]), [0.0, 0.0]) == 0
    # a zero decision value counts for the pair's first class
    assert predict_svm(model_with([0.0, 0.0, 0.0]), [0.0, 0.0]) == 0


def test_multiclass_separated_blobs_resubstitution():
    rng = np.random.default_rng(43)
    blocks = [rng.normal(6.0 * j, 1.0, size=(15, 3)) for j in range(3)]
    ds = Dataset(
        np.vstack(blocks), np.repeat([0, 1, 2], 15), _names(3), ("X", "Y", "Z")
    )
    model = fit_svm_multiclass(ds)
    assert model.converged
    predicted = [predict_svm(model, x) for x in ds.features]
    assert np.array_equal(predicted, ds.labels)


def test_multiclass_accepts_kernel_override():
    ds = generate_ecological(SyntheticSpec(seed=3))
    model = fit_svm_multiclass(ds, cost=2.0, kernel=KernelSpec("linear"))
    assert model.kernel == KernelSpec("linear")
    assert "SVM-Kernel: linear" in describe_svm(model)
    assert "Gamma" not in describe_svm(model)


# ---------------------------------------------------------------- k-NN


def test_knn_matches_exhaustive_scan():
    rng = np.random.default_rng(47)
    train = rng.normal(size=(120, 4))
    labels = rng.integers(0, 3, size=120)
    ds = Dataset(train, labels, _names(4), ("X", "Y", "Z"))
    model = fit_knn(ds, k=5)
    for x in rng.normal(size=(200, 4)):
        ranked = sorted(range(120), key=lambda i: (np.sum((train[i] - x) ** 2), i))
        votes = np.bincount(labels[ranked[:5]], minlength=3)
        assert knn_predict(model, x) == int(np.argmax(votes))


def test_knn_k1_memorizes_training_rows():
    ds = _two_class_blobs(53, n_per=20)
    model = fit_knn(ds, k=1)
    assert all(knn_predict(model, x) == y for x, y in zip(ds.features, ds.labels))


def test_knn_distance_tie_prefers_lower_training_index():
    ds = Dataset([[0.0], [2.0]], [1, 0], ("a",), ("X", "Y"))
    model = fit_knn(ds, k=1)
    assert knn_predict(model, [1.0]) == 1


def test_knn_label_tie_prefers_lower_class_index():
    ds = Dataset([[0.0], [2.0]], [1, 0], ("a",), ("X", "Y"))
    model = fit_knn(ds, k=2)
    assert knn_predict(model, [0.9]) == 0


def test_knn_default_k_and_validation():
    ds = _two_class_blobs(59, n_per=5)
    assert fit_knn(ds).k == 3
    with pytest.raises(ValueError, match="k must be in"):
        fit_knn(ds, k=0)
    with pytest.raises(ValueError, match="k must be in"):
        fit_knn(ds, k=11)
    model = fit_knn(ds, k=3)
    with pytest.raises(ValueError, match="expected 3 feature values"):
        knn_predict(model, [1.0])


# ---------------------------------------------------------------- matrix predictors


def _svm_decision_one(model, x):
    """The one-row decision value the matrix form replaced."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if not model.n_support:
        return model.bias
    values = kernel_matrix(model.kernel, model.support_vectors, x[None, :])[:, 0]
    return float(model.dual_weights @ values + model.bias)


def _svm_vote_one(model, x):
    """(wins, magnitudes, label) of the one-row vote the matrix form replaced."""
    wins = np.zeros(model.n_classes)
    magnitude = np.zeros(model.n_classes)
    for machine, (a, b) in zip(model.machines, model.class_pairs):
        value = _svm_decision_one(machine, x)
        winner = a if value >= 0 else b
        wins[winner] += 1
        magnitude[winner] += abs(value)
    best = 0
    for candidate in range(1, model.n_classes):
        if (wins[candidate], magnitude[candidate]) > (wins[best], magnitude[best]):
            best = candidate
    return wins, magnitude, best


def _knn_one(model, x):
    """(sorted distances, votes, label) of the one-row k-NN the matrix form replaced."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    diff = model.features - x
    distances = (diff * diff).sum(axis=1)
    order = np.argsort(distances, kind="stable")
    votes = np.bincount(model.labels[order[: model.k]], minlength=model.n_classes)
    return distances[order], votes, int(np.argmax(votes))


def _linear_machine(direction):
    """A one-support-vector linear machine whose decision value is direction . x."""
    return SvmBinaryModel(
        support_vectors=np.array([direction], dtype=np.float64),
        dual_weights=np.ones(1),
        bias=0.0,
        cost=1.0,
        kernel=KernelSpec("linear"),
        converged=True,
        kkt_residual=0.0,
        iterations=0,
    )


def test_matrix_svm_equals_stacked_one_row_oracle():
    rng = np.random.default_rng(81)
    for seed, c in ((82, 2), (83, 3), (84, 4)):
        blocks = [rng.normal(2.0 * j, 1.5, size=(12, 3)) for j in range(c)]
        ds = Dataset(np.vstack(blocks), np.repeat(np.arange(c), 12), _names(3), tuple("WXYZ"[:c]))
        model = fit_svm_multiclass(ds)
        rows = np.vstack([ds.features, rng.normal(2.0, 4.0, size=(300, 3))])
        for machine in model.machines:
            values = [_svm_decision_one(machine, x) for x in rows]
            assert np.allclose(svm_decision_value(machine, rows), values, rtol=1e-12, atol=1e-12)
        expected = [_svm_vote_one(model, x)[2] for x in rows]
        assert predict_svm(model, rows).tolist() == expected


def test_matrix_svm_cyclic_vote_ties_fall_to_magnitude_then_index():
    # pair (0,1) follows x0, (0,2) follows x1, (1,2) follows x0 + x1: on integer
    # rows with x0 >= 0, x1 < 0, x0 + x1 >= 0 each class wins once
    model = SvmMulticlassModel(
        machines=tuple(_linear_machine(d) for d in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])),
        class_pairs=((0, 1), (0, 2), (1, 2)),
        n_classes=3,
        n_features=2,
        cost=1.0,
        kernel=KernelSpec("linear"),
        class_names=("A", "B", "C"),
    )
    grid = np.arange(-3.0, 4.0)
    rows = np.array([[a, b] for a in grid for b in grid])
    votes = [_svm_vote_one(model, x) for x in rows]
    cyclic = [w.max() == w.min() for w, _, _ in votes]
    magnitude_tie = [
        c and np.sum(m == m.max()) > 1 for c, (_, m, _) in zip(cyclic, votes)
    ]
    assert any(cyclic) and not all(cyclic)
    assert any(magnitude_tie)
    assert predict_svm(model, rows).tolist() == [label for _, _, label in votes]


def test_matrix_knn_equals_stacked_one_row_oracle_with_ties(monkeypatch):
    rng = np.random.default_rng(85)
    train = rng.integers(0, 3, size=(40, 2)).astype(np.float64)  # duplicate rows
    labels = rng.integers(0, 3, size=40)
    ds = Dataset(train, labels, _names(2), ("X", "Y", "Z"))
    rows = np.vstack([train, rng.integers(-1, 4, size=(1200, 2)).astype(np.float64)])
    for k in (1, 2, 4, 7):
        model = fit_knn(ds, k=k)
        oracle = [_knn_one(model, x) for x in rows]
        expected = [label for _, _, label in oracle]
        if k > 1:  # distance ties across the k-th neighbor and vote ties both occur
            assert any(d[k - 1] == d[k] for d, _, _ in oracle)
            assert any(np.sum(v == v.max()) > 1 for _, v, _ in oracle)
        assert knn_predict(model, rows).tolist() == expected
        with monkeypatch.context() as patch:  # blocks of 7 rows, the last one short
            patch.setattr(margin_instance, "KNN_BLOCK_FLOATS", 7 * 40 * 2)
            assert knn_predict(model, rows).tolist() == expected


def test_one_row_gives_python_int_and_wrong_width_raises():
    ds = _two_class_blobs(86, n_per=10)
    svm, knn = fit_svm_multiclass(ds), fit_knn(ds, k=3)
    for predict, model in ((predict_svm, svm), (knn_predict, knn)):
        assert type(predict(model, ds.features[0])) is int
        assert predict(model, ds.features[:1]).shape == (1,)
        with pytest.raises(ValueError, match="expected 3 feature values, got 2"):
            predict(model, np.zeros((4, 2)))
    machine = svm.machines[0]
    assert isinstance(svm_decision_value(machine, ds.features[0]), float)
    assert svm_decision_value(machine, ds.features).shape == (20,)
    assert svm_decision_value(_stub_machine(0.5), np.zeros((3, 2))).tolist() == [0.5] * 3
