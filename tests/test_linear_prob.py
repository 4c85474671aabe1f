"""Discriminant analysis, softmax regression, and Gaussian naive Bayes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecobench import (
    Dataset,
    LdaModel,
    LogisticModel,
    NaiveBayesModel,
    discriminant_table,
    fisher_score,
    fit_lda,
    fit_logistic,
    fit_naive_bayes,
    lda_score,
    load_csv,
    logistic_loss_and_gradient,
    mahalanobis_sq,
    nb_posterior,
    predict_lda,
    predict_logistic,
    predict_logistic_proba,
    predict_nb,
    standardize,
)
from ecobench.linear_prob import LDA_REGULARIZATION_EPSILON, _softmax_rows


def _names(p):
    return tuple(f"f{j}" for j in range(p))


def _blob_dataset(seed, n_per=20, p=4, c=3, gap=6.0):
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(gap * j, 1.0, size=(n_per, p)) for j in range(c)]
    labels = np.repeat(np.arange(c), n_per)
    return Dataset(np.vstack(blocks), labels, _names(p), tuple("XYZWV"[:c]))


# ---------------------------------------------------------------- LDA


def test_lda_separated_classes_resubstitution():
    ds = _blob_dataset(1)
    model = fit_lda(ds)
    predicted = [predict_lda(model, x) for x in ds.features]
    assert np.array_equal(predicted, ds.labels)


def test_lda_means_priors_and_pooled_covariance():
    ds = _blob_dataset(2, n_per=15)
    model = fit_lda(ds)
    for j in range(3):
        rows = ds.features[ds.labels == j]
        assert np.allclose(model.class_means[j], rows.mean(axis=0))
    assert np.allclose(model.priors, [1 / 3, 1 / 3, 1 / 3])

    pooled = np.zeros((4, 4))
    for j in range(3):
        rows = ds.features[ds.labels == j]
        centered = rows - rows.mean(axis=0)
        pooled += centered.T @ centered
    pooled /= ds.n_samples
    ridge = LDA_REGULARIZATION_EPSILON * np.trace(pooled) / 4
    assert np.allclose(model.pooled_covariance, pooled + ridge * np.eye(4), atol=1e-12)


def test_lda_axes_count_and_normalization():
    ds = _blob_dataset(3, p=6)
    model = fit_lda(ds)
    assert model.discriminant_axes.shape == (2, 6)
    for axis in model.discriminant_axes:
        assert axis @ model.pooled_covariance @ axis == pytest.approx(1.0, abs=1e-9)


def test_fisher_score_is_maximized_by_first_axis():
    ds = _blob_dataset(4, p=5)
    model = fit_lda(ds)
    best = fisher_score(model, model.discriminant_axes[0])
    rng = np.random.default_rng(5)
    for _ in range(200):
        direction = rng.normal(size=5)
        direction /= np.linalg.norm(direction)
        assert fisher_score(model, direction) <= best * (1 + 1e-9) + 1e-12


def test_lda_score_scale_invariant_and_symmetric():
    ds = _blob_dataset(6)
    model = fit_lda(ds)
    direction = np.arange(1.0, 5.0)
    assert lda_score(model, direction, 0, 1) == pytest.approx(
        lda_score(model, 3.7 * direction, 0, 1)
    )
    assert lda_score(model, direction, 0, 1) == pytest.approx(
        lda_score(model, direction, 1, 0)
    )


def test_mahalanobis_known_values():
    model = LdaModel(
        class_means=np.array([[0.0, 0.0], [3.0, 4.0]]),
        pooled_covariance=np.eye(2),
        priors=np.array([0.5, 0.5]),
        discriminant_axes=np.array([[1.0, 0.0]]),
        regularization_epsilon=0.0,
    )
    assert mahalanobis_sq(model, 0, 0) == 0.0
    assert mahalanobis_sq(model, 0, 1) == pytest.approx(25.0, abs=1e-12)
    assert mahalanobis_sq(model, 1, 0) == pytest.approx(25.0, abs=1e-12)


def test_mahalanobis_affine_invariance():
    ds = _blob_dataset(7, gap=3.0)
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    transform = q @ np.diag(rng.uniform(0.5, 2.0, size=4))
    shifted = Dataset(
        ds.features @ transform.T + rng.normal(size=4),
        ds.labels,
        ds.feature_names,
        ds.class_names,
    )
    original = fit_lda(ds)
    mapped = fit_lda(shifted)
    for i in range(3):
        for j in range(3):
            assert abs(
                mahalanobis_sq(original, i, j) - mahalanobis_sq(mapped, i, j)
            ) < 1e-6


def test_predict_lda_picks_nearest_mean_under_equal_priors():
    ds = _blob_dataset(9, gap=4.0)
    model = fit_lda(ds)
    inv = np.linalg.inv(model.pooled_covariance)
    rng = np.random.default_rng(10)
    for x in rng.normal(4.0, 5.0, size=(40, 4)):
        distances = [
            (x - mean) @ inv @ (x - mean) for mean in model.class_means
        ]
        assert predict_lda(model, x) == int(np.argmin(distances))


def test_discriminant_table_lists_axis_coefficients():
    ds = _blob_dataset(11)
    model = fit_lda(ds)
    lines = discriminant_table(model, ds.feature_names).strip().splitlines()
    assert lines[0] == "feature,LD1,LD2"
    assert len(lines) == 1 + ds.n_features
    name, ld1, ld2 = lines[1].split(",")
    assert name == "f0"
    assert float(ld1) == pytest.approx(model.discriminant_axes[0, 0], rel=1e-9)
    assert float(ld2) == pytest.approx(model.discriminant_axes[1, 0], rel=1e-9)


def test_fit_lda_validation():
    tiny = Dataset(np.eye(3), [0, 1, 2], _names(3), ("X", "Y", "Z"))
    with pytest.raises(ValueError, match="more samples than classes"):
        fit_lda(tiny)
    lone = Dataset(
        np.arange(10.0).reshape(5, 2), [0, 0, 1, 1, 2], ("a", "b"), ("X", "Y", "Z")
    )
    with pytest.raises(ValueError, match="at least 2 samples"):
        fit_lda(lone)
    flat = Dataset(np.ones((6, 2)), [0, 0, 0, 1, 1, 1], ("a", "b"), ("X", "Y"))
    with pytest.raises(ValueError, match="constant"):
        fit_lda(flat)


def _between_scatter(model):
    centered = model.class_means - model.priors @ model.class_means
    return (centered.T * model.priors) @ centered


def _assert_sign_rule(axes):
    for axis in axes:
        assert axis[np.argmax(np.abs(axis))] > 0


def test_lda_axes_match_the_stored_generalized_eigensolve():
    # tests/data/v1/LDA.json was written by a generalized symmetric
    # eigensolver (LAPACK sygvd) from train.csv, standardized as `fit` does
    data = Path(__file__).resolve().parent / "data" / "v1"
    stored = json.loads((data / "LDA.json").read_text(encoding="utf-8"))
    expected = np.array(stored["model"]["discriminant_axes"])
    train, _ = standardize(load_csv(data / "train.csv", "sediment"))
    axes = fit_lda(train).discriminant_axes
    assert axes.shape == expected.shape
    for axis, reference in zip(axes, expected):
        sign = np.sign(axis @ reference)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(axis - sign * reference)) <= 1e-12 * scale
    _assert_sign_rule(axes)


@pytest.mark.parametrize("seed", range(12))
def test_lda_axes_solve_the_generalized_eigenproblem(seed):
    rng = np.random.default_rng(300 + seed)
    p, c = int(rng.integers(1, 9)), int(rng.integers(2, 7))
    counts = rng.integers(2, 25, size=c)
    features = np.vstack([
        rng.normal(rng.normal(0.0, 2.0, size=p), rng.uniform(0.2, 3.0, size=p), size=(m, p))
        for m in counts
    ]) * rng.uniform(0.01, 100.0, size=p)
    labels = np.repeat(np.arange(c), counts)
    model = fit_lda(Dataset(features, labels, _names(p), tuple("ABCDEF"[:c])))
    axes, cov, between = model.discriminant_axes, model.pooled_covariance, _between_scatter(model)
    assert axes.shape == (min(c - 1, p), p)

    gram = axes @ cov @ axes.T
    assert np.allclose(gram, np.eye(len(axes)), rtol=0.0, atol=1e-12)
    eigenvalues = np.einsum("ij,jk,ik->i", axes, between, axes)
    norms = np.linalg.norm(between, 2), np.linalg.norm(cov, 2)
    for lam, v in zip(eigenvalues, axes):
        residual = np.linalg.norm(between @ v - lam * (cov @ v))
        assert residual <= 1e-10 * (norms[0] + abs(lam) * norms[1]) * np.linalg.norm(v)
    assert np.all(np.diff(eigenvalues) <= 1e-12 * eigenvalues[0])
    _assert_sign_rule(axes)


def test_import_and_lda_fit_and_predict_load_no_package_beyond_numpy():
    # numpy is the one runtime dependency: after numpy and numpy.random (whose
    # Cython modules load two helper modules), importing ecobench and
    # fitting and applying an LDA model adds no top-level module but
    # ecobench's own and the standard library's
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    script = (
        "import sys, numpy, numpy.random\n"
        "def tops(): return {m.split('.')[0] for m in sys.modules}\n"
        "before = tops()\n"
        "import ecobench\n"
        "ds, _ = ecobench.standardize(ecobench.generate_ecological(ecobench.SyntheticSpec()))\n"
        "ecobench.predict_lda(ecobench.fit_lda(ds), ds.features)\n"
        "print(sorted(tops() - before - set(sys.stdlib_module_names)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['ecobench']\n"


# ---------------------------------------------------------------- logistic


def test_logistic_loss_at_zero_weights_is_log_c():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(15, 3))
    y = rng.integers(0, 4, size=15)
    loss, grad = logistic_loss_and_gradient(np.zeros((4, 4)), x, y)
    assert loss == pytest.approx(np.log(4.0))
    assert np.all(grad[-1] == 0.0)


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 3, size=12)
    w = rng.normal(scale=0.5, size=(3, 4))
    w[-1] = 0.0
    _, grad = logistic_loss_and_gradient(w, x, y)
    step = 1e-6
    for row in range(2):
        for col in range(4):
            bumped = w.copy()
            bumped[row, col] += step
            up, _ = logistic_loss_and_gradient(bumped, x, y)
            bumped[row, col] -= 2 * step
            down, _ = logistic_loss_and_gradient(bumped, x, y)
            numeric = (up - down) / (2 * step)
            assert grad[row, col] == pytest.approx(numeric, abs=1e-7)


def test_fit_logistic_learns_separated_blobs():
    ds, _ = standardize(_blob_dataset(14, gap=3.0))
    model = fit_logistic(ds, learning_rate=0.5, max_iter=2000)
    predicted = [predict_logistic(model, x) for x in ds.features]
    assert np.array_equal(predicted, ds.labels)
    assert model.loss_history[-1] <= model.loss_history[0]
    assert model.final_loss < np.log(3.0)


def test_fit_logistic_stops_when_loss_settles():
    ds, _ = standardize(_blob_dataset(15, n_per=10, gap=4.0))
    model = fit_logistic(ds, learning_rate=0.2, max_iter=50000, tolerance=1e-6)
    assert model.iterations < 50000
    assert len(model.loss_history) == model.iterations + 1


def _loss_and_gradient_inline(weights, features, labels):
    """Reference loss and gradient, every intermediate built inline."""
    n = features.shape[0]
    xt = np.hstack([np.ones((n, 1)), features])
    scores = xt @ weights.T
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), labels] = 1.0
    grad = (probs - onehot).T @ xt / n
    grad[-1] = 0.0
    return loss, grad


def test_logistic_loss_and_gradient_equal_inline_form():
    rng = np.random.default_rng(23)
    for n, p, c in ((12, 3, 2), (40, 5, 4), (7, 1, 6)):
        x = rng.normal(size=(n, p))
        y = rng.integers(0, c, size=n)
        w = rng.normal(scale=2.0, size=(c, p + 1))
        w[-1] = 0.0
        loss, grad = logistic_loss_and_gradient(w, x, y)
        expected_loss, expected_grad = _loss_and_gradient_inline(w, x, y)
        assert np.float64(loss).tobytes() == np.float64(expected_loss).tobytes()
        assert grad.tobytes() == expected_grad.tobytes()


def _fit_logistic_stepwise(ds, learning_rate, max_iter, tolerance):
    """Reference descent loop: `logistic_loss_and_gradient` rebuilds the
    design matrix and one-hot labels on every iteration."""
    w = np.zeros((ds.n_classes, ds.n_features + 1))
    history = []
    prev = None
    iterations = 0
    for it in range(max_iter):
        loss, grad = logistic_loss_and_gradient(w, ds.features, ds.labels)
        history.append(loss)
        if prev is not None and 0.0 <= prev - loss < tolerance:
            break
        w = w - learning_rate * grad
        prev = loss
        iterations = it + 1
    final_loss, _ = logistic_loss_and_gradient(w, ds.features, ds.labels)
    return w, iterations, final_loss, history


@pytest.mark.parametrize(
    "max_iter, tolerance, stops_early",
    [(400, 0.0, False), (50000, 1e-4, True)],
    ids=["runs-to-cap", "stops-early"],
)
def test_fit_logistic_equals_stepwise_oracle(max_iter, tolerance, stops_early):
    ds, _ = standardize(_blob_dataset(19, n_per=10, c=4, gap=2.0))
    model = fit_logistic(ds, learning_rate=0.2, max_iter=max_iter, tolerance=tolerance)
    w, iterations, final_loss, history = _fit_logistic_stepwise(ds, 0.2, max_iter, tolerance)
    assert (model.iterations < max_iter) == stops_early
    assert model.iterations == iterations
    assert model.weights.tobytes() == w.tobytes()
    assert np.array(model.loss_history).tobytes() == np.array(history).tobytes()
    assert np.float64(model.final_loss).tobytes() == np.float64(final_loss).tobytes()


def test_predict_logistic_proba_sums_to_one():
    ds = _blob_dataset(16)
    model = fit_logistic(ds, max_iter=200)
    rng = np.random.default_rng(17)
    for x in rng.normal(size=(30, 4)):
        probs = predict_logistic_proba(model, x)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)


def _softmax_by_reductions(scores):
    """The row softmax written with numpy's `max` and `sum` reductions."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_helper_keeps_the_bits_of_the_reductions():
    # the column chains give the reductions' bits for c < 8 and the helper
    # keeps `sum` from 8 classes on; rows with infinities and NaN included
    rng = np.random.default_rng(31)
    for c in range(2, 13):
        for shape in ((1, c), (7, c), (5, 30, c), (2, 3, 4, c)):
            scores = rng.normal(scale=rng.choice([1.0, 30.0, 800.0]), size=shape)
            flat = scores.reshape(-1, c)
            rows = rng.choice(len(flat), size=max(1, len(flat) // 2), replace=False)
            flat[rows, rng.integers(0, c, size=rows.size)] = rng.choice(
                [np.inf, -np.inf, np.nan, 0.0, -0.0], size=rows.size)
            with np.errstate(invalid="ignore"):
                expected = _softmax_by_reductions(scores)
                assert _softmax_rows(scores).tobytes() == expected.tobytes()


@pytest.mark.parametrize("c", [3, 9])
def test_predict_logistic_proba_keeps_the_bits_of_the_reductions(c):
    rng = np.random.default_rng(18)
    ds = Dataset(rng.normal(size=(8 * c, 4)), np.repeat(np.arange(c), 8), _names(4),
                 tuple(f"k{j}" for j in range(c)))
    model = fit_logistic(ds, max_iter=300)

    def by_reductions(rows):
        probs = _softmax_by_reductions(np.hstack([np.ones((len(rows), 1)), rows]) @ model.weights.T)
        return probs / probs.sum(axis=1, keepdims=True)

    rows = rng.normal(scale=3.0, size=(3000, 4))
    assert predict_logistic_proba(model, rows).tobytes() == by_reductions(rows).tobytes()
    assert predict_logistic_proba(model, rows[7]).tobytes() == by_reductions(rows[7:8])[0].tobytes()


def test_predict_logistic_names_scores_that_overflow():
    # row 1's scores (1e308, -1e308, 0) shift past the float range only for
    # class 1, whose probability is then 0; row 2's first score overflows
    model = LogisticModel(np.array([[0.0, 1e308], [0.0, -1e308], [0.0, 0.0]]), 1, 0.0)
    assert predict_logistic_proba(model, [1.0]).tolist() == [1.0, 0.0, 0.0]
    assert predict_logistic(model, np.array([[1.0], [-1.0]])).tolist() == [0, 1]
    with pytest.raises(ValueError, match="class scores are not finite"):
        predict_logistic(model, np.array([[1.0], [2.0]]))


def test_logistic_model_requires_pinned_last_row():
    with pytest.raises(ValueError, match="pinned"):
        LogisticModel(
            weights=np.ones((2, 3)), iterations=1, final_loss=0.5, loss_history=()
        )


def test_fit_logistic_validation():
    ds = _blob_dataset(18)
    with pytest.raises(ValueError, match="learning_rate"):
        fit_logistic(ds, learning_rate=0.0)
    tiny = Dataset([[0.0], [1.0]], [0, 1], ("a",), ("X", "Y", "Z"))
    with pytest.raises(ValueError, match="as many samples as classes"):
        fit_logistic(tiny)


# ---------------------------------------------------------------- naive Bayes


def test_nb_fit_matches_per_class_moments():
    ds = _blob_dataset(19, n_per=12)
    model = fit_naive_bayes(ds)
    for j in range(3):
        rows = ds.features[ds.labels == j]
        assert np.allclose(model.means[j], rows.mean(axis=0))
        assert np.allclose(model.variances[j], rows.var(axis=0))
    assert np.allclose(model.priors, [1 / 3, 1 / 3, 1 / 3])


def test_nb_posterior_matches_direct_product():
    ds = _blob_dataset(20, gap=2.0)
    model = fit_naive_bayes(ds)
    rng = np.random.default_rng(21)
    for x in rng.normal(2.0, 3.0, size=(60, 4)):
        direct = model.priors * np.prod(
            np.exp(-0.5 * (x - model.means) ** 2 / model.variances)
            / np.sqrt(2 * np.pi * model.variances),
            axis=1,
        )
        direct /= direct.sum()
        assert np.allclose(nb_posterior(model, x), direct, atol=1e-12)


def test_nb_posterior_sums_to_one_and_predicts_argmax():
    ds = _blob_dataset(22)
    model = fit_naive_bayes(ds)
    rng = np.random.default_rng(23)
    for x in rng.normal(size=(25, 4)):
        post = nb_posterior(model, x)
        assert post.sum() == pytest.approx(1.0, abs=1e-12)
        assert predict_nb(model, x) == int(np.argmax(post))


def test_nb_recovers_separated_blobs():
    ds = _blob_dataset(24)
    model = fit_naive_bayes(ds)
    predicted = [predict_nb(model, x) for x in ds.features]
    assert np.array_equal(predicted, ds.labels)


def test_nb_variance_floor_handles_constant_feature():
    features = np.column_stack(
        [np.full(12, 3.0), np.random.default_rng(25).normal(size=12)]
    )
    ds = Dataset(features, np.repeat([0, 1], 6), ("const", "noise"), ("X", "Y"))
    model = fit_naive_bayes(ds)
    assert np.all(model.variances > 0)
    post = nb_posterior(model, [3.0, 0.2])
    assert np.all(np.isfinite(post))


def test_nb_requires_every_class_present():
    ds = Dataset(np.eye(4), [0, 0, 1, 1], _names(4), ("X", "Y", "Z"))
    with pytest.raises(ValueError, match="no samples"):
        fit_naive_bayes(ds)


# ---------------------------------------------------------------- matrix predictors


def _lda_scores_one(model, x):
    """The one-row LDA scores the matrix predictor replaced."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    weights = np.linalg.solve(model.pooled_covariance, model.class_means.T)
    return x @ weights - 0.5 * np.sum(model.class_means.T * weights, axis=0) + np.log(
        model.priors
    )


def _logistic_proba_one(model, x):
    """The one-row softmax the matrix predictor replaced."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    scores = model.weights @ np.concatenate([[1.0], x])
    e = np.exp(scores - scores.max())
    probs = e / e.sum()
    return probs / probs.sum()


def _nb_posterior_one(model, x):
    """The one-row posterior the matrix predictor replaced."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    log_like = -0.5 * (
        np.log(2.0 * np.pi * model.variances) + (x - model.means) ** 2 / model.variances
    ).sum(axis=1)
    log_post = np.log(model.priors) + log_like
    log_post -= log_post.max()
    post = np.exp(log_post)
    return post / post.sum()


def _probe_rows(ds, rng):
    return np.vstack([ds.features, rng.normal(0.0, 8.0, size=(300, ds.n_features))])


def _tied_models(p, c=3):
    """An LDA, LR and NB model whose class scores are equal for every row."""
    priors = np.full(c, 1.0 / c)
    lda = LdaModel(
        class_means=np.zeros((c, p)), pooled_covariance=np.eye(p), priors=priors,
        discriminant_axes=np.eye(p)[: c - 1], regularization_epsilon=0.0,
    )
    lr = LogisticModel(weights=np.zeros((c, p + 1)), iterations=0, final_loss=0.0)
    nb = NaiveBayesModel(
        priors=priors, means=np.tile(np.linspace(-1.0, 1.0, p), (c, 1)),
        variances=np.ones((c, p)), variance_floor=np.full(p, 1e-9),
    )
    return lda, lr, nb


def test_matrix_predictors_equal_stacked_one_row_oracles():
    rng = np.random.default_rng(61)
    for seed, c in ((62, 2), (63, 3), (64, 5)):
        ds, _ = standardize(_blob_dataset(seed, n_per=12, p=4, c=c, gap=1.5))
        rows = _probe_rows(ds, rng)
        lda, lr, nb = fit_lda(ds), fit_logistic(ds, max_iter=300), fit_naive_bayes(ds)

        expected = np.vstack([_lda_scores_one(lda, x) for x in rows]).argmax(axis=1)
        assert np.array_equal(predict_lda(lda, rows), expected)

        probs = np.vstack([_logistic_proba_one(lr, x) for x in rows])
        assert np.allclose(predict_logistic_proba(lr, rows), probs, rtol=0.0, atol=1e-12)
        assert np.array_equal(predict_logistic(lr, rows), probs.argmax(axis=1))

        post = np.vstack([_nb_posterior_one(nb, x) for x in rows])
        assert np.array_equal(nb_posterior(nb, rows), post)
        assert np.array_equal(predict_nb(nb, rows), post.argmax(axis=1))


def test_matrix_predictors_break_all_equal_scores_to_class_zero():
    rows = np.random.default_rng(65).normal(0.0, 3.0, size=(50, 4))
    lda, lr, nb = _tied_models(4)
    scores = {
        "LDA": np.vstack([_lda_scores_one(lda, x) for x in rows]),
        "LR": np.vstack([_logistic_proba_one(lr, x) for x in rows]),
        "NB": np.vstack([_nb_posterior_one(nb, x) for x in rows]),
    }
    for table in scores.values():
        assert np.all(table == table[:, :1])  # every class ties on every row
    for predict, model in ((predict_lda, lda), (predict_logistic, lr), (predict_nb, nb)):
        assert np.array_equal(predict(model, rows), np.zeros(len(rows)))
        assert predict(model, rows[0]) == 0


def test_one_row_gives_python_int_and_wrong_width_raises():
    ds, _ = standardize(_blob_dataset(66, n_per=10, p=4))
    models = ((predict_lda, fit_lda(ds)), (predict_logistic, fit_logistic(ds, max_iter=50)),
              (predict_nb, fit_naive_bayes(ds)))
    for predict, model in models:
        label = predict(model, ds.features[0])
        assert type(label) is int
        assert predict(model, ds.features[:1]).shape == (1,)
        with pytest.raises(ValueError, match="expected 4 feature values, got 5"):
            predict(model, np.zeros((3, 5)))
    lr, nb = models[1][1], models[2][1]
    assert predict_logistic_proba(lr, ds.features[0]).shape == (3,)
    assert nb_posterior(nb, ds.features[:7]).shape == (7, 3)
