"""Dataset container, CSV round trips, scaling, splitting and synthesis."""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecobench import (
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
from ecobench.dataset import first_stops, own_row_sums, padding


def _random_dataset(seed, n=40, p=5, c=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, p)),
        rng.integers(0, c, size=n),
        tuple(f"f{j}" for j in range(p)),
        tuple("ABCDEFG"[:c]),
    )


def test_dataset_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="labels must be a vector"):
        Dataset(x, np.zeros(5, dtype=int), ("a", "b"), ("X", "Y"))
    with pytest.raises(ValueError, match="feature_names"):
        Dataset(x, np.zeros(4, dtype=int), ("a",), ("X", "Y"))
    with pytest.raises(ValueError, match="at least 2 class names"):
        Dataset(x, np.zeros(4, dtype=int), ("a", "b"), ("X",))
    with pytest.raises(ValueError, match="NaN or infinite"):
        Dataset(np.array([[np.nan, 0.0]]), np.zeros(1, dtype=int), ("a", "b"), ("X", "Y"))
    with pytest.raises(ValueError, match="labels: expected whole numbers"):
        Dataset(x, [0.0, 1.0, 0.5, 1.0], ("a", "b"), ("X", "Y"))
    with pytest.raises(ValueError, match="outside the class_names range"):
        Dataset(x, np.full(4, 2), ("a", "b"), ("X", "Y"))
    with pytest.raises(ValueError, match="2-D matrix"):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ("a", "b"), ("X", "Y"))


def test_dataset_is_immutable():
    ds = _random_dataset(0)
    with pytest.raises(ValueError):
        ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_counts_and_subset():
    ds = Dataset(
        np.arange(8, dtype=float).reshape(4, 2),
        [0, 1, 1, 2],
        ("a", "b"),
        ("X", "Y", "Z"),
    )
    assert np.array_equal(ds.class_counts(), [1, 2, 1])
    sub = ds.subset([2, 3])
    assert sub.n_samples == 2
    assert np.array_equal(sub.labels, [1, 2])
    assert np.array_equal(sub.features, [[4.0, 5.0], [6.0, 7.0]])
    assert sub.class_names == ds.class_names


def test_csv_round_trip_is_exact(tmp_path):
    for p in (5, 1):  # one feature column takes its own path through the parser
        ds = _random_dataset(5, p=p)
        path = tmp_path / "data.csv"
        save_csv(ds, path, label_column="label")
        loaded = load_csv(path, label_column="label")
        assert loaded.features.tobytes() == ds.features.tobytes()
        assert loaded.feature_names == ds.feature_names
        original_names = [ds.class_names[i] for i in ds.labels]
        loaded_names = [loaded.class_names[i] for i in loaded.labels]
        assert loaded_names == original_names


def test_load_csv_encodes_labels_by_first_appearance(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,label\n1,2,zebra\n3,4,ant\n5,6,zebra\n", encoding="utf-8")
    ds = load_csv(path, "label")
    assert ds.class_names == ("zebra", "ant")
    assert np.array_equal(ds.labels, [0, 1, 0])


def test_load_csv_error_reporting(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", "label")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_csv(empty, "label")
    for name, text, message in [
        ("nolabel.csv", "a,b\n1,2\n", "label column"),
        ("dup.csv", "a,label,label\n1,x,y\n", "more than once"),
        ("norows.csv", "a,label\n", "no data rows"),
        ("bad.csv", "a,label\noops,x\n2,y\n", "non-numeric"),
        ("ragged.csv", "a,b,label\n1,2,x\n3,y\n", "expected 3 cells"),
        ("inf.csv", "a,label\ninf,x\n2,y\n", "non-finite"),
        ("oneclass.csv", "a,label\n1,x\n2,x\n", "at least 2 distinct classes"),
    ]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_csv(path, "label")
    # a cell past the csv module's field size limit is a csv.Error, which
    # the reader turns into a ValueError naming the file
    huge = tmp_path / "huge.csv"
    huge.write_text("a,label\n" + "1" * 200_000 + ",x\n2,y\n", encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        load_csv(huge, "label")
    assert str(caught.value).startswith(f"{huge}: field larger than field limit")


def _save_csv_reference(ds, label_column):
    """The bytes save_csv writes, one csv.writer row per data row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(ds.feature_names) + [label_column])
    for row, label in zip(ds.features, ds.labels):
        writer.writerow([f"{v:.17g}" for v in row] + [ds.class_names[label]])
    return buffer.getvalue().encode("utf-8")


# names with commas, quotes, CR/LF, leading spaces, non-ASCII and the empty string
_CSV_NAMES = st.text(alphabet=' a,"\r\né', max_size=4)
_CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0**53, 1e16, 0.1]),
    st.integers(-10**6, 10**6).map(float),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_save_csv_writes_the_bytes_of_one_csv_writer_row_per_row(tmp_path, data):
    n = data.draw(st.integers(1, 6), label="rows")
    p = data.draw(st.integers(1, 4), label="features")
    feature_names = data.draw(st.lists(_CSV_NAMES, min_size=p, max_size=p), label="feature names")
    label_column = data.draw(_CSV_NAMES.filter(lambda name: name not in feature_names),
                             label="label column")
    class_names = data.draw(st.lists(_CSV_NAMES, min_size=2, max_size=4), label="class names")
    values = data.draw(st.lists(_CSV_VALUES, min_size=n * p, max_size=n * p), label="values")
    labels = data.draw(st.lists(st.integers(0, len(class_names) - 1), min_size=n, max_size=n),
                       label="labels")
    ds = Dataset(np.array(values).reshape(n, p), labels, feature_names, class_names)
    path = tmp_path / "data.csv"
    save_csv(ds, path, label_column=label_column)
    assert path.read_bytes() == _save_csv_reference(ds, label_column)


def test_save_csv_rejects_label_name_collision(tmp_path):
    ds = _random_dataset(1)
    with pytest.raises(ValueError, match="collides"):
        save_csv(ds, tmp_path / "x.csv", label_column="f0")


def test_standardize_moments_and_inverse():
    ds = _random_dataset(2, n=60)
    scaled, params = standardize(ds)
    assert np.allclose(scaled.features.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaled.features.std(axis=0, ddof=1), 1.0, atol=1e-12)
    assert np.allclose(params.invert(scaled.features), ds.features, atol=1e-12)
    assert np.array_equal(scaled.labels, ds.labels)


def test_standardize_zero_variance_column_maps_to_zero():
    features = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
    ds = Dataset(features, np.zeros(10, dtype=int), ("const", "ramp"), ("X", "Y"))
    scaled, params = standardize(ds)
    assert np.all(scaled.features[:, 0] == 0.0)
    assert params.std_devs[0] == 0.0
    applied = params.apply(np.array([[123.0, 4.5]]))
    assert applied[0, 0] == 0.0


def test_standardize_rejects_a_column_whose_std_overflows():
    # the sample std of +-1e200 is inf; the column is an error, not zeros
    ds = Dataset([[1e200, 1.0], [-1e200, 2.0], [1e200, 3.0]], [0, 1, 0], ("a", "b"), ("X", "Y"))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="std_devs contains NaN or infinite values"):
        standardize(ds)


def test_standardize_needs_two_rows():
    ds = Dataset([[1.0, 2.0]], [0], ("a", "b"), ("X", "Y"))
    with pytest.raises(ValueError, match="at least 2 rows"):
        standardize(ds)


def test_scaling_params_validation():
    with pytest.raises(ValueError, match="equal length"):
        ScalingParams(np.zeros(3), np.ones(2))
    with pytest.raises(ValueError, match="nonnegative"):
        ScalingParams(np.zeros(2), np.array([1.0, -1.0]))


def test_train_test_split_sizes_and_coverage():
    ds = _random_dataset(3, n=30)
    train, test = train_test_split(ds, 0.75, seed=9)
    assert train.n_samples == 22
    assert test.n_samples == 8
    stacked = np.vstack([train.features, test.features])
    assert {tuple(r) for r in stacked} == {tuple(r) for r in ds.features}


def test_train_test_split_seed_determinism():
    ds = _random_dataset(4, n=25)
    a1, b1 = train_test_split(ds, 0.6, seed=1)
    a2, b2 = train_test_split(ds, 0.6, seed=1)
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(b1.labels, b2.labels)
    a3, _ = train_test_split(ds, 0.6, seed=2)
    assert not np.array_equal(a1.features, a3.features)


def test_train_test_split_uses_floor():
    ds = _random_dataset(6, n=10)
    train, test = train_test_split(ds, 0.75, seed=0)
    assert train.n_samples == 7
    assert test.n_samples == 3


def test_train_test_split_rejects_bad_fraction():
    ds = _random_dataset(7)
    for fraction in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError, match="train_fraction"):
            train_test_split(ds, fraction, seed=0)


def test_k_fold_sizes_and_partition():
    ds = _random_dataset(9, n=30)
    plan = k_fold(ds, 3, seed=4)
    assert sorted(f.size for f in plan.folds) == [10, 10, 10]
    assert np.array_equal(np.sort(np.concatenate(plan.folds)), np.arange(30))
    ds = _random_dataset(9, n=10)
    plan = k_fold(ds, 3, seed=4)
    assert sorted(f.size for f in plan.folds) == [3, 3, 4]


def test_k_fold_train_indices_complement_each_fold():
    ds = _random_dataset(10, n=17)
    plan = k_fold(ds, 4, seed=2)
    for i, fold in enumerate(plan.folds):
        train = plan.train_indices(i)
        assert np.intersect1d(train, fold).size == 0
        assert train.size + fold.size == 17


def test_k_fold_determinism_and_bounds():
    ds = _random_dataset(11, n=12)
    p1 = k_fold(ds, 3, seed=5)
    p2 = k_fold(ds, 3, seed=5)
    for f1, f2 in zip(p1.folds, p2.folds):
        assert np.array_equal(f1, f2)
        assert f1.dtype == np.int64 and not f1.flags.writeable
    with pytest.raises(ValueError, match="2 <= k <= n"):
        k_fold(ds, 1, seed=0)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        k_fold(ds, 13, seed=0)


def test_fold_plan_validation():
    with pytest.raises(ValueError, match="exactly once"):
        FoldPlan((np.array([0, 1]), np.array([1, 2])))
    with pytest.raises(ValueError, match="at most 1"):
        FoldPlan((np.array([0, 1, 2]), np.array([3,]),))


@pytest.mark.parametrize("counts", [[7, 7, 7], [30, 22, 20, 20, 20], [40, 9, 9, 2]])
@pytest.mark.parametrize("tail", [(), (3,)])
def test_own_row_sums_add_each_members_rows_as_a_lone_sum(counts, tail):
    # one (steps, k) sum per step and member, each with the bits of a plain
    # sum over that member's own rows; padding rows hold values that would
    # change any sum they joined
    rng = np.random.default_rng(len(counts))
    n = max(counts)
    values = rng.normal(scale=1e3, size=(6, len(counts), n) + tail)
    values[:, np.arange(n) >= np.array(counts)[:, None]] = np.nan
    sums = own_row_sums(values, padding(counts, n)[1])
    assert sums.shape == (6, len(counts))
    for s, step in enumerate(values):
        for i, rows in enumerate(counts):
            assert np.float64(sums[s, i]).tobytes() == np.float64(step[i, :rows].sum()).tobytes()


def test_first_stops_find_each_members_first_stop_in_a_block():
    nan, inf = np.nan, np.inf
    losses = np.array([
        # settles at 2 | non-finite at 1 | runs on | worsens, then settles at 2 | settles at 0
        [5.0, 4.0, 9.0, 3.0, 1.0],
        [4.0, nan, 8.0, 3.5, 1.0],
        [4.0 - 1e-9, 1.0, 7.0, 3.5, 1.0],
        [3.0, 1.0, 6.0, 3.5, 1.0],
    ])
    prev = np.array([inf, 5.0, inf, 2.0, 1.0 + 1e-9])
    assert first_stops(losses, prev, 1e-8, capped=False) == [2, 1, 4, 2, 0]
    # a worsening step never settles; the cap stops a member at the last step
    assert first_stops(losses, prev, 0.0, capped=False) == [4, 1, 4, 4, 4]
    assert first_stops(losses, prev, 0.0, capped=True) == [3, 1, 3, 3, 3]


def test_generate_ecological_shape_and_names():
    ds = generate_ecological(SyntheticSpec())
    assert ds.n_samples == 30
    assert ds.n_features == 8
    assert ds.feature_names == ECO_FEATURE_NAMES
    assert ds.class_names == ("C", "G", "S")
    assert np.array_equal(ds.class_counts(), [10, 10, 10])
    assert ECO_LABEL_COLUMN == "sediment"


def test_generate_ecological_seed_determinism():
    a = generate_ecological(SyntheticSpec(seed=3))
    b = generate_ecological(SyntheticSpec(seed=3))
    c = generate_ecological(SyntheticSpec(seed=4))
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_generate_ecological_value_constraints():
    ds = generate_ecological(SyntheticSpec(n_per_class=50, seed=1))
    species = ds.features[:, :5]
    assert np.all(species >= 0)
    assert np.array_equal(species, np.rint(species))
    assert np.all(ds.features[:, 5] >= 0.1)
    assert np.all(ds.features[:, 6] >= 0.01)


def test_generate_ecological_separation_scales_mean_gaps():
    near = generate_ecological(SyntheticSpec(n_per_class=200, separation=1.0, seed=5))
    far = generate_ecological(SyntheticSpec(n_per_class=200, separation=6.0, seed=5))

    def mean_gap(ds):
        means = np.array([ds.features[ds.labels == j].mean(axis=0) for j in range(3)])
        return np.linalg.norm(means[0] - means[1])

    assert mean_gap(far) > 3.0 * mean_gap(near)


def test_generate_ecological_validation():
    with pytest.raises(ValueError, match="n_per_class"):
        generate_ecological(SyntheticSpec(n_per_class=0))
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
        generate_ecological(SyntheticSpec(seed=-1))
    with pytest.raises(TypeError):
        generate_ecological(SyntheticSpec(seed=1.5))
    # a RuntimeWarning from the scaled means would fail here too
    for separation, shown in [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
                              (1e308, "1e+308")]:
        with pytest.raises(ValueError, match=f"^separation must keep the class means finite, "
                                             f"got {re.escape(shown)}$"):
            generate_ecological(SyntheticSpec(separation=separation))
