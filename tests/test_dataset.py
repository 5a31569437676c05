"""CSV loading, splitting and propensity trimming."""

import numpy as np
import pytest

import ctiv.dataset
from ctiv import (
    ColumnSchema,
    Dataset,
    design_spec,
    generate,
    holdout_split,
    load_csv,
    save_csv,
    trim_by_propensity,
)
from ctiv.errors import (
    EmptyDatasetError,
    InputError,
    MissingValueError,
    SchemaError,
    SplitError,
    ValidationError,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def small_ds(n=10, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        covariates=rng.normal(size=(n, k)),
        z=rng.integers(0, 2, n),
        w=rng.integers(0, 2, n),
        y=rng.normal(size=n),
        feature_names=tuple(f"x{i+1}" for i in range(k)),
    )


def test_load_basic(tmp_path):
    path = write(tmp_path, "y,w,z,x1\n2.5,1,1,0.3\n1.0,0,0,-0.2\n0.0,1,0,0.1\n3.5,0,1,0.9\n")
    ds = load_csv(path)
    assert ds.n_units == 4 and ds.covariates.shape[1] == 1
    assert ds.feature_names == ("x1",)
    assert np.array_equal(ds.y, [2.5, 1.0, 0.0, 3.5])
    assert np.array_equal(ds.w, [1, 0, 1, 0])
    assert np.array_equal(ds.z, [1, 0, 0, 1])
    assert np.array_equal(ds.covariates[:, 0], [0.3, -0.2, 0.1, 0.9])


def test_load_nonbinary_w_names_row(tmp_path):
    path = write(tmp_path, "y,w,z,x1\n1,1,1,0\n1,0,0,0\n1,2,1,0\n")
    with pytest.raises(ValidationError, match="row 3"):
        load_csv(path)


def test_load_blank_cell_names_row(tmp_path):
    path = write(tmp_path, "y,w,z,x1\n1,1,1,0.5\n,0,0,0.5\n")
    with pytest.raises(MissingValueError, match="row 2"):
        load_csv(path)


def test_load_missing_column(tmp_path):
    path = write(tmp_path, "y,w,x1\n1,1,0.5\n")
    with pytest.raises(SchemaError, match="z"):
        load_csv(path)


def test_load_custom_mapping_and_feature_subset(tmp_path):
    path = write(tmp_path, "outcome,treat,assign,a,b,c\n1,1,1,0.1,0.2,0.3\n2,0,0,0.4,0.5,0.6\n")
    schema = ColumnSchema(y_col="outcome", w_col="treat", z_col="assign",
                          feature_cols=("c", "a"))
    ds = load_csv(path, schema)
    assert ds.feature_names == ("c", "a")
    assert np.array_equal(ds.covariates[0], [0.3, 0.1])


@pytest.mark.parametrize("role, column", [("y", "outcome"), ("w", "treat"), ("z", "assign")])
def test_load_rejects_a_feature_that_is_the_outcome_or_an_arm(tmp_path, role, column):
    # the outcome as a covariate would grow the tree on y itself
    path = write(tmp_path, "outcome,treat,assign,a\n1,1,1,0.1\n2,0,0,0.4\n")
    schema = ColumnSchema(y_col="outcome", w_col="treat", z_col="assign",
                          feature_cols=("a", column))
    with pytest.raises(SchemaError, match=f"feature column '{column}' is the {role} column"):
        load_csv(path, schema)


@pytest.mark.parametrize("roles, message", [
    (dict(w_col="z"), "the w and z roles both name column 'z'"),
    (dict(y_col="z"), "the y and z roles both name column 'z'"),
    (dict(y_col="w"), "the y and w roles both name column 'w'"),
    (dict(y_col="w", w_col="w", z_col="w"), "the y and w roles both name column 'w'")])
def test_load_rejects_two_roles_naming_one_column(tmp_path, roles, message):
    # one column would play two roles, say the assignment as receipt
    path = write(tmp_path, "y,w,z,a\n1,1,1,0.1\n2,0,0,0.4\n")
    with pytest.raises(SchemaError, match=message):
        load_csv(path, ColumnSchema(**roles))


@pytest.mark.parametrize("header, column", [
    ("y,w,z,y,a", "y"), ("y,w,z,a,a", "a"), ("y,w,z,a, a ", "a"), ("y,w,z,z,z,a", "z")])
def test_load_rejects_a_column_the_header_names_more_than_once(tmp_path, header, column):
    # either column might be meant, and the first was once read silently
    cells = ",".join(["1"] * len(header.split(",")))
    path = write(tmp_path, f"{header}\n{cells}\n0{cells[1:]}\n")
    with pytest.raises(SchemaError, match=f"the header names column '{column}' more than once"):
        load_csv(path)


def test_load_reads_past_a_repeated_column_it_does_not_read(tmp_path):
    path = write(tmp_path, "y,w,z,a,b,b\n1,1,1,0.5,x,y\n2,0,0,0.25,x,y\n")
    assert load_csv(path, ColumnSchema(feature_cols=("a",))).feature_names == ("a",)


def test_load_categorical_outcome_levels(tmp_path):
    # outcomes restricted to {-1, 0, 1} are plain reals here
    path = write(tmp_path, "y,w,z,x1\n-1,1,1,0\n0,0,0,0\n1,1,0,1\n-1,0,1,1\n")
    ds = load_csv(path)
    assert set(ds.y) == {-1.0, 0.0, 1.0}


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(42)
    ds = Dataset(
        covariates=np.array([[0.1, -3.5e300], [1e-17, 2.0], [7.25, np.pi]]),
        z=[1, 0, 1],
        w=[0, 0, 1],
        y=rng.normal(size=3) * 1e6,
        feature_names=("a", "b"),
    )
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    save_csv(ds, p1)
    again = load_csv(p1)
    assert ds.equals(again)
    save_csv(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("n", [50, 10_000])
def test_byte_order_mark_reads_as_the_plain_file(tmp_path, monkeypatch, n):
    # 10,000 rows of ten covariates are 2.2 MiB of text: above twice
    # _SHARE_BYTES, so with two CPUs the rows after the header (BOM
    # included) are cut into pieces for two forked workers
    monkeypatch.setattr(ctiv.parallel, "usable_cpus", lambda: 2)
    ds = generate(design_spec(2, n, seed=5)).dataset
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    save_csv(ds, plain)
    bom.write_bytes(BOM + plain.read_bytes())
    if n > 50 and ctiv.parallel.fork_is_safe():
        assert ctiv.parallel.fork_workers(
            bom.stat().st_size // ctiv.dataset._SHARE_BYTES) == 2
    assert load_csv(plain).equals(ds)
    assert load_csv(bom).equals(ds)


def test_byte_order_mark_before_a_quoted_header_cell(tmp_path):
    text = '"y",w,z,"x""1"\n1.5,1,0,2\n0.5,0,1,3\n'
    plain = load_csv(write(tmp_path, text, "plain.csv"))
    bom = load_csv(write(tmp_path, "\ufeff" + text, "bom.csv"))
    assert bom.feature_names == ('x"1',)
    assert bom.equals(plain)
    # one mark is skipped, as a decoder of UTF-8 with a signature would
    with pytest.raises(SchemaError, match="missing required y column"):
        load_csv(write(tmp_path, "\ufeff\ufeff" + text, "two.csv"))


def test_dataset_rejects_nan():
    with pytest.raises(ValidationError):
        Dataset(covariates=[[np.nan]], z=[1], w=[1], y=[1.0], feature_names=("x",))


UNITS = dict(covariates=[[1.0], [2.0]], z=[0, 1], w=[0, 1], y=[0.5, 1.5],
             feature_names=("x",))


@pytest.mark.parametrize("fields, error, message", [
    (dict(covariates=[1.0, 2.0]), InputError, "covariates must be a 2-D array"),
    (dict(covariates=np.empty((0, 1)), z=[], w=[], y=[]), EmptyDatasetError,
     "at least one unit and one feature"),
    (dict(covariates=np.empty((2, 0))), EmptyDatasetError, "at least one unit and one feature"),
    (dict(w=[1]), InputError, "z and w must be length-N vectors"),
    (dict(feature_names=("x", "x2")), SchemaError, "feature_names must be unique and match"),
])
def test_dataset_rejects_fields_that_do_not_fit(fields, error, message):
    with pytest.raises(error, match=message):
        Dataset(**(UNITS | fields))


def test_subset_of_no_rows_errors():
    with pytest.raises(EmptyDatasetError, match="subset selects no rows"):
        Dataset(**UNITS).subset([])


def test_save_refuses_an_extra_column_of_another_length(tmp_path):
    with pytest.raises(InputError, match="extra column 'truth' has wrong length"):
        save_csv(Dataset(**UNITS), tmp_path / "out.csv", extra_columns={"truth": [1.0]})
    assert not (tmp_path / "out.csv").exists()


def test_load_rejects_a_header_cell_over_the_field_limit(tmp_path):
    path = write(tmp_path, "y,w,z," + "x" * 200_000 + "\n1,1,0,2\n")
    with pytest.raises(ValidationError, match="header row: field larger than field limit"):
        load_csv(path)


def test_load_rejects_a_missing_feature_or_no_features(tmp_path):
    path = write(tmp_path, "y,w,z,x1\n1,1,0,2\n")
    with pytest.raises(SchemaError, match="missing feature column 'x2'"):
        load_csv(path, ColumnSchema(feature_cols=("x1", "x2")))
    with pytest.raises(SchemaError, match="no feature columns remain"):
        load_csv(write(tmp_path, "y,w,z\n1,1,0\n", "roles.csv"))


def test_dataset_rejects_nonbinary_arm():
    with pytest.raises(ValidationError):
        Dataset(covariates=[[0.0]], z=[2], w=[1], y=[1.0], feature_names=("x",))


def test_dataset_arrays_immutable():
    ds = small_ds()
    with pytest.raises(ValueError):
        ds.y[0] = 99.0


def test_holdout_sizes_and_disjointness():
    # a training mask: every unit is in train or, where False, validation
    in_train = holdout_split(100, (0.75, 0.25), seed=0)
    assert in_train.dtype == bool and in_train.shape == (100,)
    assert int(in_train.sum()) == 75
    with pytest.raises(ValueError):
        in_train[0] = not in_train[0]


def test_holdout_remainder_goes_to_train():
    in_train = holdout_split(103, (0.75, 0.25), seed=1)
    assert int((~in_train).sum()) == 25
    assert int(in_train.sum()) == 78


def test_holdout_determinism():
    a = holdout_split(50, (0.6, 0.4), seed=9)
    b = holdout_split(50, (0.6, 0.4), seed=9)
    assert np.array_equal(a, b)
    c = holdout_split(50, (0.6, 0.4), seed=10)
    assert not np.array_equal(a, c)


def test_holdout_tiny_sample_errors():
    with pytest.raises(SplitError):
        holdout_split(3, (0.75, 0.25), seed=0)


def test_holdout_zero_test_fraction_ok():
    # a trailing 0.0 is the only third fraction a split still takes
    in_train = holdout_split(10, (0.5, 0.5, 0.0), seed=0)
    assert int(in_train.sum()) == 5
    assert np.array_equal(in_train, holdout_split(10, (0.5, 0.5), seed=0))


def test_holdout_bad_fractions():
    for fractions in [(0.5, 0.6), (0.5, 0.6, 0.0), (1.2, -0.2)]:
        with pytest.raises(SplitError, match="nonnegative and sum to 1"):
            holdout_split(10, fractions, seed=0)
    # a split has no test part: a nonzero third fraction is refused
    for fractions in [(0.5, 0.25, 0.25), (0.5, 0.5, 1e-12)]:
        with pytest.raises(SplitError, match="third fraction must be 0"):
            holdout_split(10, fractions, seed=0)


@pytest.mark.parametrize("fractions", [0.5, (0.5,), [[0.5, 0.5]], ("0.5", "0.5"),
                                       [[0.5], 0.5], (0.5, 0.5, 0.0, 0.0)])
def test_holdout_fractions_that_are_not_two_numbers(fractions):
    # all but the last once ended in a TypeError or ValueError, not a SplitError
    with pytest.raises(SplitError, match="two numbers"):
        holdout_split(100, fractions, seed=0)


@pytest.mark.parametrize("fractions", [(float("nan"), 0.5),
                                       (0.5, float("nan")),
                                       (float("inf"), -float("inf"))])
def test_holdout_non_finite_fractions(fractions):
    # NaN passes every comparison: it used to give an empty train part
    with pytest.raises(SplitError, match="finite"):
        holdout_split(100, fractions, seed=0)
    with pytest.raises(SplitError):
        holdout_split(10, (0.0, 1.0), seed=0)


def test_holdout_property_random_fractions():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(10, 500))
        f_tr = float(rng.uniform(0.2, 0.95))
        in_train = holdout_split(n, (f_tr, 1.0 - f_tr), seed=int(rng.integers(1 << 30)))
        assert in_train.shape == (n,)
        assert int((~in_train).sum()) == int(np.floor((1.0 - f_tr) * n))


def test_subset_of_every_row_in_order_is_the_dataset_itself():
    ds = small_ds(6)
    assert ds.subset(np.arange(6)) is ds
    assert ds.subset(list(range(6))) is ds


@pytest.mark.parametrize("rows", [[1, 0, 2, 3, 4, 5], [0, 2, 5], [0, 1, 2, 3, 4, 5, 5],
                                  [0, 0, 2, 3, 4, 5]])
def test_subset_of_other_rows_is_a_new_read_only_dataset(rows):
    ds = small_ds(6)
    sub = ds.subset(np.array(rows))
    assert sub is not ds
    assert np.array_equal(sub.covariates, ds.covariates[rows])
    assert np.array_equal(sub.y, ds.y[rows])
    for arr in (sub.covariates, sub.z, sub.w, sub.y):
        assert not arr.flags.writeable
        assert not np.shares_memory(arr, ds.covariates)


def test_trim_that_keeps_every_row_copies_nothing():
    ds = small_ds(5)
    trimmed, kept = trim_by_propensity(ds, np.full(5, 0.5), 0.1, 0.9)
    assert trimmed is ds and list(kept) == list(range(5))


def test_trim_keeps_inner_rows():
    ds = small_ds(4)
    e = np.array([0.05, 0.5, 0.95, 0.3])
    trimmed, kept = trim_by_propensity(ds, e, 0.1, 0.9)
    assert list(kept) == [1, 3]
    assert trimmed.n_units == 2
    assert np.array_equal(trimmed.y, ds.y[[1, 3]])


def test_trim_bounds_are_closed():
    ds = small_ds(3)
    e = np.array([0.1, 0.9, 0.0999999])
    _, kept = trim_by_propensity(ds, e, 0.1, 0.9)
    assert list(kept) == [0, 1]


def test_trim_idempotent():
    ds = small_ds(20)
    rng = np.random.default_rng(3)
    e = rng.uniform(0.01, 0.99, 20)
    trimmed, kept = trim_by_propensity(ds, e, 0.1, 0.9)
    again, kept2 = trim_by_propensity(trimmed, e[kept], 0.1, 0.9)
    assert trimmed.equals(again)
    assert list(kept2) == list(range(len(kept)))


@pytest.mark.parametrize("e_hat, message", [
    (np.full(1, 0.5), "e_hat must be a length-N vector"),
    (np.array([0.5, np.nan]), "e_hat contains non-finite values")])
def test_trim_refuses_propensities_that_do_not_fit(e_hat, message):
    with pytest.raises(InputError, match=message):
        trim_by_propensity(Dataset(**UNITS), e_hat, 0.1, 0.9)


def test_trim_all_out_errors():
    ds = small_ds(3)
    with pytest.raises(EmptyDatasetError):
        trim_by_propensity(ds, np.array([0.01, 0.99, 0.05]), 0.1, 0.9)
