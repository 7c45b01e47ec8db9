import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from margin_forge import dataset_io
from margin_forge.dataset_io import (
    Dataset, DatasetError, check_paired, generate_synthetic,
    load_dataset, split_indices, stratified_split, write_dataset,
)


def make_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_comma_no_header(tmp_path):
    path = make_csv(tmp_path, "1.5,2.0,0\n0.5,1.0,1\n2.5,3.0,0\n")
    data = load_dataset(path)
    assert data.n_rows == 3 and data.n_features == 2
    # numerically smaller raw label maps to -1
    assert list(data.labels) == [-1.0, 1.0, -1.0]
    assert data.features[0, 0] == 1.5


def test_load_tab_with_header(tmp_path):
    path = make_csv(tmp_path, "a\tb\ty\n1\t2\tpos\n3\t4\tneg\n")
    data = load_dataset(path)
    assert data.feature_names == ("a", "b")
    # lexicographic fallback: neg < pos
    assert list(data.labels) == [1.0, -1.0]


@pytest.mark.parametrize("raw, want", [("1", 1.0), ("-1", -1.0)])
def test_single_label_value_keeps_its_sign(tmp_path, raw, want):
    data = load_dataset(make_csv(tmp_path, f"0.5,{raw}\n1.5,{raw}\n"))
    assert data.labels.tolist() == [want, want]


@pytest.mark.parametrize("raw, want", [
    (["1", "1.0", "1", "1.0"], [1.0, 1.0, 1.0, 1.0]),
    (["+1", "1", "-1", "-1.0"], [1.0, 1.0, -1.0, -1.0]),
    (["0", "1", "1.0", "0.0"], [-1.0, 1.0, 1.0, -1.0]),
])
def test_numeric_labels_are_classed_by_value(tmp_path, raw, want):
    text = "".join(f"{i}.5,{label}\n" for i, label in enumerate(raw))
    assert load_dataset(make_csv(tmp_path, text)).labels.tolist() == want


def test_nan_label_is_missing(tmp_path):
    with pytest.raises(DatasetError, match="row 2 has a missing label 'nan'"):
        load_dataset(make_csv(tmp_path, "0.5,1\n1.5,nan\n2.5,-1\n"))


def test_single_label_value_without_a_sign_rejected(tmp_path):
    with pytest.raises(DatasetError, match="single label value 'yes'"):
        load_dataset(make_csv(tmp_path, "0.5,yes\n1.5,yes\n"))


def test_header_survives_write_and_reload(tmp_path):
    data = load_dataset(make_csv(tmp_path, "a,b,y\n1.5,2,0\n-3,4.25,1\n"))
    assert data.feature_names == ("a", "b")
    out = tmp_path / "back.csv"
    write_dataset(data, out)
    assert out.read_text().splitlines()[0] == "a,b,label"
    back = load_dataset(out)
    assert back.feature_names == data.feature_names
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.labels, data.labels)


def test_label_column_flag(tmp_path):
    path = make_csv(tmp_path, "1,10.0,20.0\n-1,30.0,40.0\n")
    data = load_dataset(path, label_column=0)
    assert list(data.labels) == [1.0, -1.0]
    assert data.features[1, 1] == 40.0


def test_three_classes_rejected(tmp_path):
    path = make_csv(tmp_path, "1,0\n2,1\n3,2\n")
    with pytest.raises(DatasetError, match="two classes"):
        load_dataset(path)


def test_non_numeric_feature_rejected(tmp_path):
    path = make_csv(tmp_path, "1.0,x,0\n2.0,3.0,1\n")
    with pytest.raises(DatasetError, match="non-numeric"):
        load_dataset(path)


def test_missing_value_rejected(tmp_path):
    path = make_csv(tmp_path, "1.0,,0\n2.0,3.0,1\n")
    with pytest.raises(DatasetError, match="missing value"):
        load_dataset(path)


def test_ragged_rows_rejected(tmp_path):
    path = make_csv(tmp_path, "1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DatasetError, match="fields"):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = make_csv(tmp_path, "\n\n")
    with pytest.raises(DatasetError, match="empty"):
        load_dataset(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_dataset("/no/such/file.csv")


def test_sparse_index_format(tmp_path):
    path = make_csv(tmp_path, "+1 1:0.5 3:2.0\n-1 2:1.0\n", name="d.sparse")
    data = load_dataset(path, fmt="sparse-index")
    assert data.n_features == 3
    assert data.features[0].tolist() == [0.5, 0.0, 2.0]
    assert data.features[1].tolist() == [0.0, 1.0, 0.0]
    assert list(data.labels) == [1.0, -1.0]


def test_sparse_duplicate_index_rejected(tmp_path):
    path = make_csv(tmp_path, "1 1:2 1:3\n-1 1:0\n", name="d.sparse")
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path, fmt="sparse-index")


def test_sparse_cap_bounds_rows_times_largest_index(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_io, "SPARSE_MAX_CELLS", 6)
    at_cap = make_csv(tmp_path, "1 3:2\n-1 1:0\n", name="at.sparse")
    assert load_dataset(at_cap, fmt="sparse-index").features.shape == (2, 3)
    above = make_csv(tmp_path, "1 1:2\n-1 4:0\n", name="above.sparse")
    with pytest.raises(DatasetError, match="row 2: index 4 .* cap of 6 "):
        load_dataset(above, fmt="sparse-index")


def test_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(7)
    data = Dataset("rt", rng.standard_normal((20, 5)) * 1e3,
                   np.where(rng.random(20) < 0.5, -1.0, 1.0))
    out = tmp_path / "rt.csv"
    write_dataset(data, out)
    back = load_dataset(out)
    assert np.array_equal(back.labels, data.labels)
    assert np.allclose(back.features, data.features, rtol=0, atol=1e-12)
    # %.17g actually reproduces float64 bit-for-bit
    assert np.array_equal(back.features, data.features)
    assert np.array_equal(back.features.view(np.int64), data.features.view(np.int64))


def test_roundtrip_keeps_signed_zero_and_extremes(tmp_path):
    x = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308],
                  [0.1, 1.0 / 3.0]])
    data = Dataset("rt", x, np.array([-1.0, 1.0, 1.0]))
    out = tmp_path / "rt.csv"
    write_dataset(data, out)
    back = load_dataset(out)
    assert np.array_equal(back.features.view(np.int64), data.features.view(np.int64))


def named(names):
    p = len(names)
    return Dataset("n", np.arange(2.0 * p).reshape(2, p), np.array([-1.0, 1.0]), names)


@pytest.mark.parametrize("names, j, fault", [
    ((1, "b"), 0, "is not a str"),
    (("a", None), 1, "is not a str"),
    (("a,b", "c"), 0, "holds a delimiter"),
    (("a", "b\tc"), 1, "holds a delimiter"),
    *[(("a", f"b{brk}c"), 1, "holds a line break")
      for brk in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"],
    ((" a", "b"), 0, "has leading or trailing whitespace"),
    (("a", "b "), 1, "has leading or trailing whitespace"),
    (("a", "\u3000b"), 1, "has leading or trailing whitespace"),
    (("a", "2"), 1, "reads as a number"),
    (("nan", "b"), 0, "reads as a number"),
    (("a", "-Infinity"), 1, "reads as a number"),
    (("1_0", "b"), 0, "reads as a number"),
    (("a", "\uff11"), 1, "reads as a number"),
    (("\ufeffa", "b"), 0, "starts with a byte order mark"),
    (("a", "b\ud800"), 1, "is not UTF-8 text"),
])
def test_names_that_cannot_round_trip_are_refused(tmp_path, names, j, fault):
    out = tmp_path / "n.csv"
    if fault == "is not a str":
        # refused when the set is built, so no writer ever sees it
        with pytest.raises(DatasetError) as err:
            named(names)
    else:
        data = named(names)
        with pytest.raises(DatasetError) as err:
            write_dataset(data, out)
    assert str(err.value) == f"feature name {j} {names[j]!r} {fault}"
    assert not out.exists()


@pytest.mark.parametrize("names", [("", ""), ("a b", "β"), ("a", "\ufeffb"),
                                   ("x\x00y", "label"), ("-", "1e"), ("a\u200bb", "c")])
def test_names_the_rule_lets_through_read_back_as_they_are(tmp_path, names):
    out = tmp_path / "n.csv"
    write_dataset(named(names), out)
    assert load_dataset(out).feature_names == names


@settings(max_examples=200, deadline=None)
@given(names=st.lists(st.text(max_size=4), min_size=1, max_size=3).map(tuple))
def test_a_name_is_refused_or_reads_back(tmp_path_factory, names):
    out = tmp_path_factory.mktemp("names") / "n.csv"
    try:
        write_dataset(named(names), out)
    except DatasetError:
        assert not out.exists()
        return
    assert load_dataset(out).feature_names == names


def test_whitespace_padded_tokens(tmp_path):
    path = make_csv(tmp_path, " 1.5 ,\t2.0 , 0\n  -3e1,4 ,1 \n")
    data = load_dataset(path, delimiter=",")
    assert data.features.tolist() == [[1.5, 2.0], [-30.0, 4.0]]
    assert list(data.labels) == [-1.0, 1.0]


def test_label_column_zero_with_header(tmp_path):
    path = make_csv(tmp_path, "y,a,b\n1,10.0,20.0\n-1,30.0,40.0\n")
    data = load_dataset(path, label_column=0)
    assert data.feature_names == ("a", "b")
    assert data.features.tolist() == [[10.0, 20.0], [30.0, 40.0]]
    assert list(data.labels) == [1.0, -1.0]


def test_tab_delimiter(tmp_path):
    path = make_csv(tmp_path, "0.25\t-1.5\t0\n2\t3\t1\n")
    data = load_dataset(path, delimiter="\t")
    assert data.features.tolist() == [[0.25, -1.5], [2.0, 3.0]]
    assert list(data.labels) == [-1.0, 1.0]


def test_tokens_parse_as_python_float(tmp_path):
    path = make_csv(tmp_path, "1_0,\uff11\uff12,0\n2.5,1e-3,1\n")
    data = load_dataset(path)
    assert data.features[0, 0] == float("1_0") == 10.0
    assert data.features[0, 1] == float("\uff11\uff12") == 12.0
    assert data.features[1].tolist() == [2.5, 0.001]


@pytest.mark.parametrize("bad, message", [("", "row 3 has a missing value"),
                                          ("x", "non-numeric feature token 'x' in row 3")])
def test_first_bad_row_is_reported(tmp_path, bad, message):
    # row 3 holds the first bad token; a later row holds another of each kind
    text = f"a,b,y\n1,2,0\n3,4,1\n5,{bad},0\n7,8,1\n,q,0\n"
    with pytest.raises(DatasetError, match=message):
        load_dataset(make_csv(tmp_path, text))


def test_field_counts_are_checked_before_any_token(tmp_path):
    # a bad token in row 2 and a short row in a later block: the field count wins
    rows = ["1,2,0"] * (3 * dataset_io.ROW_BLOCK)
    rows[1] = "1,x,0"
    rows[2 * dataset_io.ROW_BLOCK + 5] = "1,0"
    with pytest.raises(DatasetError, match=f"row {2 * dataset_io.ROW_BLOCK + 6} has 2 "
                                           "fields, expected 3"):
        load_dataset(make_csv(tmp_path, "\n".join(rows) + "\n"))


def test_a_bad_token_in_a_later_block_names_its_data_row(tmp_path):
    # data rows are counted after the header, across blocks
    rows = ["a,b,y"] + ["1,2,0", "3,4,1"] * dataset_io.ROW_BLOCK
    rows[dataset_io.ROW_BLOCK + 8] = "5,x,0"
    rows[2 * dataset_io.ROW_BLOCK - 1] = "5,,0"
    with pytest.raises(DatasetError, match=f"'x' in row {dataset_io.ROW_BLOCK + 8}$"):
        load_dataset(make_csv(tmp_path, "\n".join(rows) + "\n"))


def test_a_scoring_sized_file_loads_below_its_bytes(tmp_path):
    # 20,000 rows of 34 features and a label, the benchmark's scoring shape.
    # The whole file's bytes, text and line list cost more than twice its
    # size before a token was split; streamed, the parse holds one chunk,
    # one block's tokens, the float64 blocks and their concatenation, about
    # 0.86 times the file's bytes
    rng = np.random.default_rng(2)
    data = Dataset("score", rng.normal(size=(20000, 34)),
                   np.where(rng.random(20000) < 0.5, -1.0, 1.0))
    path = tmp_path / "score.csv"
    write_dataset(data, path)
    tracemalloc.start()
    try:
        loaded = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    assert np.array_equal(loaded.features, data.features)
    assert np.array_equal(loaded.labels, data.labels)


def test_dataset_validation():
    with pytest.raises(DatasetError, match="labels"):
        Dataset("bad", np.zeros((2, 2)), np.array([0.0, 1.0]))
    with pytest.raises(DatasetError, match="finite"):
        Dataset("bad", np.array([[np.nan], [1.0]]), np.array([-1.0, 1.0]))
    data = Dataset("ok", np.zeros((2, 2)), np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        data.features[0, 0] = 5.0


def test_take_refuses_masks_and_non_integer_indices():
    data = Dataset("d", np.arange(40.0).reshape(20, 2), np.where(np.arange(20) % 2, 1.0, -1.0))
    picked = data.take(np.array([3, 0, 3]), name="sub")
    assert picked.name == "sub" and picked.features[:, 0].tolist() == [6.0, 0.0, 6.0]
    for bad in ([True, False] * 10, np.ones(20, dtype=bool), [1.0, 2.0], [0.5]):
        with pytest.raises(DatasetError, match="integer"):
            data.take(bad)


def test_split_ceil_per_class():
    # 5 rows per class at 0.7 puts ceil(3.5) = 4 in train for each class
    x = np.arange(20, dtype=float).reshape(10, 2)
    y = np.array([-1.0] * 5 + [1.0] * 5)
    data = Dataset("s", x, y)
    train, test = stratified_split(data, 0.7, seed=3)
    assert train.class_counts() == {-1: 4, +1: 4}
    assert test.class_counts() == {-1: 1, +1: 1}


def test_split_disjoint_exhaustive_deterministic():
    data = generate_synthetic("two-gaussians", 31, 0.5, seed=9)
    a_train, a_test = split_indices(data, 0.6, seed=11)
    b_train, b_test = split_indices(data, 0.6, seed=11)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    merged = np.sort(np.concatenate([a_train, a_test]))
    assert np.array_equal(merged, np.arange(data.n_rows))
    c_train, _ = split_indices(data, 0.6, seed=12)
    assert not np.array_equal(a_train, c_train)


def test_split_single_class_side_errors():
    data = Dataset("one", np.zeros((4, 1)), np.full(4, 1.0))
    with pytest.raises(ValueError, match="no members"):
        stratified_split(data, 0.5)


def test_split_fraction_validated():
    data = generate_synthetic("two-gaussians", 20, 0.5, seed=1)
    with pytest.raises(ValueError):
        split_indices(data, 0.0)
    with pytest.raises(ValueError):
        stratified_split(data, 1.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(10, 120), frac=st.floats(0.1, 0.9),
       seed=st.integers(0, 10_000), imbalance=st.floats(0.2, 0.8))
def test_split_class_proportions(n, frac, seed, imbalance):
    import math
    from hypothesis import assume
    n_neg = max(1, min(n - 1, int(n * imbalance)))
    y = np.array([-1.0] * n_neg + [1.0] * (n - n_neg))
    want = {-1: math.ceil(frac * n_neg), +1: math.ceil(frac * (n - n_neg))}
    assume(want[-1] + want[+1] < n)
    data = Dataset("p", np.arange(n, dtype=float)[:, None], y)
    train, test = stratified_split(data, frac, seed=seed)
    for cls, total in ((-1, n_neg), (+1, n - n_neg)):
        assert train.class_counts()[cls] == want[cls]
        assert train.class_counts()[cls] + test.class_counts()[cls] == total


def test_synthetic_shapes_and_balance():
    data = generate_synthetic("two-gaussians", 208, 1.0, seed=0)
    assert data.n_rows == 208 and data.n_features == 2
    counts = data.class_counts()
    assert abs(counts[-1] - counts[+1]) <= 1
    again = generate_synthetic("two-gaussians", 208, 1.0, seed=0)
    assert np.array_equal(data.features, again.features)
    assert np.array_equal(data.labels, again.labels)


def test_synthetic_ring_vs_disk_geometry():
    data = generate_synthetic("ring-vs-disk", 400, 0.0, seed=4)
    radius = np.hypot(data.features[:, 0], data.features[:, 1])
    assert np.all(radius[data.labels == -1] <= 1.0 + 1e-12)
    assert np.all(radius[data.labels == +1] >= 1.5 - 1e-12)


def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_synthetic("two-gaussians", 3, 1.0, 0)
    with pytest.raises(ValueError):
        generate_synthetic("two-gaussians", 10, -0.1, 0)
    with pytest.raises(ValueError):
        generate_synthetic("mystery", 10, 1.0, 0)


def test_check_paired():
    a = generate_synthetic("two-gaussians", 10, 1.0, 0)
    b = Dataset("other", np.zeros((4, 3)), np.array([-1.0, 1.0, -1.0, 1.0]))
    check_paired(a, a)
    with pytest.raises(DatasetError, match="feature count"):
        check_paired(a, b)
