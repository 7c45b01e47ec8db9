import json
from pathlib import Path

import pytest

from margin_forge import cli
from margin_forge.cli import main
from margin_forge import harness
from margin_forge.dataset_io import generate_synthetic, load_dataset, write_dataset
from margin_forge.ensemble import adaboost, prediction_matrix, save_model
from margin_forge.margins import compute_margins, export_cmd


@pytest.fixture()
def model_and_data(tmp_path):
    # overlapping classes, so boosting runs all six rounds
    data = generate_synthetic("two-gaussians", 60, 1.0, 3)
    model = adaboost(data, 6)
    model_path = tmp_path / "model.json"
    data_path = tmp_path / "rows.csv"
    save_model(model, model_path)
    write_dataset(data, data_path)
    return str(model_path), str(data_path), model


def test_data_info_synthetic(capsys):
    assert main(["data", "info", "synthetic:two-gaussians:40:0.5:1"]) == 0
    out = capsys.readouterr().out
    assert "rows\t40" in out
    assert "features\t2" in out
    assert "class -1\t20" in out


def test_data_info_file(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_dataset(generate_synthetic("ring-vs-disk", 30, 0.1, 2), path)
    assert main(["data", "info", str(path)]) == 0
    assert "rows\t30" in capsys.readouterr().out


def test_data_info_missing_file(capsys):
    assert main(["data", "info", "/no/such/file.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_an_allocation_failure_is_reported(monkeypatch, capsys):
    # raised by the stand-in, so no test ever asks for the terabytes
    def refuse(*args):
        raise MemoryError("Unable to allocate 29.1 TiB for an array")
    monkeypatch.setattr(cli, "generate_synthetic", refuse)
    assert main(["data", "info", "synthetic:two-gaussians:1000000000000:1:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: Unable to allocate 29.1 TiB for an array\n"


def test_data_split_writes_files(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    rc = main(["data", "split", "synthetic:two-gaussians:40:0.5:1",
               "--frac", "0.7", "--seed", "4",
               "--out-train", str(train), "--out-test", str(test)])
    assert rc == 0
    got_train = load_dataset(train)
    got_test = load_dataset(test)
    assert got_train.n_rows == 28 and got_test.n_rows == 12
    assert set(got_train.labels) == {-1.0, 1.0}


def test_data_split_default_paths(tmp_path):
    src = tmp_path / "rows.csv"
    write_dataset(generate_synthetic("two-gaussians", 20, 0.5, 1), src)
    assert main(["data", "split", str(src)]) == 0
    assert (tmp_path / "rows.train.csv").exists()
    assert (tmp_path / "rows.test.csv").exists()


def test_data_split_bad_fraction(capsys):
    assert main(["data", "split", "synthetic:two-gaussians:40:0.5:1",
                 "--frac", "1.5"]) == 1


def test_data_split_refuses_names_it_cannot_write(tmp_path, capsys):
    # the tab-delimited header's first name holds a comma, which would split
    # it into two columns of a comma-delimited file
    src = tmp_path / "h.tsv"
    src.write_text("a,b\tc\tlabel\n" + "".join(f"{i}\t{i}\t{i % 2}\n" for i in range(8)))
    assert main(["data", "split", str(src), "--frac", "0.5"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: feature name 0 'a,b' holds a delimiter"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.tsv"]


def test_data_split_unwritable_output_is_a_configuration_error(tmp_path, capsys):
    train = tmp_path / "missing" / "train.csv"
    assert main(["data", "split", "synthetic:two-gaussians:40:0.5:1",
                 "--out-train", str(train), "--out-test", str(tmp_path / "test.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {train}: ")


def test_data_split_unwritable_test_path_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the train file is written first; a test path that cannot be opened removes it
    monkeypatch.chdir(tmp_path)
    assert main(["data", "split", "synthetic:two-gaussians:40:0.5:1",
                 "--out-train", "t.csv", "--out-test", "nodir/x.csv"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write nodir/x.csv: ")
    assert list(tmp_path.iterdir()) == []


def test_reweight_report(model_and_data, capsys):
    model_path, data_path, model = model_and_data
    rc = main(["reweight", "--model", model_path, "--data", data_path,
               "--scheme", "uws"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme\tuws" in out
    assert "feasible\tyes" in out
    weights_line = next(ln for ln in out.splitlines() if ln.startswith("weights"))
    assert len(weights_line.split("\t")) == 1 + model.n_learners


def test_reweight_reports_an_infeasible_scheme(model_and_data, capsys):
    # no simplex weights lift this model's low margins to their floors
    model_path, data_path, model = model_and_data
    rc = main(["reweight", "--model", model_path, "--data", data_path,
               "--scheme", "sm1"])
    assert rc == 0
    old = compute_margins(prediction_matrix(model, load_dataset(data_path)),
                          model.vote_weights)
    assert capsys.readouterr().out.splitlines() == [
        "scheme\tsm1:0.05", "feasible\tno",
        f"old_mean\t{old.mean:.17g}", f"old_min\t{old.min:.17g}"]


def test_reweight_bad_scheme(model_and_data, capsys):
    model_path, data_path, _ = model_and_data
    assert main(["reweight", "--model", model_path, "--data", data_path,
                 "--scheme", "maximize-harder"]) == 1


@pytest.mark.parametrize("k, fault", [(1023, "the emphasis total"),
                                      (1024, "the largest emphasis 2**1024")])
def test_reweight_refuses_an_ews_past_the_float_range(model_and_data, tmp_path, capsys, k,
                                                      fault):
    model_path, data_path, _ = model_and_data
    two = tmp_path / "two.csv"
    lines = Path(data_path).read_text(encoding="utf-8").splitlines(keepends=True)
    two.write_text("".join(lines[:2]), encoding="utf-8")
    assert main(["reweight", "--model", model_path, "--data", str(two),
                 "--scheme", f"ews:{k}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ews:{k} on 2 rows: {fault}")
    assert main(["reweight", "--model", model_path, "--data", str(two),
                 "--scheme", "ews:1022"]) == 0


def test_reweight_feature_mismatch(model_and_data, tmp_path, capsys):
    model_path, _, _ = model_and_data
    import numpy as np
    from margin_forge.dataset_io import Dataset
    other = Dataset("wide", np.zeros((6, 9)), np.array([1, -1, 1, -1, 1, -1]))
    other_path = tmp_path / "wide.csv"
    write_dataset(other, other_path)
    assert main(["reweight", "--model", model_path, "--data", str(other_path),
                 "--scheme", "uws"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_bounds_all_reports(model_and_data, capsys):
    model_path, data_path, _ = model_and_data
    rc = main(["bounds", "--model", model_path, "--data", data_path,
               "--theta", "0.1", "--vc", "3", "--hspace", "1000",
               "--delta", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "name\tschapire" in out
    assert "name\tbreiman" in out
    assert "name\tgermain" in out


def test_bounds_germain_only(model_and_data, capsys):
    model_path, data_path, _ = model_and_data
    assert main(["bounds", "--model", model_path, "--data", data_path]) == 0
    out = capsys.readouterr().out
    assert "name\tgermain" in out
    assert "schapire" not in out and "breiman" not in out


def test_bounds_bad_theta(model_and_data, capsys):
    model_path, data_path, _ = model_and_data
    assert main(["bounds", "--model", model_path, "--data", data_path,
                 "--theta", "-0.1", "--vc", "3"]) == 1


@pytest.mark.parametrize("args, message", [
    ("--theta inf --hspace 500", "theta0 must be finite"),
    ("--theta 1e200 --hspace 500", "R underflows to 0 at theta0 = 1e+200"),
    ("--theta 1e-200 --vc 6", "leaves the float range at theta = 1e-200"),
    ("--theta 1e200 --vc 6", "leaves the float range at theta = 1e+200"),
    ("--theta nan --vc 6", "theta must be positive and finite"),
    ("--theta 0.1 --vc nan", "positive finite capacity d"),
    ("--theta 0.1 --vc inf", "positive finite capacity d"),
    ("--theta 0.5 --hspace nan", "hypothesis-space size must be finite"),
    ("--theta 0.5 --hspace inf", "hypothesis-space size must be finite"),
], ids=["theta-inf", "r-underflow", "schapire-underflow", "schapire-overflow",
        "theta-nan", "vc-nan", "vc-inf", "hspace-nan", "hspace-inf"])
def test_bounds_refuses_non_finite_numbers(model_and_data, capsys, args, message):
    model_path, data_path, _ = model_and_data
    assert main(["bounds", "--model", model_path, "--data", data_path, *args.split()]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_bounds_refuses_a_capacity_at_or_above_n(model_and_data, capsys):
    # the margin-threshold term takes log(n / d); the fixture has 60 rows
    model_path, data_path, _ = model_and_data
    assert main(["bounds", "--model", model_path, "--data", data_path,
                 "--theta", "0.1", "--vc", "60"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need n > d for log(n/d), got n = 60 and d = 60\n"


def test_bounds_breiman_not_applicable_below_the_smallest_margin(tmp_path, capsys):
    # AdaBoost T=50 on this set has a smallest training margin of 0.102, and
    # 65% of its margins lie below 0.5: Breiman's bound at theta0 = 0.5 does not hold
    ref = "synthetic:two-gaussians:400:1.0:3"
    model_path = tmp_path / "model.json"
    save_model(adaboost(generate_synthetic("two-gaussians", 400, 1.0, 3), 50), model_path)
    assert main(["bounds", "--model", str(model_path), "--data", ref,
                 "--theta", "0.5", "--hspace", "500"]) == 0
    block = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert block[:3] == ["name\tbreiman", "applicable\tFalse",
                         "reason\tthe smallest margin 0.10216 lies below theta0 = 0.5"]
    assert not any(row.startswith("value\t") for row in block)


def _edit(name, index, value):
    # one entry of one list of the first tree
    def corrupt(blob):
        blob["trees"][0][name][index] = value
    return corrupt


def _edit_model(name, index, value):
    # one entry of one of the model's own lists
    def corrupt(blob):
        blob[name][index] = value
    return corrupt


def _five_features(blob):
    # the other trees of the snapshot keep n_features 2
    blob["trees"][0]["n_features"] = 5


def _n_features_true(blob):
    # JSON true equals 1 in Python; every tree splits on column 0 only, so
    # nothing but the type tells this from a one-feature snapshot
    for tree in blob["trees"]:
        tree["n_features"] = True
        tree["feature"] = [0 if f >= 0 else f for f in tree["feature"]]


def _alphas_true(blob):
    # JSON true equals 1 in Python, so these would load as equal votes
    blob["raw_alphas"] = [True] * len(blob["raw_alphas"])


def _nested(blob):
    # the nested node layout that snapshots used before trees were flat arrays
    blob["trees"][0] = {
        "n_features": blob["trees"][0]["n_features"],
        "root": {"feature": 0, "threshold": 0.0,
                 "left": {"value": -1.0}, "right": {"value": 1.0}},
        "params": {"max_depth": 2, "max_leaves": 4, "min_leaf_weight": 1e-12}}


def _set(key, value, *path):
    # one key of the snapshot, or of the object that path leads to
    def corrupt(blob):
        for step in path:
            blob = blob[step]
        blob[key] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_edit("feature", 0, 99), "node 0: feature must lie in [0, 2)"),
    (_edit("feature", 0, -1), "node 0: a leaf has no children"),
    (_edit("threshold", 0, float("nan")), "node 0: threshold must be finite"),
    (_edit("value", -1, 0.5), "node 4: value must be -1 or +1"),
    (_nested, "missing key 'feature'"),
    (_five_features, "all learners must take the same number of features"),
    (_edit_model("raw_alphas", 0, float("nan")), "raw_alphas must be finite"),
    (_edit_model("raw_alphas", 0, float("inf")), "raw_alphas must be finite"),
    (_edit_model("raw_alphas", 0, 10 ** 400), "raw_alphas[0] lies past the float range"),
    (_edit("feature", 0, True), "node 0: feature, left and right must be integers"),
    (_edit("threshold", 0, True), "node 0: threshold must be a number"),
    (_edit("value", -1, True), "node 4: value must be -1 or +1"),
    (_edit("left", 0, 1.0), "node 0: feature, left and right must be integers"),
    (_n_features_true, "n_features must be a positive integer"),
    (_edit("threshold", 0, 10 ** 400), "node 0: threshold lies past the float range"),
    (_set("seed", [1]), "seed must be an integer or null"),
    (_set("break_reason", [1]), "break_reason must be a string or null"),
    (_set("max_depth", 2.5, "tree_params"), "tree_params max_depth must be an integer"),
    (_set("max_depth", "2", "tree_params"), "tree_params max_depth must be an integer"),
    (_set("max_leaves", 4.0, "tree_params"), "tree_params max_leaves must be an integer"),
    (_set("min_leaf_weight", True, "tree_params"),
     "tree_params min_leaf_weight must be a number"),
    (_set("colour", 1, "tree_params"), "tree_params has an unknown key 'colour'"),
    (_set("tree_params", [1]), "tree_params must be a JSON object"),
    (_edit_model("trees", 1, 3), "trees must be a list of JSON objects"),
    (_set("trees", {}), "trees must be a list of JSON objects"),
    (_set("feature", 3, "trees", 0), "tree arrays must be non-empty lists of equal length"),
    (_edit("threshold", 0, "0.5"), "node 0: threshold must be a number"),
    (_edit("threshold", -1, "1.5"), "node 4: threshold must be a number"),
    (_edit("threshold", -1, None), "node 4: threshold must be a number"),
    (_edit("threshold", -1, 10 ** 400), "node 4: threshold lies past the float range"),
    (_alphas_true, "raw_alphas[0] must be a number"),
    (_edit_model("raw_alphas", 0, False), "raw_alphas[0] must be a number"),
    (_edit_model("raw_alphas", 1, "1.5"), "raw_alphas[1] must be a number"),
    (_edit_model("raw_alphas", 0, "x"), "raw_alphas[0] must be a number"),
    (_edit_model("raw_alphas", 0, {}), "raw_alphas[0] must be a number"),
    (_set("raw_alphas", 1.5), "raw_alphas must be a list of numbers"),
], ids=["feature-99", "feature-minus-1", "nan-threshold", "leaf-value-half", "nested",
        "mixed-n-features", "nan-raw-alpha", "inf-raw-alpha", "int-raw-alpha-past-float",
        "feature-true", "threshold-true", "leaf-value-true", "float-left",
        "n-features-true", "int-threshold-past-float", "seed-list", "break-reason-list",
        "depth-float", "depth-string", "leaves-float", "min-leaf-weight-true",
        "unknown-tree-param", "tree-params-list", "tree-number", "trees-object",
        "feature-number", "root-threshold-string", "leaf-threshold-string",
        "leaf-threshold-null", "int-leaf-threshold-past-float", "raw-alphas-true",
        "raw-alpha-false", "raw-alpha-string", "raw-alpha-letter", "raw-alpha-object",
        "raw-alphas-number"])
def test_bounds_rejects_bad_snapshot(model_and_data, capsys, corrupt, message):
    model_path, data_path, _ = model_and_data
    blob = json.loads(Path(model_path).read_text())
    assert len(blob["trees"]) >= 2
    corrupt(blob)
    Path(model_path).write_text(json.dumps(blob))
    assert main(["bounds", "--model", model_path, "--data", data_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad model snapshot {model_path}: ") and message in err


@pytest.mark.parametrize("text, message", [
    ("[]", "the top level must be a JSON object"),
    ("null", "the top level must be a JSON object"),
    ('{"method": "adaboost"}', "missing key 'tree_params'"),
    ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
], ids=["array", "null", "no-tree-params", "deep-nesting"])
def test_bounds_names_a_malformed_snapshot(tmp_path, capsys, text, message):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    rc = main(["bounds", "--model", str(path), "--data", "synthetic:two-gaussians:20:1:0"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: bad model snapshot {path}: {message}\n"


def test_sparse_index_above_the_cap_exits_1(tmp_path, capsys):
    # a dense matrix this wide cannot be allocated: the cap refuses it first
    path = tmp_path / "rows.sparse"
    path.write_text("1 1:0.5 99999999999:1\n-1 2:0.3\n", encoding="utf-8")
    assert main(["data", "info", str(path), "--fmt", "sparse-index"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "index 99999999999" in err and "cap of 33554432 dense cells" in err


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_experiment_end_to_end(tmp_path, capsys):
    out_file = tmp_path / "results.tsv"
    cfg = write_config(tmp_path, f"""
# minimal smoke configuration
dataset = synthetic:two-gaussians:60:0.8:3
method = adaboost
T = 6
schemes = uws
sims = 3
seed = 5
table = improve
out = {out_file}
""")
    assert main(["experiment", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "baseline_mean_test_error" in out
    assert "uws" in out
    assert "AdaBoost" in out
    text = out_file.read_text(encoding="utf-8")
    assert text.splitlines()[1].startswith("sim\tseed")


def test_experiment_cmd_series_files(tmp_path, capsys):
    prefix = tmp_path / "cmd"
    cfg = write_config(tmp_path, f"""
dataset = synthetic:two-gaussians:60:0.8:3
T = 6
schemes = uws
sims = 2
cmd_out = {prefix}
cmd_checkpoints = 3, 6
""")
    assert main(["experiment", "--config", cfg]) == 0
    for count in (3, 6):
        path = tmp_path / f"cmd.T{count}.tsv"
        assert path.exists()
        first = path.read_text().splitlines()[0].split("\t")
        float(first[0]), float(first[1])


def test_experiment_cmd_series_uses_the_simulation_rows(tmp_path, monkeypatch):
    # with max_rows set, the cmd_out ensemble trains on the rows the
    # simulations draw from, not on the whole data set
    trained = []
    fit = cli.fit_baseline

    def spy(config, train, seed):
        trained.append(train.n_rows)
        return fit(config, train, seed)

    monkeypatch.setattr(cli, "fit_baseline", spy)
    cfg = write_config(tmp_path, f"""
dataset = synthetic:two-gaussians:600:0.8:3
T = 6
schemes = uws
sims = 2
max_rows = 100
cmd_out = {tmp_path / "cmd"}
cmd_checkpoints = 3, 6
""")
    assert main(["experiment", "--config", cfg]) == 0
    assert trained == [100]


def test_experiment_cmd_series_matches_export_cmd(tmp_path, monkeypatch):
    # a checkpoint at or past the learner count is the full model, whose
    # series export_cmd writes byte for byte
    fitted = []
    fit = cli.fit_baseline

    def spy(config, train, seed):
        fitted.append((fit(config, train, seed), train))
        return fitted[-1][0]

    monkeypatch.setattr(cli, "fit_baseline", spy)
    cfg = write_config(tmp_path, f"""
dataset = synthetic:two-gaussians:60:0.8:3
T = 6
schemes = uws
sims = 2
cmd_out = {tmp_path / "cmd"}
cmd_checkpoints = 3, 6, 50
""")
    assert main(["experiment", "--config", cfg]) == 0
    (model, data), = fitted
    export_cmd(compute_margins(prediction_matrix(model, data), model.vote_weights),
               tmp_path / "full.tsv")
    want = (tmp_path / "full.tsv").read_bytes()
    for count in (6, 50):
        assert (tmp_path / f"cmd.T{count}.tsv").read_bytes() == want


@pytest.mark.parametrize("checkpoints", ["3,x", "0,3"], ids=["not-a-number", "zero"])
def test_experiment_bad_checkpoints_exit_before_the_run(tmp_path, capsys, checkpoints):
    cfg = write_config(tmp_path, f"""
dataset = synthetic:two-gaussians:60:0.8:3
T = 6
schemes = uws
sims = 2
cmd_out = {tmp_path / "cmd"}
cmd_checkpoints = {checkpoints}
""")
    assert main(["experiment", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cmd_checkpoints" in captured.err
    assert not list(tmp_path.glob("cmd.T*.tsv"))


def test_experiment_unknown_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nturbo = yes\n")
    assert main(["experiment", "--config", cfg]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_experiment_missing_required_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n")
    assert main(["experiment", "--config", cfg]) == 1
    assert "schemes" in capsys.readouterr().err


def test_experiment_bad_method(tmp_path):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nmethod = gradientboost\n")
    assert main(["experiment", "--config", cfg]) == 1


def test_experiment_duplicate_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nsims = 2\nsims = 3\n")
    assert main(["experiment", "--config", cfg]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_experiment_refuses_an_ews_power_past_the_float_range(tmp_path, capsys):
    # 1400 training rows: 1400**100 is about 4e314
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:2000:1.5:1\n"
                                 "schemes = ews:100\nsims = 2\nT = 3\n")
    assert main(["experiment", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ews:100 on 1400 rows:")
    assert "non-finite" not in captured.err


def test_experiment_table_family_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws, ews:5\ntable = improve\nsims = 2\nT = 4\n")
    assert main(["experiment", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table" in captured.err


@pytest.mark.parametrize("dataset", ["file", "synthetic"])
def test_experiment_unknown_format_exits_before_the_run(tmp_path, capsys, dataset):
    ref = "synthetic:two-gaussians:40:0.5:1"
    if dataset == "file":
        ref = str(tmp_path / "rows.csv")
        write_dataset(generate_synthetic("two-gaussians", 40, 0.5, 1), ref)
    cfg = write_config(tmp_path, f"dataset = {ref}\nschemes = uws\nsims = 2\nT = 3\n"
                                 "format = xyz\n")
    assert main(["experiment", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "format" in captured.err and "'xyz'" in captured.err


def test_experiment_mtry_above_the_feature_count_exits_before_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nsims = 2\nT = 3\n"
                                 "method = random-forest\nmtry = 9\n")
    assert main(["experiment", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m_try must lie in [1, 2]" in captured.err


def test_experiment_runtime_failure(tmp_path, capsys):
    # 0.9 of a 2-row class rounds up to both rows, so no split survives
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:4:0.5:1\n"
                                 "schemes = uws\nsims = 2\nT = 2\nfrac = 0.9\n")
    assert main(["experiment", "--config", cfg]) == 2
    assert "failure:" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_vc_key_is_accepted(tmp_path):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nsims = 2\nT = 3\nvc = 5\n")
    assert main(["experiment", "--config", cfg]) == 0


def test_experiment_yes_no_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nsims = 2\nT = 3\n"
                                 "freeze_split = yes\nfreeze_ensemble = off\n")
    assert main(["experiment", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "# split frozen across simulations; ensemble randomness resampled per simulation")


def test_experiment_bad_yes_no_value_exits_before_the_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nsims = 2\nT = 3\nfreeze_split = maybe\n")
    assert main(["experiment", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "freeze_split: must be a yes/no value, got 'maybe'" in captured.err


def test_experiment_bagging(tmp_path, capsys, monkeypatch):
    fitted = []
    bagging = harness.bagging

    def spy(train, T, params=None, seed=0):
        fitted.append(seed)
        return bagging(train, T, params=params, seed=seed)

    monkeypatch.setattr(harness, "bagging", spy)
    cfg = write_config(tmp_path, "dataset = synthetic:two-gaussians:40:0.5:1\n"
                                 "schemes = uws\nsims = 2\nT = 3\nmethod = bagging\n"
                                 "table = improve\n")
    assert main(["experiment", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "method\tbagging\ttrees\t3\tsimulations\t2\tsuccesses\t2" in out
    assert "Bagging" in out
    # one ensemble per simulation, each on its own derived seed
    assert fitted == [harness.derived_seed(0, s) for s in range(2)]
