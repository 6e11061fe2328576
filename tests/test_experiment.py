"""Experiment grid driver, its artifacts, and the command-line front end."""

import dataclasses
import json
import math
import re
import types

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvmi import (
    ExperimentError,
    HourlySeries,
    InsufficientDataError,
    MissingSpec,
    RegressorSpec,
    SynthSpec,
    fit_sampler,
    gamma_interval,
    generate,
    inject_missing,
    normal_interval,
    parse_csv,
    split_chronological,
    write_csv,
)
from pvmi import experiment
from pvmi.cli import main
from pvmi.experiment import (
    _CSV_HEADER,
    Cell,
    ExperimentConfig,
    ModelConfig,
    _hour_fields,
    _moment_fields,
    _read_cell_csv,
    _write_cell_csv,
    config_from_json,
    enumerate_cells,
    model_labels,
    reaggregate,
    run,
)
from pvmi.features import WINDOW_HOURS
from pvmi.intervals import INTERVAL_FAMILIES
from pvmi.pipeline import Completions, Pipeline
from tests.conftest import make_series

KNN2 = ModelConfig("knn", {"k": 2})


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        data_csv=None,
        data_synth=SynthSpec(days=8, seed=3),
        test_len=72,
        model_configs=(KNN2,),
        setups=(1, 2),
        n_rounds=(2,),
        interval_families=("normal", "gamma"),
        train_missing=MissingSpec("target-fraction", target_fraction=0.15,
                                  block_len_hours=6, seed=1),
        test_missing=MissingSpec("target-fraction", target_fraction=0.15,
                                 block_len_hours=6, seed=2),
        alpha=0.2,
        sampler_k=2,
        master_seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ config


def test_model_config_defaults_to_tuning():
    assert ModelConfig("knn").tune is True
    assert ModelConfig("knn", {"k": 3}).tune is False
    with pytest.raises(ValueError, match="family"):
        ModelConfig("boost")


@pytest.mark.parametrize("tune", [1, 0, "true", "false", 1.0])
def test_model_config_tune_must_be_a_json_bool(tune):
    with pytest.raises(ValueError, match="^tune"):
        config_from_json({**MINIMAL_DOC, "models": [{"family": "knn", "tune": tune}]})
    assert ModelConfig("knn", {"k": 3}, tune=False).tune is False


def test_model_config_needs_a_grid_to_tune_the_mlp():
    with pytest.raises(ValueError, match="grid"):
        ModelConfig("mlp")
    with pytest.raises(ValueError, match="grid"):
        ModelConfig("mlp", tune=True)
    tuned = ModelConfig("mlp", tune=True, grid=({"iterations": 5}, {"iterations": 9}))
    assert tuned.tune is True


def test_model_config_rejects_contradictory_fields():
    # each of these used to drop a field silently, or fail only in run
    with pytest.raises(ValueError, match="^grid"):
        ModelConfig("lasso", {"lam": 0.1}, grid=({"lam": 0.2},))
    with pytest.raises(ValueError, match="^tune"):
        ModelConfig("knn", {"k": 3}, tune=True)
    with pytest.raises(ValueError, match="^tune"):
        ModelConfig("knn", tune=False)  # used to be tuned anyway
    with pytest.raises(ValueError, match="^folds"):
        ModelConfig("knn", tune=True, folds=0)
    with pytest.raises(ValueError, match="^folds"):
        ModelConfig("knn", {"k": 3}, folds=-1)


def test_config_requires_exactly_one_data_source():
    with pytest.raises(ValueError, match="data source"):
        small_config(data_csv="x.csv")  # both csv and synth
    with pytest.raises(ValueError, match="data source"):
        small_config(data_synth=None)  # neither


def test_config_field_validation():
    with pytest.raises(ValueError, match="model"):
        small_config(model_configs=())
    with pytest.raises(ValueError, match="setups"):
        small_config(setups=(0,))
    with pytest.raises(ValueError, match="n_rounds"):
        small_config(n_rounds=(0,))
    with pytest.raises(ValueError, match="interval_families"):
        small_config(interval_families=("uniform",))
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=1.0)
    with pytest.raises(ValueError, match="^n_rounds must be a list"):
        small_config(n_rounds=5)
    with pytest.raises(ValueError, match="^model_configs must be a list of ModelConfig"):
        small_config(model_configs=[5])
    with pytest.raises(ValueError, match="^blocks must be a list"):
        MissingSpec("explicit-blocks", blocks=5)


def test_config_from_json_round_trip():
    doc = {
        "schema_version": 1,
        "data": {"synth": {"days": 8, "seed": 3}},
        "test_len": 72,
        "models": [{"family": "knn", "hyperparameters": {"k": 2}}],
        "setups": [1, 2],
        "n_rounds": [2],
        "train_missing": {"mode": "target-fraction", "target_fraction": 0.15,
                          "block_len_hours": 6, "seed": 1},
        "alpha": 0.2,
        "sampler_k": 2,
    }
    config = config_from_json(doc)
    assert config.data_synth == SynthSpec(days=8, seed=3)
    assert config.test_len == 72
    assert config.model_configs == (KNN2,)
    assert config.setups == (1, 2)
    assert config.train_missing.target_fraction == 0.15
    assert config.test_missing is None
    assert config.alpha == 0.2
    assert config.sampler_k == 2


MINIMAL_DOC = {
    "schema_version": 1,
    "data": {"synth": {"days": 8, "seed": 3}},
    "test_len": 72,
    "models": [{"family": "knn", "hyperparameters": {"k": 2}}],
}


def test_config_from_json_defaults_come_from_the_dataclass():
    assert config_from_json(MINIMAL_DOC) == ExperimentConfig(
        data_csv=None,
        data_synth=SynthSpec(days=8, seed=3),
        test_len=72,
        model_configs=(KNN2,),
    )


def test_config_lists_become_tuples():
    config = small_config(model_configs=[KNN2], setups=[1], n_rounds=[2, 3],
                          interval_families=["gamma"])
    assert config == small_config(setups=(1,), n_rounds=(2, 3),
                                  interval_families=("gamma",))


def test_config_from_json_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema_version"):
        config_from_json({"schema_version": 2})
    with pytest.raises(ValueError, match="schema_version"):
        config_from_json({})


def test_config_from_json_rejects_unknown_keys():
    doc = {
        "schema_version": 1,
        "data": {"synth": {"days": 8, "seed": 3}},
        "test_len": 72,
        "models": [{"family": "knn", "hyperparameters": {"k": 2}}],
        "n_round": [3],
        "interval_family": ["gamma"],
    }
    with pytest.raises(ValueError, match=r"\['interval_family', 'n_round'\]"):
        config_from_json(doc)


def test_config_from_json_rejects_unknown_data_keys():
    doc = {**MINIMAL_DOC, "data": {"synth": {"days": 8}, "cvs": "x.csv"}}
    with pytest.raises(ValueError, match=r"unknown data key\(s\) \['cvs'\]"):
        config_from_json(doc)


GAPS = {"mode": "target-fraction", "target_fraction": 0.2, "seed": 1}
EXPLICIT = {"mode": "explicit-blocks", "blocks": [[30, 2]]}


@pytest.mark.parametrize("where, patch, bad", [
    ("models[1]", {"models": [{"family": "knn", "hyperparameters": {"k": 2}},
                              {"family": "knn", "hyperparamters": {"k": 3}}]}, "hyperparamters"),
    ("data.synth", {"data": {"synth": {"dayz": 8}}}, "dayz"),
    ("train_missing", {"train_missing": {**GAPS, "fraction": 0.2}}, "fraction"),
    ("test_missing", {"test_missing": {**GAPS, "sed": 2}}, "sed"),
])
def test_config_from_json_rejects_unknown_nested_keys(where, patch, bad):
    with pytest.raises(ValueError, match=rf"unknown {re.escape(where)} key\(s\) \['{bad}'\]"):
        config_from_json({**MINIMAL_DOC, **patch})


def test_config_from_json_names_a_missing_nested_key():
    with pytest.raises(ValueError, match=r"missing models\[0\] key\(s\) \['family'\]"):
        config_from_json({**MINIMAL_DOC, "models": [{"tune": True}]})


@pytest.mark.parametrize("key", ["data", "models", "test_len"])
def test_config_from_json_names_a_missing_key(key):
    doc = {k: v for k, v in MINIMAL_DOC.items() if k != key}
    with pytest.raises(ValueError, match=rf"missing config key\(s\) \['{key}'\]"):
        config_from_json(doc)


@pytest.mark.parametrize("field, patch", [
    ("n_rounds", {"n_rounds": [2.5]}),
    ("n_rounds", {"n_rounds": ["2"]}),
    ("n_rounds", {"n_rounds": [True]}),
    ("setups", {"setups": [1.0, 2]}),
    ("setups", {"setups": [True]}),
    ("master_seed", {"master_seed": 1.5}),
    ("master_seed", {"master_seed": -1}),
    ("sampler_k", {"sampler_k": 2.5}),
    ("folds", {"models": [{"family": "knn", "tune": True, "folds": 2.5}]}),
    ("seed", {"models": [{"family": "mlp", "hyperparameters": {}, "seed": -1}]}),
    ("days", {"data": {"synth": {"days": 8.5, "seed": 3}}}),
    ("seed", {"data": {"synth": {"days": 8, "seed": 1.5}}}),
    ("block_len_hours", {"train_missing": {**GAPS, "block_len_hours": 2.5}}),
    ("block_len_hours", {"train_missing": {**GAPS, "block_len_hours": True}}),
    ("seed", {"test_missing": {**GAPS, "seed": 1.5}}),
    (r"blocks\[0\] start", {"test_missing": {**EXPLICIT, "blocks": [[1.5, 2]]}}),
    (r"blocks\[0\] start", {"test_missing": {**EXPLICIT, "blocks": [[True, 2]]}}),
    (r"blocks\[1\] length", {"test_missing": {**EXPLICIT, "blocks": [[30, 2], [40, 2.0]]}}),
    ("k", {"models": [{"family": "knn", "hyperparameters": {"k": 2.5}}]}),
    ("hidden", {"models": [{"family": "mlp", "hyperparameters": {"hidden": [4.9, 3]}}]}),
    ("grid", {"models": [{"family": "knn", "grid": []}]}),
    ("interval_families", {"interval_families": ["normal", "normal"]}),
    (r"blocks\[0\]", {"test_missing": {**EXPLICIT, "blocks": [5]}}),
    (r"blocks\[0\]", {"test_missing": {**EXPLICIT, "blocks": [[1, 2, 3]]}}),
    ("hyperparameters", {"models": [{"family": "knn", "hyperparameters": 5}]}),
    ("grid", {"models": [{"family": "knn", "grid": [5]}]}),
    ("grid", {"models": [{"family": "knn", "grid": {"k": 2}}]}),
    ("n_rounds", {"n_rounds": 5}),
    ("setups", {"setups": 1}),
    (r"models\[0\]", {"models": [5]}),
    ("models", {"models": {"family": "knn"}}),
    ("interval_families", {"interval_families": "normal"}),
    ("blocks", {"test_missing": {**EXPLICIT, "blocks": 5}}),
    ("data", {"data": "x.csv"}),
])
def test_config_from_json_rejects_a_malformed_axis_or_seed(field, patch):
    # each would otherwise fail late (after the sampler fit and tuning, with
    # no summary.json), run with a truncated value (k 2.5 as 2), remove the
    # wrong hours (blocks [[1.5, 2]] removed hours 1-2), fail with a bare
    # numpy TypeError or ``'int' object is not iterable``, iterate a string's
    # characters or a mapping's keys, write one cell twice, or echo ``true``
    with pytest.raises(ValueError, match=f"^{field} must"):
        config_from_json({**MINIMAL_DOC, **patch})


def test_model_config_rejects_unknown_hyperparameters():
    with pytest.raises(ValueError, match="'lamda'"):
        ModelConfig("lasso", {"lamda": 0.5})
    with pytest.raises(ValueError, match="'K'"):
        ModelConfig("knn", tune=True, grid=({"k": 1}, {"K": 2}))


# ------------------------------------------------------------------- cells


def test_model_labels_disambiguate_repeats():
    cfg = small_config(model_configs=(KNN2, ModelConfig("lasso", {"lam": 0.1})))
    assert model_labels(cfg) == ["knn", "lasso"]
    cfg = small_config(
        model_configs=(KNN2, ModelConfig("knn", {"k": 5}), ModelConfig("mlp", {}))
    )
    assert model_labels(cfg) == ["knn1", "knn2", "mlp"]


def test_cell_ids_encode_the_whole_coordinate():
    cell = Cell(2, 0, "knn", 5, "gamma")
    assert cell.pipeline_id == "s2_b5_knn"
    assert cell.cell_id == "s2_b5_knn_gamma"
    solo = Cell(1, 0, "mlp", None, "normal")
    assert solo.pipeline_id == "s1_mlp"
    assert solo.cell_id == "s1_mlp_normal"


def test_full_grid_has_thirty_cells():
    # 3 models x (setup 1 collapses rounds: 1 + 2 + 2 pipelines) x 2 intervals
    cfg = small_config(
        model_configs=(KNN2, ModelConfig("lasso", {"lam": 0.1}), ModelConfig("mlp", {})),
        setups=(1, 2, 3),
        n_rounds=(5, 10),
    )
    cells = enumerate_cells(cfg)
    assert len(cells) == 30
    assert len({c.cell_id for c in cells}) == 30
    setup1 = [c for c in cells if c.setup == 1]
    assert len(setup1) == 6  # rounds axis collapsed
    assert all(c.n_rounds is None for c in setup1)


# --------------------------------------------------------------------- run


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    summary = run(small_config(), out)
    return out, summary


def test_run_reports_every_cell_ok(run_dir):
    out, summary = run_dir
    assert summary["schema_version"] == 1
    assert summary["alpha"] == 0.2
    assert len(summary["cells"]) == 4
    for record in summary["cells"]:
        assert record["status"] == "ok"
        assert 0.0 <= record["coverage"] <= 1.0
        assert record["nrmse"] >= 0.0
        assert record["n_evaluated"] > 0
        assert record["mean_width"] >= 0.0


def test_run_writes_all_artifacts(run_dir):
    out, summary = run_dir
    assert (out / "summary.json").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sampler_k"] == 2
    assert manifest["models"] == [
        {"label": "knn", "family": "knn", "hyperparameters": {"k": 2}, "seed": 0,
         "tuned": False}
    ]
    assert 0.0 < manifest["train_missing_fraction"] <= 0.2
    assert len(manifest["cells"]) == 4
    for entry in manifest["cells"]:
        assert (out / entry["file"]).is_file()


def test_cell_csv_rows_are_audit_grade(run_dir):
    out, summary = run_dir
    manifest = json.loads((out / "manifest.json").read_text())
    path = out / manifest["cells"][0]["file"]
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t", "truth", "mask", "pooled_mean", "within_var",
                      "between_var", "total_var", "lower", "upper", "covered"]
    assert len(lines) - 1 == 72 - 24  # one row per admissible target hour
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[7]) <= float(cells[8])  # lower <= upper
        if cells[2] == "1":  # masked hours: truth; covered flag is still known
            assert cells[1] != ""  # restored from the injection ground truth
        else:
            want = int(float(cells[7]) <= float(cells[1]) <= float(cells[8]))
            assert int(cells[9]) == want


def test_rerun_is_byte_identical(run_dir, tmp_path):
    out, _ = run_dir
    again = tmp_path / "exp2"
    run(small_config(), again)
    assert (again / "summary.json").read_bytes() == (out / "summary.json").read_bytes()
    assert (again / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()


def test_reaggregate_matches_original_summary(run_dir):
    out, summary = run_dir
    rebuilt = reaggregate(out)
    assert rebuilt["alpha"] == summary["alpha"]
    key = lambda c: (c["setup"], c["model"], c["n_rounds"], c["interval_family"])
    originals = {key(c): c for c in summary["cells"]}
    assert len(rebuilt["cells"]) == len(summary["cells"])
    for cell in rebuilt["cells"]:
        # every field, bitwise: the CSVs carry full-precision bounds
        assert cell == originals[key(cell)]


# The per-row cell CSV writer and reader that the array path replaced; kept
# as the reference oracle for the bytes written and the values read back.


def _write_cell_csv_oracle(path, pooled, intervals, test, truth_restored):
    lines = [_CSV_HEADER]
    for i, (p, iv) in enumerate(zip(pooled, intervals)):
        t = WINDOW_HOURS + i  # target hour, 0-based index into the test series
        known = not truth_restored.mask[t]
        truth = repr(float(truth_restored.power[t])) if known else ""
        covered = ""
        if known:
            covered = str(int(iv.lower <= truth_restored.power[t] <= iv.upper))
        lines.append(
            f"{t},{truth},{int(test.mask[t])},{p.mean!r},{p.within_var!r},"
            f"{p.between_var!r},{p.total_var!r},{iv.lower!r},{iv.upper!r},{covered}"
        )
    path.write_text("\n".join(lines) + "\n")


def _read_cell_csv_oracle(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == _CSV_HEADER
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(
            {
                "t": int(cells[0]),
                "truth": float(cells[1]) if cells[1] else None,
                "mask": int(cells[2]),
                "pooled_mean": float(cells[3]),
                "within_var": float(cells[4]),
                "between_var": float(cells[5]),
                "total_var": float(cells[6]),
                "lower": float(cells[7]),
                "upper": float(cells[8]),
                "covered": int(cells[9]) if cells[9] else None,
            }
        )
    return rows


@pytest.fixture(scope="module")
def cell_inputs():
    """A test series with nights, injected gaps (truth restored) and hours
    missing in the record itself (truth unknown), pooled over 3 rounds."""
    train, test = split_chronological(generate(SynthSpec(days=8, seed=3)), test_len=72)
    power = test.power.copy()
    power[[30, 31, 50]] = np.nan  # lost for good: no truth to restore
    test = HourlySeries(test.start, power, test.irradiance)
    test, truth = inject_missing(test, MissingSpec("target-fraction", target_fraction=0.2,
                                                   block_len_hours=6, seed=2))
    restored = truth.restore(test)
    completions = Completions(train, test, fit_sampler(train, k=2))
    pooled = Pipeline(completions, RegressorSpec("knn", {"k": 2})).pool(2, 3, seed=5)
    assert test.mask[WINDOW_HOURS:].sum() > 3 and restored.mask[WINDOW_HOURS:].sum() == 3
    assert np.any(pooled.mean <= 0.0) and np.any(pooled.mean > 0.0)  # nights and days
    return test, restored, pooled


@pytest.mark.parametrize("family", ["normal", "gamma"])
def test_cell_csv_bytes_equal_the_per_row_oracle(cell_inputs, family, tmp_path):
    test, restored, pooled = cell_inputs
    lower, upper = INTERVAL_FAMILIES[family](pooled.mean, pooled.total_var, 0.1)
    _write_cell_csv(tmp_path / "cell.csv", _moment_fields(_hour_fields(test, restored), pooled),
                    lower, upper, restored)
    scalar = normal_interval if family == "normal" else gamma_interval
    hours = pooled.hours()
    _write_cell_csv_oracle(tmp_path / "oracle.csv", hours,
                           [scalar(p.mean, p.total_var, 0.1) for p in hours], test, restored)
    written = (tmp_path / "cell.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes()
    assert b",,1," in written and b",1\n" in written and b",0\n" in written

    columns = _read_cell_csv(tmp_path / "cell.csv")
    rows = _read_cell_csv_oracle(tmp_path / "oracle.csv")
    for name, values in columns.items():
        want = [math.nan if r[name] is None else r[name] for r in rows]
        np.testing.assert_array_equal(values, want)  # NaN matches NaN


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_cell_csv_round_trips_every_double(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "cell.csv"
    rows = [f"{24 + i},{v!r},0,{v!r},{v!r},{v!r},{v!r},{v!r},{v!r},1"
            for i, v in enumerate(values)]
    path.write_text("\n".join([_CSV_HEADER, *rows]) + "\n")
    columns = _read_cell_csv(path)
    for name in ("truth", "pooled_mean", "lower", "upper"):
        assert columns[name].tolist() == values  # float() inverts repr exactly


# values whose text a float-keyed cache would get wrong or that sit at the
# ends of the double range: signed zeros, subnormals, +-1e308
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308,
                -1e308, 0.1, 1.0]


@st.composite
def _cell_columns(draw):
    n = draw(st.integers(1, 30))
    value = st.one_of(st.sampled_from(_EDGE_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    column = st.lists(value, min_size=n, max_size=n)
    names = ("mean", "within_var", "between_var", "total_var", "lower", "upper", "truth")
    cols = {name: draw(column) for name in names}
    cols["mask"] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return cols


def _cell_csv_text_oracle(hour_fields, cols):
    lines = [_CSV_HEADER]
    for i, h in enumerate(hour_fields):
        lo, up, y = cols["lower"][i], cols["upper"][i], cols["truth"][i]
        covered = "" if cols["mask"][i] else str(int(lo <= y <= up))
        lines.append(f"{h},{cols['mean'][i]!r},{cols['within_var'][i]!r},"
                     f"{cols['between_var'][i]!r},{cols['total_var'][i]!r},"
                     f"{lo!r},{up!r},{covered}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_cell_columns())
@example({name: [0.0, -0.0, 0.0] for name in ("mean", "within_var", "between_var",
                                              "total_var", "lower", "upper", "truth")}
         | {"mask": [False, False, True]})
def test_cell_csv_text_equals_a_per_row_repr_oracle(tmp_path_factory, cols):
    hour_fields = [f"{WINDOW_HOURS + i},h{i},{int(m)}" for i, m in enumerate(cols["mask"])]
    pooled = types.SimpleNamespace(**{k: np.array(cols[k]) for k in (
        "mean", "within_var", "between_var", "total_var")})
    truth = types.SimpleNamespace(power=np.array([0.0] * WINDOW_HOURS + cols["truth"]),
                                  mask=np.array([False] * WINDOW_HOURS + cols["mask"]))
    path = tmp_path_factory.mktemp("csv") / "cell.csv"
    _write_cell_csv(path, _moment_fields(hour_fields, pooled), np.array(cols["lower"]),
                    np.array(cols["upper"]), truth)
    assert path.read_bytes() == _cell_csv_text_oracle(hour_fields, cols).encode()


def test_cell_csv_reader_rejects_a_short_row(tmp_path):
    path = tmp_path / "cell.csv"
    path.write_text(_CSV_HEADER + "\n24,1.0,0,1.0\n")
    with pytest.raises(ValueError, match="fields"):
        _read_cell_csv(path)


def test_failing_cells_are_isolated(tmp_path):
    config = small_config(
        model_configs=(KNN2, ModelConfig("knn", {"k": 99_999})),  # k > train rows
        interval_families=("normal",),
    )
    with pytest.raises(ExperimentError, match="failed"):
        run(config, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    by_model = {}
    for record in summary["cells"]:
        by_model.setdefault(record["model"], []).append(record["status"])
    assert set(by_model["knn1"]) == {"ok"}
    assert set(by_model["knn2"]) == {"failed"}
    failed = [c for c in summary["cells"] if c["status"] == "failed"]
    assert all("ValueError" in c["error"] for c in failed)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {e["model"] for e in manifest["cells"]} == {"knn1"}  # ok cells only
    assert len(reaggregate(tmp_path)["cells"]) == len(manifest["cells"])


@pytest.mark.parametrize("numpy_fields, python_fields", [
    pytest.param({"model_configs": (ModelConfig("knn", {"k": np.int64(2)}),)},
                 {"model_configs": (KNN2,)}, id="k"),
    pytest.param({"model_configs": (ModelConfig("knn", grid=[{"k": np.int64(1)},
                                                             {"k": np.int64(2)}]),)},
                 {"model_configs": (ModelConfig("knn", grid=[{"k": 1}, {"k": 2}]),)},
                 id="grid"),
    pytest.param({"test_len": np.int64(72)}, {"test_len": 72}, id="test_len"),
    pytest.param({"n_rounds": (np.int64(2),)}, {"n_rounds": (2,)}, id="n_rounds"),
    pytest.param({"alpha": np.float32(0.05)}, {"alpha": float(np.float32(0.05))},
                 id="alpha"),
])
def test_numpy_scalars_write_the_artifacts_of_the_python_numbers(
        tmp_path, numpy_fields, python_fields):
    # n_rounds was rejected; the others wrote cells/ (and all but alpha
    # summary.json), then json could not encode the numpy scalar
    def artifacts(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    run(small_config(**python_fields), tmp_path / "py")
    run(small_config(**numpy_fields), tmp_path / "np")
    python_artifacts = artifacts(tmp_path / "py")
    assert len(python_artifacts) == 2 + 4  # summary, manifest and four cell CSVs
    assert artifacts(tmp_path / "np") == python_artifacts


def test_a_run_whose_split_fails_leaves_no_output(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="test_len must satisfy 24 < test_len < 192"):
        run(small_config(test_len=500), out)
    assert not out.exists()
    # nor does one whose gap injection or tuning fails (the training half
    # has 120 hours and 96 rows)
    with pytest.raises(ValueError, match="exceeds series bounds"):
        run(small_config(train_missing=MissingSpec("explicit-blocks", blocks=((100, 50),))),
            out)
    assert not out.exists()
    with pytest.raises(InsufficientDataError, match="1000 expanding-window folds"):
        run(small_config(model_configs=(
            ModelConfig("knn", grid=({"k": 1}, {"k": 2}), folds=1000),)), out)
    assert not out.exists()


def test_summary_and_manifest_are_both_serialised_before_either_is_written(
        tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "_config_echo", lambda config: {"unencodable": object()})
    with pytest.raises(TypeError, match="not JSON serializable"):
        run(small_config(), tmp_path)
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_a_failing_pipeline_is_pooled_once(tmp_path, monkeypatch):
    # three pipelines (s1, s2_b2, s3_b2), each cut into a normal and a gamma
    # cell; k above the training rows makes every pooling raise
    pooled = []

    def counted(self, setup, n_rounds, seed):
        pooled.append(setup)
        return pool(self, setup, n_rounds, seed)

    pool = Pipeline.pool
    monkeypatch.setattr(Pipeline, "pool", counted)
    config = small_config(data_synth=SynthSpec(days=6, seed=3),
                          model_configs=(ModelConfig("knn", {"k": 5000}),),
                          setups=(1, 2, 3), n_rounds=(2,))
    with pytest.raises(ExperimentError, match="6 cell"):
        run(config, tmp_path)
    assert pooled == [1, 2, 3]
    cells = json.loads((tmp_path / "summary.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["failed"] * 6
    errors = [c["error"] for c in cells]
    assert errors[0::2] == errors[1::2]  # a pipeline's two cells share its marker


def test_a_failing_shared_fit_is_fitted_once(tmp_path, monkeypatch):
    # the setup-2 pipeline reuses the setup-1 pipeline's failed shared fit;
    # setup 3 fits its first round's own model, which fails too
    import pvmi.models

    fits = []

    def counted(spec, data):
        fits.append(spec)
        return fit(spec, data)

    fit = pvmi.models.fit
    monkeypatch.setattr(pvmi.models, "fit", counted)
    config = small_config(data_synth=SynthSpec(days=6, seed=3),
                          model_configs=(ModelConfig("knn", {"k": 5000}),),
                          setups=(1, 2, 3), n_rounds=(2,))
    with pytest.raises(ExperimentError, match="6 cell"):
        run(config, tmp_path)
    assert len(fits) == 2


def _pooled_by_pipeline(monkeypatch, edit=None):
    """Wrap ``Pipeline.pool`` so that it records each pooling under its
    pipeline id (knn models only), after ``edit`` if one is given."""
    pooled = {}

    def recorded(self, setup, n_rounds, seed):
        result = pool(self, setup, n_rounds, seed)
        if edit is not None:
            result = edit(result)
        b = f"_b{n_rounds}" if setup != 1 else ""
        pooled[f"s{setup}{b}_knn"] = result
        return result

    pool = Pipeline.pool
    monkeypatch.setattr(Pipeline, "pool", recorded)
    return pooled


# the first hours of every pipeline: each pairing of signed zeros, which
# only their bits tell apart, and one hour that all pipelines share
_SHARED_HOURS = ([0.0, -0.0, 0.0, -0.0, 0.5], [0.0, 0.0, -0.0, -0.0, 0.01])


def _with_shared_hours(pooling):
    mean, total_var = pooling.mean.copy(), pooling.total_var.copy()
    n = len(_SHARED_HOURS[0])
    mean[:n], total_var[:n] = _SHARED_HOURS
    return dataclasses.replace(pooling, mean=mean, total_var=total_var)


@pytest.mark.threaded_blas
def test_each_family_is_cut_once_with_the_bits_of_per_pipeline_cuts(tmp_path, monkeypatch):
    pooled = _pooled_by_pipeline(monkeypatch, _with_shared_hours)
    calls = []
    for family, kernel in list(INTERVAL_FAMILIES.items()):
        def counted(mean, variance, alpha, family=family, kernel=kernel):
            calls.append((family, mean.size))
            return kernel(mean, variance, alpha)
        monkeypatch.setitem(INTERVAL_FAMILIES, family, counted)
    config = small_config(setups=(1, 2, 3), n_rounds=(2, 3))
    run(config, tmp_path)
    monkeypatch.undo()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(pooled) == 5 and len(manifest["cells"]) == 10
    # one call per family, on each distinct (mean, total_var) bit pattern once
    distinct = {(m.hex(), v.hex()) for p in pooled.values()
                for m, v in zip(p.mean.tolist(), p.total_var.tolist())}
    assert len(distinct) < sum(p.mean.size for p in pooled.values())
    assert sorted(calls) == [("gamma", len(distinct)), ("normal", len(distinct))]
    for entry in manifest["cells"]:
        p = pooled[entry["id"].rsplit("_", 1)[0]]
        lower, upper = INTERVAL_FAMILIES[entry["interval_family"]](
            p.mean, p.total_var, config.alpha)
        columns = _read_cell_csv(tmp_path / entry["file"])
        for got, want in ((columns["lower"], lower), (columns["upper"], upper)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        if entry["interval_family"] == "normal":  # the zeros' signs reach the bounds
            assert np.signbit(columns["lower"][:4]).tolist() == [False, True, False, False]


def test_a_cut_that_raises_fails_only_its_pipelines_cells(tmp_path, monkeypatch):
    pooled = _pooled_by_pipeline(monkeypatch)
    gamma = INTERVAL_FAMILIES["gamma"]

    raised = []

    def pairs(mean, variance):
        return set(zip(mean.tolist(), variance.tolist()))

    def failing(mean, variance, alpha):
        # raises on a call that holds an hour only s2_b2 has, wherever the
        # hour sits in the call, with a text that depends on the call
        own = pairs(pooled["s2_b2_knn"].mean, pooled["s2_b2_knn"].total_var)
        for other in ("s1_knn", "s2_b3_knn"):
            own -= pairs(pooled[other].mean, pooled[other].total_var)
        if own & pairs(mean, variance):
            raised.append(f"search failed for {mean.size // pooled['s2_b2_knn'].mean.size} "
                          "block(s)")
            raise ArithmeticError(raised[-1])
        return gamma(mean, variance, alpha)

    monkeypatch.setitem(INTERVAL_FAMILIES, "gamma", failing)
    with pytest.raises(ExperimentError, match="1 cell"):
        run(small_config(setups=(1, 2), n_rounds=(2, 3)), tmp_path)
    assert len(raised) == 2 and raised[0] != raised[1]  # the batched call, then s2_b2's
    cells = json.loads((tmp_path / "summary.json").read_text())["cells"]
    failed = [(c["setup"], c["n_rounds"], c["interval_family"], c["error"])
              for c in cells if c["status"] == "failed"]
    assert failed == [(2, 2, "gamma", "ArithmeticError: search failed for 1 block(s)")]
    assert sum(c["status"] == "ok" for c in cells) == 5


def test_run_fits_each_shared_model_once_and_finds_neighbours_once(tmp_path, monkeypatch):
    # setup 1 and every setup-2 cell of a spec share one single-imputation
    # model (1 fit); setup 3 fits one model per round, and its B = 2 cell
    # pools the first 2 of the B = 3 cell's rounds (3 fits); the sampler
    # neighbours of each series' gaps are found once, whatever B is
    import pvmi.imputation
    import pvmi.models

    calls = {"fit": 0, "neighbors": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pvmi.models, "fit", counted("fit", pvmi.models.fit))
    monkeypatch.setattr(pvmi.imputation, "neighbors",
                        counted("neighbors", pvmi.imputation.neighbors))

    def counts(n_rounds):
        calls.update(fit=0, neighbors=0)
        run(small_config(setups=(1, 2, 3), n_rounds=n_rounds), tmp_path / str(n_rounds))
        return dict(calls)

    few, many = counts((2, 3)), counts((4, 5))
    assert few["fit"] == 4
    assert few["neighbors"] == many["neighbors"]


def test_every_cell_pools_the_first_b_rounds_of_its_setup(tmp_path):
    # one seed per (model, setup): every B of a setup carries it, and each
    # cell's moments are the bits of a fresh pipeline pooling B rounds of it
    config = small_config(model_configs=(KNN2, ModelConfig("lasso", {"lam": 0.01})),
                          setups=(1, 2, 3), n_rounds=(2, 3))
    run(config, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    train, test = split_chronological(generate(config.data_synth), config.test_len)
    train, _ = inject_missing(train, config.train_missing)
    test, _ = inject_missing(test, config.test_missing)
    completions = Completions(train, test, fit_sampler(train, k=config.sampler_k))
    specs = {m["label"]: RegressorSpec(m["family"], m["hyperparameters"], m["seed"])
             for m in manifest["models"]}
    seeds = {}
    for entry in manifest["cells"]:
        seeds.setdefault((entry["model"], entry["setup"]), set()).add(entry["seed"])
        pooled = Pipeline(completions, specs[entry["model"]]).pool(
            entry["setup"], entry["n_rounds"] or 1, entry["seed"])
        rows = _read_cell_csv_oracle(tmp_path / entry["file"])
        for name, column in (("pooled_mean", pooled.mean), ("within_var", pooled.within_var),
                             ("between_var", pooled.between_var),
                             ("total_var", pooled.total_var)):
            assert [r[name] for r in rows] == column.tolist(), (entry["id"], name)
    assert len(manifest["cells"]) == 2 * 5 * 2
    assert all(len(s) == 1 for s in seeds.values()) and len(seeds) == 2 * 3
    assert len(set.union(*seeds.values())) == 2 * 3


# --------------------------------------------------------------------- cli


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def cli_tmp(tmp_path, capsys):
    return tmp_path, capsys


def test_cli_synth_writes_parseable_csv(tmp_path, capsys):
    cfg = write_json(tmp_path / "synth.json", {"days": 3, "seed": 4})
    out = tmp_path / "data.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    assert "72 hours" in capsys.readouterr().out
    series = parse_csv(out)
    assert len(series) == 72
    assert not series.mask.any()


def test_cli_synth_seed_override_changes_data(tmp_path):
    cfg = write_json(tmp_path / "synth.json", {"days": 3, "seed": 4})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["synth", "--config", str(cfg), "--out", str(a)])
    main(["synth", "--config", str(cfg), "--out", str(b), "--seed", "5"])
    assert a.read_bytes() != b.read_bytes()


def test_cli_inject_then_impute_round_trip(tmp_path, capsys):
    cfg = write_json(tmp_path / "synth.json", {"days": 3, "seed": 4})
    data = tmp_path / "data.csv"
    main(["synth", "--config", str(cfg), "--out", str(data)])

    gaps = write_json(
        tmp_path / "gaps.json",
        {"mode": "target-fraction", "target_fraction": 0.2, "block_len_hours": 4,
         "seed": 9},
    )
    masked_csv = tmp_path / "masked.csv"
    truth_json = tmp_path / "truth.json"
    assert main(["inject", str(data), "--config", str(gaps), "--out", str(masked_csv),
                 "--truth-out", str(truth_json)]) == 0
    masked = parse_csv(masked_csv)
    n_missing = int(masked.mask.sum())
    assert n_missing == round(0.2 * 72)
    truth = json.loads(truth_json.read_text())
    assert len(truth) == n_missing
    original = parse_csv(data)
    for key, value in truth.items():
        assert original.power[int(key)] == value

    impute_cfg = write_json(tmp_path / "impute.json", {"mode": "single", "k": 2})
    completed_csv = tmp_path / "completed.csv"
    assert main(["impute", str(masked_csv), "--config", str(impute_cfg), "--out",
                 str(completed_csv)]) == 0
    completed = parse_csv(completed_csv)
    assert not completed.mask.any()
    # observed hours pass through untouched
    keep = ~masked.mask
    assert np.array_equal(completed.power[keep], masked.power[keep])


def test_cli_inject_truth_out_bytes(tmp_path):
    # the removed hours in ascending order, whatever the order of the blocks
    data = tmp_path / "data.csv"
    write_csv(make_series(np.arange(30) / 4.0), data)
    gaps = write_json(tmp_path / "gaps.json",
                      {"mode": "explicit-blocks", "blocks": [[10, 1], [2, 2]]})
    truth_json = tmp_path / "truth.json"
    assert main(["inject", str(data), "--config", str(gaps), "--out",
                 str(tmp_path / "masked.csv"), "--truth-out", str(truth_json)]) == 0
    assert truth_json.read_bytes() == b'{\n  "2": 0.5,\n  "3": 0.75,\n  "10": 2.5\n}'


def test_cli_impute_rejects_unknown_keys(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(generate(SynthSpec(days=3, seed=4)), data)
    cfg = write_json(tmp_path / "impute.json", {"mode": "single", "K": 2, "sed": 1})
    with pytest.raises(ValueError, match=r"\['K', 'sed'\]"):
        main(["impute", str(data), "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert not (tmp_path / "c.csv").exists()


def test_cli_impute_rejects_an_unknown_mode(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(generate(SynthSpec(days=3, seed=4)), data)
    cfg = write_json(tmp_path / "impute.json", {"mode": "bogus"})
    with pytest.raises(ValueError, match="^mode must be 'single' or 'stochastic', got 'bogus'$"):
        main(["impute", str(data), "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("command, doc, field", [
    ("synth", {"days": 8.5}, "days"),
    ("synth", {"days": 8, "seed": 1.5}, "seed"),
    ("inject", {"mode": "explicit-blocks", "blocks": [[1.5, 2]]}, "blocks[0] start"),
    ("inject", {**GAPS, "block_len_hours": True}, "block_len_hours"),
    ("impute", {"mode": "single", "k": 2.5}, "k"),
    ("impute", {"mode": "single", "k": True}, "k"),
    ("impute", {"mode": "stochastic", "seed": 1.5}, "seed"),
    ("synth", {"days": 10, "noise_scale": True}, "noise_scale"),
    ("synth", {"days": 10, "peak_irradiance": "1"}, "peak_irradiance"),
    ("inject", {"mode": "target-fraction", "target_fraction": False}, "target_fraction"),
    ("run", {**MINIMAL_DOC, "alpha": "0.05"}, "alpha"),
    ("run", {**MINIMAL_DOC, "test_len": 72.0}, "test_len"),
    ("run", {**MINIMAL_DOC, "output_dir": 5}, "output_dir"),
])
def test_cli_rejects_a_config_value_that_is_not_an_integer(tmp_path, command, doc, field):
    # impute k 2.5 ran as k = 2 and k true as k = 1, noise_scale true as 1.0
    # and target_fraction false as 0.0, and output_dir 5 ran; test_len 72.0
    # failed inside the run, after cells/ was made; the others raised a bare
    # TypeError
    kind = {"noise_scale": "a number", "peak_irradiance": "a number", "alpha": "a number",
            "target_fraction": "a number", "output_dir": "a string"}.get(field, "an integer")
    cfg = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out.csv"
    args = ["--config", str(cfg), "--out", str(out)]
    if command in ("inject", "impute"):
        data = tmp_path / "data.csv"
        write_csv(generate(SynthSpec(days=3, seed=4)), data)
        args.insert(0, str(data))
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be {kind}"):
        main([command, *args])
    assert not out.exists()


@pytest.mark.parametrize("command, doc, bad", [
    ("synth", {"dayz": 8}, "dayz"),
    ("inject", {**GAPS, "blokcs": []}, "blokcs"),
])
def test_cli_synth_and_inject_reject_unknown_keys(tmp_path, command, doc, bad):
    cfg = write_json(tmp_path / "cfg.json", doc)
    out = tmp_path / "out.csv"
    args = ["--config", str(cfg), "--out", str(out)]
    if command == "inject":
        data = tmp_path / "data.csv"
        write_csv(generate(SynthSpec(days=3, seed=4)), data)
        args.insert(0, str(data))
    with pytest.raises(ValueError, match=rf"unknown \w+ config key\(s\) \['{bad}'\]"):
        main([command, *args])
    assert not out.exists()


EXPERIMENT_DOC = {
    "schema_version": 1,
    "data": {"synth": {"days": 8, "seed": 3}},
    "test_len": 72,
    "models": [{"family": "knn", "hyperparameters": {"k": 2}}],
    "setups": [1, 2],
    "n_rounds": [2],
    "train_missing": {"mode": "target-fraction", "target_fraction": 0.15,
                      "block_len_hours": 6, "seed": 1},
    "test_missing": {"mode": "target-fraction", "target_fraction": 0.15,
                     "block_len_hours": 6, "seed": 2},
    "alpha": 0.2,
    "sampler_k": 2,
}


def test_cli_run_and_report(tmp_path, capsys):
    cfg = write_json(tmp_path / "experiment.json", EXPERIMENT_DOC)
    outdir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(outdir)]) == 0
    assert "4/4 cells ok" in capsys.readouterr().out

    report_path = tmp_path / "rebuilt.json"
    assert main(["report", str(outdir), "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text()) == reaggregate(outdir)
    capsys.readouterr()  # drop the "wrote ..." confirmation

    assert main(["report", str(outdir)]) == 0  # stdout variant
    assert json.loads(capsys.readouterr().out) == reaggregate(outdir)


def test_cli_run_seed_override_lands_in_manifest(tmp_path):
    cfg = write_json(tmp_path / "experiment.json", EXPERIMENT_DOC)
    outdir = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(outdir), "--seed", "77"])
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["master_seed"] == 77
    assert manifest["config"]["master_seed"] == 77


def test_manifest_echoes_each_models_grid(tmp_path):
    tuned = ModelConfig("knn", tune=True, grid=({"k": 1}, {"k": 3}), folds=2)
    config = small_config(model_configs=(KNN2, tuned), setups=(1,),
                          interval_families=("normal",))
    run(config, tmp_path)
    echo = json.loads((tmp_path / "manifest.json").read_text())["config"]["models"]
    assert [m["grid"] for m in echo] == [None, [{"k": 1}, {"k": 3}]]
    assert tuple(ModelConfig(**m) for m in echo) == config.model_configs


def test_manifest_config_echo_round_trips(tmp_path):
    csv = tmp_path / "data.csv"
    write_csv(generate(SynthSpec(days=8, seed=3)), csv)
    config = config_from_json({
        "schema_version": 1,
        "data": {"csv": str(csv)},
        "test_len": 72,
        "models": [
            {"family": "lasso", "tune": True, "grid": [{"lam": 0.3}, {"lam": 0.1}],
             "folds": 2},
            {"family": "mlp", "hyperparameters": {"hidden": [4, 3], "iterations": 5},
             "seed": 7},
        ],
        "setups": [1],
        "interval_families": ["normal"],
        "train_missing": {"mode": "explicit-blocks", "blocks": [[30, 6], [70, 5]]},
        "test_missing": {"mode": "target-fraction", "target_fraction": 0.15,
                         "block_len_hours": 6, "seed": 2},
        "sampler_k": 2,
        "master_seed": 5,
        "output_dir": str(tmp_path / "out"),
    })
    run(config)
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    echo.update(schema_version=1, output_dir=config.output_dir)
    assert config_from_json(echo) == config


def test_cli_rejects_missing_required_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["synth"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])  # a subcommand is required
