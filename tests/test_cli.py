import json

import numpy as np
import pytest

from pcasmote import linalg
from pcasmote.cli import main, parse_invocation
from pcasmote.dataset import impute_missing, load_uci_lung_cancer, write_dataset_csv


def write_config(tmp_path, data_file, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(f"dataset = {data_file}\n{extra}")
    return path


class TestParse:
    def test_experiment_with_override(self, tmp_path, data_file):
        cfg = write_config(tmp_path, data_file)
        inv = parse_invocation(
            ["experiment", "--config", str(cfg), "--set", "smote.seed=7"]
        )
        assert inv.subcommand == "experiment"
        assert inv.overrides == ["smote.seed=7"]

    def test_no_arguments_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_config_flag(self):
        assert main(["experiment"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "pcasmote" in capsys.readouterr().out


class TestValidation:
    def test_threshold_out_of_bounds(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, data_file)
        code = main(
            ["inspect", "--config", str(cfg), "--set", "pca.threshold=1.5"]
        )
        assert code == 2
        assert "error[usage]" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, data_file, "pca.thresh = 0.9\n")
        code = main(["inspect", "--config", str(cfg)])
        assert code == 2
        assert "pca.thresh" in capsys.readouterr().err

    def test_missing_dataset_file_is_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tmp_path / "nope.data")
        code = main(["inspect", "--config", str(cfg)])
        assert code == 3
        assert "error[data]" in capsys.readouterr().err

    def test_malformed_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.data"
        bad.write_text("1,2,3\n")
        cfg = write_config(tmp_path, bad)
        code = main(["inspect", "--config", str(cfg)])
        assert code == 3
        assert "error[data]" in capsys.readouterr().err

    def test_singleton_class_is_data_error(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("x,class\n0.0,a\n1.0,a\n2.0,a\n3.0,b\n")
        cfg = write_config(tmp_path, tiny, "eval.k = 2\n")
        code = main(["evaluate", "--config", str(cfg), "-o", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err
        assert "class b has 1 sample(s)" in err

    def test_fold_count_above_sample_count_is_data_error(
        self, default_config, tmp_path, capsys
    ):
        code = main(
            [
                "experiment",
                "--config",
                str(default_config),
                "--set",
                "eval.k=40",
                "-o",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err
        assert "k=40" in err
        assert "number of samples (32)" in err

    def test_reversed_seed_range_named(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, data_file)
        code = main(["inspect", "--config", str(cfg), "--set", "eval.seeds=5..1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error[usage]" in err
        assert "'5..1'" in err
        assert "runs backwards" in err

    def test_infinite_cell_is_data_error(self, tmp_path, data_file, capsys):
        csv = tmp_path / "lung.csv"
        write_dataset_csv(load_uci_lung_cancer(data_file), csv)
        lines = csv.read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = "inf"
        lines[4] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, csv)
        code = main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "error[data]" in err
        assert f"{csv}: line 5" in err

    def test_eigensolver_failure_is_numeric_error(
        self, tmp_path, data_file, capsys, monkeypatch
    ):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        cfg = write_config(tmp_path, data_file)
        code = main(["experiment", "--config", str(cfg), "-o", str(tmp_path / "out")])
        assert code == 4
        assert "error[numeric]" in capsys.readouterr().err

    def test_json_config_accepted(self, tmp_path, data_file):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"dataset": str(data_file), "pca": {"threshold": 0.9}}))
        assert main(["inspect", "--config", str(cfg)]) == 0


_UCI_ROW = "1," + ",".join(["2"] * 56) + "\n"


@pytest.mark.parametrize(
    "command, dataset, content, settings, code, named",
    [
        pytest.param(
            "experiment", None, None, "smote.per_class_target = 12\n", 3,
            ["error[data]", "smote.per_class_target=12", "TypeB with 13 samples"],
            id="target-below-largest-class",
        ),
        *(
            pytest.param(
                command, None, None, "smote.order = TypeA,TypeZ\n", 3,
                ["error[data]", "smote.order class 'TypeZ'", "{data}", "TypeA, TypeB, TypeC"],
                id=f"order-class-not-in-file-{command}",
            )
            for command in ("experiment", "resample")
        ),
        pytest.param(
            "inspect", "bad.data", (_UCI_ROW + "1\u00e9" + _UCI_ROW[1:]).encode("latin-1"), "",
            3, ["error[data]", "{data}: line 2: non-ASCII byte"], id="non-ascii-data",
        ),
        pytest.param(
            "inspect", "bad.csv", "x,class\n1.0,a\n2.0,\u00e9\n".encode("utf-8"), "",
            3, ["error[data]", "{data}: line 3: non-ASCII byte"], id="non-ascii-csv",
        ),
        *(
            pytest.param(
                command, "bare.csv", b"class\na\nb\na\nb\n", "", 3,
                ["error[data]", "{data}: line 1: no feature column"],
                id=f"no-feature-column-{command}",
            )
            for command in ("reduce", "experiment", "train", "evaluate")
        ),
        pytest.param(
            "inspect", "big.data", ("1,2,2,2,2," + "9" * 400 + _UCI_ROW[11:]).encode(), "",
            3, ["error[data]", "{data}: line 1: attribute 5"], id="code-beyond-float-range",
        ),
        pytest.param(
            "experiment", "blank.csv", b"x,y,class\nnan,2.0,a\nnan,3.0,b\n", "", 3,
            ["error[data]", "{data}: feature 'x' is entirely missing"],
            id="feature-entirely-missing",
        ),
        pytest.param(
            "reduce", "one.csv", b"x,y,class\n1.0,2.0,a\n", "", 3,
            ["error[data]", "{data}: PCA needs at least two samples, found 1"],
            id="single-row-pca",
        ),
        *(
            pytest.param(
                "reduce", "huge.csv",
                b"x,y,class\n1e200,0.0,a\n2e200,1e200,b\n3e200,2e200,a\n4e200,0.0,b\n",
                f"pca.mode = {mode}\n", 3,
                ["error[data]", f"{{data}}: the {mode} matrix of the features overflows"],
                id=f"overflowing-{mode}-pca",
            )
            for mode in ("covariance", "correlation")
        ),
        pytest.param(
            "inspect", None, None, None, 2,
            ["error[usage]", "{cfg}: cannot read config file"], id="missing-config",
        ),
        pytest.param(
            "inspect", None, None, b"dataset = \xff\n", 2,
            ["error[usage]", "{cfg}: cannot read config file", "utf-8"], id="non-utf8-config",
        ),
    ],
)
def test_input_fault_exit_code(
    tmp_path, data_file, capsys, command, dataset, content, settings, code, named
):
    """Each bad input exits with its documented code and names its file, line or key.

    ``settings`` is extra config text; bytes replace the whole config file and
    None leaves it missing.
    """
    data = data_file
    if dataset is not None:
        data = tmp_path / dataset
        data.write_bytes(content)
    if isinstance(settings, str):
        cfg = write_config(tmp_path, data, settings)
    else:
        cfg = tmp_path / "run.cfg"
        if settings is not None:
            cfg.write_bytes(settings)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "-o", str(out)]) == code
    err = capsys.readouterr().err
    for text in named:
        assert text.format(data=data, cfg=cfg) in err


def test_toolkit_value_error_propagates(tmp_path, data_file, monkeypatch):
    """A bare ValueError is a toolkit bug: a traceback, not a usage exit."""

    def broken(a):
        raise ValueError("broken precondition")

    monkeypatch.setattr(linalg, "symmetric_eigen", broken)
    cfg = write_config(tmp_path, data_file)
    with pytest.raises(ValueError, match="broken precondition"):
        main(["reduce", "--config", str(cfg), "-o", str(tmp_path / "out")])


class TestInspect:
    def test_prints_class_counts(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, data_file)
        assert main(["inspect", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "[9, 13, 10]" in out
        assert "samples: 32" in out
        assert "features: 56" in out


class TestStages:
    def test_reduce_writes_model_and_csv(self, tmp_path, data_file):
        cfg = write_config(tmp_path, data_file)
        out = tmp_path / "out"
        assert main(["reduce", "--config", str(cfg), "-o", str(out)]) == 0
        assert (out / "pca_model.txt").exists()
        header = (out / "reduced.csv").read_text().splitlines()[0]
        assert header.startswith("PC1,") and header.endswith(",class")

    def test_resample_zero_synthesis_identity(self, tmp_path, data_file):
        cfg = write_config(
            tmp_path,
            data_file,
            "smote.order = TypeB\nsmote.per_class_target = 13\n",
        )
        out = tmp_path / "out"
        assert main(["resample", "--config", str(cfg), "-o", str(out)]) == 0
        expected = tmp_path / "expected.csv"
        write_dataset_csv(impute_missing(load_uci_lung_cancer(data_file), "mode"), expected)
        assert (out / "resampled.csv").read_bytes() == expected.read_bytes()

    def test_train_writes_model(self, tmp_path, data_file):
        cfg = write_config(tmp_path, data_file)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "-o", str(out)]) == 0
        assert (out / "nb_model.txt").read_text().startswith("pcasmote-model v1")

    def test_evaluate_writes_csv(self, tmp_path, data_file, capsys):
        cfg = write_config(tmp_path, data_file, "eval.seeds = 1,2\n")
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(cfg), "-o", str(out)]) == 0
        lines = (out / "evaluation.csv").read_text().splitlines()
        assert lines[0].startswith("method,seed")
        assert len(lines) == 4  # header + 2 seeds + mean
        assert "accuracy=" in capsys.readouterr().out

    def test_output_dir_from_environment(self, tmp_path, data_file, monkeypatch):
        cfg = write_config(tmp_path, data_file)
        out = tmp_path / "envout"
        monkeypatch.setenv("PCASMOTE_OUTPUT_DIR", str(out))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "nb_model.txt").exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_file):
    tmp_path = tmp_path_factory.mktemp("exp")
    cfg = write_config(tmp_path, data_file, "eval.seeds = 1..3\n")
    out = tmp_path / "out"
    code = main(["experiment", "--config", str(cfg), "-o", str(out), "--svg"])
    assert code == 0
    return out


class TestExperimentCommand:
    def test_artifacts_exist(self, run_dir):
        for name in (
            "report.json",
            "report.csv",
            "accuracy.csv",
            "fp_rate.csv",
            "precision.csv",
            "recall.csv",
            "misclassified.csv",
            "accuracy.svg",
            "run_meta.json",
        ):
            assert (run_dir / name).exists(), name

    def test_report_csv_feature_sample_columns(self, run_dir):
        lines = (run_dir / "report.csv").read_text().splitlines()
        mean_rows = [ln.split(",") for ln in lines if ln.split(",")[1] == "mean"]
        table = {cells[0]: (int(cells[2]), int(cells[3])) for cells in mean_rows}
        retained = table["PCA"][0]
        assert table["Initial"] == (56, 32)
        assert table["PCA"] == (retained, 32)
        assert table["SMOTE1"] == (retained, 41)
        assert table["SMOTE2"] == (retained, 49)
        assert table["SMOTE3"] == (retained, 54)

    def test_figure_csvs_have_five_methods_in_order(self, run_dir):
        for name in ("accuracy", "fp_rate", "precision", "recall", "misclassified"):
            lines = (run_dir / f"{name}.csv").read_text().splitlines()
            methods = [ln.split(",")[0] for ln in lines[1:]]
            assert methods == ["Initial", "PCA", "SMOTE1", "SMOTE2", "SMOTE3"]

    def test_report_json_schema_fields(self, run_dir):
        doc = json.loads((run_dir / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["dataset_sha256"]) == 64
        assert len(doc["steps"]) == 5
        assert doc["steps"][0]["metrics_mean"]["method"] == "Initial"
        assert doc["config"]["eval"]["seeds"] == [1, 2, 3]

    def test_rerun_byte_identical(self, tmp_path, data_file):
        for scope in ("whole-dataset", "train-folds-only"):
            cfg = write_config(
                tmp_path, data_file, f"eval.seeds = 1,2\neval.resample_scope = {scope}\n"
            )
            out_a = tmp_path / scope / "a"
            out_b = tmp_path / scope / "b"
            assert main(["experiment", "--config", str(cfg), "-o", str(out_a)]) == 0
            assert main(["experiment", "--config", str(cfg), "-o", str(out_b)]) == 0
            for name in ("report.json", "report.csv", "accuracy.csv", "misclassified.csv"):
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
