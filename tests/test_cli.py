import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sparsegp.cli import build_model, main
from sparsegp.models import SVGPModel
from sparsegp.config import parse_config
from sparsegp.errors import ConfigError, DataError
from sparsegp.kernels import extract_patches
from sparsegp.modelio import (
    Dataset,
    load_model,
    read_dataset,
    save_model,
)

from conftest import desk_regression, desk_truth, write_dataset
from test_formats import golden_path

DESK = "data/regression_30.csv"

SVGP_CONF = """
seed = 0
steps = {steps}
learning_rate = 0.02
model {{
  kind = svgp
  whiten = true
  kernel = sqexp {{ variance = 1.0, lengthscales = [0.8] }}
  likelihood = gaussian {{ variance = 0.05 }}
  inducing = points {{ from_data = 8 }}
}}
"""

GPR_NEAR_NOISELESS = """
seed = 0
steps = 60
learning_rate = 0.05
model {
  kind = gpr
  kernel = sqexp { variance = 1.0, lengthscales = [0.6] }
  likelihood = gaussian { variance = 1e-6 }
  freeze = [likelihood.variance]
}
"""

FULL_BATCH_CONF = """
seed = 0
steps = 1
batch_size = {batch_size}
model {{
  kind = {kind}
  kernel = sqexp {{ variance = 1.0, lengthscales = [0.8] }}
  likelihood = gaussian {{ variance = 0.05 }}
  {inducing}
}}
"""
DGP_LAYER_TYPO = """
steps = 1
model {
  kind = dgp
  likelihood = gaussian { variance = 0.1 }
  layers = [layer { kernel = sqexp, inducing = points { from_data = 3 }, whiten = true }]
}
"""
FULL_BATCH_INDUCING = {"gpr": "", "svgp_uncertain": "inducing = points { from_data = 4 }"}


MULTISCALE_MATERN = """
steps = 1
model {
  kind = svgp
  kernel = matern52 {}
  likelihood = gaussian
  inducing = multiscale { from_data = 4 }
}
"""

# An svgp on a latent inducing set; each block is the model's kernel and
# inducing set, or on plain points with a latent-process kernel.  The
# REFUSED_LATENTS are refused at build; CONV_LATENT builds.
LATENT_CONF = """
steps = 1
model {{
  kind = svgp
  likelihood = gaussian {{ variance = 0.1 }}
  {block}
}}
"""
CONV = "conv { base = sqexp { lengthscales = [1.5] }, image = [3, 3], patch = [2, 2] }"
PATCHES = "patches { z = [[0.1, 0.2, -0.3, 0.5], [1.0, -0.4, 0.3, 0.0], [-0.6, 0.8, 0.2, -1.1]] }"
REFUSED_LATENTS = {  # name -> (block, message)
    "no_latent_processes": ("""kernel = sqexp {}
  inducing = shared { base = points { from_data = 4 } }""", "latent-structured kernel"),
    "too_few_members": ("""kernel = separate_independent { latents = [sqexp {}, matern32 {}] }
  inducing = separate { members = [points { from_data = 4 }] }""", "1 inducing sets for 2"),
    "multioutput_latent": ("""kernel = lmc { w = [[1.0, 0.5], [0.2, 0.8]], latents = [shared_independent { outputs = 2, base = sqexp {} }, sqexp {}] }
  inducing = shared { base = points { from_data = 4 } }""", "SharedIndependent has 2 outputs"),
    "multioutput_latent_on_points": ("""kernel = lmc { w = [[1.0, 0.5], [0.2, 0.8]], latents = [shared_independent { outputs = 2, base = sqexp {} }, sqexp {}] }
  inducing = points { from_data = 4 }""", "a latent process is a scalar GP, but SharedIndependent has 2 outputs"),
    "conv_latent_with_points": (f"""kernel = separate_independent {{ latents = [{CONV}, sqexp {{}}] }}
  inducing = separate {{ members = [points {{ from_data = 3 }}, points {{ from_data = 4 }}] }}""", "Convolutional has 4 outputs"),
}
CONV_LATENT = f"""kernel = separate_independent {{ latents = [{CONV}, sqexp {{}}] }}
  inducing = separate {{ members = [{PATCHES}, points {{ from_data = 4 }}] }}"""
CONV_LATENT_FROM_DATA = f"""kernel = separate_independent {{ latents = [{CONV}, sqexp {{}}] }}
  inducing = separate {{ members = [patches {{ from_data = 3 }}, points {{ from_data = 4 }}] }}"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def trained_svgp(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("svgp")
    conf = tmp / "svgp.conf"
    conf.write_text(SVGP_CONF.format(steps=80))
    out = tmp / "model.json"
    code = main(
        ["train", "--config", str(conf), "--data", DESK, "--out", str(out)]
    )
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def trained_gpr(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gpr")
    conf = tmp / "gpr.conf"
    conf.write_text(GPR_NEAR_NOISELESS)
    out = tmp / "model.json"
    code = main(
        ["train", "--config", str(conf), "--data", DESK, "--out", str(out)]
    )
    assert code == 0
    return str(out)


class TestConfigGrammar:
    def test_nested_kernel_tree(self):
        cfg = parse_config(
            """
            model {
              kind = svgp
              kernel = lmc {
                w = [[1.0, 0.0], [0.5, 0.5]]
                latents = [sqexp { variance = 1.0 }, matern32 { lengthscales = [2.0] }]
              }
            }
            """
        )
        kernel = cfg["model"]["kernel"]
        assert kernel["tag"] == "lmc"
        assert kernel["latents"][1]["tag"] == "matern32"
        assert kernel["w"][1] == [0.5, 0.5]

    def test_bare_words_booleans_numbers(self):
        cfg = parse_config("a = true\nb = zero\nc = 3\nd = -1.5e2")
        assert cfg == {"a": True, "b": "zero", "c": 3, "d": -150.0}

    def test_comments_and_commas(self):
        cfg = parse_config("a = 1, b = 2  # trailing words\nc { d = 3 }")
        assert cfg["a"] == 1 and cfg["b"] == 2
        assert cfg["c"]["d"] == 3 and cfg["c"]["tag"] == "c"

    def test_syntax_error(self):
        with pytest.raises(ConfigError):
            parse_config("a = { nope")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a = 1\na = 2")


class TestDatasetFiles:
    def test_round_trip(self, tmp_path, rng):
        from sparsegp import standard_normal

        x = standard_normal(rng, (5, 2))
        y = standard_normal(rng, (5, 3))
        path = tmp_path / "d.csv"
        write_dataset(path, x, y)
        ds = read_dataset(path)
        np.testing.assert_array_equal(ds.x, x)
        np.testing.assert_array_equal(ds.y, y)
        assert not ds.heterotopic

    def test_heterotopic_round_trip(self, tmp_path, rng):
        from sparsegp import standard_normal

        x = standard_normal(rng, (4, 1))
        y = standard_normal(rng, (4, 1))
        outputs = np.array([0, 1, 1, 0])
        path = tmp_path / "h.csv"
        write_dataset(path, x, y, outputs)
        ds = read_dataset(path)
        assert ds.heterotopic
        np.testing.assert_array_equal(ds.outputs, outputs)

    def test_malformed_header_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "x0,banana\n1.0,2.0\n")
        with pytest.raises(DataError):
            read_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "x0,y0\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError):
            read_dataset(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "x0,y0\n1.0,huh\n")
        with pytest.raises(DataError):
            read_dataset(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,huh", "line 4: non-numeric cell"),
            ("1.0", "line 4: expected 2 cells, got 1"),
            ("inf,1.0", "line 4: non-finite cell"),
        ],
    )
    def test_bad_row_reports_its_line(self, tmp_path, row, message):
        # Blank lines are skipped and not counted, as they always were.
        path = _write(tmp_path, "bad.csv", f"x0,y0\n0.0,1.0\n\n2.0,3.0\n{row}\n4.0,5.0\n")
        with pytest.raises(DataError) as err:
            read_dataset(path)
        assert str(err.value) == message

    def test_heterotopic_forbids_second_output_column(self, tmp_path):
        path = _write(
            tmp_path, "bad.csv", "x0,output_index,y0,y1\n1.0,0,2.0,3.0\n"
        )
        with pytest.raises(DataError):
            read_dataset(path)


def _same_dataset(a, b):
    for got, want in ((a.x, b.x), (a.y, b.y), (a.outputs, b.outputs)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()  # bit for bit


class TestBulkReader:
    """The one-pass reader against the row parser, its slow twin."""

    @pytest.mark.parametrize(
        "header, newline, blank",
        [
            ("x0,x1,y0,y1", "\n", False),
            ("y0,x1,x0", "\r\n", True),
            ("x0,output_index,y0", "\n", True),
            ("output_index,y0,x0", "\r\n", False),
        ],
    )
    @pytest.mark.parametrize("rows", [1, 7])
    def test_regular_files_read_in_bulk_as_row_by_row(
        self, tmp_path, header, newline, blank, rows
    ):
        from sparsegp.modelio import _read_rows, _read_table

        gen = np.random.default_rng(rows)
        lines = []
        for i in range(rows):
            cells = []
            for name in header.split(","):
                if name == "output_index":
                    cells.append(str(int(gen.integers(0, 3))))
                else:
                    value = float(gen.standard_normal() * 10.0 ** gen.integers(-30, 30))
                    cells.append(repr(value) if i % 2 else f"{value:.6g}")
            lines.append(",".join(cells))
            if blank and i == 0:
                lines.append("")
        path = _write(tmp_path, "d.csv", newline.join([header, *lines]) + newline)
        bulk = _read_table(path)
        assert bulk is not None
        _same_dataset(bulk, _read_rows(path))

    @pytest.mark.parametrize(
        "body",
        [
            "1.0,2.0\n   \n3.0,4.0\n",  # a row of blanks
            "1.0,2.0\n,\n3.0,4.0\n",  # a row of empty cells
            "1.0,2.0\n3.0\n",  # ragged
            "1.0,2.0,\n",
            '"1.0",2.0\n',  # quoted
            "1_000,2.0\n",  # only Python's float reads it
            "1.0,huh\n",
            "#1.0,2.0\n",
            "nan,2.0\n",
            "1.0,-inf\n",
            "",  # a header and no rows
        ],
    )
    def test_irregular_files_go_to_the_row_parser(self, tmp_path, body):
        from sparsegp.modelio import _read_rows, _read_table

        path = _write(tmp_path, "d.csv", "x0,y0\n" + body)
        assert _read_table(path) is None
        try:
            want = _read_rows(path)
        except DataError as err:
            with pytest.raises(DataError) as got:
                read_dataset(path)
            assert str(got.value) == str(err)
        else:
            _same_dataset(read_dataset(path), want)

    @pytest.mark.parametrize("index", ["0.5", "-1", "9.3e18", "1e300", "nan"])
    def test_an_index_that_is_not_a_count_goes_to_the_row_parser(self, tmp_path, index):
        from sparsegp.modelio import _read_rows, _read_table

        path = _write(tmp_path, "d.csv", f"x0,output_index,y0\n0.1,0,0.5\n0.2,{index},0.7\n")
        assert _read_table(path) is None
        with pytest.raises(DataError) as err:
            _read_rows(path)
        with pytest.raises(DataError) as got:
            read_dataset(path)
        assert str(got.value) == str(err.value)

    @pytest.mark.parametrize("text", ["", "\n\nx0,y0\n1.0,2.0\n", '"x0",y0\n1.0,2.0\n'])
    def test_a_header_that_is_not_the_first_plain_line_goes_to_the_row_parser(
        self, tmp_path, text
    ):
        from sparsegp.modelio import _read_rows, _read_table

        path = _write(tmp_path, "d.csv", text)
        assert _read_table(path) is None
        if text:
            _same_dataset(read_dataset(path), _read_rows(path))
        else:
            with pytest.raises(DataError, match="empty"):
                read_dataset(path)


class TestExitCodes:
    def test_config_parse_error_is_2(self, tmp_path):
        conf = _write(tmp_path, "bad.conf", "model { kind = svgp")
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2

    def test_unknown_kind_is_2(self, tmp_path):
        conf = _write(tmp_path, "bad.conf", "model { kind = mystery }")
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2

    def test_malformed_data_is_3(self, tmp_path):
        conf = _write(tmp_path, "ok.conf", SVGP_CONF.format(steps=1))
        data = _write(tmp_path, "bad.csv", "x0,nope\n0.0,1.0\n")
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", out]) == 3

    def test_predict_dimension_mismatch_is_3(self, tmp_path, trained_svgp):
        data = _write(tmp_path, "wide.csv", "x0,x1\n0.0,1.0\n")
        out = str(tmp_path / "p.csv")
        assert (
            main(["predict", "--model", trained_svgp, "--data", data, "--out", out])
            == 3
        )

    def test_train_dimension_mismatch_is_3(self, tmp_path, capsys):
        # Inducing points of two columns against the one-column dataset.
        conf = _write(tmp_path, "wide.conf", SVGP_CONF.format(steps=1).replace(
            "points { from_data = 8 }", "points { z = [[0, 1], [1, 0.5]] }"
        ))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == "data error: dataset has 1 input columns, model expects 2\n"

    @pytest.mark.parametrize(
        "kernel",
        ["imc { w = 0.5, base = sqexp {} }", "lmc { w = 0.5, latents = [sqexp {}] }"],
    )
    def test_mixing_matrix_of_the_wrong_shape_is_2(self, tmp_path, capsys, kernel):
        conf = _write(tmp_path, "mix.conf", SVGP_CONF.format(steps=1).replace(
            "sqexp { variance = 1.0, lengthscales = [0.8] }", kernel
        ))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {kernel[:3]}: mixing matrix must be [P, L]\n"

    def test_dgp_layer_widths_that_do_not_chain_are_2(self, tmp_path, capsys):
        # The second layer's points come from the two-column inputs, while
        # the first layer feeds it one column.
        layer = "layer { kernel = sqexp, inducing = points { from_data = 3 } }"
        conf = _write(tmp_path, "dgp.conf", DGP_LAYER_TYPO.replace(
            "[layer { kernel = sqexp, inducing = points { from_data = 3 }, whiten = true }]",
            f"[{layer}, {layer}]",
        ))
        data = str(tmp_path / "two.csv")
        write_dataset(data, np.sin(np.arange(24.0)).reshape(12, 2), np.ones((12, 1)))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "config error: layer producing 1 columns feeds a layer expecting 2\n"

    def test_numerical_failure_is_4(self, tmp_path, trained_svgp, capsys):
        # An indefinite noise covariance cannot be factorized.
        doc = json.load(open(trained_svgp))
        doc["likelihood"] = {
            "tag": "correlated_gaussian",
            "cov": [[1.0, 0.0], [0.0, -5.0]],
        }
        bad = _write(tmp_path, "bad.json", json.dumps(doc))
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--model", bad, "--data", DESK, "--out", out]) == 4
        assert "NotPositiveDefinite" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REFUSED_LATENTS))
    def test_refused_latent_set_in_train_is_2(self, tmp_path, capsys, case):
        block, message = REFUSED_LATENTS[case]
        conf = _write(tmp_path, "l.conf", LATENT_CONF.format(block=block))
        data = str(tmp_path / "d.csv")
        write_dataset(data, np.sin(np.arange(54.0)).reshape(6, 9), np.ones((6, 2)))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    def test_conv_latent_with_patch_member_trains_and_predicts(self, tmp_path):
        conf = _write(tmp_path, "l.conf", LATENT_CONF.format(block=CONV_LATENT))
        data = str(tmp_path / "d.csv")
        write_dataset(data, np.sin(np.arange(54.0)).reshape(6, 9), np.ones((6, 2)))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", out]) == 0
        pred = str(tmp_path / "p.csv")
        argv = ["predict", "--model", out, "--data", data, "--out", pred]
        assert main(argv + ["--full-cov", "--full-output-cov"]) == 0

    def test_separate_members_take_from_data_with_their_latent_kernel(self, tmp_path):
        # The conv latent's member draws patches of the inputs; the sqexp
        # latent's member draws the inputs themselves.
        text = LATENT_CONF.format(block=CONV_LATENT_FROM_DATA)
        conf = _write(tmp_path, "l.conf", text)
        data = str(tmp_path / "d.csv")
        x = np.sin(np.arange(54.0)).reshape(6, 9)
        write_dataset(data, x, np.ones((6, 2)))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", out]) == 0
        patches, points = build_model(parse_config(text), read_dataset(data)).inducing.members
        want = extract_patches(x, (3, 3), (2, 2)).reshape(-1, 4)[:3]
        np.testing.assert_array_equal(patches.z, want)
        np.testing.assert_array_equal(points.z, x[:4])

    @pytest.mark.parametrize("raw", ["abc", "nan", "-1"])
    def test_bad_jitter_variable_is_2(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("SPARSEGP_JITTER", raw)
        conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        assert "SPARSEGP_JITTER" in capsys.readouterr().err

    def test_multiscale_without_windows_in_train_is_2(self, tmp_path, capsys):
        conf = _write(tmp_path, "ms.conf", MULTISCALE_MATERN)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: multiscale") and "Matern52" in err

    def test_multiscale_without_windows_in_predict_is_2(self, tmp_path, capsys):
        doc = json.load(open(golden_path("svgp_sqexp_multiscale_given")))
        doc["kernel"]["tag"] = "matern52"
        model = _write(tmp_path, "ms.json", json.dumps(doc))
        data = _write(tmp_path, "x.csv", "x0,x1\n0.0,1.0\n")
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--model", model, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: multiscale") and "Matern52" in err

    def test_out_of_range_output_index_in_train_is_3(self, tmp_path, capsys):
        x, y = desk_regression(n=10)
        rows = str(tmp_path / "rows.csv")
        write_dataset(rows, x, y[:, 0], np.array([0, 0, 1] + [0] * 7))
        conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", rows, "--out", out]) == 3
        assert "output_index 1" in capsys.readouterr().err

    def test_out_of_range_output_index_in_eval_is_3(
        self, tmp_path, trained_svgp, capsys
    ):
        x, y = desk_regression(n=4)
        rows = str(tmp_path / "rows.csv")
        write_dataset(rows, x, y[:, 0], np.array([0, 2, 0, 0]))
        assert main(["eval", "--model", trained_svgp, "--data", rows]) == 3
        assert "output_index 2" in capsys.readouterr().err

    def test_heterotopic_file_without_outputs_in_train_is_3(self, tmp_path, capsys):
        lines = "".join(f"{i / 10},{i % 2}\n" for i in range(10))
        rows = _write(tmp_path, "rows.csv", "x0,output_index\n" + lines)
        conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", rows, "--out", out]) == 3
        assert "needs output columns" in capsys.readouterr().err

    def test_heterotopic_file_without_outputs_in_eval_is_3(
        self, tmp_path, trained_svgp, capsys
    ):
        rows = _write(tmp_path, "rows.csv", "x0,output_index\n0.0,0\n0.5,0\n")
        assert main(["eval", "--model", trained_svgp, "--data", rows]) == 3
        assert "needs output columns" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    def test_header_without_rows_is_3(self, tmp_path, trained_svgp, command, capsys):
        header = "x0\n" if command == "predict" else "x0,y0\n"
        data = _write(tmp_path, "empty.csv", header + "\n")
        out = str(tmp_path / "out")
        if command == "train":
            conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
            args = ["train", "--config", conf, "--data", data, "--out", out]
        else:
            args = [command, "--model", trained_svgp, "--data", data]
            args += ["--out", out] if command == "predict" else []
        assert main(args) == 3
        assert "has a header but no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "predict", "eval"])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_cell_is_3_with_its_line(
        self, tmp_path, trained_svgp, capsys, command, column, value
    ):
        rows = [["0.1", "0.5"], ["0.2", "0.7"], ["0.3", "0.9"], ["0.4", "1.1"]]
        rows[2][column] = value
        text = "x0,y0\n" + "".join(",".join(row) + "\n" for row in rows)
        data = _write(tmp_path, "rows.csv", text)
        out = str(tmp_path / "out")
        if command == "train":
            conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
            args = ["train", "--config", conf, "--data", data, "--out", out]
        else:
            args = [command, "--model", trained_svgp, "--data", data]
            args += ["--out", out] if command == "predict" else []
        assert main(args) == 3
        assert "line 4: non-finite cell" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("index", ["inf", "-inf", "nan"])
    def test_non_finite_output_index_is_3_with_its_line(
        self, tmp_path, trained_svgp, capsys, command, index
    ):
        text = f"x0,output_index,y0\n0.1,0,0.5\n0.2,{index},0.7\n0.3,0,0.9\n"
        data = _write(tmp_path, "rows.csv", text)
        if command == "train":
            conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
            args = ["train", "--config", conf, "--data", data, "--out", str(tmp_path / "m")]
        else:
            args = ["eval", "--model", trained_svgp, "--data", data]
        assert main(args) == 3
        assert "line 3: non-finite cell" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "likelihood, bad, message",
        [
            ("poisson", -1.0, "counts"),
            ("poisson", 0.5, "counts"),
            ("bernoulli", 2.0, "0 or 1"),
        ],
    )
    def test_targets_outside_the_likelihood_support_are_3(
        self, tmp_path, capsys, likelihood, bad, message
    ):
        x = np.linspace(0.0, 1.0, 6)[:, None]
        good = str(tmp_path / "good.csv")
        write_dataset(good, x, np.arange(6.0) % 2)
        rows = str(tmp_path / "rows.csv")
        write_dataset(rows, x, np.r_[np.arange(5.0) % 2, bad])
        conf = SVGP_CONF.format(steps=1).replace("from_data = 8", "from_data = 3")
        conf = conf.replace("gaussian { variance = 0.05 }", likelihood)
        conf = _write(tmp_path, "c.conf", conf)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", rows, "--out", out]) == 3
        assert message in capsys.readouterr().err
        assert main(["train", "--config", conf, "--data", good, "--out", out]) == 0
        assert main(["eval", "--model", out, "--data", rows]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["gpr", "svgp_uncertain"])
    def test_batch_size_for_full_batch_kind_is_2(self, tmp_path, kind, capsys):
        out = str(tmp_path / "m.json")

        def train(batch_size):
            text = FULL_BATCH_CONF.format(
                kind=kind, batch_size=batch_size, inducing=FULL_BATCH_INDUCING[kind]
            )
            conf = _write(tmp_path, f"b{batch_size}.conf", text)
            return main(["train", "--config", conf, "--data", DESK, "--out", out])

        assert train(0) == 0
        assert train(8) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_duplicate_output_flag_is_2(self, tmp_path, trained_svgp):
        out = str(tmp_path / "p.csv")
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "predict", "--model", trained_svgp, "--data", DESK,
                    "--out", out, "--out", out,
                ]
            )
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "right, wrong, key",
        [
            ("{ variance = 0.05 }", "{ varaince = 0.05 }", "varaince"),
            ("lengthscales = [0.8]", "lengthscale = [0.8]", "lengthscale"),
        ],
    )
    def test_unknown_component_key_is_2(self, tmp_path, capsys, right, wrong, key):
        text = SVGP_CONF.format(steps=1).replace(right, wrong)
        conf = _write(tmp_path, "typo.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "allowed keys:" in err

    def test_unknown_freeze_slot_is_2(self, tmp_path, capsys):
        text = SVGP_CONF.format(steps=1).replace(
            "kind = svgp", "kind = svgp\n  freeze = [kernel.lengthscale]"
        )
        conf = _write(tmp_path, "freeze.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "'kernel.lengthscale'" in err and "kernel.lengthscales" in err

    @pytest.mark.parametrize(
        "right, wrong, message",
        [
            ("variance = 1.0", "variance = -1.0", "sqexp: variance must be positive"),
            (
                "variance = 1.0",
                "variance = [1.0, 2.0]",
                "sqexp: variance must be a number, got [1.0, 2.0]",
            ),
            (
                "lengthscales = [0.8]",
                "lengthscales = [abc]",
                "sqexp: lengthscales must be numeric, got ['abc']",
            ),
            (
                "from_data = 8",
                "from_data = abc",
                "points: from_data must be an integer, got 'abc'",
            ),
        ],
        ids=["negative", "list_for_a_number", "non_numeric_array", "from_data_word"],
    )
    def test_out_of_range_component_value_is_2(
        self, tmp_path, capsys, right, wrong, message
    ):
        text = SVGP_CONF.format(steps=1).replace(right, wrong)
        conf = _write(tmp_path, "negative.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (SVGP_CONF.format(steps="abc"), "steps must be an integer >= 0, got 'abc'"),
            (SVGP_CONF.format(steps=2.7), "steps must be an integer >= 0, got 2.7"),
            (SVGP_CONF.format(steps=-3), "steps must be an integer >= 0, got -3"),
            (
                SVGP_CONF.format(steps=1).replace("seed = 0", "seed = [1]"),
                "seed must be an integer >= 0, got [1]",
            ),
            (
                SVGP_CONF.format(steps=1).replace("0.02", "fast"),
                "learning_rate must be a number > 0, got 'fast'",
            ),
            (
                SVGP_CONF.format(steps=1).replace("whiten = true", "whiten = maybe"),
                "whiten must be true or false, got 'maybe'",
            ),
            (
                SVGP_CONF.format(steps=1).replace("whiten = true", "jitter = abc"),
                "jitter must be a number >= 0, got 'abc'",
            ),
            (
                SVGP_CONF.format(steps=1).replace("whiten = true", "freeze = 5"),
                "freeze must be a name or a list of names, got 5",
            ),
            (
                DGP_LAYER_TYPO.replace(", whiten = true", "").replace(
                    "kind = dgp", "kind = dgp\n  num_samples = 0"
                ),
                "num_samples must be an integer >= 1, got 0",
            ),
            (
                FULL_BATCH_CONF.format(
                    kind="svgp_uncertain",
                    batch_size=0,
                    inducing="inducing = points { from_data = 4 }\ninput_variance = -1",
                ),
                "input_variance must be a number > 0, got -1",
            ),
        ],
        ids=[
            "steps_word",
            "steps_fraction",
            "steps_negative",
            "seed_list",
            "learning_rate_word",
            "whiten_word",
            "jitter_word",
            "freeze_number",
            "num_samples_zero",
            "input_variance_negative",
        ],
    )
    def test_mistyped_config_value_is_2(self, tmp_path, capsys, text, message):
        conf = _write(tmp_path, "typed.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        assert message in capsys.readouterr().err

    def test_out_of_range_model_file_value_is_config_error(self, tmp_path, trained_svgp):
        doc = json.load(open(trained_svgp))
        doc["kernel"]["variance"] = -1.0
        bad = _write(tmp_path, "bad.json", json.dumps(doc))
        with pytest.raises(ConfigError, match="sqexp"):
            load_model(bad)

    @pytest.mark.parametrize(
        "text, key",
        [
            (SVGP_CONF.format(steps=1).replace("steps", "stesp = 4\nsteps"), "stesp"),
            (SVGP_CONF.format(steps=1).replace("whiten", "whitn"), "whitn"),
            (SVGP_CONF.format(steps=1).replace("kind = svgp", "kind = gpr"), "inducing"),
            (DGP_LAYER_TYPO, "whiten"),
        ],
        ids=["top_level", "model_block", "key_of_another_kind", "dgp_layer"],
    )
    def test_undeclared_config_key_is_2(self, tmp_path, capsys, text, key):
        conf = _write(tmp_path, "typo.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "allowed keys:" in err

    def test_dgp_layer_that_is_not_a_block_is_2(self, tmp_path, capsys):
        text = "model { kind = dgp, likelihood = bernoulli, layers = [sqexp] }"
        conf = _write(tmp_path, "layer.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        assert "'sqexp' must be a block" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shipped, right, wrong",
        [
            ("gpr", "sqexp { variance = 1.0", "sqexp { variance = 1e400"),
            ("svgp", "gaussian { variance = 0.05 }", "gaussian { variance = 1e400 }"),
        ],
        ids=["gpr_kernel_variance", "svgp_likelihood_variance"],
    )
    def test_non_finite_config_value_is_2(self, tmp_path, capsys, shipped, right, wrong):
        text = open(f"data/{shipped}.conf").read()
        assert right in text
        conf = _write(tmp_path, "huge.conf", text.replace(right, wrong))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        assert "variance must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize(
        "block, key, value",
        [("likelihood", "variance", float("nan")), ("kernel", "lengthscales", [float("inf")])],
        ids=["nan_variance", "infinite_lengthscale"],
    )
    def test_non_finite_model_file_value_is_2(
        self, tmp_path, trained_svgp, capsys, command, block, key, value
    ):
        doc = json.load(open(trained_svgp))
        doc[block][key] = value
        model = _write(tmp_path, "bad.json", json.dumps(doc))  # NaN / Infinity
        args = [command, "--model", model, "--data", DESK]
        args += ["--out", str(tmp_path / "p.csv")] if command == "predict" else []
        assert main(args) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_huge_output_index_is_3_with_its_line(
        self, tmp_path, trained_svgp, capsys, command
    ):
        text = "x0,output_index,y0\n0.1,0,0.5\n0.2,1e300,0.7\n0.3,0,0.9\n"
        data = _write(tmp_path, "rows.csv", text)
        if command == "train":
            conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=1))
            args = ["train", "--config", conf, "--data", data, "--out", str(tmp_path / "m")]
        else:
            args = ["eval", "--model", trained_svgp, "--data", data]
        assert main(args) == 3
        assert "line 3: output_index out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                SVGP_CONF.format(steps=1).replace("lengthscales = [0.8]", "lengthscales = []"),
                "sqexp: lengthscales must be one or more positive numbers",
            ),
            (
                SVGP_CONF.format(steps=1).replace("from_data = 8", "z = []"),
                "points: inducing inputs need at least one row",
            ),
            (
                GPR_NEAR_NOISELESS.replace(
                    "sqexp { variance = 1.0, lengthscales = [0.6] }",
                    "shared_independent { base = sqexp, outputs = 1 }",
                ),
                "gpr needs a single-output kernel or conv, got SharedIndependent",
            ),
        ],
        ids=["empty_lengthscales", "empty_inducing_inputs", "gpr_multioutput_kernel"],
    )
    def test_unbuildable_model_is_2_before_training(self, tmp_path, capsys, text, message):
        conf = _write(tmp_path, "empty.conf", text)
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 2
        assert message in capsys.readouterr().err


class TestTrain:
    def test_smoke_produces_loadable_model(self, trained_svgp):
        model, metadata = load_model(trained_svgp)
        assert metadata["steps"] == 80
        x, y = desk_regression()
        assert np.isfinite(model.elbo((x, y)))

    def test_trace_records_schema(self, trained_svgp):
        lines = open(trained_svgp + ".trace.jsonl").read().splitlines()
        assert len(lines) == 80
        first = json.loads(lines[0])
        assert set(first) >= {"step", "elbo", "wall_ms"}

    def test_identical_config_and_seed_give_identical_model_files(self, tmp_path):
        conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=12))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", a]) == 0
        assert main(["train", "--config", conf, "--data", DESK, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_model_file_round_trip_is_byte_identical(self, tmp_path, trained_svgp):
        model, metadata = load_model(trained_svgp)
        again = str(tmp_path / "again.json")
        save_model(model, again, metadata)
        assert open(again, "rb").read() == open(trained_svgp, "rb").read()

    def test_heterotopic_training_runs(self, tmp_path):
        x, y = desk_regression(n=12)
        rows = str(tmp_path / "rows.csv")
        write_dataset(rows, x, y[:, 0], np.zeros(12, dtype=int))
        conf = _write(tmp_path, "c.conf", SVGP_CONF.format(steps=3))
        out = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", rows, "--out", out]) == 0


class TestPredict:
    def test_near_noiseless_gpr_reproduces_training_targets(
        self, tmp_path, trained_gpr
    ):
        out = str(tmp_path / "p.csv")
        assert main(["predict", "--model", trained_gpr, "--data", DESK, "--out", out]) == 0
        table = np.genfromtxt(out, delimiter=",", skip_header=2)
        _, y = desk_regression()
        assert np.max(np.abs(table[:, 1] - y[:, 0])) < 0.05

    def test_observation_noise_adds_variance(self, tmp_path, trained_svgp):
        plain, noisy = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["predict", "--model", trained_svgp, "--data", DESK, "--out", plain])
        main(
            [
                "predict", "--model", trained_svgp, "--data", DESK,
                "--out", noisy, "--observation-noise",
            ]
        )
        doc = json.load(open(trained_svgp))
        sigma2 = doc["likelihood"]["variance"]
        a = np.genfromtxt(plain, delimiter=",", skip_header=2)
        b = np.genfromtxt(noisy, delimiter=",", skip_header=2)
        np.testing.assert_allclose(b[:, 2] - a[:, 2], sigma2, atol=1e-12)
        np.testing.assert_allclose(b[:, 1], a[:, 1], atol=1e-12)

    def test_observation_noise_is_checked_before_predicting(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        predict_moments = SVGPModel.predict_moments

        def counted(self, *args):
            calls.append(args)
            return predict_moments(self, *args)

        monkeypatch.setattr(SVGPModel, "predict_moments", counted)
        model = golden_path("svgp_sqexp_multiscale_bernoulli")  # Bernoulli
        data = _write(tmp_path, "x.csv", "x0,x1\n0.0,1.0\n")
        args = ["predict", "--model", model, "--data", data, "--out", str(tmp_path / "p")]
        assert main([*args, "--full-cov", "--observation-noise"]) == 2
        assert "--observation-noise needs a Gaussian" in capsys.readouterr().err
        assert calls == []
        assert main([*args, "--full-cov"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "flags,header",
        [
            ([], "# mode full_cov=false full_output_cov=false"),
            (["--full-cov"], "# mode full_cov=true full_output_cov=false"),
            (["--full-output-cov"], "# mode full_cov=false full_output_cov=true"),
            (
                ["--full-cov", "--full-output-cov"],
                "# mode full_cov=true full_output_cov=true",
            ),
        ],
    )
    def test_shape_header_matches_flags(self, tmp_path, trained_svgp, flags, header):
        out = str(tmp_path / "p.csv")
        assert (
            main(["predict", "--model", trained_svgp, "--data", DESK, "--out", out] + flags)
            == 0
        )
        lines = open(out).read().splitlines()
        assert lines[0] == header
        if "--full-cov" in flags:
            assert lines[1] == "# mean shape: 30 1"
            assert any(line.startswith("# cov shape: ") for line in lines)

    def test_full_cov_tensor_diagonal_matches_marginals(self, tmp_path, trained_svgp):
        marg, full = str(tmp_path / "m.csv"), str(tmp_path / "f.csv")
        main(["predict", "--model", trained_svgp, "--data", DESK, "--out", marg])
        main(["predict", "--model", trained_svgp, "--data", DESK, "--out", full, "--full-cov"])
        a = np.genfromtxt(marg, delimiter=",", skip_header=2)
        lines = open(full).read().splitlines()
        start = lines.index("# cov shape: 1 30 30") + 1
        cov = np.array([[float(v) for v in line.split(",")] for line in lines[start:]])
        cov = cov.reshape(30, 30)
        np.testing.assert_allclose(np.diag(cov), a[:, 2], atol=1e-12)

    def test_predictions_from_reloaded_model_are_bit_identical(
        self, tmp_path, trained_svgp
    ):
        model, metadata = load_model(trained_svgp)
        copy = str(tmp_path / "copy.json")
        save_model(model, copy, metadata)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["predict", "--model", trained_svgp, "--data", DESK, "--out", a])
        main(["predict", "--model", copy, "--data", DESK, "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()


class TestEval:
    def test_perfect_predictions_have_zero_rmse(self, tmp_path, trained_svgp):
        preds = str(tmp_path / "p.csv")
        main(["predict", "--model", trained_svgp, "--data", DESK, "--out", preds])
        table = np.genfromtxt(preds, delimiter=",", skip_header=2)
        perfect = str(tmp_path / "perfect.csv")
        write_dataset(perfect, table[:, :1], table[:, 1])
        out = str(tmp_path / "metrics.json")
        assert main(["eval", "--model", trained_svgp, "--data", perfect, "--out", out]) == 0
        metrics = json.load(open(out))
        assert metrics["rmse"] == 0.0

    def test_single_point_mlpd_hand_formula(self, tmp_path, trained_svgp):
        point = _write(tmp_path, "one.csv", "x0,y0\n1.0,0.3\n")
        preds = str(tmp_path / "p.csv")
        main(["predict", "--model", trained_svgp, "--data", point, "--out", preds])
        mu, var = np.genfromtxt(preds, delimiter=",", skip_header=2)[1:]
        sigma2 = json.load(open(trained_svgp))["likelihood"]["variance"]
        total = var + sigma2
        want = -0.5 * np.log(2 * np.pi * total) - (0.3 - mu) ** 2 / (2 * total)
        out = str(tmp_path / "metrics.json")
        main(["eval", "--model", trained_svgp, "--data", point, "--out", out])
        assert json.load(open(out))["mlpd"] == pytest.approx(want, abs=1e-10)

    def test_matches_external_recomputation_from_predictions(
        self, tmp_path, trained_svgp
    ):
        preds = str(tmp_path / "p.csv")
        main(["predict", "--model", trained_svgp, "--data", DESK, "--out", preds])
        table = np.genfromtxt(preds, delimiter=",", skip_header=2)
        sigma2 = json.load(open(trained_svgp))["likelihood"]["variance"]
        _, y = desk_regression()
        total = table[:, 2] + sigma2
        mlpd = np.mean(
            -0.5 * np.log(2 * np.pi * total)
            - (y[:, 0] - table[:, 1]) ** 2 / (2 * total)
        )
        rmse = float(np.sqrt(np.mean((y[:, 0] - table[:, 1]) ** 2)))
        out = str(tmp_path / "metrics.json")
        main(["eval", "--model", trained_svgp, "--data", DESK, "--out", out])
        metrics = json.load(open(out))
        assert metrics["mlpd"] == pytest.approx(mlpd, abs=1e-10)
        assert metrics["rmse"] == pytest.approx(rmse, abs=1e-12)

    def test_homotopic_outputs_each_report_their_own_density(self, tmp_path):
        x = np.linspace(0.0, 3.0, 12)[:, None]
        y = np.column_stack([np.sin(x[:, 0]), np.cos(2.0 * x[:, 0])])
        data = str(tmp_path / "d.csv")
        write_dataset(data, x, y)
        conf = _write(
            tmp_path,
            "c.conf",
            """
            steps = 3
            model {
              kind = svgp
              kernel = shared_independent { base = sqexp {}, outputs = 2 }
              likelihood = gaussian { variance = 0.1 }
              inducing = points { from_data = 4 }
            }
            """,
        )
        model = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", model]) == 0
        preds = str(tmp_path / "p.csv")
        assert main(["predict", "--model", model, "--data", data, "--out", preds]) == 0
        table = np.genfromtxt(preds, delimiter=",", skip_header=2)  # x0, mu_0, mu_1, var_0, var_1
        sigma2 = json.load(open(model))["likelihood"]["variance"]
        out = str(tmp_path / "metrics.json")
        assert main(["eval", "--model", model, "--data", data, "--out", out]) == 0
        metrics = json.load(open(out))
        assert [e["output"] for e in metrics["per_output"]] == [0, 1]
        for entry in metrics["per_output"]:
            p = entry["output"]
            total = table[:, 3 + p] + sigma2
            dens = -0.5 * np.log(2 * np.pi * total) - (y[:, p] - table[:, 1 + p]) ** 2 / (2 * total)
            assert entry["mlpd"] == pytest.approx(np.mean(dens), rel=1e-12)
        total = sum(e["mlpd"] for e in metrics["per_output"])
        assert total == pytest.approx(metrics["mlpd"], abs=1e-12)


class TestPlotdata:
    def test_single_point_grid_equals_predict(self, tmp_path, trained_svgp):
        grid_out = str(tmp_path / "grid.csv")
        main(["plotdata", "--model", trained_svgp, "--grid", "1.3:1.3:1", "--out", grid_out])
        grid = np.genfromtxt(grid_out, delimiter=",", skip_header=1)
        point = _write(tmp_path, "pt.csv", "x0\n1.3\n")
        pred_out = str(tmp_path / "pred.csv")
        main(["predict", "--model", trained_svgp, "--data", point, "--out", pred_out])
        pred = np.genfromtxt(pred_out, delimiter=",", skip_header=2)
        assert grid[1] == pytest.approx(pred[1], abs=1e-12)  # mu
        assert grid[2] == pytest.approx(pred[2], abs=1e-12)  # var

    def test_separate_negative_grid_value_equals_attached_one(
        self, tmp_path, trained_svgp
    ):
        outputs = []
        for grid in (["--grid", "-0.99:0.96:5"], ["--grid=-0.99:0.96:5"]):
            out = tmp_path / f"{len(grid)}.csv"
            args = ["plotdata", "--model", trained_svgp, *grid, "--out", str(out)]
            assert main(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith(b"-0.99,")

    @pytest.mark.parametrize("grid", ["0:inf:5", "nan:1:5", "-inf:0:5", "0:nan:5"])
    def test_non_finite_grid_is_2(self, tmp_path, trained_svgp, capsys, grid):
        out = str(tmp_path / "grid.csv")
        args = ["plotdata", "--model", trained_svgp, f"--grid={grid}", "--out", out]
        assert main(args) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_monotone_grid_order(self, tmp_path, trained_svgp):
        out = str(tmp_path / "grid.csv")
        main(["plotdata", "--model", trained_svgp, "--grid", "0:6:40", "--out", out])
        table = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert np.all(np.diff(table[:, 0]) > 0)
        np.testing.assert_allclose(
            table[:, 3], table[:, 1] - 2 * np.sqrt(table[:, 2]), atol=1e-12
        )

    def test_band_covers_held_out_near_noiseless_samples(self, tmp_path):
        # A correctly specified fit (noise frozen at the generative value)
        # must produce predictive bands that cover the underlying signal.
        conf = _write(
            tmp_path,
            "cov.conf",
            """
            seed = 0
            steps = 150
            learning_rate = 0.05
            model {
              kind = gpr
              kernel = sqexp { variance = 1.0, lengthscales = [0.6] }
              likelihood = gaussian { variance = 0.0225 }
              freeze = [likelihood.variance]
            }
            """,
        )
        model = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", model]) == 0
        out = str(tmp_path / "grid.csv")
        main(
            [
                "plotdata", "--model", model, "--grid", "0.2:5.8:200",
                "--out", out, "--observation-noise",
            ]
        )
        table = np.genfromtxt(out, delimiter=",", skip_header=1)
        rng = np.random.default_rng(0)
        held_out = desk_truth(table[:, 0]) + 0.01 * rng.standard_normal(200)
        covered = (held_out >= table[:, 3]) & (held_out <= table[:, 4])
        assert covered.mean() >= 0.93

    def test_two_dimensional_grid(self, tmp_path, rng):
        from sparsegp import (
            Gaussian,
            InducingPoints,
            SquaredExponential,
            SVGPModel,
            VariationalGaussian,
            standard_normal,
        )

        z = standard_normal(rng, (4, 2))
        model = SVGPModel(
            SquaredExponential(1.0, [0.7, 1.2]),
            Gaussian(0.1),
            InducingPoints(z),
            VariationalGaussian(np.zeros(4), np.eye(4)),
            num_data=4,
        )
        path = str(tmp_path / "m.json")
        save_model(model, path)
        out = str(tmp_path / "grid.csv")
        assert (
            main(
                [
                    "plotdata", "--model", path,
                    "--grid", "0:1:3", "--grid", "0:1:4", "--out", out,
                ]
            )
            == 0
        )
        table = np.genfromtxt(out, delimiter=",", skip_header=1)
        assert table.shape[0] == 12


class TestHeterotopicIngestion:
    def test_exploded_rows_give_same_elbo(self, tmp_path, rng):
        from sparsegp import standard_normal

        n, p = 6, 2
        x = standard_normal(rng, (n, 1))
        y = standard_normal(rng.derive(1), (n, p))
        homo = str(tmp_path / "homo.csv")
        write_dataset(homo, x, y)
        rows_x = np.repeat(x, p, axis=0)
        rows_p = np.tile(np.arange(p), n)
        rows_y = y.reshape(-1)
        hetero = str(tmp_path / "hetero.csv")
        write_dataset(hetero, rows_x, rows_y, rows_p)

        cfg = parse_config(
            """
            model {
              kind = svgp
              whiten = true
              kernel = separate_independent {
                latents = [sqexp { lengthscales = [0.7] }, sqexp { lengthscales = [1.1] }]
              }
              likelihood = gaussian { variance = 0.2 }
              inducing = shared { base = points { from_data = 4 } }
            }
            """
        )
        ds_homo = read_dataset(homo)
        ds_hetero = read_dataset(hetero)
        model = build_model(cfg, ds_homo)
        a = model.elbo((ds_homo.x, ds_homo.y), scale=1.0)
        b = model.elbo_heterotopic(
            ds_hetero.x, ds_hetero.outputs, ds_hetero.y[:, 0], scale=1.0
        )
        assert b == pytest.approx(a, abs=1e-9)


class TestHeterotopicEval:
    def test_metrics_match_per_row_reference(self, tmp_path, rng):
        from sparsegp import (
            marginalize_outputs,
            predict_observation_moments,
            predictive_log_density,
            standard_normal,
        )

        def rows(n, r):
            x = standard_normal(r, (n, 1))
            outputs = r.derive(1).generator.integers(0, 2, size=n)  # no output 2
            y = standard_normal(r.derive(2), n)
            path = str(tmp_path / f"rows{n}.csv")
            write_dataset(path, x, y, outputs)
            return path

        conf = _write(
            tmp_path,
            "lmc.conf",
            """
            seed = 0
            steps = 2
            learning_rate = 0.05
            model {
              kind = svgp
              whiten = false
              kernel = lmc {
                w = [[1.0, 0.0], [0.5, 0.5], [0.2, 0.8]]
                latents = [sqexp { lengthscales = [0.8] }, matern32 {}]
              }
              likelihood = correlated_gaussian {
                cov = [[0.2, 0.05, 0.0], [0.05, 0.3, 0.1], [0.0, 0.1, 0.25]]
              }
              inducing = shared { base = points { from_data = 4 } }
            }
            """,
        )
        out = str(tmp_path / "lmc.json")
        train = rows(24, rng)
        assert main(["train", "--config", conf, "--data", train, "--out", out]) == 0
        test = rows(15, rng.derive(7))
        metrics_path = str(tmp_path / "metrics.json")
        assert main(["eval", "--model", out, "--data", test, "--out", metrics_path]) == 0
        metrics = json.load(open(metrics_path))

        model, _ = load_model(out)
        ds = read_dataset(test)
        pm = model.predict_f(ds.x)
        logdens, errors = [], []
        for i, p in enumerate(ds.outputs):
            lik = marginalize_outputs(model.likelihood, (p,))
            mu, var = pm.mean[i : i + 1, p : p + 1], pm.cov[i : i + 1, p : p + 1]
            logdens.append(predictive_log_density(lik, mu, var, ds.y[i : i + 1])[0])
            ymu, _ = predict_observation_moments(lik, mu, var)
            errors.append(ds.y[i, 0] - ymu[0, 0])
        logdens, errors = np.array(logdens), np.array(errors)

        assert metrics["mlpd"] == pytest.approx(logdens.mean(), rel=1e-12)
        assert metrics["rmse"] == pytest.approx(
            np.sqrt(np.mean(errors**2)), rel=1e-12
        )
        assert [e["output"] for e in metrics["per_output"]] == [0, 1]
        for entry in metrics["per_output"]:
            mask = ds.outputs == entry["output"]
            assert entry["count"] == int(mask.sum())
            assert entry["mlpd"] == pytest.approx(logdens[mask].mean(), rel=1e-12)
            assert entry["rmse"] == pytest.approx(
                np.sqrt(np.mean(errors[mask] ** 2)), rel=1e-12
            )


class TestCorrelatedNoiseCli:
    def test_observation_noise_in_predict_eval_and_plotdata(self, tmp_path):
        x = np.linspace(0.0, 3.0, 12)[:, None]
        y = np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 0])])
        data = str(tmp_path / "d.csv")
        write_dataset(data, x, y)
        conf = _write(
            tmp_path,
            "c.conf",
            """
            steps = 3
            model {
              kind = svgp
              kernel = shared_independent { base = sqexp {}, outputs = 2 }
              likelihood = correlated_gaussian { cov = [[0.2, 0.05], [0.05, 0.1]] }
              inducing = points { from_data = 4 }
            }
            """,
        )
        model = str(tmp_path / "m.json")
        assert main(["train", "--config", conf, "--data", data, "--out", model]) == 0
        noise = np.diag(load_model(model)[0].likelihood.cov)

        def table(command, *args, skip):
            out = str(tmp_path / f"{command}.csv")
            assert main([command, "--model", model, "--out", out, *args]) == 0
            return np.genfromtxt(out, delimiter=",", skip_header=skip)

        plain = table("predict", "--data", data, skip=2)
        noisy = table("predict", "--data", data, "--observation-noise", skip=2)
        np.testing.assert_array_equal(noisy[:, :3], plain[:, :3])
        np.testing.assert_allclose(noisy[:, 3:], plain[:, 3:] + noise, atol=1e-12)
        grid = table("plotdata", "--grid=0:3:12", "--observation-noise", skip=1)
        np.testing.assert_allclose(grid[:, 1:5], noisy[:, 1:5], atol=1e-12)

        metrics = str(tmp_path / "metrics.json")
        assert main(["eval", "--model", model, "--data", data, "--out", metrics]) == 0
        with open(metrics, encoding="utf-8") as handle:
            report = json.load(handle)
        assert np.isfinite(report["mlpd"]) and np.isfinite(report["rmse"])


class TestDgpCli:
    def test_eval_propagates_each_mixture_sample_once(self, monkeypatch):
        # One pass over the 100 draws gives the mixture's mean, variance and
        # density alike.
        from sparsegp import cli
        from sparsegp.models import DGPModel
        from test_formats import CASES

        model, _ = load_model(golden_path("dgp_two_layers"))
        dataset, _ = CASES["dgp_two_layers"]
        calls = []
        real = DGPModel.propagate

        def counted(self, *args):
            calls.append(1)
            return real(self, *args)

        monkeypatch.setattr(DGPModel, "propagate", counted)
        metrics = cli._eval_metrics(model, dataset)
        assert len(calls) == 100
        assert np.isfinite(metrics["mlpd"])

    def test_correlated_noise_eval(self, tmp_path):
        # The last layer's q correlates its two outputs; eval scores each
        # draw on its [N, 2, 2] covariances.
        x = np.linspace(0.0, 3.0, 12)[:, None]
        y = np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 0])])
        data = str(tmp_path / "d.csv")
        write_dataset(data, x, y)
        conf = _write(
            tmp_path,
            "dgp.conf",
            """
            seed = 1
            steps = 3
            model {
              kind = dgp
              likelihood = correlated_gaussian { cov = [[0.1, 0.02], [0.02, 0.3]] }
              layers = [
                layer { kernel = sqexp {}, inducing = points { from_data = 4 } },
                layer {
                  kernel = separate_independent {
                    latents = [sqexp { lengthscales = [0.8] }, matern32 { lengthscales = [1.2] }]
                  }
                  inducing = points { from_data = 4 }
                }
              ]
            }
            """,
        )
        model = str(tmp_path / "dgp.json")
        assert main(["train", "--config", conf, "--data", data, "--out", model]) == 0
        out = str(tmp_path / "metrics.json")
        assert main(["eval", "--model", model, "--data", data, "--out", out]) == 0
        assert np.isfinite(json.load(open(out))["mlpd"])

    def test_train_and_predict(self, tmp_path):
        conf = _write(
            tmp_path,
            "dgp.conf",
            """
            seed = 1
            steps = 2
            learning_rate = 0.01
            model {
              kind = dgp
              likelihood = gaussian { variance = 0.1 }
              layers = [
                layer {
                  kernel = sqexp { lengthscales = [0.8] }
                  inducing = points { from_data = 3 }
                },
                layer {
                  kernel = sqexp { lengthscales = [1.0] }
                  inducing = points { from_data = 3 }
                }
              ]
            }
            """,
        )
        out = str(tmp_path / "dgp.json")
        assert main(["train", "--config", conf, "--data", DESK, "--out", out]) == 0
        preds = str(tmp_path / "p.csv")
        assert main(["predict", "--model", out, "--data", DESK, "--out", preds]) == 0
        table = np.genfromtxt(preds, delimiter=",", skip_header=2)
        assert np.all(np.isfinite(table))
        assert (
            main(
                ["predict", "--model", out, "--data", DESK, "--out", preds, "--full-cov"]
            )
            == 2
        )


def test_importing_the_cli_loads_no_scipy():
    """Each command starts a fresh interpreter, so what ``sparsegp.cli``
    imports is paid on every call; scipy is for the tests alone."""
    probe = "import sys, sparsegp.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout == "[]\n"
