"""End-to-end tests of the command line front end."""

from __future__ import annotations

import json
import math

import pytest

from dignet.cli import EXIT_IO, EXIT_REFUSED, EXIT_USAGE, build_parser, main, study_rows
from dignet.errors import PrecisionError
from dignet.measures import periodic_l2
from dignet.niederreiter import GeneratingMatrixSet, load_matrix_set
from dignet.sequence import generate_points, read_points_csv
from dignet.cli import construct_matrices
from support import entry, identity, save_matrix_set


def _run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_matrices_identity(tmp_path):
    data = _run_json(["matrices", "-d", "1", "-m", "4"], tmp_path)
    gset = GeneratingMatrixSet.from_json_dict(data)
    assert gset.matrices[0] == identity(4)
    assert gset.t == 0


def test_matrices_sobol_pair(tmp_path):
    data = _run_json(["matrices", "-d", "2", "-m", "3"], tmp_path)
    assert data["t"] == 0
    assert data["dimension"] == 2
    assert data["rows"] == 3 and data["cols"] == 3


def test_matrices_interlaced_zero_pattern(tmp_path):
    data = _run_json(["matrices", "-d", "1", "-a", "2", "-m", "3"], tmp_path)
    gset = GeneratingMatrixSet.from_json_dict(data)
    assert gset.rows == 6 and gset.cols == 3
    mat = gset.matrices[0]
    for k in range(1, 7):
        for l in range(1, 4):
            if k > 2 * l:
                assert entry(mat, k - 1, l - 1) == 0, (k, l)


def test_points_roundtrip(tmp_path):
    out = tmp_path / "pts.csv"
    assert main(["points", "-d", "2", "-m", "3", "-N", "8", "--out", str(out)]) == 0
    pset = read_points_csv(out)
    direct = generate_points(construct_matrices(2, 1, 3), 8)
    assert pset.points == direct.points


def test_points_stdout_and_determinism(tmp_path, capsys):
    assert main(["points", "-d", "1", "-m", "2", "-N", "4"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[1].startswith("n,x1_hex")
    assert main(["points", "-d", "1", "-m", "2", "-N", "4"]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[1:] == second.splitlines()[1:]


def test_points_count_defaults_to_full_net(capsys):
    base = ["points", "-d", "2", "-a", "2", "-m", "10"]
    assert main(base) == 0
    default = capsys.readouterr().out.splitlines()
    assert main(base + ["-N", "1024"]) == 0
    explicit = capsys.readouterr().out.splitlines()
    # Line 0 is the timestamped header comment; the rows must match.
    assert len(default) == 1024 + 2
    assert default[1:] == explicit[1:]


def test_points_precision_truncates_to_leading_digits(tmp_path):
    full, short = tmp_path / "full.csv", tmp_path / "short.csv"
    assert main(["points", "-d", "2", "-m", "4", "--out", str(full)]) == 0
    assert main(["points", "-d", "2", "-m", "4", "-W", "2", "--out", str(short)]) == 0
    full_set, short_set = read_points_csv(full), read_points_csv(short)
    assert (full_set.precision, short_set.precision) == (4, 2)
    assert (short_set.numerators == full_set.numerators >> 2).all()


@pytest.mark.parametrize("command", ["points", "measure"])
@pytest.mark.parametrize("precision", ["0", "-2"])
def test_precision_below_one_is_a_usage_error(command, precision, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "-d", "1", "-m", "3", "-W", precision])
    assert exc.value.code == EXIT_USAGE
    assert "-W/--precision: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_measure_rejects_threads_below_one(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "1", "-m", "3", "--threads", threads])
    assert exc.value.code == EXIT_USAGE
    assert "--threads: must be at least 1" in capsys.readouterr().err


def test_measure_single_point(tmp_path):
    data = _run_json(["measure", "-d", "1", "-m", "1", "-N", "1"], tmp_path)
    assert data["measure"] == "periodic-l2"
    assert data["value"] == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)


def test_measure_two_point_diaphony(tmp_path):
    data = _run_json(
        ["measure", "-d", "1", "-m", "1", "--measure", "diaphony"], tmp_path
    )
    assert data["N"] == 2
    assert data["value"] == pytest.approx(0.906900, abs=5e-7)
    assert data["value"] == pytest.approx(math.pi / math.sqrt(12.0), rel=1e-12)


def test_measure_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    assert main(["points", "-d", "1", "-m", "1", "-N", "1", "--out", str(pts)]) == 0
    data = _run_json(["measure", "--points", str(pts)], tmp_path)
    assert data["value"] == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)


def test_measure_points_file_count_takes_prefix(tmp_path):
    pts = tmp_path / "pts.csv"
    assert main(["points", "-d", "2", "-m", "4", "--out", str(pts)]) == 0
    data = _run_json(["measure", "--points", str(pts), "-N", "2"], tmp_path)
    assert data["N"] == 2
    prefix = generate_points(construct_matrices(2, 1, 4), 2)
    assert data["squared"] == periodic_l2(prefix).squared


@pytest.mark.parametrize("count", ["0", "17"])
def test_measure_points_file_count_out_of_range(count, tmp_path, capsys):
    # -N below one is a parser error; past the file's size, a usage error.
    message = {"0": "argument -N/--count: must be at least 1, got 0",
               "17": "-N must lie in [1, 16]"}[count]
    pts = tmp_path / "pts.csv"
    assert main(["points", "-d", "2", "-m", "4", "--out", str(pts)]) == 0
    try:
        code = main(["measure", "--points", str(pts), "-N", count])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_measure_points_file_rejects_precision(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    assert main(["points", "-d", "2", "-m", "4", "--out", str(pts)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--points", str(pts), "-W", "3"])
    assert exc.value.code == EXIT_USAGE
    assert "-W/--precision" in capsys.readouterr().err


_BAD_POINTS_HEAD = "# generator: demo; written: t\nn,x1_hex,x1,x2_hex,x2\n"
_GOOD_POINTS_ROW = "0,0x1/4,0.0625,0x2/4,0.125\n"


@pytest.mark.parametrize(
    "rows, code",
    [
        pytest.param(_GOOD_POINTS_ROW + "1,0x1/4,0.0625\n", EXIT_USAGE, id="row-width"),
        pytest.param("0,0x1/4,0.0625,0x2/4\n", EXIT_USAGE, id="odd-field-count"),
        pytest.param("0,0xZZ/4,0.0625,0x2/4,0.125\n", EXIT_USAGE, id="bad-hex"),
        pytest.param("0,0x1/4,0.0625,0x2/5,0.125\n", EXIT_USAGE, id="mixed-in-row"),
        pytest.param(
            _GOOD_POINTS_ROW + "1,0x1/5,0.0625,0x2/5,0.125\n",
            EXIT_USAGE,
            id="mixed-across-rows",
        ),
        pytest.param("0,0x10/4,0.0625,0x2/4,0.125\n", EXIT_USAGE, id="over-precision"),
        pytest.param(
            "0,0x10000000000000000/64,0,0x2/64,0\n", EXIT_USAGE, id="over-uint64"
        ),
        pytest.param("0\n", EXIT_USAGE, id="index-only-row"),
        pytest.param("foo,0x1/4,0.0625,0x2/4,0.125\n", EXIT_USAGE, id="bad-index"),
        pytest.param(
            _GOOD_POINTS_ROW + "01,0x1/4,0.0625,0x2/4,0.125\n",
            EXIT_USAGE,
            id="zero-padded-index",
        ),
        pytest.param(
            _GOOD_POINTS_ROW + "2,0x1/4,0.0625,0x2/4,0.125\n",
            EXIT_USAGE,
            id="out-of-order-index",
        ),
        pytest.param("0,0x1/4,0.5,0x2/4,0.125\n", EXIT_USAGE, id="float-not-hex"),
        pytest.param("0,0x1/4,abc,0x2/4,0.125\n", EXIT_USAGE, id="malformed-float"),
        pytest.param("0,0x1/65,0.0,0x2/65,0.0\n", EXIT_REFUSED, id="precision-65"),
        pytest.param(
            # Cut to 32 bytes, both fields would read as 0x0/0.
            "0,0x0/" + "0" * 50 + "4,0,0x0/" + "0" * 50 + "4,0\n",
            EXIT_USAGE,
            id="zero-padded-hex",
        ),
        pytest.param("0,0x1/4\0,0.0625,0x2/4,0.125\n", EXIT_USAGE, id="nul-in-hex"),
    ],
)
def test_measure_points_file_refuses_bad_input(rows, code, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(_BAD_POINTS_HEAD + rows)
    assert main(["measure", "--points", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("refused: " if code == EXIT_REFUSED else "error: ")


@pytest.mark.parametrize(
    "field", ["1/4", "+0x1/4", "0x_1/4", " 0x1/4", "0x1/ 4", "0x1/+4", "0x1/0_4"]
)
def test_measure_points_file_refuses_malformed_dyadic_field(field, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(_BAD_POINTS_HEAD + _GOOD_POINTS_ROW + f"1,{field},0.0625,0x2/4,0.125\n")
    assert main(["measure", "--points", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: row 1 has a malformed dyadic field")
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, row", [
    pytest.param(lambda f: f.replace("9,", "10,", 1), "row 9", id="index-gap"),
    pytest.param(lambda f: f.replace("/4,", "/5,", 1), "precisions", id="precision"),
    pytest.param(lambda f: f[: f.rindex(",") + 1] + "0.5\n", "row 9", id="float"),
])
def test_measure_points_file_refuses_bad_row_past_a_chunk(
    edit, row, tmp_path, capsys, monkeypatch
):
    # Chunks of 7 lines put data row 9 (file line 11) in the second chunk.
    monkeypatch.setattr("dignet.sequence._CSV_CHUNK", 7)
    path = tmp_path / "pts.csv"
    assert main(["points", "-d", "2", "-m", "4", "--out", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    lines[11] = edit(lines[11])
    path.write_text("".join(lines))
    assert main(["measure", "--points", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert row in err


def test_measure_cross_check(tmp_path):
    data = _run_json(
        ["measure", "-d", "2", "-m", "3", "--cross-check", "--trunc", "64"],
        tmp_path,
    )
    assert set(data) == {"kernel", "fourier", "gap"}
    assert data["gap"] < 5e-3
    assert data["kernel"]["method"] == "kernel"
    assert data["fourier"]["truncation"] == {"H": 64}


def test_measure_walsh_matches_kernel(tmp_path):
    kernel = _run_json(["measure", "-d", "2", "-m", "3"], tmp_path, "k.json")
    walsh = _run_json(
        ["measure", "-d", "2", "-m", "3", "--method", "walsh",
         "--bound-bits", "7"],
        tmp_path,
        "w.json",
    )
    assert walsh["method"] == "walsh"
    assert abs(walsh["squared"] - kernel["squared"]) <= 0.25 * 2.0**-7


def test_measure_walsh_budget_refusal(capsys):
    # 2^22 dual members at d=2: refused by bytes, before any is enumerated.
    code = main(
        ["measure", "-d", "2", "-m", "2", "--method", "walsh",
         "--bound-bits", "12"]
    )
    assert code == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err.startswith("refused:") and "bytes" in err and "budget" in err
    assert "Traceback" not in err


def test_measure_walsh_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "1", "-m", "2", "--method", "walsh",
              "--measure", "diaphony"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "1", "-m", "2", "--method", "walsh", "-N", "3"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "1", "-m", "2", "--method", "walsh", "--cross-check"])
    assert exc.value.code == EXIT_USAGE
    pts = tmp_path / "pts.csv"
    assert main(["points", "-d", "1", "-m", "1", "-N", "1", "--out", str(pts)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--points", str(pts), "--method", "walsh"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "kernel", "--bound-bits", "3"],
        ["--method", "fourier", "--bound-bits", "9"],
        ["--cross-check", "--bound-bits", "5"],
        ["--bound-bits", "8"],
    ],
)
def test_measure_rejects_walsh_flags_without_walsh(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "2", "-m", "3"] + flags)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "walsh method only" in err
    assert "usage: dignet measure" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "walsh", "--bound-bits", "7"],
        ["--method", "walsh"],
        ["--cross-check", "--trunc", "16", "--threads", "2"],
    ],
)
def test_measure_accepts_method_flags(flags, tmp_path):
    data = _run_json(["measure", "-d", "2", "-a", "2", "-m", "3"] + flags, tmp_path)
    assert ("gap" in data) == ("--cross-check" in flags)


@pytest.mark.parametrize(
    "flags",
    [
        ["--trunc", "5"],
        ["--method", "kernel", "--trunc", "5"],
        ["--method", "walsh", "--bound-bits", "7", "--trunc", "5"],
    ],
)
def test_measure_rejects_trunc_without_fourier(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "1", "-a", "1", "-m", "3"] + flags)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--trunc applies to the fourier method" in err
    assert "usage: dignet measure" in err


@pytest.mark.parametrize("trunc", ["0", "-4", "x"])
def test_measure_rejects_trunc_below_one(trunc, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "-d", "1", "-m", "3", "--method", "fourier",
              "--trunc", trunc])
    assert exc.value.code == EXIT_USAGE
    assert "argument --trunc" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--method", "fourier"], ["--method", "fourier", "--trunc", "3"]]
)
def test_measure_fourier_trunc_default(flags, tmp_path):
    data = _run_json(["measure", "-d", "1", "-m", "3"] + flags, tmp_path)
    assert data["truncation"] == {"H": 3 if "--trunc" in flags else 256}


def test_measure_fourier_budget_refusal(capsys):
    code = main(["measure", "-d", "1", "-a", "1", "-m", "3", "--method",
                 "fourier", "--trunc", "1000000000"])
    assert code == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err.startswith("refused:") and "budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["matrices", "-d", "1", "-m", "3"],
        ["points", "-d", "1", "-m", "3"],
        ["measure", "-d", "1", "-m", "3"],
        ["tvalue", "-d", "1", "-m", "3"],
        ["study", "--m-max", "6"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_alpha_below_one_is_a_usage_error(argv, alpha, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["-a", alpha])
    assert exc.value.code == EXIT_USAGE
    assert "argument -a/--alpha: must be at least 1" in capsys.readouterr().err


def test_tvalue_sobol(tmp_path):
    data = _run_json(["tvalue", "-d", "2", "-m", "4"], tmp_path)
    assert data["construction_t"] == 0
    assert data["alpha"] == 1
    assert [b["t"] for b in data["blocks"]] == [0, 0, 0, 0]
    assert all(b["exhaustive"] for b in data["blocks"])


def test_tvalue_reports_bound_and_verified(tmp_path):
    data = _run_json(
        ["tvalue", "-d", "1", "-a", "2", "-m", "4", "--m-min", "2"], tmp_path
    )
    assert data["construction_t"] == 1
    assert [b["t"] for b in data["blocks"]] == [0, 0, 0]
    assert all(b["m"] == m for b, m in zip(data["blocks"], range(2, 5)))


def test_tvalue_matrix_file(tmp_path):
    path = tmp_path / "mats.json"
    save_matrix_set(construct_matrices(2, 2, 3), path)
    data = _run_json(
        ["tvalue", "--matrix-file", str(path), "--m-max", "2"], tmp_path
    )
    assert data["alpha"] == 2
    assert len(data["blocks"]) == 2


def test_tvalue_range_validation(tmp_path, capsys):
    assert main(["tvalue", "-d", "1", "-m", "3", "--m-max", "9"]) == EXIT_USAGE
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tvalue", "-d", "1", "-m", "3", "--m-max", "-3"],
    ["study", "--m-max", "-3"],
])
def test_m_max_below_one_names_the_flag(argv, capsys):
    # The refusal names the flag that is out of range, not --m-min.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "argument --m-max: must be at least 1, got -3" in capsys.readouterr().err


def _edit_matrix_json(data, case):
    """One defect per case in a `matrices -d 2 -m 3` JSON dict."""
    if case == "negative-mask":
        data["polynomials"][1] = -3
    elif case == "float-mask":
        data["polynomials"][1] = 2.5
    elif case == "bool-mask":
        data["polynomials"][1] = True
    elif case == "wrong-count":
        data["polynomials"] = []
    elif case == "entry-102":
        data["matrices"][1][0] = "102"
    elif case == "ragged-rows":
        data["matrices"][1][2] = "00"
    elif case == "number-row":
        data["matrices"][1][0] = 101
    elif case == "float-t":
        data["t"] = 2.5
    elif case == "bool-alpha":
        data["alpha"] = True
    elif case == "string-dimension":
        data["dimension"] = "2"
    elif case == "null-rows":
        data["rows"] = None
    elif case == "missing-cols":
        del data["cols"]
    elif case == "negative-t":
        data["t"] = -1
    return data


@pytest.mark.parametrize("case", ["negative-mask", "float-mask", "bool-mask",
                                  "wrong-count", "entry-102", "ragged-rows",
                                  "number-row", "float-t", "bool-alpha",
                                  "string-dimension", "null-rows",
                                  "missing-cols", "negative-t"])
def test_tvalue_refuses_malformed_matrix_file(case, tmp_path, capsys):
    path = tmp_path / "mats.json"
    data = _edit_matrix_json(construct_matrices(2, 1, 3).to_json_dict(), case)
    path.write_text(json.dumps(data))
    assert main(["tvalue", "--matrix-file", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_tvalue_rejects_node_cap_below_one(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tvalue", "-d", "1", "-m", "3", "--node-cap", cap])
    assert exc.value.code == EXIT_USAGE
    assert "--node-cap: must be at least 1" in capsys.readouterr().err


def test_study_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "-d", "1", "--m-min", "4", "--m-max", "6", "--self-test",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# scaling study")
    assert lines[1] == "N,d,alpha,S,per_l2,diaphony,ratio,wall_seconds"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [16, 32, 64]
    assert all(int(r[1]) == 1 for r in rows)
    assert all(int(r[2]) == 5 for r in rows)
    for r in rows:
        l2, dia, ratio = float(r[4]), float(r[5]), float(r[6])
        assert 0 < l2 and 0 < ratio
        assert dia == pytest.approx(math.pi * math.sqrt(2.0) * l2, rel=1e-12)


def test_study_self_test_passes_on_uniform_rows(tmp_path):
    # Low-discrepancy rows leave the squared measures nearly cancelled, so
    # the self-test must judge the proportionality on the pair-sum scale;
    # d=1 at N=128 used to trip a value-relative comparison.
    out = tmp_path / "study.csv"
    code = main(
        ["study", "-d", "1", "-a", "1", "--m-min", "7", "--m-max", "8",
         "--self-test", "--out", str(out)]
    )
    assert code == 0


def test_study_digit_sum_column(tmp_path):
    out = tmp_path / "study.csv"
    code = main(
        ["study", "-d", "1", "--m-min", "8", "--m-max", "8",
         "--include-non-powers", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    by_n = {int(r[0]): int(r[3]) for r in rows}
    assert by_n[255] == 8
    assert by_n[256] == 1
    assert len(by_n) == 3


def test_study_m_min_defaults_below_m_max(tmp_path, capsys):
    # --m-min defaults to min(6, --m-max): a small --m-max alone is valid,
    # and the refusal blames --m-min only when both flags were given.
    data = _run_json(
        ["study", "-d", "1", "--m-max", "3", "--format", "json"], tmp_path
    )
    assert [r["N"] for r in data["rows"]] == [8]
    assert main(["study", "-d", "1", "--m-min", "4", "--m-max", "3"]) == EXIT_USAGE
    assert "--m-min must lie in [1, 3], got 4" in capsys.readouterr().err


def test_study_precision_refusal(capsys):
    assert main(["study", "-a", "5", "--m-max", "13"]) == EXIT_REFUSED
    assert "precision" in capsys.readouterr().err


def test_study_determinism_modulo_timestamp(tmp_path):
    args = ["study", "-d", "1", "--m-min", "4", "--m-max", "5",
            "--include-non-powers", "--seed", "3"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    rows_a = out_a.read_text().splitlines()[1:]
    rows_b = out_b.read_text().splitlines()[1:]
    assert len(rows_a) == len(rows_b)
    for a, b in zip(rows_a, rows_b):
        assert a.split(",")[:7] == b.split(",")[:7]


def test_study_json(tmp_path):
    data = _run_json(
        ["study", "-d", "2", "--m-min", "3", "--m-max", "4", "--format", "json"],
        tmp_path,
    )
    assert set(data) == {"written", "rows"}
    assert [r["N"] for r in data["rows"]] == [8, 16]
    assert all(r["d"] == 2 for r in data["rows"])


def test_out_path_io_error(capsys):
    code = main(
        ["matrices", "-d", "1", "-m", "2", "--out", "/no-such-dir/x.json"]
    )
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["matrices", "-d", "1"])
    assert exc.value.code == EXIT_USAGE


def test_study_rows_library():
    rows = study_rows(1, 1, [64, 63, 64])
    assert [r.n for r in rows] == [63, 64]
    gset = construct_matrices(1, 1, 6)
    for r in rows:
        assert r.ratio == pytest.approx(
            r.n * r.per_l2 / math.sqrt(r.digit_sum), rel=1e-15
        )
        assert r.per_l2 == periodic_l2(generate_points(gset, r.n)).value
    with pytest.raises(ValueError):
        study_rows(1, 1, [1])
    with pytest.raises(PrecisionError):
        study_rows(1, 5, [1 << 13])


def test_tvalue_refuses_alpha_beyond_stored_rows(tmp_path, capsys):
    # A file from `matrices -d 1 -a 2 -m 4` holds 8 rows; order 4 needs 16
    # for m = 4, and the missing rows must not be dropped silently.
    path = tmp_path / "mats.json"
    save_matrix_set(construct_matrices(1, 2, 4), path)
    with pytest.raises(SystemExit) as exc:
        main(["tvalue", "--matrix-file", str(path), "-a", "4"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "-a/--alpha 4" in err and "16 rows" in err and "have 8" in err
    data = _run_json(
        ["tvalue", "--matrix-file", str(path), "-a", "4", "--m-max", "2"], tmp_path
    )
    assert [b["m"] for b in data["blocks"]] == [1, 2]


# Every subcommand with small valid values for its flags; the sweep below
# leaves each one out and sets each flag of the parser to nonsense.
_SWEEP_BASE = {
    "matrices": {"-d": "1", "-a": "2", "-m": "3", "--out": "out.json"},
    "points": {"-d": "2", "-a": "2", "-m": "3", "-N": "5", "-W": "6",
               "--out": "pts.csv"},
    "measure": {"-d": "1", "-a": "2", "-m": "3", "-N": "8", "-W": "6",
                "--measure": "diaphony", "--method": "fourier", "--trunc": "8",
                "--threads": "1", "--out": "m.json"},
    "tvalue": {"-d": "1", "-a": "2", "-m": "3", "--m-min": "1", "--m-max": "3",
               "--node-cap": "1000", "--out": "t.json"},
    "study": {"-d": "1", "-a": "2", "--m-min": "3", "--m-max": "4",
              "--include-non-powers": None, "--self-test": None, "--seed": "1",
              "--format": "json", "--out": "s.json"},
}


def _sweep_flags(command):
    """The first option string of every flag of a subcommand but -h."""
    sub = next(a for a in build_parser()._actions if a.choices and command in a.choices)
    return [a.option_strings[0] for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"]


def _sweep_argv(command, drop):
    argv = [command]
    for flag, value in _SWEEP_BASE[command].items():
        if flag != drop:
            argv += [flag] if value is None else [flag, value]
    return argv


def _sweep_cases():
    cases = []
    for command, base in _SWEEP_BASE.items():
        for flag in _sweep_flags(command):
            if flag in base:
                cases.append(pytest.param(_sweep_argv(command, flag),
                                          id=f"{command}-without-{flag}"))
            for k, value in enumerate(("-3", "nonsense", "{}", "")):
                cases.append(pytest.param(_sweep_argv(command, flag) + [flag, value],
                                          id=f"{command}-{flag}-nonsense{k}"))
    return cases


def test_sweep_base_names_real_flags():
    for command, base in _SWEEP_BASE.items():
        assert set(base) <= set(_sweep_flags(command)), command


@pytest.mark.parametrize("argv", _sweep_cases())
def test_flag_sweep_exits_cleanly(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("-3", "nonsense", "{}"):
        # A nonsense path names an existing file that holds junk.
        (tmp_path / name).write_text("n,x1_hex\n0,zz\n" if name == "nonsense" else name)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["matrices", "points", "measure", "tvalue"])
def test_dimension_below_one_names_the_flag(command, capsys):
    # -d reached build_matrices as alpha * d, so "-d -3 -a 2" said "got -6".
    with pytest.raises(SystemExit) as exc:
        main([command, "-m", "3", "-a", "2", "-d", "-3"])
    assert exc.value.code == EXIT_USAGE
    assert "argument -d/--dimension: must be at least 1, got -3" in capsys.readouterr().err
