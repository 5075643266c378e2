import csv
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import ifrx.chart
import ifrx.cli
from ifrx.channel import ChannelRealization, load_matrix, sample_channel
from ifrx.cli import MAX_GRID_POINTS, build_parser, main, parse_value_list
from ifrx.errors import InvalidInputError, ParseError
from ifrx.ifcore import optimal_projection
from ifrx.sdm import SearchConfig
from ifrx.select import METHOD_FALLBACK, design_if


@pytest.fixture
def identity_channel(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# identity channel\n1 0\n0 1\n")
    return str(path)


def test_parse_value_list():
    assert parse_value_list("0:5:10") == [0.0, 5.0, 10.0]
    assert parse_value_list("0,10,20") == [0.0, 10.0, 20.0]
    assert parse_value_list("20") == [20.0]
    assert parse_value_list("1:1:3", int) == [1, 2, 3]
    with pytest.raises(ParseError):
        parse_value_list("0:0:10")
    with pytest.raises(ParseError):
        parse_value_list("a:b:c")
    with pytest.raises(ParseError):
        parse_value_list("0:5:10:15")
    with pytest.raises(ParseError):
        parse_value_list("1.5,2", int)
    for bad in ("inf", "nan", "1,-inf"):
        with pytest.raises(ParseError):
            parse_value_list(bad, int)
    # each grid point is a + k * step in exact decimal, rounded once, never past b
    assert parse_value_list("0:0.1:0.3") == [0.0, 0.1, 0.2, 0.3]
    assert parse_value_list("1:0.7:3.1") == [1.0, 1.7, 2.4, 3.1]
    assert parse_value_list("0:1:2.9999999999") == [0.0, 1.0, 2.0]
    assert parse_value_list("0:10:30") == [0.0, 10.0, 20.0, 30.0]
    assert parse_value_list("1:1:7", int) == [1, 2, 3, 4, 5, 6, 7]
    for bad in ("0:1:inf", "nan:1:3", "0:inf:3", "0:1:1e400"):
        with pytest.raises(ParseError, match="finite"):
            parse_value_list(bad)
    # a comma list names its non-finite value
    for bad, kind, value in (("10,nan", float, "nan"), ("5,inf", float, "inf"),
                             ("1, -inf", int, "-inf")):
        with pytest.raises(ParseError, match=f"^value list must be finite, got {value}$"):
            parse_value_list(bad, kind)
    # a grid's point count is checked before any point is built
    assert len(parse_value_list("1:1:100000", int)) == MAX_GRID_POINTS
    for bad, kind in (("0:1e-300:1", float), ("1:1:1e12", int), ("0:1:100000", float)):
        with pytest.raises(ParseError, match=f"more than {MAX_GRID_POINTS} points"):
            parse_value_list(bad, kind)
    for bad, message in (("30:5:0", "^grid end must not precede its start$"),
                         ("1,x", "^cannot parse value list '1,x'$"),
                         (",", "^value list is empty$")):
        with pytest.raises(ParseError, match=message):
            parse_value_list(bad)


def test_design_identity_exhaustive(identity_channel, capsys):
    code = main(["design", "--channel", identity_channel, "--power", "1",
                 "--bound", "1", "--method", "exhaustive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "R_total: 1.000000" in out
    assert "success: yes" in out


def test_design_of_a_zero_channel_prints_no_negative_zero_rate(tmp_path, capsys):
    # a row of energy 1 printed its rate as -0.000000
    path = tmp_path / "zero.txt"
    path.write_text("0 0\n0 0\n")
    assert main(["design", "--channel", str(path), "--power", "1"]) == 0
    assert "per-stream rates: 0.000000 -0.500000\n" in capsys.readouterr().out


def test_design_nonsquare_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 0\n0 1 0\n")
    code = main(["design", "--channel", str(path), "--power", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_design_malformed_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 0\n0 oops\n")
    code = main(["design", "--channel", str(path), "--power", "1"])
    assert code == 1
    assert "line 2" in capsys.readouterr().err


def test_design_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_bytes(b"\xff\xfe1 0\n0 1\n")
    assert main(["design", "--channel", str(path), "--power", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"ifrx: error: {path} is not UTF-8 text")


def test_design_negative_power_exits_1(identity_channel, capsys):
    code = main(["design", "--channel", identity_channel, "--power", "-1"])
    assert code == 1
    capsys.readouterr()


def test_design_reads_a_negative_power_in_exponent_form(identity_channel, capsys):
    # argparse took "-1e3" for an option and reported --power without its value
    assert main(["design", "--channel", identity_channel, "--power", "-1e3"]) == 1
    assert capsys.readouterr().err == "ifrx: error: power must be positive and finite\n"


@pytest.mark.parametrize("flags", [["--snr-db", "-10:5:30"], ["--snr-db", "-10,0"],
                                   ["--snr-db", "-1e3"], ["--snr-db", "-.5"],
                                   ["--sweep", "snr", "--sweep-values", "-5,5"]],
                         ids=["grid", "list", "exponent", "point", "sweep-values"])
def test_a_value_with_a_leading_minus_reads_as_its_equals_spelling(tmp_path, capsys, flags):
    base = ["simulate", "--l", "2", "--trials", "2", "--methods", "if-sdm,mmse,zf,capacity"]
    spellings = [flags, [*flags[:-2], f"{flags[-2]}={flags[-1]}"]]
    outputs = []
    for k, spelling in enumerate(spellings):
        out_csv = tmp_path / f"{k}.csv"
        assert main([*base, *spelling, "--out", str(out_csv)]) == 0
        outputs.append((out_csv.read_bytes(), capsys.readouterr().out.replace(str(out_csv), "OUT")))
    assert outputs[0] == outputs[1]


def test_a_token_that_starts_with_a_minus_and_a_letter_is_still_an_option(tmp_path, capsys):
    code = main(["simulate", "--l", "2", "--snr-db", "-x", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "argument --snr-db: expected one argument" in capsys.readouterr().err


def test_design_infinite_power_exits_1(identity_channel, capsys):
    code = main(["design", "--channel", identity_channel, "--power", "inf"])
    assert code == 1
    assert "ifrx: error:" in capsys.readouterr().err


def test_simulate_infinite_snr_exits_1(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code = main(["simulate", "--l", "4", "--trials", "2", "--snr-db", "inf",
                 "--out", str(out_csv)])
    assert code == 1
    assert "ifrx: error:" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("spec", ["0:1:inf", "nan:1:3", "0:x:3"])
def test_simulate_bad_grid_spec_exits_1(tmp_path, capsys, spec):
    out_csv = tmp_path / "x.csv"
    code = main(["simulate", "--l", "3", "--trials", "2", "--snr-db", spec, "--out", str(out_csv)])
    assert code == 1
    assert "ifrx: error: grid spec must be" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("snr", [["--snr-db", "4000"], ["--sweep", "snr", "--sweep-values", "4000"]],
                         ids=["grid", "sweep-values"])
def test_simulate_overflowing_snr_exits_1(tmp_path, capsys, snr):
    # 10^400 overflows a float before the channel could reject the power
    out_csv = tmp_path / "x.csv"
    code = main(["simulate", "--l", "3", "--trials", "2", *snr, "--out", str(out_csv)])
    assert code == 1
    assert "ifrx: error:" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--l", "8", "--bound", str(2**63)],
    ["simulate", "--l", "8", "--sweep", "bound", "--sweep-values", "1,1e30"],
    ["design", "--method", "exhaustive", "--bound", str(2**63)],
    ["design", "--method", "sdm", "--bound", str(2**63)],
    # a channel of L^2 entries past the limit; the default J = ceil(L/2) is
    # worked in integers, so a 401-digit L does not overflow a float first
    ["simulate", "--l", "100000"],
    ["simulate", "--l", str(10**20)],
    ["simulate", "--l", str(10**400)],
], ids=["simulate", "bound-sweep", "design-exhaustive", "design-sdm", "l-1e5", "l-1e20",
        "l-401-digits"])
def test_huge_bound_exits_1_before_building_arrays(tmp_path, capsys, identity_channel, argv):
    out_csv = tmp_path / "x.csv"
    if argv[0] == "simulate":
        argv = [*argv, "--trials", "1", "--snr-db", "10", "--out", str(out_csv)]
    else:
        argv = [*argv, "--channel", identity_channel, "--power", "4"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ifrx: error:") and "over the limit" in err
    assert "Traceback" not in err
    assert not out_csv.exists()


def test_design_validates_lines(identity_channel, capsys):
    code = main(["design", "--channel", identity_channel, "--power", "4", "--method", "exhaustive",
                 "--lines", "5"])
    assert code == 1
    assert "ifrx: error: --lines must be in [1, 1] for L = 2" in capsys.readouterr().err


def test_design_rejects_a_1x1_channel(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("3\n")
    assert main(["design", "--channel", str(path), "--power", "1"]) == 1
    assert "ifrx: error: channel matrix must be at least 2x2, got 1x1" in capsys.readouterr().err


def test_design_missing_file_exits_1(capsys):
    code = main(["design", "--channel", "/nonexistent/h.txt", "--power", "1"])
    assert code == 1
    capsys.readouterr()


def find_fallback_channel():
    # scan seeded channels for one where the J=1 candidate line cannot
    # reach full rank, so the CLI takes the fallback exit path
    for t in range(500):
        h = sample_channel(404, t, 8)
        ch = ChannelRealization(h=h, power=100.0)
        design = design_if(ch, SearchConfig(bound_m=1, lines_j=1), "sdm")
        if design.method == METHOD_FALLBACK:
            return h
    return None


def test_design_fallback_exits_2(tmp_path, capsys):
    h = find_fallback_channel()
    assert h is not None, "no fallback channel found in the scanned seeds"
    path = tmp_path / "fallback.txt"
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in h) + "\n")
    code = main(["design", "--channel", str(path), "--power", "100",
                 "--bound", "1", "--lines", "1", "--method", "sdm"])
    out = capsys.readouterr().out
    assert code == 2
    assert "success: no" in out
    assert "mmse-identity-fallback" in out


@pytest.mark.parametrize("fallback,argv,code", [
    (False, ["--method", "sdm"], 0),
    (False, ["--method", "exhaustive"], 0),
    (True, ["--bound", "1", "--lines", "1"], 2),
])
def test_design_prints_the_projection_of_the_a_it_prints(tmp_path, capsys, fallback, argv, code):
    # the README's library channel, or one whose design falls back
    h = find_fallback_channel() if fallback else [[0.9, 0.3], [-0.2, 1.1]]
    path = tmp_path / "h.txt"
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row) for row in h) + "\n")
    assert main(["design", "--channel", str(path), "--power", "100"] + argv) == code
    lines = capsys.readouterr().out.splitlines()
    top = lines.index("A (integer rows):") + 1
    ch = ChannelRealization(h=load_matrix(str(path)), power=100.0)
    a = [[int(c) for c in line.split()] for line in lines[top:top + ch.l]]
    assert lines[top + ch.l] == "B (projection rows):"
    want = ["  " + " ".join(f"{v:.6g}" for v in row) for row in optimal_projection(a, ch)]
    assert lines[top + ch.l + 1:top + 2 * ch.l + 1] == want


def test_unknown_flag_exits_1(capsys):
    assert main(["design", "--channe1", "x", "--power", "1"]) == 1
    capsys.readouterr()


def test_simulate_grid_and_rows(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    code = main(["simulate", "--l", "4", "--snr-db", "0:5:10", "--trials", "10",
                 "--bound", "2", "--lines", "2", "--seed", "42", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    # 4 default methods x 3 SNR points + header
    assert len(lines) == 1 + 4 * 3
    stdout = capsys.readouterr().out
    assert "if-sdm" in stdout


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    args = ["simulate", "--l", "3", "--snr-db", "0,10", "--trials", "5",
            "--bound", "1", "--lines", "1", "--seed", "7",
            "--methods", "if-sdm,mmse"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_simulate_validates_lines(tmp_path, capsys):
    code = main(["simulate", "--l", "4", "--lines", "9", "--trials", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "lines_j" in capsys.readouterr().err


def test_simulate_repeated_method_exits_1(tmp_path, capsys):
    # both copies once filed their records under one key, doubling `trials`
    out_csv = tmp_path / "x.csv"
    code = main(["simulate", "--l", "4", "--snr-db", "10", "--trials", "3",
                 "--methods", "if-sdm,mmse,if-sdm", "--out", str(out_csv)])
    assert code == 1
    assert "ifrx: error: method 'if-sdm' is repeated" in capsys.readouterr().err
    assert not out_csv.exists()


def test_simulate_rejects_seed_wider_than_64_bits(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    code = main(["simulate", "--l", "3", "--trials", "1", "--lines", "1", "--snr-db", "10",
                 "--seed", str(2**64 + 1), "--out", str(out_csv)])
    assert code == 1
    assert "64-bit" in capsys.readouterr().err
    assert not out_csv.exists()


def test_simulate_prime_range(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    base = ["simulate", "--l", "3", "--trials", "1", "--lines", "1", "--snr-db", "10",
            "--methods", "if-sdm", "--out", str(out_csv)]
    for prime in (2**64, 2**64 + 13):
        assert main(base + ["--prime", str(prime)]) == 1
        assert "2^64" in capsys.readouterr().err
        assert not out_csv.exists()
    assert main(base + ["--prime", str(2**61 - 1)]) == 0
    assert out_csv.exists()


def test_simulate_negative_prime_exits_1(tmp_path, capsys):
    out_csv = tmp_path / "x.csv"
    base = ["simulate", "--l", "3", "--trials", "1", "--lines", "1", "--snr-db", "10",
            "--methods", "if-sdm", "--out", str(out_csv)]
    assert main(base + ["--prime", "-7"]) == 1
    assert "--prime" in capsys.readouterr().err
    assert not out_csv.exists()


def test_simulate_prime_0_disables_the_check(tmp_path, capsys, monkeypatch):
    # the aggregate CSV has no column for the mod-p flag, so the prime moves no byte
    configs, inner = [], ifrx.cli.run_sweep
    monkeypatch.setattr(ifrx.cli, "run_sweep", lambda cfg, *args: configs.append(cfg)
                        or inner(cfg, *args))
    texts = []
    for prime in ("0", "257"):
        out_csv = tmp_path / f"x{prime}.csv"
        assert main(["simulate", "--l", "3", "--trials", "2", "--lines", "1", "--snr-db", "10",
                     "--methods", "if-sdm", "--prime", prime, "--out", str(out_csv)]) == 0
        texts.append(out_csv.read_bytes())
    assert configs[0].prime_p is None and configs[1].prime_p == 257
    assert texts[0] == texts[1]
    capsys.readouterr()


def test_parser_is_built_once_per_process(tmp_path, capsys):
    build_parser.cache_clear()
    argv = ["simulate", "--l", "2", "--trials", "1", "--lines", "1", "--snr-db", "10",
            "--methods", "zf", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert build_parser.cache_info().misses == 1
    # a usage error on the reused parser still exits 1
    assert main(["simulate", "--l", "2", "--bogus"]) == 1
    assert main(["simulate", "--l", "2"]) == 1
    capsys.readouterr()


def test_simulate_lines_sweep_requires_values(tmp_path, capsys):
    code = main(["simulate", "--l", "4", "--trials", "2", "--sweep", "lines",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("sweep,column", [("lines", "lines_j"), ("bound", "bound_m")])
def test_simulate_summary_names_the_last_sweep_value(tmp_path, capsys, sweep, column):
    out_csv = tmp_path / "s.csv"
    code = main(["simulate", "--l", "6", "--trials", "20", "--snr-db", "10,20", "--seed", "3",
                 "--methods", "if-sdm,mmse", "--sweep", sweep, "--sweep-values", "1:1:3",
                 "--out", str(out_csv)])
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    stdout = capsys.readouterr().out
    for method in ("if-sdm", "mmse"):
        row = next(r for r in rows if r["method"] == method
                   and r["sweep_value"] == "3" and r["snr_db"] == "20.0")
        assert (f"{method}: avg min-form rate {float(row['avg_rate_min']):.4f} at {column}=3, 20 dB "
                f"(success prob {float(row['success_prob']):.3f})") in stdout


def test_simulate_unwritable_path_exits_1(capsys):
    code = main(["simulate", "--l", "3", "--trials", "2", "--lines", "1",
                 "--snr-db", "10", "--out", "/nonexistent/dir/r.csv"])
    assert code == 1
    capsys.readouterr()


def test_plot_three_series(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    main(["simulate", "--l", "3", "--snr-db", "0,10,20", "--trials", "4",
          "--lines", "1", "--bound", "1", "--seed", "3",
          "--methods", "zf,mmse,if-sdm", "--out", str(out_csv)])
    out_svg = tmp_path / "r.svg"
    code = main(["plot", "--in", str(out_csv), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method",
                 "--title", "rates"])
    assert code == 0
    svg = out_svg.read_text()
    assert svg.count("<polyline") == 3
    assert svg.count("viewBox=\"0 0 800 600\"") == 1
    assert "rates" in svg
    capsys.readouterr()


def test_plot_single_row_uses_markers(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("method,snr_db,avg_rate_min\nmmse,10.0,1.5\n")
    out_svg = tmp_path / "one.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 0
    svg = out_svg.read_text()
    assert "<polyline" not in svg
    assert svg.count("<circle") == 1
    capsys.readouterr()


@pytest.mark.parametrize("rows", ["a,-1e308,1.0\na,1e308,2.0\nb,0,1.5",
                                  "a,0,-1e308\na,1,1e308\nb,0.5,1.5"], ids=["x", "y"])
def test_plot_span_past_the_float_range(tmp_path, capsys, rows):
    # max - min overflowed to inf, and the SVG drew nan coordinates
    csv_path = tmp_path / "span.csv"
    csv_path.write_text(f"method,snr_db,avg_rate_min\n{rows}\n")
    out_svg = tmp_path / "span.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 0
    svg = out_svg.read_text()
    assert "nan" not in svg and "inf" not in svg
    xml.dom.minidom.parse(str(out_svg))
    # series b's point lies midway along both axes, one of which overflowed
    assert '<circle cx="350.00" cy="295.00" r="3" fill="#d62728"/>' in svg
    capsys.readouterr()


def test_plot_header_only_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("method,snr_db,avg_rate_min\n")
    code = main(["plot", "--in", str(csv_path), "--out", str(tmp_path / "x.svg"),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    assert "no data rows" in capsys.readouterr().err
    # an empty file has no header row either
    csv_path.write_text("")
    code = main(["plot", "--in", str(csv_path), "--out", str(tmp_path / "x.svg"),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    assert f"ifrx: error: no header row in {csv_path}" in capsys.readouterr().err


def test_render_line_chart_refuses_no_rows():
    for series in ([], [("mmse", [])]):
        with pytest.raises(InvalidInputError, match="^no data rows to plot$"):
            ifrx.chart.render_line_chart(series, x_label="x", y_label="y")


def test_plot_missing_column_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("method,snr_db\nmmse,10.0\n")
    code = main(["plot", "--in", str(csv_path), "--out", str(tmp_path / "x.svg"),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    assert "avg_rate_min" in capsys.readouterr().err


def test_plot_non_utf8_file_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    csv_path.write_bytes(b"\xff\xfemethod,snr_db,avg_rate_min\nmmse,10.0,1.5\n")
    code = main(["plot", "--in", str(csv_path), "--out", str(tmp_path / "x.svg"),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"ifrx: error: {csv_path} is not UTF-8 text")


def test_plot_field_past_the_csv_limit_exits_1(tmp_path, capsys):
    # csv refuses a field of more than csv.field_size_limit() characters
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("method,snr_db,avg_rate_min\nmmse,0.0,1.0\n" + "m" * 200_000 + ",10.0,2.0\n")
    out_svg = tmp_path / "r.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"ifrx: error: line 3 of {csv_path} is not CSV")
    assert not out_svg.exists()


@pytest.mark.parametrize("series,title,what", [
    ("mm\x01se", "", "series name holds U+0001"),
    (None, "a\x07b", "title holds U+0007"),
])
def test_plot_text_xml_does_not_allow_exits_1(tmp_path, capsys, series, title, what):
    # the SVG such a character reached was not well-formed XML
    csv_path = Path(__file__).parent / "data" / "sdm_snr_l8.csv"
    if series is not None:
        csv_path = tmp_path / "r.csv"
        csv_path.write_text(f"method,snr_db,avg_rate_min\n{series},0.0,1.0\n{series},10.0,2.0\n")
    out_svg = tmp_path / "r.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg), "--x", "snr_db",
                 "--y", "avg_rate_min", "--series", "method", "--title", title])
    assert code == 1
    assert capsys.readouterr().err == f"ifrx: error: {what}, which XML 1.0 forbids\n"
    assert not out_svg.exists()


@pytest.mark.parametrize("row", ["1", "mmse,10.0", "mmse,10.0,1.5,2"])
def test_plot_row_without_one_field_per_column_exits_1(tmp_path, capsys, row):
    # a short row read as None: a TypeError, or a series named None
    csv_path = tmp_path / "r.csv"
    csv_path.write_text(f"method,snr_db,avg_rate_min\nmmse,0.0,1.0\n{row}\n")
    out_svg = tmp_path / "r.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    assert f"line 3 of {csv_path} does not have the header's 3 fields" in capsys.readouterr().err
    assert not out_svg.exists()


@pytest.mark.parametrize("column, value", [
    ("snr_db", "inf"), ("snr_db", "nan"), ("avg_rate_min", "-inf"), ("avg_rate_min", "nan"),
])
def test_plot_non_finite_value_exits_1(tmp_path, capsys, column, value):
    rows = {"snr_db": ["0.0", "10.0", "20.0"], "avg_rate_min": ["1.0", "2.0", "3.0"]}
    rows[column][1] = value
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("method,snr_db,avg_rate_min\n" + "".join(
        f"mmse,{x},{y}\n" for x, y in zip(rows["snr_db"], rows["avg_rate_min"])))
    out_svg = tmp_path / "r.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ifrx: error:")
    assert f"column {column!r}" in err
    assert not out_svg.exists()


def test_plot_non_numeric_value_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("method,snr_db,avg_rate_min\nmmse,0.0,1.0\nmmse,10.0,abc\n")
    out_svg = tmp_path / "r.svg"
    code = main(["plot", "--in", str(csv_path), "--out", str(out_svg),
                 "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "ifrx: error: non-numeric value in column 'snr_db' or 'avg_rate_min'\n"
    assert not out_svg.exists()


def test_plot_is_byte_deterministic(tmp_path, capsys):
    out_csv = tmp_path / "r.csv"
    main(["simulate", "--l", "3", "--snr-db", "0,10", "--trials", "3",
          "--lines", "1", "--seed", "9", "--methods", "mmse,zf", "--out", str(out_csv)])
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (svg1, svg2):
        assert main(["plot", "--in", str(out_csv), "--out", str(target),
                     "--x", "snr_db", "--y", "avg_rate_min", "--series", "method"]) == 0
    capsys.readouterr()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_import_loads_no_network_or_xml_module():
    # numpy itself loads urllib.parse (through pathlib), so the package is
    # measured by what it adds to a bare numpy import
    families = ("xml", "urllib", "http", "email", "ssl", "socket")
    script = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import ifrx, ifrx.cli\n"
        f"print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in {families!r}))"
    )
    src = str(Path(ifrx.chart.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_plot_escapes_text_as_saxutils_does(tmp_path, capsys, monkeypatch):
    x, y = 'snr "dB" & <x>', "rate 'min' > 0 & < 9"
    csv_path = tmp_path / "r.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", x, y])
        writer.writerows([["a&b", 0, 1], ["a&b", 10, 2], ["<i>'q'\"", 0, 3], ["x>y", 5, 0.5]])
    argv = ["plot", "--in", str(csv_path), "--x", x, "--y", y, "--series", "method",
            "--title", "IF & \"MMSE\" <rates> 'L'"]
    assert main(argv + ["--out", str(tmp_path / "local.svg")]) == 0
    monkeypatch.setattr(ifrx.chart, "_escape", escape)
    assert main(argv + ["--out", str(tmp_path / "oracle.svg")]) == 0
    capsys.readouterr()
    svg = (tmp_path / "local.svg").read_bytes()
    assert svg == (tmp_path / "oracle.svg").read_bytes()
    assert b"IF &amp; \"MMSE\" &lt;rates&gt; 'L'" in svg and b"&lt;i&gt;'q'\"" in svg
