import warnings
from fractions import Fraction

import pytest

from involucalc.algebra import GaussRat, Poly
from involucalc.cli import (
    DimensionMismatch,
    LIMITS,
    NonRealPhi,
    ParseError,
    format_poly,
    main,
    parse_structure,
    run_report,
    serialize_structure,
)

CROSSING_FILE = """
# two first integrals over one t variable
[dims]
nu = 0 d = 2 mu = 1

[phi]
t1^3/3          # s1 + i t^3/3
t1^2/2          # s2 + i t^2/2

[kernel]
t1, -t1^2

[candidate]
s1 = 3*s1
s2 = 2*s2
t1 = t1
"""

THREE_QUADRICS_FILE = """
[dims]
nu = 0 d = 3 mu = 2
[phi]
t1^2
t1*t2
t2^2
"""

ELLIPTIC_FILE = """
[dims]
nu = 1 d = 0 mu = 0
"""


def test_parse_crossing_file():
    sf = parse_structure(CROSSING_FILE)
    assert (sf.sdef.nu, sf.sdef.d, sf.sdef.mu) == (0, 2, 1)
    vars = sf.sdef.vars
    assert sf.sdef.phi[0] == Poly.var(vars, "t1", 3) * Fraction(1, 3)
    assert sf.kernel is not None and len(sf.kernel) == 1
    assert len(sf.candidates) == 1
    assert sf.candidates[0]["s1"] == Poly.var(vars, "s1") * 3
    # the [fbi] block as the README and the module docstring show it
    sf = parse_structure(CROSSING_FILE + "[fbi]\ndata = boundary\ndelta = 1/40\nkappa = 1\nradii = 6/5:120:7\n")
    assert (sf.fbi.data, sf.fbi.delta, sf.fbi.radii) == ("boundary", Fraction(1, 40), "6/5:120:7")


def test_parse_error_double_caret():
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^^2\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert exc.value.line == 4


def test_parse_error_reports_position():
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2 + $\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert exc.value.line == 4
    assert exc.value.col == 8


def test_parse_error_zero_denominator_position():
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n[fbi]\ndelta = 1/0\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert (exc.value.line, exc.value.col) == (6, 11)


@pytest.mark.parametrize(
    "block, col",
    [
        ("[approx]\nbox = -1\n", 7),
        ("[approx]\nbox = 0\n", 7),
        ("[fbi]\nhalfwidth = 0\n", 13),
        ("[fbi]\nkappa = 0\n", 9),
        ("[fbi]\nkappa = -1\n", 9),
    ],
)
def test_parse_error_nonpositive_width_position(block, col):
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n" + block
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert (exc.value.line, exc.value.col) == (6, col)
    assert "positive" in str(exc.value)


@pytest.mark.parametrize(
    "body, line, col",
    [
        ("[phi]\nt1^2 + s1*t1^100000\n", 4, 14),
        ("[phi]\nt1^65\n", 4, 4),
        ("[phi]\nt1^2\n[fbi]\ngrid = 1025\n", 6, 8),
        ("[phi]\nt1^2\n[approx]\nnx = 3\ngrid = 39\n", 7, 8),
        ("[phi]\nt1^2\n[approx]\ngrid = 39\nnx = 3\n", 7, 6),
    ],
)
def test_parse_error_limit_position(body, line, col):
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n" + body
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize(
    "block, col, message",
    [
        ("[approx]\nbox = 1" + "0" * 400 + "\n", 7, "too large"),
        ("[fbi]\nhalfwidth = 1" + "0" * 400 + "\n", 13, "too large"),
        ("[fbi]\nkappa = 1" + "0" * 400 + "/3\n", 9, "too large"),
        ("[fbi]\ndelta = -1" + "0" * 400 + "\n", 9, "too large"),
        # positive as rationals, but 0.0 as the floats the numerics sample with
        ("[approx]\nbox = 1/1" + "0" * 400 + "\n", 7, "too small"),
        ("[fbi]\nhalfwidth = 1/1" + "0" * 400 + "\n", 13, "too small"),
    ],
    ids=["approx-box", "fbi-halfwidth", "fbi-kappa", "fbi-delta", "approx-box-zero", "fbi-halfwidth-zero"],
)
def test_parse_error_float_overflow_position(block, col, message):
    # the numerics read these rationals as floats
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n" + block
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert (exc.value.line, exc.value.col) == (6, col)
    assert f"{message} for a float" in str(exc.value)


@pytest.mark.parametrize(
    "spec, col, message",
    [
        ("1:1" + "0" * 400 + ":7", 11, "number too large for a float"),
        ("1:2:3", 13, "expected an integer from 4 to 64"),
        ("1:2:65", 13, "expected an integer from 4 to 64"),
        ("6/5:120:7:9", 18, "expected lo:hi:count"),
        ("1/0:2:3", 11, "zero denominator"),
        ("1::7", 11, "expected lo:hi:count"),
        ("1:2", 12, "expected lo:hi:count"),
        ("0:1:5", 9, "expected a positive number"),
        ("2:1:5", 11, "expected hi > lo"),
        ("1/1" + "0" * 300 + ":1" + "0" * 300 + ":7", 9, "hi / lo or a radius overflows a float"),
    ],
    ids=["hi-401-digits", "count-3", "count-65", "four-fields", "zero-denominator",
         "empty-hi", "no-count", "lo-zero", "hi-below-lo", "ratio-overflow"],
)
def test_parse_error_radii_position(spec, col, message):
    # a spec the scan would reject, or whose float overflows, fails at parse time
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n[fbi]\nradii = " + spec + "\n"
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert (exc.value.line, exc.value.col) == (6, col)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "body, line, col",
    [
        ("[bundle]\nrank = 1\nsection =\n", 7, 10),
        ("[bundle]\nrank = 2\nsection = t1, , 1\n", 7, 15),
        ("[bundle]\nrank = 2\nsection = t1,\n", 7, 14),
        ("[approx]\nb = , t\n", 6, 5),
    ],
    ids=["nothing-after-equals", "empty-group", "trailing-comma", "leading-comma"],
)
def test_parse_error_empty_expression_position(body, line, col):
    # after the '=' or ',' before the empty expression, or at the ',' ending it
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n" + body
    with pytest.raises(ParseError) as exc:
        parse_structure(bad)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert "empty expression" in str(exc.value)


def test_parse_error_dimension_limit_position():
    with pytest.raises(ParseError) as exc:
        parse_structure("[dims]\nnu = 100 d = 1 mu = 1\n[phi]\nt1^2\n")
    assert (exc.value.line, exc.value.col) == (2, 6)
    assert "from 0 to 7" in str(exc.value)


def test_grammar_limits_admit_their_bounds():
    # the largest admitted values parse; the limits are inclusive
    text = (
        "[dims]\nnu = 0 d = 1 mu = 7\n[phi]\nt1^64\n"
        "[bundle]\nrank = 7\n"
        "[approx]\nnx = 2\norder = 16\ngrid = 65\n"
        "[fbi]\ngrid = 1024\ndirs = 256\n"
    )
    sf = parse_structure(text)
    assert (sf.sdef.mu, sf.bundle.rank, sf.approx.grid, sf.fbi.grid, sf.fbi.dirs) == (
        7, 7, 65, 1024, 256
    )


def test_dimension_mismatch():
    bad = "[dims]\nnu = 0 d = 2 mu = 1\n[phi]\nt1^2\nt1^3\nt1^4\n"
    with pytest.raises(DimensionMismatch):
        parse_structure(bad)


def test_non_real_phi():
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\ni*t1^2\n"
    with pytest.raises(NonRealPhi):
        parse_structure(bad)


def test_unknown_variable_rejected():
    bad = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2 + q7\n"
    with pytest.raises(ParseError):
        parse_structure(bad)


def test_rational_and_complex_coefficients_roundtrip():
    vars = ("s1", "t1")
    p = (
        Poly.var(vars, "t1", 2) * GaussRat(Fraction(3, 2), Fraction(-1, 4))
        + Poly.var(vars, "s1") * GaussRat(0, 1)
        + Poly.const(vars, Fraction(-7, 5))
    )
    text = format_poly(p)
    from involucalc.cli import _tokenize_line, parse_poly_tokens

    q = parse_poly_tokens(_tokenize_line(text, 1), vars)
    assert q == p


def test_roundtrip_identity():
    sf = parse_structure(CROSSING_FILE)
    text = serialize_structure(sf)
    sf2 = parse_structure(text)
    assert sf == sf2
    assert serialize_structure(sf2) == text


def test_roundtrip_fbi_default_radii():
    # an [fbi] block without a radii line serializes the default spec, which
    # must itself parse
    sf = parse_structure("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n[fbi]\ndata = gaussian\n")
    sf2 = parse_structure(serialize_structure(sf))
    assert sf2 == sf
    assert sf2.fbi.radii == sf.fbi.radii


# -- reports -----------------------------------------------------------------------


def test_report_crossing_values():
    sf = parse_structure(CROSSING_FILE)
    report = run_report(sf, {"k_max": 8, "covectors": []})
    machine = report.machine_text()
    assert "hull.nondeg_order = 2" in machine
    assert "loci.degeneracy = yes" in machine
    assert "autosys.candidate1 = automorphism" in machine
    human = report.human_text()
    assert human.startswith("involucalc-report v1")


def test_report_three_quadrics():
    sf = parse_structure(THREE_QUADRICS_FILE)
    report = run_report(sf, {"k_max": 8, "covectors": []})
    machine = report.machine_text()
    assert "loci.exceptional = yes" in machine
    assert "hull.nondeg_order = 2" in machine


def test_report_elliptic_skips_levi():
    sf = parse_structure(ELLIPTIC_FILE)
    report = run_report(sf, {"k_max": 4, "covectors": []})
    machine = report.machine_text()
    assert "characteristic_dim = 0" in machine
    assert "levi." not in machine


def test_report_deterministic():
    sf = parse_structure(CROSSING_FILE)
    r1 = run_report(sf, {"k_max": 8, "covectors": []})
    r2 = run_report(parse_structure(CROSSING_FILE), {"k_max": 8, "covectors": []})
    assert r1.human_text() == r2.human_text()
    assert r1.machine_text() == r2.machine_text()


def test_report_with_covector():
    text = "[dims]\nnu = 0 d = 1 mu = 2\n[phi]\nt1^2/2 - t2^2/2\n"
    sf = parse_structure(text)
    report = run_report(sf, {"k_max": 4, "covectors": ["s1=1"]})
    assert "1,1,0" in report.machine_text()


# -- command line ---------------------------------------------------------------------


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_analyze(tmp_path, capsys):
    f = tmp_path / "crossing.struct"
    f.write_text(CROSSING_FILE)
    code, out, err = run_cli(["analyze", str(f)], capsys)
    assert code == 0
    assert "involucalc-report v1" in out
    assert "nondegeneracy order: 2" in out


def test_cli_analyze_machine_and_csv(tmp_path, capsys):
    f = tmp_path / "crossing.struct"
    f.write_text(CROSSING_FILE)
    outdir = tmp_path / "artifacts"
    code, out, err = run_cli(
        ["analyze", str(f), "--machine", "--csv", str(outdir)], capsys
    )
    assert code == 0
    assert (outdir / "report.kv").exists()
    assert "hull.nondeg_order = 2" in out


MINIMAL_FILE = "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2\n"
APPROX_FILE = MINIMAL_FILE + "[approx]\norder = 2\ngrid = 5\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        ("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^^2\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\ndelta = 1/0\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\nkappa = -3/0\n", ["wavefront"]),
        (MINIMAL_FILE, ["analyze", "--covector", "s1=abc"]),
        (MINIMAL_FILE, ["analyze", "--covector", "s1=1/0"]),
        (MINIMAL_FILE, ["wavefront", "--kappa", "1/0"]),
        (MINIMAL_FILE, ["wavefront", "--radii", "1/0:120:7"]),
        (MINIMAL_FILE + "[bundle]\nD x 1 1 = t1\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nlambda a 1 = 1\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nD 0 1 1 = t1\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nD 3 1 1 = t1\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nrank = 1\nlambda 1 1 = 1\nlambda 2 2 = 5\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nrank = 1/2\n", ["analyze"]),
        (MINIMAL_FILE + "[approx]\nnx = 1/2\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\norder = -1\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\ngrid = 0\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\ndirs = 3/2\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\ngrid = x1\n", ["wavefront"]),
        (MINIMAL_FILE + "[approx]\nbox = -1\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\nbox = 0\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\nhalfwidth = 0\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\nhalfwidth = -1/2\n", ["analyze"]),
        (MINIMAL_FILE, ["analyze", "--kmax", "-1"]),
        (MINIMAL_FILE, ["autosys", "--kmax", "-1"]),
        (MINIMAL_FILE, ["analyze", "--kmax", "100000"]),
        (MINIMAL_FILE, ["autosys", "--kmax", "21"]),
        ("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\n((t1^64)^64)^64\n", ["analyze"]),
        ("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\n" + " * ".join(["(t1^64)^64"] * 8) + "\n", ["autosys"]),
        (MINIMAL_FILE, ["wavefront", "--dirs", "0"]),
        (MINIMAL_FILE, ["wavefront", "--dirs", "-2"]),
        (APPROX_FILE, ["approx", "--box", "-1"]),
        (APPROX_FILE, ["approx", "--box", "0"]),
        (APPROX_FILE, ["approx", "--box", "nan"]),
        (APPROX_FILE, ["approx", "--grid", "0"]),
        (APPROX_FILE, ["approx", "--order", "-1"]),
        ("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^100000\n", ["analyze"]),
        ("[dims]\nnu = 100 d = 1 mu = 1\n[phi]\nt1^2\n", ["analyze"]),
        ("[dims]\nnu = 0 d = 1 mu = 8\n[phi]\nt1^2\n", ["autosys"]),
        (MINIMAL_FILE + "[fbi]\ngrid = 100000\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\ndirs = 100000\n", ["analyze"]),
        (MINIMAL_FILE + "[approx]\ngrid = 100000\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\nnx = 4\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\nnx = 3\ngrid = 65\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\norder = 100\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nrank = 8\n", ["analyze"]),
        (APPROX_FILE, ["approx", "--grid", "100000"]),
        (MINIMAL_FILE + "[approx]\nnx = 3\ngrid = 5\n", ["approx", "--grid", "65"]),
        (APPROX_FILE, ["approx", "--order", "100"]),
        (MINIMAL_FILE, ["wavefront", "--dirs", "100000"]),
        (MINIMAL_FILE, ["wavefront", "--radii", "1:100:100000"]),
        (MINIMAL_FILE + "[approx]\nbox = 1" + "0" * 400 + "\n", ["approx"]),
        (MINIMAL_FILE + "[approx]\nbox = 1" + "0" * 400 + "\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\nhalfwidth = 1" + "0" * 400 + "\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\nkappa = 1" + "0" * 400 + "\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\nsigma = -1" + "0" * 400 + "\n", ["wavefront"]),
        (MINIMAL_FILE, ["wavefront", "--kappa", "1" + "0" * 400]),
        (MINIMAL_FILE + "[approx]\nbox = 1/1" + "0" * 400 + "\n", ["approx"]),
        (MINIMAL_FILE + "[fbi]\nhalfwidth = 1/1" + "0" * 400 + "\n", ["wavefront"]),
        (MINIMAL_FILE + "[bundle]\nsection =\n", ["analyze"]),
        (MINIMAL_FILE + "[bundle]\nrank = 2\nsection = t1, , 1\n", ["analyze"]),
        ("[dims]\nnu = 0 d = 2 mu = 1\n[phi]\nt1^2\nt1^3\n[kernel]\n, t1\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\nradii = 1:1" + "0" * 400 + ":7\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\nradii = 1:1" + "0" * 400 + ":7\n", ["analyze"]),
        (MINIMAL_FILE, ["wavefront", "--radii", "1:1e400:7"]),
        (MINIMAL_FILE + "[fbi]\nradii = 1:2:3\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\nradii = 6/5:120:7:9\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\nradii = 1/0:2:3\n", ["analyze"]),
        (MINIMAL_FILE + "[fbi]\nradii = 1/1" + "0" * 300 + ":1" + "0" * 300 + ":7\n", ["wavefront"]),
        (MINIMAL_FILE, ["wavefront", "--radii", "1e-300:1e300:7"]),
        (MINIMAL_FILE + "[fbi]\nkappa = 0\n", ["wavefront"]),
        (MINIMAL_FILE + "[fbi]\nkappa = -1\n", ["analyze"]),
        (MINIMAL_FILE, ["wavefront", "--kappa", "0"]),
        (MINIMAL_FILE, ["wavefront", "--kappa", ""]),
        (MINIMAL_FILE, ["wavefront", "--radii", ""]),
    ],
    ids=[
        "double-caret",
        "fbi-delta-zero-denominator",
        "fbi-kappa-zero-denominator",
        "covector-not-a-number",
        "covector-zero-denominator",
        "kappa-zero-denominator",
        "radii-zero-denominator",
        "bundle-d-index-not-integer",
        "bundle-lambda-index-not-integer",
        "bundle-d-index-zero",
        "bundle-d-frame-index-too-large",
        "bundle-lambda-index-above-rank",
        "bundle-rank-fraction",
        "approx-nx-fraction",
        "approx-order-negative",
        "approx-grid-zero",
        "fbi-dirs-fraction",
        "fbi-grid-name",
        "approx-box-negative",
        "approx-box-zero",
        "fbi-halfwidth-zero",
        "fbi-halfwidth-negative",
        "option-kmax-negative",
        "option-autosys-kmax-negative",
        "option-kmax-too-large",
        "option-autosys-kmax-too-large",
        "nested-powers-overflow-degree",
        "product-overflows-degree",
        "option-dirs-zero",
        "option-dirs-negative",
        "option-box-negative",
        "option-box-zero",
        "option-box-nan",
        "option-grid-zero",
        "option-order-negative",
        "exponent-too-large",
        "dims-nu-too-large",
        "dims-mu-too-large",
        "fbi-grid-too-large",
        "fbi-dirs-too-large",
        "approx-grid-too-large",
        "approx-nx-too-large",
        "approx-samples-too-many",
        "approx-order-too-large",
        "bundle-rank-too-large",
        "option-grid-too-large",
        "option-grid-samples-too-many",
        "option-order-too-large",
        "option-dirs-too-large",
        "option-radii-count-too-large",
        "approx-box-401-digits",
        "approx-box-401-digits-analyze",
        "fbi-halfwidth-401-digits",
        "fbi-kappa-401-digits",
        "fbi-sigma-401-digits",
        "option-kappa-401-digits",
        "approx-box-float-zero",
        "fbi-halfwidth-float-zero",
        "bundle-section-empty",
        "bundle-section-empty-group",
        "kernel-empty-group",
        "fbi-radii-401-digits",
        "fbi-radii-401-digits-analyze",
        "option-radii-1e400",
        "fbi-radii-count-3",
        "fbi-radii-four-fields",
        "fbi-radii-zero-denominator",
        "fbi-radii-ratio-overflow",
        "option-radii-ratio-overflow",
        "fbi-kappa-zero",
        "fbi-kappa-negative-analyze",
        "option-kappa-zero",
        "option-kappa-empty",
        "option-radii-empty",
    ],
)
def test_cli_exit_code_on_parse_error(tmp_path, capsys, text, argv):
    f = tmp_path / "bad.struct"
    f.write_text(text)
    code, out, err = run_cli([argv[0], str(f), *argv[1:]], capsys)
    assert code == 1
    assert err.startswith("[cli] ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, line, col",
    [
        ("D 3 1 1 = t1\n", 6, 3),
        ("rank = 1\nlambda 1 1 = 1\nlambda 2 2 = 5\n", 8, 8),
        ("D 1 1 2 = t1\nrank = 1\n", 6, 7),
        ("D 1 2 1 = t1\n", 6, 5),  # default rank nu + d = 1
    ],
)
def test_parse_error_bundle_index_position(body, line, col):
    with pytest.raises(ParseError) as exc:
        parse_structure(MINIMAL_FILE + "[bundle]\n" + body)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert "from 1 to 1" in str(exc.value)


def test_cli_unreadable_file_is_a_cli_error(tmp_path, capsys):
    code, out, err = run_cli(["analyze", str(tmp_path / "missing.struct")], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("[cli] ") and "missing.struct" in err
    (tmp_path / "binary.struct").write_bytes(b"\xff\xfe[dims]\n")
    code, out, err = run_cli(["wavefront", str(tmp_path / "binary.struct")], capsys)
    assert code == 1 and err.startswith("[cli] ")


def test_cli_kmax_limit_is_inclusive(tmp_path, capsys):
    f = tmp_path / "min.struct"
    f.write_text(MINIMAL_FILE)
    code, out, err = run_cli(["analyze", str(f), "--kmax", str(LIMITS["kmax"])], capsys)
    assert code == 0
    assert f"# options: k_max = {LIMITS['kmax']}\n" in out


@pytest.mark.parametrize(
    "command, option",
    [
        ("autosys", ["--covector", "s1=1"]),
        ("autosys", ["--csv", "out"]),
        ("approx", ["--kmax", "3"]),
        ("approx", ["--covector", "s1=1"]),
        ("approx", ["--machine"]),
        ("wavefront", ["--kmax", "3"]),
        ("wavefront", ["--machine"]),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_cli_rejects_options_the_command_ignores(tmp_path, capsys, command, option):
    f = tmp_path / "minimal.struct"
    f.write_text(MINIMAL_FILE)
    with pytest.raises(SystemExit) as exc:
        main([command, str(f), *option])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_autosys(tmp_path, capsys):
    f = tmp_path / "crossing.struct"
    f.write_text(CROSSING_FILE)
    code, out, err = run_cli(["autosys", str(f)], capsys)
    assert code == 0
    assert "automorphism system" in out
    assert "candidate 1: Automorphism" in out


def test_cli_approx(tmp_path, capsys):
    f = tmp_path / "approx.struct"
    f.write_text(
        "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2/2\n"
        "[approx]\nnx = 1\norder = 4\nbox = 1\ngrid = 9\nb = 0 - t\nu0 = x1\n"
    )
    code, out, err = run_cli(["approx", str(f), "--order", "3"], capsys)
    assert code == 0
    assert "R_0" in out
    assert "plateau radius" in out


def test_cli_approx_rejects_nonfinite_samples(tmp_path, capsys):
    # box edges of 1e308 overflow the sample grid into NaN, which a plain
    # max() fold drops: the plan used to read a sampled constant 0 for x1^2
    f = tmp_path / "approx.struct"
    f.write_text(MINIMAL_FILE + "[approx]\nnx = 1\norder = 3\nb = -t\nu0 = x1^2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["approx", str(f), "--box", "1e308"], capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert "[approx] sampled derivative is not finite" in err
    assert "Traceback" not in err
    assert "R_0" not in out


def test_report_header_echoes_block_settings(tmp_path, capsys):
    f = tmp_path / "full.struct"
    f.write_text(
        MINIMAL_FILE + "[approx]\nnx = 1\norder = 3\ngrid = 9\nb = -t\nu0 = x1\n"
        "[fbi]\nkappa = 1\ngrid = 64\ndirs = 2\nradii = 1:100:5\n"
    )
    code, out, err = run_cli(["analyze", str(f)], capsys)
    assert code == 0
    header = out.split("# options:")[0]
    for line in ("kappa = 1", "grid = 9", "scan_grid = 64", "approx_order = 3", "n_dirs = 2", "radii = 1:100:5"):
        assert f"#   {line}\n" in header
    code, out, err = run_cli(["analyze", str(f), "--machine"], capsys)
    assert "config.scan_grid=64\n" in out and "config.radii=1:100:5\n" in out
    # no block: the defaults
    f.write_text(MINIMAL_FILE)
    code, out, err = run_cli(["analyze", str(f)], capsys)
    assert "#   grid = 33\n" in out and "#   radii = 6/5:120:7\n" in out


def test_cli_wavefront_header_echoes_overrides(tmp_path, capsys):
    f = tmp_path / "scan.struct"
    f.write_text(MINIMAL_FILE + "[fbi]\ngrid = 32\ndirs = 4\nradii = 1:100:5\n")
    code, out, err = run_cli(["wavefront", str(f), "--kappa", "1", "--radii", "2:200:4"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "# wavefront kappa 1, dirs 4, radii 2:200:4, grid 32, halfwidth 1/2"


def test_cli_approx_rejects_nonzero_residuals(tmp_path, capsys, monkeypatch):
    # the residual check must hold without assert statements (python -O)
    from involucalc.approx import ApproxSeries

    monkeypatch.setattr(ApproxSeries, "recursion_residuals", lambda self: [(self.coeffs[0][0] + 1,)])
    f = tmp_path / "approx.struct"
    f.write_text("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2/2\n[approx]\nnx = 1\norder = 3\nu0 = x1\n")
    code, out, err = run_cli(["approx", str(f)], capsys)
    assert code == 1
    assert err.startswith("[approx] ") and "residuals" in err


def test_cli_wavefront(tmp_path, capsys):
    f = tmp_path / "scan.struct"
    f.write_text(
        "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2/2\n"
        "[fbi]\ndata = gaussian\nsigma = 3/20\ngrid = 64\ndirs = 4\nradii = 1:100:5\n"
    )
    code, out, err = run_cli(["wavefront", str(f), "--kappa", "1"], capsys)
    assert code == 0
    assert "direction 0" in out


def test_cli_wavefront_with_normal_form(tmp_path, capsys):
    # type {0,1}: the covector ds has a negative Levi eigenvalue
    f = tmp_path / "neg.struct"
    f.write_text(
        "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\n0 - t1^2/2\n"
        "[fbi]\ndata = boundary\ndelta = 1/10\ngrid = 64\ndirs = 2\nradii = 1:100:5\n"
    )
    code, out, err = run_cli(
        ["wavefront", str(f), "--covector", "s1=1", "--kappa", "1"], capsys
    )
    assert code == 0
    assert "normal form witness" in out
    assert "Holds" in out
    assert "warning" in out  # default-scale kappa violates the smallness bound


def test_cli_analyze_runs_numeric_blocks(tmp_path, capsys):
    f = tmp_path / "full.struct"
    f.write_text(
        "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2/2\n"
        "[approx]\nnx = 1\norder = 3\nbox = 1\ngrid = 9\nb = -t\nu0 = x1\n"
        "[fbi]\ndata = gaussian\nsigma = 3/20\ngrid = 64\ndirs = 2\nradii = 1:100:5\n"
    )
    outdir = tmp_path / "csv"
    code, out, err = run_cli(["analyze", str(f), "--csv", str(outdir)], capsys)
    assert code == 0
    assert "approximate solution" in out
    assert "direction scan" in out
    assert (outdir / "approx_samples.csv").exists()
    assert (outdir / "wavefront.csv").exists()
    assert (outdir / "report.kv").exists()


DISK_FILE = """
[dims]
nu = 1 d = 2 mu = 1
[phi]
t1^2/2*(x1^2+y1^2)     # k = 1
t1^3/3*(x1^2+y1^2)     # l = 2
[kernel]
t1^2, -t1
"""


def test_cli_analyze_disk_weighted(tmp_path, capsys):
    f = tmp_path / "disk.struct"
    f.write_text(DISK_FILE)
    code, out, err = run_cli(["analyze", str(f), "--machine"], capsys)
    assert code == 0
    assert "hull.nondeg_order = 5" in out
    assert "loci.exceptional = not_established" in out


def test_cli_analyze_s_dependent(tmp_path, capsys):
    f = tmp_path / "sdep.struct"
    f.write_text("[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2 + t1*s1^2\n")
    code, out, err = run_cli(["analyze", str(f)], capsys)
    assert code == 0
    assert "involucalc-report v1" in out


def test_cli_module_error_exit_code(tmp_path, capsys):
    # a covector that fails the characteristic precondition surfaces as a
    # tagged module error with exit code 1
    f = tmp_path / "cx.struct"
    f.write_text("[dims]\nnu = 1 d = 0 mu = 0\n")
    code, out, err = run_cli(["analyze", str(f), "--covector", "x1=1"], capsys)
    assert code == 1
    assert "[structure]" in err


def test_cli_wavefront_normal_form_unavailable(tmp_path, capsys):
    # positive-definite direction: the scan still runs, the reduction reports
    # unavailability instead of failing
    f = tmp_path / "pos.struct"
    f.write_text(
        "[dims]\nnu = 0 d = 1 mu = 1\n[phi]\nt1^2/2\n"
        "[fbi]\ndata = gaussian\ngrid = 64\ndirs = 2\nradii = 1:100:5\n"
    )
    code, out, err = run_cli(
        ["wavefront", str(f), "--covector", "s1=1", "--kappa", "1"], capsys
    )
    assert code == 0
    assert "normal form: unavailable" in out
    assert "direction 0" in out


NOT_REAL_CANDIDATE_FILE = MINIMAL_FILE + "[candidate]\ns1 = i*s1\n"


def test_cli_failed_section_keeps_the_others(tmp_path, capsys):
    # the candidate section fails; the sections before and after it print,
    # the failed one prints nothing, and --csv still writes the report files
    f = tmp_path / "cand.struct"
    f.write_text(NOT_REAL_CANDIDATE_FILE + "[bundle]\nrank = 1\nD 1 1 1 = t1\n")
    outdir = tmp_path / "csv"
    code, out, err = run_cli(["analyze", str(f), "--csv", str(outdir)], capsys)
    assert code == 1
    assert err == "[autosys] coefficient of d/ds1 is not real\n"
    assert "nondegeneracy order: undetermined at k_max = 8\n" in out
    assert "exceptional locus: Yes" in out
    assert "automorphism system" not in out
    assert out.endswith("bundle: Flat\n")
    assert (outdir / "report.txt").read_text() == out
    assert (outdir / "report.kv").read_text().endswith("bundle.flat = yes\n")


def test_cli_autosys_reports_a_non_real_candidate(tmp_path, capsys):
    f = tmp_path / "cand.struct"
    f.write_text(NOT_REAL_CANDIDATE_FILE)
    for command in ("analyze", "autosys"):
        code, out, err = run_cli([command, str(f)], capsys)
        assert (code, err) == (1, "[autosys] coefficient of d/ds1 is not real\n")
        assert "degeneracy locus:" in out and "candidate 1" not in out


def test_report_skips_sections_that_need_a_failed_one(monkeypatch):
    import involucalc.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("no chain")

    monkeypatch.setattr(cli, "hull_chain", broken)
    report = run_report(parse_structure(CROSSING_FILE), {"k_max": 8})
    machine = report.machine_text()
    assert report.errors == ["[hull] no chain"]
    assert "kernel.count = 1" in machine
    assert "hull." not in machine and "loci." not in machine  # loci needs the chain
    assert "autosys.candidate1 = automorphism" in machine


def test_report_module_error_keeps_its_tag():
    sf = parse_structure("[dims]\nnu = 0 d = 1 mu = 2\n[phi]\nt1^2/2 - t2^2/2\n")
    report = run_report(sf, {"k_max": 4, "covectors": ["s1=1", "s1=abc"]})
    assert len(report.errors) == 1 and report.errors[0].startswith("[cli] bad covector value 'abc'")
    assert "levi." not in report.machine_text()  # the failed section's lines are dropped
    assert "hull.nondeg_order" in report.machine_text()


def test_cli_wavefront_bad_covector_still_scans(tmp_path, capsys):
    f = tmp_path / "scan.struct"
    f.write_text(MINIMAL_FILE + "[fbi]\ngrid = 64\ndirs = 2\nradii = 1:100:5\n")
    code, out, err = run_cli(["wavefront", str(f), "--covector", "s1=abc"], capsys)
    assert code == 1
    assert err.startswith("[cli] bad covector value")
    assert "normal form" not in out and "direction 1" in out


@pytest.mark.parametrize(
    "block, error",
    [
        # samples and kernels overflow to 0 on so wide a box
        ("halfwidth = 100000000000000000000\n", "every transform magnitude in direction 0 is zero"),
        ("halfwidth = 1" + "0" * 189 + "\n", "every transform magnitude in direction 0 is zero"),
        # the odd grid samples 1/(x + i delta) at its pole x = 0
        ("data = boundary\ndelta = 0\ngrid = 65\n", "non-finite transform magnitude in the scan"),
    ],
    ids=["halfwidth-1e20", "halfwidth-190-digits", "boundary-pole"],
)
def test_cli_wavefront_rejects_degenerate_samples(tmp_path, capsys, block, error):
    # an [fbi] error instead of a label for every direction, and numpy warns
    # about nothing
    f = tmp_path / "wide.struct"
    f.write_text(MINIMAL_FILE + "[fbi]\n" + block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["wavefront", str(f)], capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert err == f"[fbi] {error}\n"
    assert "direction 0" not in out


def test_report_drops_its_structure_with_the_last_reference():
    # the jacobians, frame, frame jets and characteristic forms are cached on
    # the structure and its kernel vectors, not in a process-wide table
    import gc
    import weakref

    sf = parse_structure(CROSSING_FILE)
    report = run_report(sf, {"k_max": 4, "covectors": ["s1=1"]})
    assert "nondegeneracy order: 2" in report.human_text()
    ref = weakref.ref(sf.sdef)
    del sf, report
    gc.collect()
    assert ref() is None


def test_analyze_builds_each_derived_object_once(tmp_path, capsys, monkeypatch):
    # levi, the two chains, loci, autosys and bundle all read the frame
    from collections import Counter

    from involucalc import structure
    from involucalc.catalog import crossing_powers
    from involucalc.cli import StructureFile

    calls = Counter()

    def counting(name, key):
        builder = getattr(structure, name)

        def counted(*args):
            calls[(name, key(*args))] += 1
            return builder(*args)

        monkeypatch.setattr(structure, name, counted)

    counting("_compute_jacobians", lambda sdef: None)
    counting("_compute_frame", lambda sdef: None)
    counting("_compute_frame_jets", lambda sdef, k_max: k_max)
    counting("_compute_form", id)
    f = tmp_path / "crossing.struct"
    f.write_text(
        serialize_structure(StructureFile(crossing_powers(1, 2)))
        + "[candidate]\ns1 = 3*s1\ns2 = 2*s2\nt1 = t1\n"
        + "[bundle]\nD 1 1 1 = t1\nsection = t1, 1\n"
    )
    code, out, err = run_cli(["analyze", str(f), "--covector", "s1=1", "--kmax", "5"], capsys)
    assert (code, err) == (0, "")
    for line in ("levi inertia", "nondegeneracy order: 2", "degeneracy locus: Yes",
                 "candidate 1: Automorphism", "bundle: Flat"):
        assert line in out
    forms = [key for (name, key) in calls if name == "_compute_form"]
    assert "kernel vectors: 2\n" in out and len(forms) == 2
    assert calls == Counter(
        {("_compute_jacobians", None): 1, ("_compute_frame", None): 1, ("_compute_frame_jets", 5): 1}
        | {("_compute_form", key): 1 for key in forms}
    )



# -- command-line overrides ------------------------------------------------------------

APPROX_BASE = MINIMAL_FILE + "[approx]\nnx = 1\norder = 2\ngrid = 5\nb = -t\nu0 = x1^2\n"
FBI_BASE = MINIMAL_FILE + "[fbi]\ndata = boundary\ndelta = 1/20\ngrid = 16\n"


def run_file_and_option(tmp_path, capsys, argv, base, lines, options):
    """(exit code, stdout, stderr, {name: text} of the CSV files) of the
    command ``argv`` on ``base`` with the file ``lines`` appended, then on
    ``base`` with the command-line ``options`` added; both runs write their
    CSV files to the same directory, so the paths they print agree."""
    f = tmp_path / "block.struct"
    outdir = tmp_path / "csv"
    results = []
    for text, extra in ((base + lines, []), (base, options)):
        f.write_text(text)
        code, out, err = run_cli([argv[0], str(f), *argv[1:], *extra, "--csv", str(outdir)], capsys)
        files = {}
        if outdir.is_dir():
            for path in sorted(outdir.iterdir()):
                files[path.name] = path.read_text()
                path.unlink()
        results.append((code, out, err, files))
    return results


@pytest.mark.parametrize(
    "argv, base, lines, options",
    [
        (["approx"], APPROX_BASE, "order = 3\nbox = 1/2\ngrid = 9\n", ["--order", "3", "--box", "0.5", "--grid", "9"]),
        (
            ["wavefront", "--covector", "s1=1"],
            FBI_BASE,
            "kappa = 1\ndirs = 4\nradii = 2:200:4\n",
            ["--kappa", "1", "--dirs", "4", "--radii", "2:200:4"],
        ),
    ],
    ids=["approx", "wavefront"],
)
def test_cli_option_is_a_file_line(tmp_path, capsys, argv, base, lines, options):
    # an override edits the block: the same report, exit code and CSV table
    # as the file line that sets the value
    from_file, from_option = run_file_and_option(tmp_path, capsys, argv, base, lines, options)
    assert from_file[0] == 0 and from_file[2] == "" and from_file[3]
    assert from_option == from_file


_BIG = "1" + "0" * 308  # 1e308, a finite float
_HUGE = "1" + "0" * 309  # 1e309, past the largest float
_TINY = "1/" + str(2**1074)  # the least positive float
_MAX_FLOAT = str(int(1.7976931348623157e308))  # the largest float
_RATIO_MAX = "1/100000000:1" + "0" * 300 + ":7"  # hi / lo = 1e308
_RATIO_PAST = "1/1000000000:1" + "0" * 300 + ":7"  # hi / lo = 1e309


@pytest.mark.parametrize(
    "command, key, file_value, option_value, accepted",
    [
        ("approx", "order", "0", "0", True),
        ("approx", "order", "16", "16", True),
        ("approx", "order", "-1", "-1", False),
        ("approx", "order", "17", "17", False),
        ("approx", "grid", "1", "1", True),
        ("approx", "grid", "65", "65", True),
        ("approx", "grid", "0", "0", False),
        ("approx", "grid", "66", "66", False),
        ("approx", "box", _TINY, "5e-324", True),
        ("approx", "box", _MAX_FLOAT, "1.7976931348623157e308", True),
        ("approx", "box", "0", "0", False),
        ("approx", "box", _HUGE, "1e309", False),
        ("wavefront", "kappa", _TINY, _TINY, True),
        ("wavefront", "kappa", _BIG, _BIG, True),
        ("wavefront", "kappa", "0", "0", False),
        ("wavefront", "kappa", "1/1" + "0" * 400, "1e-400", False),
        ("wavefront", "kappa", _HUGE, _HUGE, False),
        ("wavefront", "dirs", "1", "1", True),
        ("wavefront", "dirs", "256", "256", True),
        ("wavefront", "dirs", "0", "0", False),
        ("wavefront", "dirs", "257", "257", False),
        ("wavefront", "radii", "1:100:4", "1:100:4", True),
        ("wavefront", "radii", "1:100:64", "1:100:64", True),
        ("wavefront", "radii", "1:100:3", "1:100:3", False),
        ("wavefront", "radii", "1:100:65", "1:100:65", False),
        ("wavefront", "radii", "0:100:4", "0:100:4", False),
        ("wavefront", "radii", "2:2:4", "2:2:4", False),
        ("wavefront", "radii", _RATIO_MAX, _RATIO_MAX, True),
        ("wavefront", "radii", _RATIO_PAST, _RATIO_PAST, False),
    ],
    ids=[
        "order-0", "order-16", "order-minus-1", "order-17",
        "grid-1", "grid-65", "grid-0", "grid-66",
        "box-least-float", "box-largest-float", "box-0", "box-1e309",
        "kappa-least-float", "kappa-1e308", "kappa-0", "kappa-1e-400", "kappa-1e309",
        "dirs-1", "dirs-256", "dirs-0", "dirs-257",
        "radii-count-4", "radii-count-64", "radii-count-3", "radii-count-65",
        "radii-lo-0", "radii-hi-equals-lo", "radii-ratio-1e308", "radii-ratio-1e309",
    ],
)
def test_cli_option_limits_are_the_file_limits(tmp_path, capsys, command, key, file_value, option_value, accepted):
    # each setting an option overrides, at each limit and one past it: the
    # file line and the option both pass the key's check, with the same
    # report, or both fail it with the same reason
    base = APPROX_BASE if command == "approx" else FBI_BASE
    from_file, from_option = run_file_and_option(
        tmp_path, capsys, [command], base, f"{key} = {file_value}\n", [f"--{key}", option_value]
    )
    if accepted:
        assert not from_option[2].startswith("[cli] ")
        assert from_option == from_file
    else:
        for code, out, err, files in (from_file, from_option):
            assert (code, out, files) == (1, "", {}) and err.startswith("[cli] ") and err.count("\n") == 1
        assert from_file[2].rsplit(": ", 1)[1] == from_option[2].rsplit(": ", 1)[1]


# -- report paths ------------------------------------------------------------------------

MIZOHATA_FILE = "[dims]\nnu = 0 d = 1 mu = 2\n[phi]\nt1^2/2 - t2^2/2\n"


def test_roundtrip_all_sections():
    text = (
        MIZOHATA_FILE
        + "[kernel]\nt1 + t2\n"
        + "[candidate]\ns1 = s1\nt2 = 1/2*t1\n"
        + "[bundle]\nrank = 1\nD 1 1 1 = t2\nD 2 1 1 = i*t1\nlambda 1 1 = 1 + t1\nsection = t1^2\n"
        + "[approx]\nnx = 2\norder = 3\nbox = 1/2\ngrid = 9\nb = -t, x1*t\nu0 = x1 + x2\n"
        + "[fbi]\ndata = boundary\ndelta = 1/40\nsigma = 1/5\nkappa = 1\nhalfwidth = 1/3\n"
        + "grid = 64\ndirs = 4\nradii = 2:200:4\n"
    )
    sf = parse_structure(text)
    out = serialize_structure(sf)
    for header in ("[dims]", "[phi]", "[kernel]", "[candidate]", "[bundle]", "[approx]", "[fbi]"):
        assert f"{header}\n" in out
    sf2 = parse_structure(out)
    assert serialize_structure(sf2) == out
    assert (sf2.bundle.rank, sf2.bundle.d_entries, sf2.bundle.lam_entries, sf2.bundle.sections) == (
        sf.bundle.rank, sf.bundle.d_entries, sf.bundle.lam_entries, sf.bundle.sections
    )
    assert sf2.approx == sf.approx
    assert sf2.fbi == sf.fbi and sf2.fbi.radius_grid == pytest.approx([2.0, 9.283177667225558, 43.08869380063767, 200.0])


def test_report_lines_of_failed_verdicts(tmp_path, capsys):
    # a candidate that is not an automorphism, a bundle that is not flat and
    # a lambda that is not an integrating frame
    f = tmp_path / "mizohata.struct"
    f.write_text(
        MIZOHATA_FILE + "[candidate]\ns1 = s1\n[bundle]\nrank = 1\nD 1 1 1 = t2\nlambda 1 1 = 1 + t1\n"
    )
    code, out, err = run_cli(["analyze", str(f)], capsys)
    assert (code, err) == (0, "")
    assert out.endswith(
        "candidate 1: Not (first residual at ('W1', 1): -i*t1)\n"
        "bundle: NotFlat (first failure at fields (1,2) entry (1,1))\n"
        "integrating frame: Not\n"
    )
    code, out, err = run_cli(["analyze", str(f), "--machine"], capsys)
    assert out.endswith("autosys.candidate1 = not\nbundle.flat = no\nbundle.integrating = no\n")
