"""Command-line interface: dispatch, flags, exit codes, determinism."""

import json
import sys

import pytest

from motint import cli
from motint import ring_a as R
from motint.cells import AffineForm, PCell, VarCell
from motint.presburger import PFun, PTerm
from motint.zeta import CoeffList, RatSeries


def run(capsys, *argv):
    status = cli.main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


@pytest.fixture
def geo_file(tmp_path):
    # L^{-n} on n >= 0
    cell = PCell(("n",), (VarCell(AffineForm.const_form(0), None, 1, 0),))
    pf = PFun(("n",), ((cell, (PTerm(R.ONE, AffineForm.make({"n": -1})),)),))
    path = tmp_path / "geo.json"
    path.write_text(json.dumps(pf.to_json()))
    return str(path)


# ---------------------------------------------------------------------------
# parse


def test_parse_formula(capsys):
    status, out, _ = run(capsys, "parse", "--formula",
                         "exists s : res(1) . s*s = ac_1(t)",
                         "--sorts", "t=vf")
    assert status == 0
    assert "exists s : res(1)" in out
    assert "t : vf" in out


def test_parse_ratfunc_json(capsys):
    status, out, _ = run(capsys, "parse", "--ratfunc", "(L-1)/(1-L^-1)",
                         "--json")
    assert status == 0
    report = json.loads(out)
    assert report["kind"] == "ratfunc"
    assert report["is_nonneg"] is True


def test_parse_poly(capsys):
    status, out, _ = run(capsys, "parse", "--poly", "x*x*y", "--json")
    assert status == 0
    report = json.loads(out)
    assert report["canonical"] == "x^2*y"
    assert report["monomial"] is True


def test_parse_long_literals_exit_1(capsys):
    # a literal past the interpreter's int-string limit, and a coefficient
    # too long to print, are JSON parse errors rather than tracebacks
    long = "9" * 5000
    for argv in (("parse", "--formula", f"x = {long}"),
                 ("parse", "--poly", "2^20000*x"),
                 ("parse", "--ratfunc", f"L^{long}"),
                 ("theta", "--expr", long, "--q", "2")):
        assert error_of(capsys, *argv)["code"] == "ParseError"



def test_deep_input_exit_1(capsys):
    # input that overflows the interpreter's stack while parsing is a JSON
    # parse error rather than a RecursionError traceback
    chain = " + ".join(["x"] * 2000)
    for argv in (("parse", "--formula", f"ord({chain}) >= 0"),
                 ("parse", "--ratfunc", "(" * 2000 + "L" + ")" * 2000),
                 ("zeta-count", "--H", " + ".join(["x^1"] * 2000),
                  "--p", "2", "--imax", "1")):
        error = error_of(capsys, *argv)
        assert error["code"] == "ParseError"
        assert "nests too deeply" in error["message"]


@pytest.fixture
def digit_limit():
    """The interpreter's default int-to-string limit, 4,300 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_number_too_long_to_print_exit_1(capsys, tmp_path, digit_limit):
    # 2^20000 has 6,021 digits and 2^15000 has 4,516; a report that would
    # print one is a CapExceeded error naming the digits and the limit
    box = _box_file(tmp_path, {"numer": [0] * 20000 + [1], "denom": [1]})
    for argv, needed in (
            (("theta", "--expr", "L^20000", "--q", "2"), 6021),
            (("sum", "--file", box, "--q", "2"), 6022),     # 3 * 2^20000
            (("eval", "--file", box, "--point", "n=1", "--q", "2"), 6021),
            (("vol", "--cond", "ord(t) >= -15000", "--order", "t",
              "--p", "2", "--count"), 4516)):
        error = error_of(capsys, *argv)
        assert (error["code"], error["needed"], error["cap"]) == \
            ("CapExceeded", needed, digit_limit), argv
    status, out, _ = run(capsys, "theta", "--expr", "L^14000", "--q", "2")
    assert status == 0 and out.strip() == str(2 ** 14000)

def test_parse_poly_honours_cap(capsys):
    status, out, _ = run(capsys, "parse", "--poly", "(x + y + z + w)^40",
                         "--cap", "10000", "--json")
    assert status == 1
    error = json.loads(out)["error"]
    assert error["code"] == "CapExceeded"
    assert error["needed"] > error["cap"] == 10000


def test_parse_needs_exactly_one_input(capsys):
    status, _, err = run(capsys, "parse", "--formula", "0 = 0",
                         "--poly", "x")
    assert status == 1
    assert "exactly one" in err


# ---------------------------------------------------------------------------
# sum / eval / theta


def test_sum_closed_form_and_theta(capsys, geo_file):
    status, out, _ = run(capsys, "sum", "--file", geo_file, "--q", "2")
    assert status == 0
    assert out.splitlines() == ["L/(L - 1)", "theta_2 = 2"]


def test_sum_json_report(capsys, geo_file):
    status, out, _ = run(capsys, "sum", "--file", geo_file, "--json")
    assert status == 0
    report = json.loads(out)
    assert report["vars_in"] == ["n"] and report["vars_out"] == []
    assert report["value"] == "L/(L - 1)"


def test_sum_unknown_var(capsys, geo_file):
    status, _, err = run(capsys, "sum", "--file", geo_file, "--var", "m")
    assert status == 1
    assert "no variable 'm'" in err


def test_eval_at_point(capsys, geo_file):
    status, out, _ = run(capsys, "eval", "--file", geo_file,
                         "--point", "n=3", "--q", "2")
    assert status == 0
    assert out.splitlines() == ["1/L^3", "theta_2 = 1/8"]


def test_eval_missing_coordinate(capsys, geo_file):
    status, _, err = run(capsys, "eval", "--file", geo_file, "--point", "m=1")
    assert status == 1
    assert "misses variables: n" in err


def test_theta(capsys):
    status, out, _ = run(capsys, "theta", "--expr", "(L-1)/(1-L^-2)",
                         "--q", "4")
    assert status == 0 and out.strip() == "16/5"


def test_theta_needs_q(capsys):
    status, _, err = run(capsys, "theta", "--expr", "L")
    assert status == 1 and "needs --q" in err


def error_of(capsys, *argv):
    """Run a command that must fail; return its JSON error object."""
    status, out, _ = run(capsys, *argv, "--json")
    assert status == 1
    return json.loads(out)["error"]


def test_theta_division_by_zero(capsys):
    error = error_of(capsys, "theta", "--expr", "1/(L-L)", "--q", "2")
    assert error["code"] == "ParseError"
    assert "division by zero" in error["message"]


@pytest.mark.parametrize("data", [
    {"vars": ["n"]},                                  # no pieces
    {"format": "motint.other/1", "vars": ["n"], "pieces": []},
    {"vars": ["n"], "pieces": 3},
    {"vars": ["n"], "pieces": [{"cell": {"vars": ["n"], "tower": [
        {"lo": {"terms": {}, "const": "abc"}, "hi": None, "mod": 1,
         "res": 0}]}, "terms": []}]},
    ["n"],
])
def test_sum_malformed_json(capsys, tmp_path, data):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    error = error_of(capsys, "sum", "--file", str(path))
    assert error["code"] == "ParseError"


def _edited_geo(tmp_path, edit) -> str:
    """The function L^(-n) on n >= 0 (mod 2), with edit applied to its
    JSON piece."""
    cell = PCell(("n",), (VarCell(AffineForm.const_form(0), None, 2, 0),))
    data = PFun(("n",), ((cell, (PTerm(R.ONE, AffineForm.make({"n": -1})),)),)
                ).to_json()
    edit(data["pieces"][0])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def _set(keys, value):
    def edit(piece):
        node = piece
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(("terms", 0, "lpow", "const"), "1/0"),       # zero denominator
    _set(("cell", "tower", 0, "lo", "const"), "1/0"),
    _set(("terms", 0, "lpow", "terms"), [["n", "-1"]]),   # not an object
    _set(("cell", "tower", 0, "mod"), 2.0),           # float modulus
    _set(("cell", "tower", 0, "res"), False),         # bool residue
    _set(("terms", 0, "lpow", "const"), True),        # bool constant
    _set(("cell", "tower", 0, "lo", "const"), 0.1),   # float constant
    _set(("terms", 0, "lpow", "terms", "n"), "-1.5"),  # decimal string
], ids=["lpow-zero-den", "bound-zero-den", "terms-list", "float-mod",
        "bool-res", "bool-const", "float-const", "decimal-coeff"])
def test_sum_malformed_affine_json(capsys, tmp_path, edit):
    error = error_of(capsys, "sum", "--file", _edited_geo(tmp_path, edit))
    assert error["code"] == "ParseError"


def _box_file(tmp_path, coef) -> str:
    """The constant function coef on the 3-point box 0 <= n <= 2."""
    cell = PCell(("n",), (VarCell(AffineForm.const_form(0),
                                  AffineForm.const_form(2), 1, 0),))
    data = PFun(("n",), ((cell, (PTerm(R.ONE, AffineForm.const_form(0)),)),)
                ).to_json()
    data["pieces"][0]["terms"][0]["coef"] = coef
    path = tmp_path / "box.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_sum_integer_coefficients(capsys, tmp_path):
    path = _box_file(tmp_path, {"numer": [1], "denom": [1]})
    status, out, _ = run(capsys, "sum", "--file", path, "--json")
    assert status == 0
    assert json.loads(out)["value"] == "3"


@pytest.mark.parametrize("coef", [
    {"numer": [1.5], "denom": [1]},                   # float
    {"numer": ["7"], "denom": [1]},                   # str
    {"numer": [True], "denom": [1]},                  # bool
    {"numer": [1], "denom": [2.0]},                   # float denominator
    {"numer": 7, "denom": [1]},                       # not a list
    {"numer": [1], "denom": [0]},                     # zero denominator
    {"numer": [1]},                                   # no denominator
])
def test_sum_non_integer_coefficient(capsys, tmp_path, coef):
    error = error_of(capsys, "sum", "--file", _box_file(tmp_path, coef))
    assert error["code"] == "ParseError"


@pytest.mark.parametrize("command", [["sum"], ["eval", "--point", "n=1"]])
def test_long_integer_in_file_is_a_parse_error(capsys, tmp_path, command):
    # json.load refuses an int of more than 4,300 digits with ValueError
    path = _box_file(tmp_path, {"numer": [1], "denom": [1]})
    with open(path) as fh:
        text = fh.read().replace('"numer": [1]',
                                 '"numer": [' + "9" * 5000 + "]")
    with open(path, "w") as fh:
        fh.write(text)
    error = error_of(capsys, command[0], "--file", path, *command[1:])
    assert error["code"] == "ParseError"
    assert "is not valid JSON" in error["message"]


# ---------------------------------------------------------------------------
# count


def test_count_example(capsys):
    status, out, _ = run(capsys, "count", "--formula", "x^2 = 0",
                         "--p", "2", "--d", "1", "--level", "2")
    assert status == 0
    assert out.strip() == "2"


def test_count_rejects_vg_free_vars(capsys):
    status, _, err = run(capsys, "count", "--formula", "x = 0",
                         "--sorts", "x=vg", "--p", "2")
    assert status == 1
    assert "residue-sorted" in err


def test_count_cap(capsys):
    status, _, err = run(capsys, "count", "--formula", "x*y = 0",
                         "--p", "2", "--level", "3", "--cap", "10")
    assert status == 1
    assert "CapExceeded" in err
    error = error_of(capsys, "count", "--formula", "x*y = 0",
                     "--p", "2", "--level", "3", "--cap", "10")
    assert (error["code"], error["needed"], error["cap"]) == \
        ("CapExceeded", 64, 10)


def test_count_vg_quantifier_cap(capsys):
    # a value-group quantifier range counts against the cap like a ring
    error = error_of(capsys, "count", "--formula",
                     "exists n : vg in [0, 1000] . x = 0 && n = 999",
                     "--level", "1", "--cap", "10")
    assert (error["code"], error["needed"], error["cap"]) == \
        ("CapExceeded", 1001, 10)
    status, _, err = run(capsys, "count", "--formula",
                         "exists n : vg in [0, 1000000000] . x = 0 && n = 999",
                         "--level", "1", "--cap", "10")
    assert status == 1
    assert "CapExceeded" in err


def test_count_json_report(capsys):
    status, out, _ = run(capsys, "count", "--formula", "x*y = 0",
                         "--p", "3", "--level", "2", "--json")
    assert status == 0
    assert json.loads(out) == {
        "assignments": 81, "count": 21, "d": 1, "formula": "x*y = 0",
        "free_vars": ["x", "y"], "level": 2, "p": 3}


def test_nonprime_p_rejected(capsys):
    status, _, err = run(capsys, "count", "--formula", "x = 0", "--p", "4")
    assert status == 1
    assert "must be prime" in err


def test_threads_option_rejected(capsys):
    status, _, err = run(capsys, "count", "--formula", "x = 0",
                         "--threads", "2")
    assert status == 1
    assert "unrecognized arguments: --threads" in err


# ---------------------------------------------------------------------------
# vol / integrate


def test_vol_with_counting(capsys):
    status, out, _ = run(capsys, "vol", "--cond", "ord(t) >= 1",
                         "--order", "t", "--p", "3", "--count")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "value = 1/L"
    assert lines[-1] == "N at q=3: 1/3"


def test_vol_count_honours_cap(capsys):
    # counting the class-valued volume enumerates the 5 elements of res(1)
    error = error_of(capsys, "vol", "--cond",
                     "ord(t) = 0 && exists s : res(1) . s*s = ac_1(t)",
                     "--order", "t", "--p", "5", "--count", "--cap", "1")
    assert (error["code"], error["needed"], error["cap"]) == \
        ("CapExceeded", 5, 1)


def test_integrate_weight_json(capsys):
    status, out, _ = run(capsys, "integrate", "--cond", "ord(t) >= 0",
                         "--order", "t", "--weight", "1:t:0",
                         "--p", "2", "--json")
    assert status == 0
    report = json.loads(out)
    assert report["value"] == "L/(L + 1)"
    assert report["result"]["format"] == "motint.integration/1"
    assert report["weight"] == [[1, "t", "0"]]


def test_integrate_divergence_is_an_error(capsys):
    status, _, err = run(capsys, "integrate", "--cond", "ord(t) <= 0",
                         "--order", "t", "--p", "2")
    assert status == 1
    assert "NotIntegrable" in err


def test_vol_lenient_not_integrable(capsys):
    argv = ["vol", "--cond", "ord(t - 1) = ord(t - 2)", "--order", "t",
            "--lenient"]
    status, out, _ = run(capsys, *argv)
    assert status == 0
    assert out.splitlines() == ["not integrable in some direction"]
    status, out, _ = run(capsys, *argv, "--json")
    assert status == 0
    report = json.loads(out)
    assert report["value"] is None
    assert report["result"]["integrable"] is False
    error = error_of(capsys, *argv, "--count")
    assert error["code"] == "NotIntegrable"


def test_integrate_bad_weight(capsys):
    status, _, err = run(capsys, "integrate", "--cond", "ord(t) >= 0",
                         "--order", "t", "--weight", "t:1")
    assert status == 1
    assert "mult:var:center" in err


# ---------------------------------------------------------------------------
# zeta / verify


def test_zeta_motivic_json_round_trip(capsys):
    status, out, _ = run(capsys, "zeta-motivic", "--H", "x*y", "--json")
    assert status == 0
    report = json.loads(out)
    rs = RatSeries.from_json(report["series"])
    assert rs.denominator == ((-1, 1), (-1, 1))


def test_zeta_motivic_polynomial_term_unsupported(capsys):
    # (x + y)^2 is a valued-field term, so it parses, but not a monomial
    error = error_of(capsys, "zeta-motivic", "--H", "(x + y)^2")
    assert error["code"] == "UnsupportedH"


def test_zeta_count_frozen(capsys):
    status, out, _ = run(capsys, "zeta-count", "--H", "x", "--p", "2",
                         "--imax", "3")
    assert status == 0
    assert [l.split("\t") for l in out.splitlines()] == [
        ["0", "1/2"], ["1", "1/4"], ["2", "1/8"], ["3", "1/16"]]


def test_zeta_count_cap_json(capsys):
    status, out, _ = run(capsys, "zeta-count", "--H", "x*y", "--p", "2",
                         "--imax", "6", "--cap", "20",
                         "--method", "enumerate", "--json")
    assert status == 1
    report = json.loads(out)
    assert report["error"]["code"] == "CapExceeded"
    assert report["error"]["needed"] > report["error"]["cap"] == 20


def test_zeta_count_non_integral_coefficient(capsys):
    for method in ("cylinder", "enumerate"):
        status, out, _ = run(capsys, "zeta-count", "--H", "1/2*x + y",
                             "--p", "2", "--imax", "3", "--method", method,
                             "--json")
        assert status == 0
        report = json.loads(out)
        assert report["coefficients"]["values"] == ["1/4", "1/8", "1/16", "1/32"]


def test_zeta_count_env_cap(capsys):
    status, _, err = run(capsys, "zeta-count", "--H", "x*y", "--p", "2",
                         "--imax", "6", "--method", "enumerate", "--cap", "20")
    assert status == 1 and "CapExceeded" in err


def test_verify_meuser_grid(capsys):
    status, out, _ = run(capsys, "verify-meuser", "--H", "x*y",
                         "--grid", "p=2,3;d=1,2", "--imax", "3")
    assert status == 0
    assert out.count("match (4 coefficients)") == 4
    assert out.splitlines()[-1] == "all match: yes"


def test_verify_meuser_deterministic(capsys):
    argv = ["verify-meuser", "--H", "x^2", "--grid", "p=2,3;d=1",
            "--imax", "3", "--json"]
    status1, out1, _ = run(capsys, *argv)
    status2, out2, _ = run(capsys, *argv)
    assert status1 == status2 == 0
    assert out1 == out2                      # byte-identical report


def test_verify_meuser_mismatch_exits_2(capsys, monkeypatch):
    from fractions import Fraction
    real = cli.zprime_count

    def wrong(h, p, d, i_max, **kw):
        values = list(real(h, p, d, i_max, **kw).values)
        values[0] += Fraction(1, 100)
        return CoeffList(i_max, tuple(values))

    monkeypatch.setattr(cli, "zprime_count", wrong)
    monkeypatch.setattr("motint.zeta.zprime_count", wrong)
    status, out, _ = run(capsys, "verify-meuser", "--H", "x",
                         "--p", "2", "--imax", "2")
    assert status == 2
    assert "MISMATCH at i=0" in out
    assert out.splitlines()[-1] == "all match: NO"


def test_usage_error_exits_1(capsys):
    status, out, err = run(capsys, "count")      # missing --formula
    assert status == 1 and out == ""
    assert "--formula" in err
    error = error_of(capsys, "count", "--formula", "x = 0", "--p", "two")
    assert error["code"] == "ParseError"
    assert "invalid int value: 'two'" in error["message"]


def test_unknown_command_exits_1(capsys):
    status, _, err = run(capsys, "frobnicate")
    assert status == 1
    assert "frobnicate" in err
    assert error_of(capsys, "frobnicate")["code"] == "ParseError"


# the shared flags each subcommand reads; every other one is a usage error
SHARED = ("--p", "--d", "--level", "--imax", "--cap", "--q", "--method")
READS = {
    "parse": {"--cap"},
    "sum": {"--q"},
    "eval": {"--q"},
    "theta": {"--q"},
    "count": {"--p", "--d", "--level", "--cap"},
    "vol": {"--p", "--d", "--cap"},
    "integrate": {"--p", "--d", "--cap"},
    "zeta-motivic": {"--p", "--cap"},
    "zeta-count": {"--p", "--d", "--imax", "--cap", "--method"},
    "verify-meuser": {"--p", "--d", "--imax", "--cap", "--method"},
}
UNREAD = [(command, flag) for command, reads in READS.items()
          for flag in SHARED if flag not in reads]


# a call of each subcommand that succeeds; "FILE" is the geometric series
VALID = {
    "parse": ["--ratfunc", "L"],
    "sum": ["--file", "FILE"],
    "eval": ["--file", "FILE", "--point", "n=1"],
    "theta": ["--expr", "L", "--q", "3"],
    "count": ["--formula", "x = 0"],
    "vol": ["--cond", "ord(t) >= 1", "--order", "t"],
    "integrate": ["--cond", "ord(t) >= 1", "--order", "t"],
    "zeta-motivic": ["--H", "x"],
    "zeta-count": ["--H", "x", "--p", "2", "--imax", "1"],
    "verify-meuser": ["--H", "x", "--imax", "1"],
}


@pytest.mark.parametrize("command, flag", UNREAD)
def test_unread_shared_flag_is_a_usage_error(capsys, geo_file, command,
                                             flag):
    argv = [command] + [geo_file if a == "FILE" else a
                        for a in VALID[command]]
    status, _, _ = run(capsys, *argv, "--json")
    assert status == 0
    value = "auto" if flag == "--method" else "3"
    error = error_of(capsys, *argv, flag, value)
    assert error["code"] == "ParseError"
    assert f"unrecognized arguments: {flag} {value}" in error["message"]


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_the_flags_read(capsys, command):
    with pytest.raises(SystemExit) as ei:
        cli.main([command, "--help"])
    assert ei.value.code == 0
    listed = set(capsys.readouterr().out.split())
    assert {flag for flag in SHARED if flag in listed} == READS[command]
    assert "--json" in listed and "--config" not in listed


class _ClosedPipe:
    """A standard output whose reader has gone: every write fails."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_without_traceback(capsys, monkeypatch,
                                               tmp_path):
    with open(tmp_path / "out", "w") as sink:
        monkeypatch.setattr("sys.stdout", _ClosedPipe(sink.fileno()))
        status = cli.main(["zeta-motivic", "--H", "x^2*y", "--json"])
    assert status == 1
    assert capsys.readouterr().err == ""
