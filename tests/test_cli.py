import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gkzcurve import (
    TruncationFrontier,
    build_system,
    curve_matrix,
    ext1_recurrence_solve,
    gamma_series,
    generic_exponents,
    has_minimal_nsupp,
    homogenize_matrix,
    restrict_series_x0,
    singular_exponents,
)
from gkzcurve import system as system_module
from gkzcurve.cli import main
from gkzcurve.rationals import format_rational

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_exponents(capsys):
    data = run_json(capsys, "exponents", "-A", "2,3", "-b", "1")
    assert [e["vector"] for e in data["singular"]] == [["1/2", "0"], ["-1", "1"]]
    assert len(data["generic"]) == 3
    assert all(e["minimal_negative_support"] for e in data["singular"])


def test_series_and_verify(capsys):
    data = run_json(capsys, "series", "-A", "2,3", "-b", "1",
                    "--point", "singular", "--index", "1", "--bound", "20")
    assert data["base"] == ["-1", "1"]
    assert {"offset": [0, 0], "coeff": "1"} in data["terms"]
    ver = run_json(capsys, "verify", "-A", "2,3", "-b", "1",
                   "--point", "singular", "--index", "1", "--bound", "20")
    assert ver["all_annihilated"]


def test_verify_modified_series_not_annihilated(capsys):
    ver = run_json(capsys, "verify", "-A", "2,3", "-b", "2", "--point", "modified")
    assert not ver["all_annihilated"]


def test_gevrey_index(capsys):
    data = run_json(capsys, "gevrey-index", "-A", "2,3", "-b", "1",
                    "--point", "singular", "--index", "1",
                    "--bound", "160", "--var", "1")
    assert abs(data["estimate"] - 1.5) < 0.05


def test_gevrey_index_rejects_negative_min_terms(capsys):
    argv = ("gevrey-index", "-A", "2,3", "-b", "1", "--var", "1", "--min-terms")
    assert run_json(capsys, *argv, "0")["estimate"] > 1
    code, out, err = run(capsys, *argv, "-5")
    assert code == 2 and out == "" and "min_terms must be nonnegative" in err


def test_slopes_and_dims(capsys):
    data = run_json(capsys, "slopes", "-A", "1,2,5")
    assert data["slopes"][-1] == {
        "variable": 2, "has_slope": True, "gevrey_jump": "5/2", "slope": "2/-3",
    } or data["slopes"][-1]["gevrey_jump"] == "5/2"
    dims = run_json(capsys, "dims", "-A", "2,3", "-b", "2", "-s", "2")
    cell = {(c["sheaf"], c["ext"], c["point"]): c["dim"] for c in dims["cells"]}
    assert cell[("O^(s)", 0, "smooth-point-of-Y")] == 2
    code, out, _ = run(capsys, "dims", "-A", "2,3", "-b", "2", "-s", "2",
                       "--output", "text")
    assert code == 0 and "O_X|Y" in out


def test_restrict_homogenize_bfunction(capsys):
    dec = run_json(capsys, "restrict", "-A", "1,4,6", "-b", "5")
    assert dec["components"] == [
        {"matrix": [2, 3], "beta": "5/2"},
        {"matrix": [2, 3], "beta": "2"},
    ]
    hom = run_json(capsys, "homogenize", "-A", "3,4,5", "-b", "0")
    assert hom["matrix"] == [1, 3, 4, 5] and hom["deltas"] == [1, 1, 1]
    bf = run_json(capsys, "bfunction", "-k", "2", "-a", "2", "-b", "3")
    assert bf == {"coefficients": ["0", "-1", "1"], "k": 2, "roots": [0, 1]}


def test_solve_ext1_and_polysol(capsys):
    h = run_json(capsys, "solve-ext1", "-A", "2,3", "-b", "1", "--epsilon", "1",
                 "--f", '[{"k":0,"m":0,"coeff":"1"}]', "--terms", "3")
    table = {(e["k"], e["m"]): e["coeff"] for e in h}
    assert table[(0, 1)] == "-1/2"
    sol = run_json(capsys, "polysol", "-A", "2,3", "-b", "6")
    assert sol["present"] and sol["q"] == 0
    none = run_json(capsys, "polysol", "-A", "2,3", "-b", "1")
    assert none == {"present": False}


def test_exit_codes(capsys):
    code, _, err = run(capsys, "exponents", "-A", "3,2", "-b", "1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "exponents", "-A", "2,x", "-b", "1")
    assert code == 2
    code, _, _ = run(capsys, "solve-ext1", "-A", "2,3", "-b", "1", "--epsilon", "0")
    assert code == 2
    for bad_f in ["notjson", '[{"k":0}]', '{"k":0}', '[{"k":"x","m":0,"coeff":"1"}]',
                  '[{"k":0,"m":0,"coeff":1}]', '[{"k":1.9,"m":0,"coeff":"1"}]',
                  '[{"k":true,"m":0,"coeff":"1"}]', '[{"k":0,"m":2.0,"coeff":"1"}]',
                  '{}', '""']:
        code, _, err = run(capsys, "solve-ext1", "-A", "2,3", "-b", "1", "--f", bad_f)
        assert code == 2 and err.startswith("error:"), bad_f
    # an empty list is the zero table
    assert (run_json(capsys, "solve-ext1", "-A", "2,3", "-b", "1", "--f", "[]")
            == run_json(capsys, "solve-ext1", "-A", "2,3", "-b", "1"))
    # a repeated index is refused, not overwritten by its last coefficient
    code, out, err = run(capsys, "solve-ext1", "-A", "2,3", "-b", "1", "--f",
                         '[{"k":0,"m":0,"coeff":"1"},{"k":0,"m":0,"coeff":"2"}]')
    assert code == 2 and out == "" and "repeats the index k=0, m=0" in err
    code, _, err = run(capsys, "solve-ext1", "-A", "2,3", "-b", "1", "--terms", "-3")
    assert code == 2 and err.startswith("error:")
    for cmd in ("series", "verify"):
        code, _, err = run(capsys, cmd, "-A", "2,3", "-b", "1", "--bound", "-5")
        assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "gevrey-index", "-A", "2,3", "-b", "1", "--index", "1",
                       "--var", "1", "--bound", "9", "--min-terms", "0")
    assert code == 2 and err.startswith("error:")
    # no diagonal point at all: refused, not a crash of the fit
    code, _, err = run(capsys, "gevrey-index", "-A", "1,2", "--var", "0", "--min-terms", "0")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "homogenize", "-A", "2,3")
    assert code == 2 and "general matrix" in err


# ---------------------------------------------------------------------------
# a general matrix: series on the homogenization, restricted to x_0 = 0


def test_general_matrix_verify(capsys):
    for point, index in (("singular", "0"), ("generic", "2")):
        ver = run_json(capsys, "verify", "-A", "3,4,5", "-b", "1/2",
                       "--point", point, "--index", index)
        # the binomials of build_system((3 4 5)) plus the Euler operator
        assert len(ver["reports"]) == len(build_system((3, 4, 5), F(1, 2)).operators) == 33
        assert ver["all_annihilated"], point


# sha256 of the whole `gkz verify` JSON: every operator's verdict, residual
# count, worst residual offset and frontier bound, pinned byte for byte
VERIFY_DIGESTS = {
    "-A 4,5,6,7 -b 1/2 --point singular --index 0 --bound 30":
        "e32c14f0de97dfbd2a30c70725bce6be83621c06eda28d9d74fa5d8357789573",
    "-A 3,4,5 -b 1/2 --point singular --index 0 --bound 40":
        "ff6c40861099363c9594cbd8a6cdbccdffe0467a89cab52f9f90b6242ec88604",
    # not annihilated: residual terms and a worst offset in the reports
    "-A 2,3 -b 3 --point modified --bound 30":
        "c8c08fb208dbe946038b2c1a60c85faddd8102bb83728f871ac641c2aab3d66a",
}


@pytest.mark.parametrize("argv", list(VERIFY_DIGESTS))
def test_verify_json_is_pinned(capsys, argv):
    code, out, err = run(capsys, "verify", *argv.split())
    assert code == 0 and err == "", err
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]


# sha256 of the whole `gkz homogenize` JSON: A', the deltas and rhos, and the
# operators (toric binomials, then the contiguity binomials Q_i, then E)
HOMOGENIZE_DIGESTS = {
    ("3,4,5", "0"): "5a0c055e8f5a7376f0b1c49520fcd24c370fdb43de14e0bce6dcc5fcf6a42d2e",
    ("3,4,5", "1/2"): "ce9f85e3eb4c036943c7d2f089fec19a3d6a396aa1808f531ead08de60f9f770",
    ("3,4,5", "3"): "0cf01e5589b55a9b9b035cff0cf0fd46fe26426c967a0de10ccb1fd5965d3585",
    ("4,5,6,7", "0"): "68c6d846b12a329bd53d9be43553969a15482d336094237f858c1bcb2dcc7671",
    ("4,5,6,7", "1/2"): "10337d3cc5fcfdba85b333930417ab67ff5d24fb7df38305e609145a584fccf4",
    ("4,5,6,7", "3"): "9ccb6ec4bb2235c00425dbe4462748e48aab84c93dc4231395bf02348a6de9b4",
    ("5,6,7", "0"): "77513d5d7b99b32a59f4207641a94c22026b11b5b975cff8614382c647fdcba6",
    ("5,6,7", "1/2"): "b7d2caa7a740c1effbbcce8b65c75a2cc7f9d4b8180bb323105f9531b922711a",
    ("5,6,7", "3"): "f36f931a8a1e1050b7576ec9aed8fb7b542da868ad2e5cebd47ae05f9a535733",
    ("3,5,7", "0"): "2f02cc53929a3de9efdcf83a2345492876d588cb4db832f74935e754e5dc7fc6",
    ("3,5,7", "1/2"): "82b2df479d44cd0fa0029961a74ce509b28e510e0ddad130c44020c19af2ed6b",
    ("3,5,7", "3"): "cd2e080ff70751984bbb884cb415d4a6b41dc88ff825f53e27982fc8f8ae7774",
    ("10,11,13,17", "0"): "43a53791459b70826900a04be7431471d09665407c2a942e6234401751c017f4",
    ("10,11,13,17", "1/2"): "40dfca5f13806cb52223267327abf8f979383b60b1c255f1906adff57354b71a",
    ("10,11,13,17", "3"): "1ac63a6d4aeec28cd0e60ec1c8560ac64259b8333fb08508753186c6550a4d3c",
}


@pytest.mark.parametrize("matrix, beta", list(HOMOGENIZE_DIGESTS), ids=str)
def test_homogenize_json_is_pinned(capsys, matrix, beta):
    code, out, err = run(capsys, "homogenize", "-A", matrix, "-b", beta)
    assert code == 0 and err == "", err
    assert hashlib.sha256(out.encode()).hexdigest() == HOMOGENIZE_DIGESTS[matrix, beta]


def test_general_matrix_series_is_the_restricted_library_series(capsys):
    data = run_json(capsys, "series", "-A", "3,4,5", "-b", "1/2",
                    "--point", "generic", "--index", "2", "--bound", "20")
    up = build_system(homogenize_matrix(curve_matrix((3, 4, 5))), F(1, 2))
    f = gamma_series(generic_exponents(up)[2], up, TruncationFrontier.uniform(4, 20))
    assert data == restrict_series_x0(f).to_json()
    assert len(data["base"]) == 3 and data["terms"]


def test_general_matrix_gevrey_index_and_modified(capsys):
    data = run_json(capsys, "gevrey-index", "-A", "3,4,5", "-b", "1/2", "--point", "singular",
                    "--index", "0", "--bound", "90", "--var", "2")
    assert abs(data["estimate"] - 1.25) < 0.10  # a_n / a_{n-1} = 5/4
    # the modified series of a general matrix lives upstairs: still refused
    code, out, err = run(capsys, "series", "-A", "3,4,5", "-b", "3", "--point", "modified")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("index", ["1", "2", "3"])
def test_general_matrix_gevrey_index_at_every_exponent_index(capsys, index):
    # the restricted offsets of index k lie on A.u = k, off the diagonal
    # through 0: the fit walks the one through the least kept offset
    data = run_json(capsys, "gevrey-index", "-A", "3,4,5", "-b", "1/2", "--point", "singular",
                    "--index", index, "--bound", "90", "--var", "2")
    assert abs(data["estimate"] - 1.25) < 0.10  # a_n / a_{n-1} = 5/4


def test_series_and_gevrey_index_build_only_the_lifted_system(capsys, monkeypatch):
    def refuse(A):
        raise AssertionError(f"the system of {A} was built")

    exponents = ("exponents", "-A", "4,5,6,7", "-b", "2")
    want = run_json(capsys, *exponents)
    monkeypatch.setattr(system_module, "_general_kernel", refuse)
    assert run_json(capsys, *exponents) == want
    # a modified series needs A to be its own lift: refused before any system is built
    code, out, err = run(capsys, "series", "-A", "4,5,6,7", "-b", "3", "--point", "modified")
    assert code == 2 and out == "" and "general matrix" in err
    for point, index in (("singular", "0"), ("generic", "3")):
        code, out, err = run(capsys, "series", "-A", "4,5,6,7", "-b", "1/2", "--point", point,
                             "--index", index, "--bound", "10")
        assert code == 0 and out and err == "", (point, err)
    # the ball of the lift has too few diagonal points to fit: refused after the series
    code, _, err = run(capsys, "gevrey-index", "-A", "4,5,6,7", "-b", "1/2", "--bound", "30",
                       "--var", "3")
    assert code == 2 and "diagonal terms available" in err
    with pytest.raises(AssertionError, match="was built"):
        run(capsys, "verify", "-A", "4,5,6,7", "-b", "1/2", "--bound", "10")


def test_gevrey_index_off_the_support_diagonal_is_refused(capsys):
    # var = n - 2 flips the diagonal, which lowers v_3 = 0 to -6 in one step:
    # it leaves N_v at once, and no point is left to fit
    code, out, err = run(capsys, "gevrey-index", "-A", "4,5,6,7", "-b", "1/2", "--bound", "60",
                         "--var", "2")
    assert code == 2 and out == "" and "diagonal terms available" in err
    assert "Traceback" not in err
    assert "the diagonal m*(0, 0, 7, -6) leaves the support N_v" in err
    # the smooth (1 2 5) along x_1: v_2 = 0 falls to -2 at the first step
    code, out, err = run(capsys, "gevrey-index", "-A", "1,2,5", "-b", "1/2", "--bound", "60",
                         "--var", "1")
    assert code == 2 and out == "" and "only 0 diagonal terms available, need 8" in err
    assert "the diagonal m*(0, 5, -2) leaves the support N_v" in err
    # a diagonal that stays in N_v up to the frontier gives no such reason
    code, _, err = run(capsys, "gevrey-index", "-A", "4,5,6,7", "-b", "1/2", "--bound", "30",
                       "--var", "3")
    assert code == 2 and "diagonal terms available" in err and "N_v" not in err


@pytest.mark.parametrize("matrix, bound, terms", [("4,5,6,7", 60, 1067), ("4,5,6,7", 80, 2429),
                                                  ("3,4,5", 400, 5144)])
def test_general_matrix_series_walks_only_its_x0_slice(capsys, matrix, bound, terms):
    # the walk of the whole lifted series exceeded the default term cap here
    data = run_json(capsys, "series", "-A", matrix, "-b", "1/2", "--bound", str(bound))
    assert len(data["terms"]) == terms and data["frontier"]["bound"] == bound


def test_general_matrix_verify_and_refusals_past_the_slice(capsys):
    ver = run_json(capsys, "verify", "-A", "4,5,6,7", "-b", "1/2", "--bound", "60")
    assert len(ver["reports"]) == 672 and ver["all_annihilated"]
    # the slice's own ball exceeds the cap: refused before the walk starts
    for matrix, bound in (("4,5,6,7", "120"), ("3,4,5", "800")):
        start = time.perf_counter()
        code, out, err = run(capsys, "series", "-A", matrix, "-b", "1/2", "--bound", bound)
        assert time.perf_counter() - start < 1.0, matrix
        assert code == 3 and out == "" and "resource" in err, matrix


@pytest.mark.parametrize("matrix", [(3, 4, 5), (4, 5, 6, 7)], ids=str)
def test_general_matrix_exponents_checked_on_the_homogenization(capsys, matrix):
    data = run_json(capsys, "exponents", "-A", ",".join(map(str, matrix)), "-b", "2")
    system = build_system(matrix, 2)
    Ah = homogenize_matrix(system.matrix)
    for which, vs in (("singular", singular_exponents(system)),
                      ("generic", generic_exponents(system))):
        checks = [(v, has_minimal_nsupp(v, Ah)) for v in vs]
        assert data[which] == [
            {"index": k, "vector": [format_rational(x) for x in v],
             "minimal_negative_support": res.minimal, "exact_check": res.exact}
            for k, (v, res) in enumerate(checks)
        ]


def test_term_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("GKZ_TERM_CAP", "2")
    code, _, err = run(capsys, "series", "-A", "2,3", "-b", "1",
                       "--point", "singular", "--index", "1", "--bound", "40")
    assert code == 3 and "resource" in err
    # the monomials of a polynomial solution fill a ball of radius beta
    monkeypatch.setenv("GKZ_TERM_CAP", "1000")
    code, out, err = run(capsys, "polysol", "-A", "2,3", "-b", "1001")
    assert code == 3 and out == "" and "resource" in err
    monkeypatch.delenv("GKZ_TERM_CAP")
    code, out, err = run(capsys, "polysol", "-A", "2,3", "-b", "2000001")
    assert code == 3 and out == "" and "resource" in err
    # a (terms + 1) recurrence entries, refused before the first one is built
    for argv in (("solve-ext1", "-A", "2,3", "-b", "1", "--terms", "100000000"),
                 ("solve-ext1", "-A", "999999,1000000", "-b", "1")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3 and out == "" and "resource" in err, argv


def test_bfunction_refuses_by_expansion_size(capsys, monkeypatch):
    # expanding prod (tau - r) over k roots takes k (k + 1) / 2 multiply-adds:
    # 1953 for k = 62, 2016 for k = 63
    monkeypatch.setenv("GKZ_TERM_CAP", "2000")
    assert run_json(capsys, "bfunction", "-k", "62", "-a", "2", "-b", "3")["k"] == 62
    code, out, err = run(capsys, "bfunction", "-k", "63", "-a", "2", "-b", "3")
    assert code == 3 and out == "" and "resource" in err
    monkeypatch.delenv("GKZ_TERM_CAP")
    start = time.perf_counter()
    code, out, err = run(capsys, "bfunction", "-k", "100000000", "-a", "2", "-b", "3")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "resource" in err


@pytest.fixture
def no_int_digit_limit():
    """Lift Python's int/str digit limit in this process for one test."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    yield
    if saved is not None:
        sys.set_int_max_str_digits(saved)


def test_answers_past_the_int_str_digit_limit(no_int_digit_limit):
    # coefficients of more than 4,300 digits, printed by a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "gkzcurve", "solve-ext1", "-A", "2,3", "-b", "1",
         "--terms", "900", "--f", '[{"k":0,"m":0,"coeff":"1"}]'],
        capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0 and out.stderr == ""
    got = {(e["k"], e["m"]): F(e["coeff"]) for e in json.loads(out.stdout)}
    want = ext1_recurrence_solve((2, 3), 1, 1, {(0, 0): F(1)}, num_terms=900)
    assert got == want
    assert max(len(str(abs(c.numerator))) for c in got.values()) > 4300


def test_term_cap_refuses_by_request_size_before_the_walk(capsys):
    # the free ball of six coordinates at radius 40 holds about 4e8 points, and
    # the ball |u|_1 <= 2D = 40 that holds the kernel of (6 7 8 9 10) holds
    # 1,797,441: refused before the walk starts, at the default cap
    for argv in (("series", "-A", "1,2,3,4,5,6,7", "-b", "1/2", "--point", "singular",
                  "--index", "0", "--bound", "40"),
                 ("verify", "-A", "6,7,8,9,10", "-b", "0")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3 and out == "" and "resource" in err, argv


def test_membership_answers_above_the_term_cap(capsys, monkeypatch):
    # one membership bit, from an Apéry table of min(A) entries, whatever the
    # size of beta
    for matrix in ("2,3", "3,4,5"):
        data = run_json(capsys, "dims", "-A", matrix, "-b", "2000001")
        assert data["beta_class"] == "special", matrix
    data = run_json(capsys, "series", "-A", "2,3", "-b", "2000001", "--point", "modified")
    assert len(data["terms"]) == 9
    # minimal negative support is decided without enumerating lattice points
    data = run_json(capsys, "exponents", "-A", "3,4,5", "-b", "-1")
    assert all(e["exact_check"] for e in data["singular"] + data["generic"])
    monkeypatch.setenv("GKZ_TERM_CAP", "1000")
    data = run_json(capsys, "exponents", "-A", "1,2,3,5", "-b", "-1")
    assert all(e["exact_check"] for e in data["singular"] + data["generic"])


def test_membership_term_cap_bounds_the_least_entry(capsys):
    # the Apéry table of (1000 1000001) has 1,000 entries, whatever beta is
    data = run_json(capsys, "dims", "-A", "1000,1000001", "-b", "1000001", "-s", "2")
    assert data["beta_class"] == "special"
    # a beta below the least entry needs no table: only 0 lies there
    data = run_json(capsys, "dims", "-A", "1000001,1000002", "-b", "5", "-s", "2")
    assert data["beta_class"] == "generic"
    # membership reads the table of all of A, 2 entries here; the walk's
    # table of (2000003 2000005) would exceed the cap
    data = run_json(capsys, "dims", "-A", "2,2000003,2000005", "-b", "3000000", "-s", "2")
    assert data["beta_class"] == "special"
    # 1,000,001 entries exceed the default cap: refused before the table is built
    start = time.perf_counter()
    code, out, err = run(capsys, "dims", "-A", "1000001,1000002", "-b", "1000004000002",
                         "-s", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "resource" in err


def test_term_cap_refuses_exponent_lists_and_polynomials(capsys, monkeypatch):
    monkeypatch.setenv("GKZ_TERM_CAP", "100")
    # 1001 generic exponents; 200 singular ones
    for matrix in ("2,1001", "1,200,201"):
        code, out, err = run(capsys, "exponents", "-A", matrix, "-b", "1")
        assert code == 3 and out == "" and "resource" in err, matrix
    monkeypatch.setenv("GKZ_TERM_CAP", "200")
    # 541 monomials x >= 0 with x_1 + 2 x_2 + 5 x_3 = 100
    code, out, err = run(capsys, "polysol", "-A", "1,2,5", "-b", "100")
    assert code == 3 and out == "" and "resource" in err


def test_closed_stdout_pipe_exits_without_traceback():
    # the series JSON (about 250 KB) overflows the 64 KiB pipe buffer, so the
    # CLI is still writing when the reader goes away
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkzcurve", "series", "-A", "2,3", "-b", "1",
         "--point", "singular", "--index", "1", "--bound", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


#: run by a fresh interpreter: prints the modules that ``import gkzcurve.cli``
#: adds to those the interpreter loaded at start, one a line
NEW_MODULES = """
import sys
before = set(sys.modules)
import gkzcurve.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_leaves_heavy_modules_out():
    # every gkz process pays for what it imports: the records are plain classes
    # because dataclasses imports inspect, ast and dis.  Some interpreters load
    # inspect at start from a site hook, hence the difference, not sys.modules.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", NEW_MODULES], capture_output=True,
                         text=True, env=env, check=True)
    new = set(out.stdout.split())
    assert "gkzcurve.cli" in new
    assert new.isdisjoint({"numpy", "dataclasses", "inspect"}), sorted(new)


# ---------------------------------------------------------------------------
# argv fuzz: whatever the arguments, the exit code is 0, 2 or 3

GARBAGE = st.text(alphabet="0123456789,-/.xe[]{}:k ", max_size=10)
MATRIX = st.one_of(
    st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True).map(sorted),
    st.lists(st.integers(-1, 12), min_size=1, max_size=4),
).map(lambda xs: ",".join(map(str, xs)))
SMALL_INT = st.integers(-3, 30).map(str)
RATIONAL = st.fractions(-6, 20, max_denominator=4).map(str)
F_TABLE = st.lists(st.fixed_dictionaries({"k": st.integers(-1, 3), "m": st.integers(-1, 5),
                                          "coeff": RATIONAL}), max_size=3).map(json.dumps)
POINT = st.sampled_from(["singular", "generic", "modified"])
SERIES_OPTS = {"--bound": SMALL_INT, "--point": POINT, "--index": SMALL_INT}
# subcommand -> (required options, optional options)
COMMANDS = {
    "exponents": ({"-A": MATRIX}, {"-b": RATIONAL}),
    "series": ({"-A": MATRIX}, {"-b": RATIONAL, **SERIES_OPTS}),
    "verify": ({"-A": MATRIX}, {"-b": RATIONAL, **SERIES_OPTS}),
    "gevrey-index": ({"-A": MATRIX, "--var": SMALL_INT},
                     {"-b": RATIONAL, "--min-terms": SMALL_INT, **SERIES_OPTS}),
    "slopes": ({"-A": MATRIX}, {}),
    "dims": ({"-A": MATRIX}, {"-b": RATIONAL, "-s": st.one_of(RATIONAL, st.just("inf"))}),
    "restrict": ({"-A": MATRIX}, {"-b": RATIONAL}),
    "homogenize": ({"-A": MATRIX}, {"-b": RATIONAL}),
    "bfunction": ({"-k": SMALL_INT, "-a": SMALL_INT, "-b": SMALL_INT}, {}),
    "solve-ext1": ({"-A": MATRIX}, {"-b": RATIONAL, "--epsilon": RATIONAL,
                                    "--f": F_TABLE, "--terms": SMALL_INT}),
    "polysol": ({"-A": MATRIX}, {"-b": RATIONAL}),
}


@st.composite
def argvs(draw):
    """A subcommand with its required options, some optional ones, and at
    most one value replaced by garbage."""
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[cmd]
    options = {**required, **optional}
    flags = list(required)
    if optional:
        flags += draw(st.lists(st.sampled_from(sorted(optional)), unique=True))
    values = [draw(options[flag]) for flag in flags]
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(GARBAGE)
    argv = [cmd]
    for flag, value in zip(flags, values):
        argv += [flag, value]
    if cmd != "bfunction" and draw(st.booleans()):
        argv += ["--output", "text"]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
@example(argv=["gevrey-index", "-A", "1,2", "--var", "0", "--min-terms", "0"])
def test_fuzz_argv_exit_codes(monkeypatch, argv):
    monkeypatch.setenv("GKZ_TERM_CAP", "2000")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
